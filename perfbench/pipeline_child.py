"""One run of the paper pipeline, in its own process.

Launched by ``run.py``; prints ``ready`` once imports and the problem
families are in place (the end of set-up), then builds and judges the
corpus with ``Collector.collect`` and trains and scores one problem
with ``run_experiment``, as ``repro collect`` + ``repro train --tag``
do. The result goes to ``--out`` as JSON.

With ``--trace 1`` spans are recorded around the program's public
calls (``ProblemFamily.generate``, ``Judge.judge_source``,
``Engine.fit`` and its callbacks), the trained model is checkpointed,
and the per-layer replays run after the pipeline has finished.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, Spans, vmhwm_mb  # noqa: E402

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.core import run_experiment  # noqa: E402
from repro.corpus import Collector, ProblemFamily  # noqa: E402
from repro.corpus.registry import TABLE1_TAGS, family_for_tag  # noqa: E402
from repro.engine.loop import Engine  # noqa: E402
from repro.judge.runner import Judge  # noqa: E402

import inputs  # noqa: E402
import replays  # noqa: E402


def _instrument(spans: Spans, clock: replays.FitClock,
                judged: list, generated: list) -> None:
    """Wrap the public calls the pipeline makes into each layer. The
    ``Engine.fit`` entry and each ``Judge.judge_source`` call are timed
    in every run (two clock reads per call); spans and the generate
    timer are installed for the traced run alone."""
    fit = Engine.fit
    judge_source = Judge.judge_source

    def timed_fit(engine, train_pairs, val_pairs=None):
        clock.called = time.monotonic()
        clock.pairs = len(train_pairs)
        with spans.span("engine.fit"):
            return fit(engine, train_pairs, val_pairs)

    def timed_judge(judge, source, tests):
        with spans.span("judge.judge_source"):
            start = time.monotonic()
            report = judge_source(judge, source, tests)
            elapsed = time.monotonic() - start
        judged.append((elapsed, sum(report.test_cycles)))
        return report

    Engine.fit = timed_fit
    Judge.judge_source = timed_judge
    if not spans.enabled:
        return
    generate = ProblemFamily.generate

    def traced_generate(family, rng):
        with spans.span("corpus.generate", rid=family.tag) as span:
            solution = generate(family, rng)
        generated.append(span["end"] - span["start"])
        return solution

    ProblemFamily.generate = traced_generate


def _layer_metrics(spans, clock, judged, generated, result, db, config,
                   checkpoint: Path) -> dict:
    from repro.data.pairs import sample_pairs

    engine = result.trainer.engine
    model = engine.model
    layer = clock.metrics(config.train.epochs)
    layer.update(replays.judged([(t, c, g) for (t, c), g
                                 in zip(judged, generated)]))
    sources = [s.source for tag in db.problems()
               for s in db.submissions(tag)]
    metrics, trees = replays.frontend(spans, sources,
                                      model.featurizer.vocab)
    layer.update(metrics)
    layer.update(replays.encode(spans, model, trees,
                                config.train.eval_batch_size))
    layer.update(replays.router(spans, checkpoint, [
        {"op": "compare", "first": a.source, "second": b.source}
        for a, b in zip(result.test_submissions,
                        result.test_submissions[1:])]))
    # last: the replayed optimizer steps change the weights
    pairs = sample_pairs(result.train_submissions, config.train.batch_size,
                         np.random.default_rng(0))
    layer.update(replays.train_step(spans, model, engine.optimizer, pairs,
                                    engine.config.grad_clip))
    return layer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--checkpoint", type=Path)
    args = parser.parse_args()

    others = [family_for_tag(tag, scale=inputs.PIPELINE_SCALE)
              for tag in TABLE1_TAGS if tag != inputs.TRAIN_TAG]
    train_family = family_for_tag(inputs.TRAIN_TAG,
                                  scale=inputs.PIPELINE_SCALE)
    config = inputs.experiment_config(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    spans = Spans(enabled=bool(args.trace))
    clock = replays.FitClock(spans)
    judged: list = []
    generated: list = []
    _instrument(spans, clock, judged, generated)

    start = time.monotonic()
    with spans.span("pipeline"):
        with spans.span("corpus.collect"):
            collector = Collector(seed=args.seed)
            db = collector.collect(others, per_problem=inputs.PER_PROBLEM)
            collector.collect([train_family],
                              per_problem=inputs.TRAIN_PER_PROBLEM,
                              database=db)
        collected = time.monotonic()
        with spans.span("core.run_experiment"):
            result = run_experiment(db.submissions(inputs.TRAIN_TAG),
                                    config, callbacks=[clock])
    end = time.monotonic()

    evaluation = result.evaluation
    report = {
        "digest": inputs.corpus_digest(db),
        "accuracy": evaluation.accuracy,
        "submissions": len(db),
        "collect_s": collected - start,
        "fit_s": clock.end - clock.called,
        "pair_visits": clock.pairs * config.train.epochs,
        "eval_s": end - clock.end,
        "eval_pairs": evaluation.num_pairs,
        "pipeline_s": end - start,
        "step_s": clock.step_s,
        "judge_s": [t for t, _ in judged],
        "judge_cycles": sum(c for _, c in judged),
        "peak_rss_mb": vmhwm_mb(os.getpid()),
    }
    if args.trace:
        from repro.serve import save_checkpoint

        save_checkpoint(result.trainer.engine.model, args.checkpoint)
        report["layer"] = _layer_metrics(spans, clock, judged, generated,
                                         result, db, config,
                                         args.checkpoint)
        report["spans"] = spans.spans
        report["serve_requests"] = [
            {"op": "compare", "first": a.source, "second": b.source}
            for a, b in zip(result.test_submissions,
                            result.test_submissions[::-1])]
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
