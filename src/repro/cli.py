"""Command-line interface: collect, inspect, train, predict, serve.

The paper describes "a pipeline that can be integrated into the
development phase of applications"; this CLI is that integration
surface::

    python -m repro collect --tags C F --per-problem 24 --out corpus.jsonl
    python -m repro stats   --db corpus.jsonl
    python -m repro train   --db corpus.jsonl --tag C --out model.npz \
                            --checkpoint-every 2
    python -m repro train   --db corpus.jsonl --resume model.npz \
                            --out model.npz          # finish a killed run
    python -m repro serve   --model model.npz < requests.jsonl
    python -m repro predict --db corpus.jsonl --tag C --model model.npz \
                            --old old.cpp --new new.cpp

``repro train`` runs through the :mod:`repro.engine` training engine:
``--checkpoint-every N`` writes a resumable format-v2 checkpoint
(weights + optimizer moments + RNG stream + counters) every N epochs,
and ``--resume ckpt`` continues a killed run **bitwise-identically** to
an uninterrupted one (the checkpoint carries the experiment recipe, so
only ``--db`` must be re-supplied).

``repro serve``
---------------
Keeps the trained model resident and answers a stream of JSONL
requests — one JSON object per line on stdin, one response per line on
stdout (see :mod:`repro.serve` for the request lifecycle: parse ->
canonical hash -> LRU cache -> micro-batcher -> fused forest encode).
Request shapes::

    {"id": 1, "op": "embed",   "source": "int main() { ... }"}
    {"id": 2, "op": "compare", "old": "...", "new": "...",
     "threshold": 0.7}                       # regression check
    {"id": 3, "op": "compare", "first": "...", "second": "..."}
    {"id": 4, "op": "rank", "candidates": ["...", "..."],
     "baseline": "..."}
    {"id": 5, "op": "stats"}

Responses echo ``id`` and carry ``"ok": true`` plus the result fields
(``embedding``, ``regression_probability``/``flagged``,
``p_first_slower``, ``ranking``, ...), or ``"ok": false`` with an
``error`` string. ``--requests``/``--out`` switches to bulk file mode:
the whole file's distinct trees are pre-encoded in maximal fused
batches, then every request is answered from cache. ``train`` writes
versioned checkpoints (weights + encoder config + vocab in one
``.npz``) that ``predict``/``serve`` reload without any re-specified
configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .core import ENCODER_KINDS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Comparative code-performance prediction "
                    "(ISPASS 2021 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    collect = sub.add_parser("collect", help="generate and judge a corpus")
    collect.add_argument("--tags", nargs="+", default=["C"],
                         help="Table-I tags (A-I) and/or 'MP'")
    collect.add_argument("--per-problem", type=int, default=24)
    collect.add_argument("--scale", type=float, default=0.4)
    collect.add_argument("--seed", type=int, default=1278)
    collect.add_argument("--lint", action="store_true",
                         help="run the static-analysis lint gate on every "
                              "generated solution (strict: a finding not "
                              "covered by the baseline aborts collection)")
    collect.add_argument("--out", required=True)

    stats = sub.add_parser("stats", help="Table-I statistics of a corpus")
    stats.add_argument("--db", required=True)

    lint = sub.add_parser(
        "lint-corpus",
        help="CFG/dataflow lint over generated (or stored) programs")
    lint.add_argument("--tags", nargs="+", default=None,
                      help="Table-I tags (A-I) and/or 'MP' "
                           "(default: all of them)")
    lint.add_argument("--per-problem", type=int, default=12,
                      help="generated samples per problem family")
    lint.add_argument("--scale", type=float, default=0.4)
    lint.add_argument("--seed", type=int, default=1278)
    lint.add_argument("--db", default=None,
                      help="lint the submissions of an existing corpus "
                           "file instead of generating programs")
    lint.add_argument("--baseline", default=None,
                      help="suppression file (default: the bundled "
                           "corpus baseline)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="report every finding, ignoring suppressions")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable report on stdout")

    backend_help = ("kernel backend: numpy64 (default) or numpy32 "
                    "(float32 end-to-end); overrides REPRO_BACKEND")

    train = sub.add_parser("train", help="train a comparative model")
    train.add_argument("--backend", default=None, help=backend_help)
    train.add_argument("--db", required=True)
    train.add_argument("--tag", default=None,
                       help="problem tag (required unless --resume, which "
                            "recovers it from the checkpoint)")
    # model/data knobs default to None so --resume can tell "explicitly
    # passed" (must match the checkpoint) from "left to default"
    train.add_argument("--encoder", choices=list(ENCODER_KINDS),
                       default=None, help="(default: treelstm)")
    train.add_argument("--epochs", type=int, default=None,
                       help="epoch budget (default 6; with --resume, "
                            "extends the stored budget when larger)")
    train.add_argument("--pairs", type=int, default=None,
                       help="(default: 100)")
    train.add_argument("--embedding-dim", type=int, default=None,
                       help="(default: 16)")
    train.add_argument("--hidden", type=int, default=None,
                       help="(default: 16)")
    train.add_argument("--seed", type=int, default=None,
                       help="(default: 0)")
    train.add_argument("--resume", default=None, metavar="CKPT",
                       help="continue a killed run from its training "
                            "checkpoint (bitwise-identical to an "
                            "uninterrupted run)")
    train.add_argument("--cast", action="store_true",
                       help="with --resume: permit resuming a "
                            "checkpoint whose recorded dtype differs "
                            "from the active backend's (the "
                            "continuation is no longer bitwise)")
    train.add_argument("--checkpoint-every", type=int, default=0,
                       metavar="N",
                       help="write a resumable training checkpoint to "
                            "--out every N epochs (0 disables)")
    train.add_argument("--out", required=True)

    predict = sub.add_parser("predict",
                             help="compare two source files with a model")
    predict.add_argument("--model", required=True)
    predict.add_argument("--old", required=True)
    predict.add_argument("--new", required=True)
    predict.add_argument("--threshold", type=float, default=0.5)
    predict.add_argument("--backend", default=None, help=backend_help)
    predict.add_argument("--cast", action="store_true",
                         help="permit loading a checkpoint whose recorded "
                              "dtype differs from the active backend's")

    serve = sub.add_parser(
        "serve", help="online prediction service (JSONL request/response)")
    serve.add_argument("--model", required=True,
                       help="versioned checkpoint from `repro train`")
    serve.add_argument("--backend", default=None, help=backend_help)
    serve.add_argument("--cast", action="store_true",
                       help="permit serving a checkpoint whose recorded "
                            "dtype differs from the active backend's")
    serve.add_argument("--requests", default=None,
                       help="bulk mode: JSONL request file (default: stdin "
                            "stream)")
    serve.add_argument("--out", default=None,
                       help="bulk mode: response file (default: stdout)")
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument("--cache-size", type=int, default=1024)
    serve.add_argument("--cache-max-nodes", type=int, default=None,
                       help="admission threshold: trees with more AST "
                            "nodes are served but never cached")
    serve.add_argument("--stats", action="store_true",
                       help="print service counters to stderr on exit")
    # cluster mode (repro.serve.cluster): a supervised worker pool
    # behind a TCP front door instead of one in-process service
    serve.add_argument("--workers", type=int, default=0,
                       help="cluster mode: number of supervised worker "
                            "processes (0 = classic in-process serving)")
    serve.add_argument("--listen", default="127.0.0.1:7311",
                       metavar="HOST:PORT",
                       help="cluster mode: TCP bind address "
                            "(default: %(default)s)")
    serve.add_argument("--watch", action="store_true",
                       help="cluster mode: watch --model for new "
                            "checkpoints and hot-swap workers "
                            "(blue/green, zero downtime)")
    serve.add_argument("--request-timeout-ms", type=float, default=10_000,
                       help="cluster mode: per-request deadline")
    serve.add_argument("--high-water", type=int, default=64,
                       help="cluster mode: per-shard in-flight cap; "
                            "beyond it requests get an 'overloaded' "
                            "reply instead of queueing")
    serve.add_argument("--stats-every", type=float, default=0.0,
                       metavar="SECONDS",
                       help="cluster mode: emit an aggregated stats "
                            "JSONL line (incl. the obs-registry metrics "
                            "snapshot) to stderr every N seconds")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="serve a Prometheus-format scrape endpoint "
                            "on this HTTP port (GET /metrics; "
                            "/metrics.json for the JSON variant); works "
                            "in both single-process and cluster mode")
    serve.add_argument("--seed", type=int, default=0,
                       help="cluster mode: seed for supervised-restart "
                            "backoff jitter")
    return parser


def _default_lint_baseline():
    from .lang.analysis import LintBaseline

    path = Path(__file__).parent / "corpus" / "lint_baseline.json"
    return LintBaseline.load(path)


def _families_for(tags, scale):
    from .corpus import family_for_tag, mp_families

    families = []
    for tag in tags:
        if tag.upper() == "MP":
            families.extend(mp_families(count=10, scale=scale))
        else:
            families.append(family_for_tag(tag.upper(), scale=scale))
    return families


def _cmd_collect(args) -> int:
    from .corpus import Collector

    families = _families_for(args.tags, args.scale)
    collector = Collector(
        seed=args.seed, lint=args.lint,
        lint_baseline=_default_lint_baseline() if args.lint else None)
    db = collector.collect(families, per_problem=args.per_problem)
    db.save(args.out)
    linted = " (lint gate on)" if args.lint else ""
    print(f"collected {len(db)} accepted submissions across "
          f"{len(db.problems())} problems -> {args.out}{linted}")
    return 0


def _cmd_lint_corpus(args) -> int:
    import numpy as np

    from .corpus import SubmissionDatabase
    from .corpus.styles import Style
    from .lang.analysis import LintBaseline, lint_source
    from .corpus.registry import TABLE1_TAGS

    if args.no_baseline:
        baseline = None
    elif args.baseline:
        baseline = LintBaseline.load(args.baseline)
    else:
        baseline = _default_lint_baseline()

    findings = []
    programs = 0
    if args.db:
        db = SubmissionDatabase.load(args.db)
        for tag in db.problems():
            for submission in db.submissions(tag):
                programs += 1
                context = f"{submission.problem_tag}/{submission.variant}"
                findings.extend(lint_source(submission.source,
                                            context=context))
    else:
        tags = args.tags or list(TABLE1_TAGS) + ["MP"]
        for family in _families_for(tags, args.scale):
            seed = (args.seed * 1_000_003
                    + sum(ord(c) for c in family.tag)) % (2 ** 63)
            rng = np.random.default_rng(seed)
            for _ in range(args.per_problem):
                solution = family.emit_solution(rng, Style(rng))
                programs += 1
                context = f"{family.tag}/{solution.variant}"
                findings.extend(lint_source(solution.source,
                                            context=context))

    suppressed = []
    if baseline is not None:
        findings, suppressed = baseline.split(findings)
    if args.json:
        print(json.dumps({
            "programs": programs,
            "unsuppressed": [f.to_dict() for f in findings],
            "suppressed": [f.to_dict() for f in suppressed]}, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        print(f"lint-corpus: {programs} programs, "
              f"{len(findings)} unsuppressed finding(s), "
              f"{len(suppressed)} suppressed")
    return 1 if findings else 0


def _cmd_stats(args) -> int:
    from .corpus import SubmissionDatabase
    from .viz import table

    db = SubmissionDatabase.load(args.db)
    rows = [[s.tag, s.count, f"{s.min_ms:.0f}", f"{s.median_ms:.0f}",
             f"{s.max_ms:.0f}", f"{s.stddev_ms:.0f}"]
            for s in db.all_stats()]
    print(table(["Tag", "Count", "Min(ms)", "Median(ms)", "Max(ms)",
                 "StdDev"], rows))
    return 0


def _first(*values):
    """First non-None value (None-aware fallback chain)."""
    for value in values:
        if value is not None:
            return value
    return None


def _apply_backend(args, activate: bool = True) -> None:
    """Select ``--backend`` for this process *and* its children.

    The env var is set so spawned cluster workers (which inherit the
    environment) run the same backend as the front door. The name is
    checked against :mod:`repro.nn.policy`, which loads no numpy, so a
    cluster front door (``activate=False``) stays numpy-free.
    """
    name = getattr(args, "backend", None)
    if not name:
        return
    from .nn.policy import check_backend

    try:
        check_backend(name)
    except ValueError as error:
        raise SystemExit(f"--backend: {error}")
    os.environ["REPRO_BACKEND"] = name
    if activate:
        from .nn import backend as nn_backend

        nn_backend.set_backend(name)


def _cmd_train(args) -> int:
    from .core import ExperimentConfig, TrainConfig, run_experiment
    from .corpus import SubmissionDatabase
    from .engine import Checkpointing

    _apply_backend(args)
    db = SubmissionDatabase.load(args.db)
    if args.resume:
        # Everything a faithful continuation needs travels inside the
        # checkpoint: architecture + vocab (model section), the
        # TrainConfig/RNG/optimizer state (training section), and the
        # experiment data recipe (extra section). The CLI only re-derives
        # the pair sample, which is deterministic in the stored seed.
        from .serve.checkpoint_meta import read_checkpoint_meta

        meta = read_checkpoint_meta(args.resume)
        if not meta.get("training"):
            raise SystemExit(f"{args.resume} is an inference-only "
                             "checkpoint; it cannot resume training")
        experiment = meta.get("extra", {}).get("experiment", {})
        tag = args.tag or experiment.get("tag")
        if not tag:
            raise SystemExit("--tag is required (the checkpoint does not "
                             "record one)")
        model_cfg = meta["model"]
        # A resume continues the checkpointed run; explicitly passed
        # model/data flags that contradict it would be silently ignored
        # otherwise, so refuse them. A flag whose value the checkpoint
        # simply does not record (programmatic checkpoints without the
        # CLI's experiment recipe) is accepted and used instead —
        # mirroring how --tag falls back.
        stored = {"--tag": (args.tag, experiment.get("tag")),
                  "--encoder": (args.encoder, model_cfg["encoder_kind"]),
                  "--embedding-dim": (args.embedding_dim,
                                      model_cfg["embedding_dim"]),
                  "--hidden": (args.hidden, model_cfg["hidden_size"]),
                  "--pairs": (args.pairs, experiment.get("train_pairs")),
                  "--seed": (args.seed, experiment.get("seed"))}
        conflicts = [f"{flag} {given!r} (checkpoint: {kept!r})"
                     for flag, (given, kept) in stored.items()
                     if given is not None and kept is not None
                     and given != kept]
        if conflicts:
            raise SystemExit(
                "--resume continues the checkpointed run; conflicting "
                "flags: " + ", ".join(conflicts) +
                ". Drop them (or retrain from scratch).")
        train_cfg = TrainConfig.from_payload(meta["training"]["config"])
        if args.epochs is not None and args.epochs > train_cfg.epochs:
            train_cfg.epochs = args.epochs
        config = ExperimentConfig(
            encoder_kind=model_cfg["encoder_kind"],
            embedding_dim=model_cfg["embedding_dim"],
            hidden_size=model_cfg["hidden_size"],
            num_layers=model_cfg["num_layers"],
            direction=model_cfg["direction"],
            train_fraction=experiment.get("train_fraction", 0.75),
            train_pairs=_first(experiment.get("train_pairs"), args.pairs,
                               100),
            eval_pairs=experiment.get("eval_pairs", 50),
            two_way=experiment.get("two_way", False),
            seed=_first(experiment.get("seed"), args.seed, 0),
            train=train_cfg)
        resume_from = args.resume
    else:
        if not args.tag:
            raise SystemExit("--tag is required when not resuming")
        tag = args.tag
        epochs = _first(args.epochs, 6)
        pairs = _first(args.pairs, 100)
        seed = _first(args.seed, 0)
        config = ExperimentConfig(
            encoder_kind=_first(args.encoder, "treelstm"),
            embedding_dim=_first(args.embedding_dim, 16),
            hidden_size=_first(args.hidden, 16), train_pairs=pairs,
            eval_pairs=max(20, pairs // 2), seed=seed,
            train=TrainConfig(epochs=epochs, seed=seed))
        resume_from = None

    extra = {
        "tag": tag,
        "experiment": {
            "tag": tag, "train_fraction": config.train_fraction,
            "train_pairs": config.train_pairs,
            "eval_pairs": config.eval_pairs, "two_way": config.two_way,
            "seed": config.seed,
        },
    }
    callbacks = []
    if args.checkpoint_every:
        # final_write=False: the CLI writes its own end-of-run checkpoint
        # below (same path, plus the evaluation in extra)
        callbacks.append(Checkpointing(args.out, every=args.checkpoint_every,
                                       extra=extra, final_write=False))
    subs = db.submissions(tag)
    result = run_experiment(subs, config, callbacks=callbacks,
                            resume_from=resume_from,
                            resume_cast=args.cast)

    engine = result.trainer.engine
    written = engine.save_checkpoint(
        args.out, extra=dict(extra, epochs=engine.state.epoch,
                             accuracy=result.evaluation.accuracy))
    resumed = f" (resumed from {args.resume})" if args.resume else ""
    print(f"trained on {len(subs)} submissions; held-out accuracy="
          f"{result.evaluation.accuracy:.3f}; model -> {written}{resumed}")
    return 0


def _cmd_predict(args) -> int:
    from .core import PerformanceGate
    from .serve.checkpoint import load_checkpoint

    _apply_backend(args)
    gate = PerformanceGate(load_checkpoint(args.model, cast=args.cast),
                           flag_threshold=args.threshold)
    old_source = Path(args.old).read_text()
    new_source = Path(args.new).read_text()
    report = gate.check(old_source, new_source)
    flag = "FLAG: likely regression" if report["flagged"] else "pass"
    print(f"P(new version is slower) = "
          f"{report['regression_probability']:.3f} -> {flag}")
    return 0 if not report["flagged"] else 2


def _cmd_serve_cluster(args) -> int:
    """Cluster mode: supervised worker pool behind a TCP front door."""
    from .serve.cluster import ClusterServer
    from .serve.supervisor import SupervisorConfig

    host, _, port = args.listen.rpartition(":")
    config = SupervisorConfig(
        request_timeout_ms=args.request_timeout_ms,
        high_water=args.high_water, watch=args.watch, seed=args.seed,
        stats_interval_ms=args.stats_every * 1000.0,
        max_batch=args.max_batch, cache_size=args.cache_size,
        cache_max_nodes=args.cache_max_nodes, cast=args.cast)
    server = ClusterServer(
        args.model, workers=args.workers, host=host or "127.0.0.1",
        port=int(port), config=config,
        stats_stream=sys.stderr if args.stats_every > 0 else None,
        metrics_port=args.metrics_port)
    with server:
        server.start()
        bound_host, bound_port = server.address
        watching = " (hot-swap watch on)" if args.watch else ""
        scraping = (f" metrics on :{server.metrics_server.port}"
                    if server.metrics_server is not None else "")
        print(f"cluster: {args.workers} workers on "
              f"{bound_host}:{bound_port}{watching}{scraping}",
              file=sys.stderr)
        server.serve_forever()
    if args.stats:
        print(json.dumps(server.supervisor.stats(), indent=2),
              file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    # Cluster mode hands off before anything numeric is imported: the
    # front door only parses and routes (see docs/serving.md).
    _apply_backend(args, activate=not args.workers)
    if args.workers:
        return _cmd_serve_cluster(args)

    from .serve.protocol import error_reply, handle_request, \
        request_sources, serve_lines, ERR_BAD_JSON
    from .serve.service import PredictionService

    # The CLI drives the service sequentially, so the batcher runs
    # inline (the latency trigger only matters for concurrent clients
    # embedding PredictionService directly).
    service = PredictionService.from_checkpoint(
        args.model, cast=args.cast, max_batch=args.max_batch,
        cache_size=args.cache_size,
        cache_max_nodes=args.cache_max_nodes, threaded=False)
    metrics_server = None
    if args.metrics_port is not None:
        from .obs.expose import MetricsHTTPServer
        metrics_server = MetricsHTTPServer(service.metrics_snapshot,
                                           port=args.metrics_port)
        print(f"metrics on :{metrics_server.port}", file=sys.stderr)
    with service:
        if args.requests is not None:
            # Bulk mode: pre-encode every distinct tree of the file in
            # maximal fused batches, then answer from cache. A bad line
            # becomes one error response, same as stream mode.
            entries = []  # (request dict, None) or (None, error response)
            for line in Path(args.requests).read_text().splitlines():
                if not line.strip():
                    continue
                try:
                    entries.append((json.loads(line), None))
                except json.JSONDecodeError as error:
                    entries.append(
                        (None, error_reply(ERR_BAD_JSON,
                                           f"bad JSON: {error}")))
            service.prewarm([s for r, _ in entries if r is not None
                             for s in request_sources(r)])
            lines = [json.dumps(handle_request(service, r)
                                if r is not None else bad)
                     for r, bad in entries]
            payload = "\n".join(lines) + ("\n" if lines else "")
            if args.out is not None:
                Path(args.out).write_text(payload)
            else:
                sys.stdout.write(payload)
        else:
            # Stream mode: one request per stdin line, answer per line
            # (serve_lines is the hardened loop: any bad line becomes
            # one structured error response, and the stream continues).
            for response in serve_lines(service, sys.stdin):
                sys.stdout.write(json.dumps(response) + "\n")
                sys.stdout.flush()
        if args.stats:
            print(json.dumps(service.stats(), indent=2), file=sys.stderr)
    if metrics_server is not None:
        metrics_server.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"collect": _cmd_collect, "stats": _cmd_stats,
                "lint-corpus": _cmd_lint_corpus,
                "train": _cmd_train, "predict": _cmd_predict,
                "serve": _cmd_serve}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
