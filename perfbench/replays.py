"""Per-layer replays: the benchmark calls each layer's public function
on the workload's own inputs, one span per call.

Used by the traced runs of every workload, so each per-layer metric is
measured on every workload (on its own inputs).
"""

from __future__ import annotations

import time

import numpy as np
from repro.engine import Callback

from common import Spans, percentile


def _mean_ms(spans: Spans, name: str) -> float:
    return 1000 * float(np.mean(spans.durations(name)))


def frontend(spans: Spans, sources: list[str], vocab) -> tuple[dict, list]:
    """``repro.lang.parse`` and ``TreeFeaturizer.featurize`` with the
    memo off; returns metrics and the featurized trees."""
    from repro.core.features import TreeFeaturizer
    from repro.lang import parse

    with spans.span("replay.parse"):
        for source in sources:
            with spans.span("lang.parse"):
                parse(source)
    cold = TreeFeaturizer(vocab=vocab, cache_size=0)
    trees = []
    with spans.span("replay.featurize"):
        for source in sources:
            with spans.span("features.featurize"):
                trees.append(cold.featurize(source))
    nodes = [t.num_nodes for t in trees]
    return {"lang.parse_ms": _mean_ms(spans, "lang.parse"),
            "features.featurize_ms": _mean_ms(spans, "features.featurize"),
            "features.adjacency_kb": float(np.mean(
                [t.adjacency.nbytes for t in trees]) / 1024.0),
            "workload.nodes_p50": percentile(nodes, 50),
            "workload.nodes_p95": percentile(nodes, 95)}, trees


def encode(spans: Spans, model, trees: list, batch: int) -> dict:
    """``encoder.encode_batch`` under ``no_grad`` in batches of
    ``batch`` trees."""
    from repro.nn.tensor import no_grad

    with no_grad(), spans.span("replay.encode"):
        start = time.monotonic()
        for i in range(0, len(trees), batch):
            with spans.span("nn.encode_batch"):
                model.encoder.encode_batch(trees[i:i + batch])
        elapsed = time.monotonic() - start
    return {"nn.encode_trees_per_s": len(trees) / elapsed}


def train_step(spans: Spans, model, optimizer, pairs, grad_clip: float,
               repeats: int = 3) -> dict:
    """One optimizer step on ``pairs``, replayed ``repeats`` times:
    forward (``pair_logits`` + ``bce_with_logits``), ``backward``, and
    ``clip_grad_norm`` + ``Adam.step``."""
    from repro.nn.loss import bce_with_logits
    from repro.nn.optim import clip_grad_norm

    batch = [(model.featurizer(p.first.source),
              model.featurizer(p.second.source)) for p in pairs]
    targets = np.array([p.label for p in pairs], dtype=float)
    with spans.span("replay.step"):
        for _ in range(repeats):
            optimizer.zero_grad()
            with spans.span("nn.forward"):
                loss = bce_with_logits(model.pair_logits(batch), targets)
            with spans.span("nn.backward"):
                loss.backward()
            with spans.span("nn.optimizer"):
                clip_grad_norm(model.parameters(), grad_clip)
                optimizer.step()
    return {f"nn.{name}_ms": 1000 * float(np.median(
        spans.durations(f"nn.{name}")))
        for name in ("forward", "backward", "optimizer")}


def router(spans: Spans, checkpoint, requests: list[dict]) -> dict:
    """``ClusterServer.router.shard_for`` on the workload's requests
    (the server is constructed, never started)."""
    from repro.serve.cluster import ClusterServer

    route = ClusterServer(checkpoint, workers=2).router
    with spans.span("replay.router"):
        for request in requests:
            with spans.span("cluster.router.shard_for"):
                route.shard_for(request)
    return {"cluster.router_ms": _mean_ms(spans, "cluster.router.shard_for")}


class FitClock(Callback):
    """Engine callback timing ``Engine.fit`` through its public events:
    ``called`` is set by the caller, ``on_fit_start`` marks the end of
    featurization, ``on_batch_end`` records each step."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self.called = self.ready = self.end = None
        self.pairs = 0
        self.step_s: list[float] = []

    def on_fit_start(self, engine) -> None:
        self.ready = time.monotonic()
        self.spans.add("engine.prepare", self.called, self.ready)

    def on_batch_end(self, engine) -> None:
        now = time.monotonic()
        self.step_s.append(engine.state.last_step_s)
        self.spans.add("engine.step", now - engine.state.last_step_s, now)

    def on_fit_end(self, engine) -> None:
        self.end = time.monotonic()

    def metrics(self, epochs: int) -> dict:
        return {"engine.prepare_s": self.ready - self.called,
                "engine.step_ms_p50": 1000 * percentile(self.step_s, 50),
                "engine.step_ms_p99": 1000 * percentile(self.step_s, 99),
                "engine.train_pairs_per_s":
                    self.pairs * epochs / (self.end - self.called)}


def judged(items: list[tuple]) -> dict:
    """Per-submission judge metrics from ``(seconds, cycles, generate
    seconds)`` triples."""
    judge_s = sum(t for t, _, _ in items)
    generate_s = sum(g for _, _, g in items)
    return {"judge.judge_ms": 1000 * judge_s / len(items),
            "judge.mcycles_per_s": sum(c for _, c, _ in items)
            / judge_s / 1e6,
            "corpus.generate_ms": 1000 * generate_s / len(items),
            "corpus.subs_per_s": len(items) / (judge_s + generate_s)}
