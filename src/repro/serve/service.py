"""`PredictionService`: the long-lived facade over model + cache + batcher.

One instance owns a trained :class:`~repro.core.ComparativeModel` (or
loads one from a versioned checkpoint) and answers a stream of embed /
compare / rank queries. Every request follows the same lifecycle::

    source --featurize--> canonical key --cache?--> batcher --forest-->
    embedding --classifier GEMM--> answer

so the encoder — the only expensive stage — runs exactly once per
*distinct canonical AST*, and always inside a fused forest batch.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..core.features import TreeFeatures
from ..core.model import ComparativeModel
from ..nn import backend as nn_backend
from ..nn.tensor import Tensor, no_grad
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from .batcher import MicroBatcher
from .cache import LruCache, canonical_key
from .checkpoint import load_checkpoint

__all__ = ["PredictionService", "RequestSourceError"]


class RequestSourceError(ValueError):
    """One source of a request failed featurization (parse error,
    non-string payload, ...).

    Raised *before* any encoding work happens, so a bad source in the
    middle of an ``embed_many``/``rank`` list costs nothing and leaves
    no half-resolved batcher tickets. Carries which source failed
    (``index``/``label``) and the original exception (``cause``); the
    message embeds the cause's type name so pre-cluster clients that
    string-match on e.g. ``"ParseError"`` keep working.
    """

    def __init__(self, index: int, label: str, cause: Exception):
        self.index = index
        self.label = label
        self.cause = cause
        super().__init__(
            f"{label}: {type(cause).__name__}: {cause}")


class PredictionService:
    """Online comparative-performance prediction over a resident model.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.ComparativeModel`.
    max_batch, max_delay_ms:
        Micro-batcher flush triggers (see :mod:`repro.serve.batcher`).
    cache_size:
        Capacity of the canonical-AST embedding LRU (0 disables).
    cache_max_nodes:
        Admission threshold: embeddings of trees with more AST nodes
        than this are computed but never cached, so one giant tree
        cannot evict a working set of small ones. ``None`` (default)
        admits everything.
    threaded:
        ``True`` starts the background flush worker (interactive /
        multi-client serving); ``False`` runs the batcher inline, which
        the bulk file mode uses to get maximal batches with no threads.
    """

    def __init__(self, model: ComparativeModel, max_batch: int = 32,
                 max_delay_ms: float = 2.0, cache_size: int = 1024,
                 cache_max_nodes: int | None = None,
                 threaded: bool = True,
                 registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None):
        self.model = model
        model.eval()
        # One registry underneath the whole service: cache and batcher
        # register their families on it, so a single snapshot (and the
        # scrape endpoint serving it) covers every counter the stats()
        # dicts have historically reported.
        self.registry = registry or MetricsRegistry()
        self.tracer = tracer or Tracer()
        self.cache = LruCache(cache_size, admit_max_cost=cache_max_nodes,
                              registry=self.registry)
        self.batcher = MicroBatcher(self._encode_features,
                                    max_batch=max_batch,
                                    max_delay_ms=max_delay_ms,
                                    start=threaded,
                                    registry=self.registry)
        self._requests = self.registry.counter(
            "repro_serve_requests_total", "requests by operation",
            ("op",))
        self._latency = self.registry.histogram(
            "repro_serve_request_latency_seconds",
            "request wall time by operation", ("op",))
        self._requests_by_op = {op: self._requests.labels(op)
                                for op in ("embed", "compare", "rank")}
        self._latency_by_op = {op: self._latency.labels(op)
                               for op in ("embed", "compare", "rank")}
        self._encoded = self.registry.counter(
            "repro_serve_encoded_trees_total",
            "trees pushed through the fused encoder").labels()
        self._encode_seconds = self.registry.counter(
            "repro_serve_encode_seconds_total",
            "wall time spent inside encode_batch").labels()
        self._uptime = self.registry.gauge(
            "repro_serve_uptime_seconds", "seconds since service start",
            agg="last")
        info = nn_backend.describe()
        self.registry.gauge(
            "repro_serve_backend_info", "active kernel backend (labels)",
            ("backend", "dtype"), agg="last").labels(
                str(info["name"]), str(info["dtype"])).set(1)
        # TreeFeaturizer's memo-cache eviction is not thread-safe; all
        # service-side featurization funnels through this lock so the
        # threaded mode really can take concurrent clients.
        self._featurize_lock = threading.Lock()
        self._started = time.monotonic()

    @classmethod
    def from_checkpoint(cls, path, cast: bool = False,
                        **kwargs) -> "PredictionService":
        """Boot a service straight from a versioned checkpoint file.

        ``cast=True`` permits serving a checkpoint whose recorded dtype
        differs from the active backend's (weights are converted on
        load); the default refuses with ``CheckpointDtypeError``.
        """
        return cls(load_checkpoint(path, cast=cast), **kwargs)

    # ------------------------------------------------------------------
    # the encode stage handed to the batcher
    # ------------------------------------------------------------------
    def _encode_features(self, features_list: list[TreeFeatures]) -> np.ndarray:
        # In inline-batcher mode this runs on the requesting thread, so
        # the span lands in that request's trace; in threaded mode the
        # flush worker has no active trace and the span is a no-op.
        trace = self.tracer.active
        with trace.span("fused_encode") as span:
            start = time.perf_counter()
            with no_grad():
                rows = self.model.encoder.encode_batch(features_list).data.copy()
            elapsed = time.perf_counter() - start
            if trace.sampled:
                span.note(trees=len(features_list))
        self._encode_seconds.inc(elapsed)
        self._encoded.inc(len(features_list))
        return rows

    # ------------------------------------------------------------------
    # embeddings (cache + batcher)
    # ------------------------------------------------------------------
    def _featurize_all(self, sources: list[str],
                       labels: list[str] | None = None) -> list[TreeFeatures]:
        """Featurize every source up front, or raise one
        :class:`RequestSourceError` naming the first bad entry.

        Failing *before* any ticket is submitted keeps the request
        all-or-nothing: no encode work is spent on a list that cannot
        be fully answered, and no partial results leak.
        """
        features_list = []
        for i, source in enumerate(sources):
            label = labels[i] if labels is not None else f"source #{i}"
            if not isinstance(source, str):
                raise RequestSourceError(i, label, TypeError(
                    f"expected a source string, got {type(source).__name__}"))
            try:
                with self._featurize_lock:
                    features_list.append(self.model.featurizer(source))
            except Exception as error:
                raise RequestSourceError(i, label, error) from error
        return features_list

    def _cache_pass(self, features_by_row):
        """Phase 2 of an embed: cache lookups, one batcher ticket per
        distinct miss. Returns the output array with hit rows filled."""
        out = np.empty((len(features_by_row),
                        self.model.encoder.output_size))
        tickets: dict[str, object] = {}   # canonical key -> ticket
        node_counts: dict[str, int] = {}  # canonical key -> tree size
        miss_rows: list[tuple[int, str]] = []
        for i, features in enumerate(features_by_row):
            key = canonical_key(features)
            hit = self.cache.get(key)
            if hit is not None:
                out[i] = hit
                continue
            if key not in tickets:
                tickets[key] = self.batcher.submit(features)
                node_counts[key] = features.num_nodes
            miss_rows.append((i, key))
        return out, tickets, node_counts, miss_rows

    def _resolve_misses(self, out, tickets, node_counts, miss_rows):
        """Phase 3: block on the tickets, fill miss rows, feed cache."""
        resolved: dict[str, np.ndarray] = {}
        for i, key in miss_rows:
            if key not in resolved:
                # copy: the resolved row is a view into its flush's
                # whole (B, d) batch array, which a cache entry would
                # otherwise pin for its lifetime
                resolved[key] = np.array(tickets[key].result())
                # node count = admission cost: oversized trees are
                # served but never cached
                self.cache.put(key, resolved[key],
                               cost=node_counts[key])
            out[i] = resolved[key]

    def _embed_sources(self, sources: list[str],
                       labels: list[str] | None = None) -> np.ndarray:
        """Embeddings for ``sources`` (T, d): cache hits cost a lookup,
        misses are submitted together so one fused flush covers them.

        Each phase runs under a span of the request's trace. An
        unsampled request's spans are the shared null guard, so it
        pays only for entering them.
        """
        trace = self.tracer.active
        with trace.span("featurize") as span:
            features_by_row = self._featurize_all(sources, labels)
            if trace.sampled:
                span.note(sources=len(sources))
        with trace.span("cache_lookup") as span:
            out, tickets, node_counts, miss_rows = \
                self._cache_pass(features_by_row)
            if trace.sampled:
                span.note(hits=len(sources) - len(miss_rows),
                          misses=len(miss_rows))
        with trace.span("batch_wait"):
            self._resolve_misses(out, tickets, node_counts, miss_rows)
        return out

    def embed(self, source: str) -> np.ndarray:
        """Latent code vector for one source (served from cache when the
        canonical AST was seen before)."""
        self._requests_by_op["embed"].inc()
        start = time.perf_counter()
        row = self._embed_sources([source])[0]
        self._latency_by_op["embed"].observe(time.perf_counter() - start)
        return row

    def embed_many(self, sources: list[str]) -> np.ndarray:
        """Bulk embeddings, (T, d); counts as ``len(sources)`` requests.

        Edge cases are pinned down: an empty list returns an empty
        ``(0, d)`` array (not a numpy broadcasting accident), and a
        source that fails to parse raises :class:`RequestSourceError`
        naming its index *before* any encoding work happens.
        """
        sources = list(sources)
        self._requests_by_op["embed"].inc(len(sources))
        if not sources:
            return np.zeros((0, self.model.encoder.output_size))
        start = time.perf_counter()
        rows = self._embed_sources(sources)
        self._latency_by_op["embed"].observe(time.perf_counter() - start)
        return rows

    def prewarm(self, sources: list[str]) -> int:
        """Fill the embedding cache for ``sources`` in fused batches.

        Used by the bulk serving path: encode every distinct tree of a
        request file up front, then answer the requests from cache.
        Sources the frontend rejects are skipped (the per-request path
        reports their errors). Does not count toward the request
        counters; returns how many trees actually hit the encoder.
        """
        before = int(self._encoded.value)
        parseable = []
        for source in dict.fromkeys(sources):
            try:
                with self._featurize_lock:
                    self.model.featurizer(source)
            except Exception:
                continue
            parseable.append(source)
        if parseable:
            self._embed_sources(parseable)
        return int(self._encoded.value) - before

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def compare(self, first: str, second: str) -> float:
        """P(label=1) = P(first is slower-or-equal), exactly the
        semantics of ``ComparativeModel.predict_probability`` — but the
        two trees go through cache + one fused batch, not two encodes."""
        self._requests_by_op["compare"].inc()
        start = time.perf_counter()
        z = self._embed_sources([first, second])
        with no_grad():
            logit = self.model.classifier.logit(Tensor(z[0]), Tensor(z[1]))
            prob = float(logit.sigmoid().data)
        self._latency_by_op["compare"].observe(time.perf_counter() - start)
        return prob

    def check_regression(self, old_source: str, new_source: str,
                         threshold: float = 0.5) -> dict:
        """The :class:`~repro.core.PerformanceGate` contract: probability
        that the *new* version is slower, plus the flag decision."""
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        prob = self.compare(new_source, old_source)
        return {"regression_probability": prob,
                "flagged": prob >= threshold, "threshold": threshold}

    def rank(self, candidates: list[str],
             baseline: str | None = None) -> list[dict]:
        """Order candidate versions fastest-first.

        Every candidate is scored by its mean probability of being
        slower than each other candidate (round-robin tournament, one
        batched classifier GEMM); with ``baseline`` given, each entry
        also reports ``p_slower_than_baseline``. A single candidate is
        well-defined (score 0.5 — nothing to beat); an empty list is a
        ``ValueError``; an unparseable candidate or baseline raises
        :class:`RequestSourceError` naming which entry failed, before
        any encoding work.
        """
        candidates = list(candidates)
        if not candidates:
            raise ValueError("rank needs at least one candidate")
        self._requests_by_op["rank"].inc()
        start = time.perf_counter()
        sources = list(candidates) + ([baseline] if baseline is not None else [])
        labels = [f"candidate #{i}" for i in range(len(candidates))]
        if baseline is not None:
            labels.append("baseline")
        z = self._embed_sources(sources, labels=labels)
        n = len(candidates)
        scores = np.full(n, 0.5)
        if n > 1:
            idx_i, idx_j = np.nonzero(~np.eye(n, dtype=bool))
            with no_grad():
                logits = self.model.classifier.logits(
                    Tensor(z[idx_i]), Tensor(z[idx_j]))
                probs = logits.sigmoid().data
            scores = probs.reshape(n, n - 1).mean(axis=1)
        vs_baseline = None
        if baseline is not None:
            with no_grad():
                logits = self.model.classifier.logits(
                    Tensor(z[:n]),
                    Tensor(np.broadcast_to(z[n], (n, z.shape[1])).copy()))
                vs_baseline = logits.sigmoid().data
        report = []
        for i in range(n):
            entry = {"candidate": i, "score": float(scores[i])}
            if vs_baseline is not None:
                entry["p_slower_than_baseline"] = float(vs_baseline[i])
            report.append(entry)
        report.sort(key=lambda e: e["score"])
        self._latency_by_op["rank"].observe(time.perf_counter() - start)
        return report

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Historical stats dict — identical keys, every number a view
        over the obs registry."""
        counts = {op: int(child.value)
                  for op, child in self._requests_by_op.items()}
        encoded_trees = int(self._encoded.value)
        encode_time_s = self._encode_seconds.value
        return {
            "requests": dict(counts, total=sum(counts.values())),
            # Which kernel backend/dtype produced the numbers, so load
            # tests can attribute throughput to the right configuration.
            "backend": nn_backend.describe(),
            "cache": self.cache.stats(),
            "batcher": self.batcher.stats(),
            "encoder": {
                "trees_encoded": encoded_trees,
                "encode_time_s": encode_time_s,
                "trees_per_sec": (encoded_trees / encode_time_s
                                  if encode_time_s > 0 else 0.0),
            },
            "uptime_s": time.monotonic() - self._started,
        }

    def metrics_snapshot(self) -> dict:
        """Registry snapshot with the live gauges (uptime, cache size,
        batcher queue) refreshed — the payload behind the ``metrics``
        op and the scrape endpoint."""
        self._uptime.set(time.monotonic() - self._started)
        self.cache.stats()       # refreshes repro_serve_cache_size
        self.batcher.stats()     # refreshes repro_serve_batcher_pending
        return self.registry.snapshot()

    def close(self) -> None:
        self.batcher.close()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
