"""Serving-path microbenchmarks: cold vs warm cache, plus the naive
per-request baseline the micro-batcher replaces.

Not a paper artifact — these quantify the `repro.serve` subsystem:

* ``cold_embed``   — fresh service, 16 distinct trees through the
  micro-batcher as fused forests (cache misses, batched encode);
* ``warm_compare`` — the steady-state serving hot path: a burst of
  compare requests whose trees are already cached (classifier GEMMs
  only);
* ``naive_predict`` — the same burst through
  ``ComparativeModel.predict_probability`` (two single-tree encodes
  per request), i.e. what every request cost before this subsystem.

``tests/serve/test_service_e2e.py`` times the warm and naive bursts
live and asserts that warm serving beats naive by >= 3x.
"""

import numpy as np

from benchmarks.synthetic import variants
from repro.core import build_model
from repro.serve import PredictionService

NUM_VARIANTS = 16


def _variants() -> list[str]:
    """Structurally distinct sources (no corpus build needed)."""
    return variants(NUM_VARIANTS)


def _compare_burst(sources: list[str]) -> list[tuple[str, str]]:
    """32 compare requests over the variant pool (with repeats)."""
    rng = np.random.default_rng(7)
    picks = rng.integers(0, len(sources), size=(32, 2))
    return [(sources[i], sources[j if j != i else (j + 1) % len(sources)])
            for i, j in picks]


def test_bench_serve_cold_embed(benchmark):
    """Cold cache: 16 distinct trees, batcher-fused forest encodes."""
    model = build_model(embedding_dim=16, hidden_size=16)
    sources = _variants()
    for s in sources:
        model.featurizer(s)  # parse once; featurizer is shared state

    def setup():
        return (PredictionService(model, threaded=False, max_batch=32,
                                  cache_size=1024),), {}

    def cold_embed(service):
        return service.embed_many(sources)

    result = benchmark.pedantic(cold_embed, setup=setup, rounds=5,
                                iterations=1)
    assert result.shape == (NUM_VARIANTS, 16)
    try:
        benchmark.extra_info["trees_per_sec"] = \
            NUM_VARIANTS / benchmark.stats.stats.mean
    except (AttributeError, TypeError):
        pass


def test_bench_serve_warm_compare(benchmark):
    """Warm cache: a burst of 32 compares, zero encoder work."""
    model = build_model(embedding_dim=16, hidden_size=16)
    sources = _variants()
    burst = _compare_burst(sources)
    service = PredictionService(model, threaded=False, max_batch=32)
    service.prewarm(sources)

    def warm_burst():
        return [service.compare(a, b) for a, b in burst]

    probs = benchmark(warm_burst)
    assert len(probs) == 32 and all(0.0 < p < 1.0 for p in probs)
    assert service.stats()["cache"]["misses"] == NUM_VARIANTS  # prewarm only
    try:
        benchmark.extra_info["requests_per_sec"] = \
            len(burst) / benchmark.stats.stats.mean
    except (AttributeError, TypeError):
        pass


def test_bench_serve_threaded_compare(benchmark):
    """The warm burst submitted from 4 client threads through the
    threaded batcher.

    The NumPy kernels hold the GIL between their BLAS calls, so the
    client threads mostly time-slice the encode work; this row is the
    threaded batcher's side of the A/B against the inline
    ``warm_compare`` row. Run the file again under
    ``REPRO_BACKEND=numpy32`` for that backend's row.
    """
    from concurrent.futures import ThreadPoolExecutor

    model = build_model(embedding_dim=16, hidden_size=16)
    sources = _variants()
    burst = _compare_burst(sources)
    service = PredictionService(model, threaded=True, max_batch=32)
    service.prewarm(sources)
    pool = ThreadPoolExecutor(max_workers=4)

    def threaded_burst():
        futures = [pool.submit(service.compare, a, b) for a, b in burst]
        return [f.result() for f in futures]

    try:
        probs = benchmark(threaded_burst)
        assert len(probs) == 32 and all(0.0 < p < 1.0 for p in probs)
        try:
            benchmark.extra_info["requests_per_sec"] = \
                len(burst) / benchmark.stats.stats.mean
        except (AttributeError, TypeError):
            pass
    finally:
        pool.shutdown()
        service.close()


def test_bench_naive_predict(benchmark):
    """The same burst through per-request predict_probability."""
    model = build_model(embedding_dim=16, hidden_size=16)
    sources = _variants()
    burst = _compare_burst(sources)
    for s in sources:
        model.featurizer(s)  # warm the parse cache for a fair fight

    def naive_burst():
        return [model.predict_probability(a, b) for a, b in burst]

    probs = benchmark(naive_burst)
    assert len(probs) == 32 and all(0.0 < p < 1.0 for p in probs)
    try:
        benchmark.extra_info["requests_per_sec"] = \
            len(burst) / benchmark.stats.stats.mean
    except (AttributeError, TypeError):
        pass
