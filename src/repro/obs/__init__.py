"""repro.obs — dependency-free observability for serving and training.

Four pieces (see ``docs/observability.md``):

* :mod:`repro.obs.metrics` — process-local registry of counters,
  gauges, and fixed-bucket histograms; snapshots are plain dicts that
  :func:`~repro.obs.metrics.merge` aggregates across worker processes.
* :mod:`repro.obs.trace` — per-request span trees with seeded sampling
  and a bounded ring buffer.
* :mod:`repro.obs.expose` — Prometheus-text/JSON exposition and the
  ``--metrics-port`` HTTP scrape server.
* :mod:`repro.obs.engine_callback` — ``MetricsCallback`` telemetry for
  ``Engine.fit``, persisted through checkpoint resume.

The serving tier's historical ``stats()`` dicts are now *views* over
this registry — same keys, same numbers, one source of truth.

Every name below is imported from its submodule on first access
(:mod:`repro._lazy`): a serving worker that records metrics never
loads ``http.server`` or the training engine.
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "metrics": ("Counter", "Gauge", "Histogram", "LATENCY_BUCKETS_S",
                "MetricsRegistry", "merge", "relabel"),
    "trace": ("Tracer", "Span", "NULL_TRACE"),
    "expose": ("to_prometheus", "to_json", "MetricsHTTPServer"),
    "engine_callback": ("MetricsCallback",),
})

__all__ = [
    "Counter", "Gauge", "Histogram", "LATENCY_BUCKETS_S",
    "MetricsRegistry", "merge", "relabel",
    "Tracer", "Span", "NULL_TRACE",
    "to_prometheus", "to_json", "MetricsHTTPServer",
    "MetricsCallback",
]
