"""Per-request span trees with seeded sampling and a bounded ring.

A trace covers one request end to end: parse → canonical-hash → cache
hit/miss → batcher queue wait → fused encode → reply. Spans nest; the
active trace is thread-local so `tracer.span("encode")` works from deep
inside the service without threading a context object through every
call signature.

The design keeps the hot path honest:

* **seeded sampling** — a `random.Random(seed)` decides per trace
  whether to record. Unsampled requests get a shared no-op trace whose
  `span()` context manager does nothing (no allocation beyond the
  generator frame). The seed makes tests deterministic.
* **bounded ring** — completed traces land in a `deque(maxlen=...)`;
  memory is O(capacity), the oldest trace falls off.
* **cross-process propagation** — a worker opens its trace with the
  supervisor-assigned ticket id ("c41"), so a cluster-level request can
  be matched to the worker-side span tree after the fact.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque

__all__ = ["Tracer", "Span", "NULL_TRACE"]


class Span:
    """One timed region inside a trace. ``duration_s`` is wall time;
    ``meta`` carries small facts (cache hit/miss, batch size)."""

    __slots__ = ("name", "start_s", "duration_s", "meta", "children")

    def __init__(self, name: str):
        self.name = name
        self.start_s = time.perf_counter()
        self.duration_s = 0.0
        self.meta: dict = {}
        self.children: list[Span] = []

    def close(self) -> None:
        self.duration_s = time.perf_counter() - self.start_s

    def note(self, **meta) -> None:
        self.meta.update(meta)

    def to_dict(self) -> dict:
        payload = {"name": self.name,
                   "duration_ms": round(self.duration_s * 1e3, 4)}
        if self.meta:
            payload["meta"] = dict(self.meta)
        if self.children:
            payload["spans"] = [c.to_dict() for c in self.children]
        return payload


class _Trace:
    """A sampled trace: the root span plus a stack of open spans."""

    __slots__ = ("trace_id", "root", "_stack")

    sampled = True

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.root = Span("request")
        self._stack = [self.root]

    def span(self, name: str):
        return _SpanGuard(self, name)

    def note(self, **meta) -> None:
        self._stack[-1].meta.update(meta)

    def to_dict(self) -> dict:
        payload = self.root.to_dict()
        payload["trace_id"] = self.trace_id
        return payload


class _SpanGuard:
    __slots__ = ("_trace", "_name", "_span")

    def __init__(self, trace: _Trace, name: str):
        self._trace = trace
        self._name = name
        self._span = None

    def __enter__(self) -> Span:
        span = Span(self._name)
        self._trace._stack[-1].children.append(span)
        self._trace._stack.append(span)
        self._span = span
        return span

    def __exit__(self, *exc) -> None:
        self._trace._stack.pop().close()
        return None


class _NullSpan:
    __slots__ = ()

    name = ""
    duration_s = 0.0

    def note(self, **meta) -> None:
        pass


class _NullTrace:
    """Shared do-nothing trace handed out when a request isn't sampled
    (or when no trace is active at all)."""

    __slots__ = ()

    sampled = False
    trace_id = ""

    def span(self, name: str):
        return _NULL_GUARD

    def note(self, **meta) -> None:
        pass


class _NullGuard:
    __slots__ = ()

    def __enter__(self):
        return _NULL_SPAN

    def __exit__(self, *exc):
        return None


_NULL_SPAN = _NullSpan()
_NULL_GUARD = _NullGuard()
NULL_TRACE = _NullTrace()


class Tracer:
    """Owns the sampling decision, the thread-local active trace, and
    the ring of completed traces.

    ``sample_rate`` is the probability a request is recorded
    (0 disables tracing entirely, 1 records everything — tests use 1
    with a fixed seed). ``capacity`` bounds the completed-trace ring.
    """

    def __init__(self, sample_rate: float = 0.1, capacity: int = 64,
                 seed: int = 0):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        self.sample_rate = float(sample_rate)
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self._ring: deque = deque(maxlen=int(capacity))
        self._ring_lock = threading.Lock()
        # the current thread's trace (see `active` and `span`)
        self._local = threading.local()
        self._sampled_total = 0
        self._seen_total = 0

    # -- lifecycle -----------------------------------------------------
    def trace(self, trace_id: str):
        """Context manager opening (maybe) a trace for one request.

        Usage::

            with tracer.trace(ticket_id):
                ... handle the request; nested code calls
                ``tracer.span("cache")`` freely ...
        """
        return _TraceGuard(self, trace_id)

    def _begin(self, trace_id: str):
        with self._rng_lock:
            self._seen_total += 1
            hit = (self.sample_rate > 0.0
                   and self._rng.random() < self.sample_rate)
            if hit:
                self._sampled_total += 1
        trace = _Trace(str(trace_id)) if hit else NULL_TRACE
        self._local.trace = trace
        return trace

    def _end(self, trace) -> None:
        self._local.trace = None
        if trace.sampled:
            trace.root.close()
            with self._ring_lock:
                self._ring.append(trace)

    # -- in-flight API -------------------------------------------------
    @property
    def active(self):
        """The current thread's trace, or the shared no-op trace."""
        return getattr(self._local, "trace", None) or NULL_TRACE

    def span(self, name: str):
        """Open a child span on the active trace (no-op if none).

        The unsampled path is the serving hot path; it returns the
        shared null guard with one thread-local read and no further
        dispatch.
        """
        trace = getattr(self._local, "trace", None)
        if trace is None or not trace.sampled:
            return _NULL_GUARD
        return trace.span(name)

    def note(self, **meta) -> None:
        self.active.note(**meta)

    # -- inspection ----------------------------------------------------
    def completed(self) -> list[dict]:
        """Completed traces, oldest first, as plain dicts."""
        with self._ring_lock:
            traces = list(self._ring)
        return [t.to_dict() for t in traces]

    def stats(self) -> dict:
        with self._rng_lock:
            seen, sampled = self._seen_total, self._sampled_total
        with self._ring_lock:
            held = len(self._ring)
        return {"seen": seen, "sampled": sampled, "held": held,
                "sample_rate": self.sample_rate}


class _TraceGuard:
    __slots__ = ("_tracer", "_trace_id", "_trace")

    def __init__(self, tracer: Tracer, trace_id: str):
        self._tracer = tracer
        self._trace_id = trace_id
        self._trace = None

    def __enter__(self):
        self._trace = self._tracer._begin(self._trace_id)
        return self._trace

    def __exit__(self, *exc) -> None:
        self._tracer._end(self._trace)
        return None
