"""The JSONL request/response protocol shared by every serving front end.

One request is one JSON object per line; one response is one JSON object
per line. The same handler answers requests whether the transport is

* the ``repro serve`` CLI (stdin/stdout stream or bulk files),
* a cluster worker process (framed over its supervisor pipe), or
* the TCP front door of :mod:`repro.serve.cluster`.

Robustness contract (the reason this module exists as a seam): **no
request can take down the stream**. A malformed JSON line, an unknown
op, a source that fails to parse, an encode error — each produces one
structured error response

    {"ok": false, "error": "<type>: <message>", "code": "<error code>",
     "id": <echoed when present>}

and the loop continues. ``code`` is machine-readable (see the
``ERR_*`` constants); ``error`` stays a human-readable string for
backwards compatibility with pre-cluster clients.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

__all__ = [
    "ERR_BAD_JSON", "ERR_BAD_REQUEST", "ERR_INTERNAL", "ERR_OVERLOADED",
    "ERR_DEADLINE", "ERR_WORKER_FAILED", "ERR_SHUTDOWN", "RequestSourceError",
    "error_reply", "handle_request", "serve_lines", "request_sources",
]

#: the request itself was not a JSON object
ERR_BAD_JSON = "bad_json"
#: the request decoded but cannot be served (unknown op, missing or
#: unparseable source, out-of-range parameter)
ERR_BAD_REQUEST = "bad_request"
#: the service failed while computing a well-formed request
ERR_INTERNAL = "internal"
#: load shedding: the target shard's queue is past its high-water mark
ERR_OVERLOADED = "overloaded"
#: the request's deadline expired before a worker answered
ERR_DEADLINE = "deadline_exceeded"
#: the owning worker died and the bounded retries were exhausted
ERR_WORKER_FAILED = "worker_failed"
#: the server is shutting down; the request was not served
ERR_SHUTDOWN = "shutdown"


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


def error_reply(code: str, message: str, request_id=None) -> dict:
    """One structured error response (the only error shape we emit)."""
    reply = {"ok": False, "error": message, "code": code}
    if request_id is not None:
        reply["id"] = request_id
    return reply


#: request fields that hold a single source each, in the order a
#: router should prefer them for shard affinity
_SOURCE_FIELDS = ("source", "old", "new", "first", "second")


def request_sources(request: dict) -> list[str]:
    """Every source string a request will need embedded.

    Used by the bulk-mode prewarm pass and by the cluster router (the
    *first* entry decides the shard, so both trees of a ``compare``
    land on the cache that already knows the pair's anchor).
    """
    sources = [request[k] for k in _SOURCE_FIELDS
               if isinstance(request.get(k), str)]
    for list_field in ("sources", "candidates"):
        if isinstance(request.get(list_field), list):
            sources.extend(s for s in request[list_field]
                           if isinstance(s, str))
    if isinstance(request.get("baseline"), str):
        sources.append(request["baseline"])
    return sources


def _error_code_for(error: Exception) -> str:
    """Classify a handler exception into a wire error code.

    Anything raised while *interpreting* the request (bad op, missing
    field, unparseable source, bad parameter) is the client's fault —
    ``bad_request``; everything else is ours — ``internal``.
    """
    if isinstance(error, (RequestSourceError, KeyError, TypeError,
                          ValueError)):
        return ERR_BAD_REQUEST
    return ERR_INTERNAL


def handle_request(service, request: dict, trace_id=None) -> dict:
    """Answer one decoded request against a ``PredictionService``.

    Never raises: every failure becomes a structured error response so
    the surrounding loop — CLI stream, bulk file, or cluster worker —
    keeps serving.

    ``trace_id`` names this request in the service's trace ring (a
    cluster worker passes its supervisor ticket id, so a front-door
    request can be matched to its worker-side span tree); it defaults
    to the request's own ``id``.
    """
    if not isinstance(request, dict):
        return error_reply(ERR_BAD_JSON,
                           f"request must be a JSON object, got "
                           f"{type(request).__name__}")
    response = {"ok": True}
    if "id" in request:
        response["id"] = request["id"]
    if trace_id is None:
        trace_id = request.get("id", "")
    tracer = getattr(service, "tracer", None)
    guard = tracer.trace(trace_id) if tracer is not None else nullcontext()
    with guard as trace:
        if trace is not None and getattr(trace, "sampled", False):
            trace.note(op=request.get("op"))
        try:
            op = request.get("op")
            if op == "embed":
                response["embedding"] = service.embed(
                    request["source"]).tolist()
            elif op == "embed_many":
                response["embeddings"] = service.embed_many(
                    request["sources"]).tolist()
            elif op == "compare" and "old" in request:
                response.update(service.check_regression(
                    request["old"], request["new"],
                    threshold=float(request.get("threshold", 0.5))))
            elif op == "compare":
                response["p_first_slower"] = service.compare(
                    request["first"], request["second"])
            elif op == "rank":
                response["ranking"] = service.rank(
                    request["candidates"], baseline=request.get("baseline"))
            elif op == "stats":
                response["stats"] = service.stats()
            elif op == "metrics":
                snapshot = service.metrics_snapshot()
                if request.get("format") == "prometheus":
                    from ..obs.expose import to_prometheus
                    response["metrics_text"] = to_prometheus(snapshot)
                else:
                    response["metrics"] = snapshot
            elif op == "traces":
                response["traces"] = service.tracer.completed()
            else:
                raise ValueError(f"unknown op {op!r}")
        except Exception as error:  # a bad request must not kill the stream
            response = error_reply(_error_code_for(error),
                                   f"{type(error).__name__}: {error}",
                                   request_id=request.get("id"))
    return response


def serve_lines(service, lines) -> "typing.Iterator[dict]":  # noqa: F821
    """Stream-serve an iterable of JSONL request lines.

    Yields exactly one response per non-blank line — a result or a
    structured error, in input order — regardless of how malformed any
    individual line is. This is the hardened loop behind the CLI's
    stdin mode and the mixed good/bad stream unit tests.
    """
    for line in lines:
        if not line.strip():
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as error:
            yield error_reply(ERR_BAD_JSON, f"bad JSON: {error}")
        else:
            yield handle_request(service, request)
