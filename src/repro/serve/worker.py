"""One cluster worker: a ``PredictionService`` behind a pipe.

A worker is a child process of the cluster supervisor. It boots a
service from a checkpoint, announces itself, then answers framed
requests read from **stdin** with framed replies on **stdout** — the
same JSONL protocol as every other front end, wrapped in a one-key
envelope that carries the supervisor's ticket id::

    supervisor -> worker   {"t": "c41", "req": {"op": "embed", ...},
                            "dl": 1754550000.25}        # deadline (unix)
    worker -> supervisor   {"t": "c41", "resp": {"ok": true, ...}}

Boot handshake (first line the worker ever writes):

* success — ``{"hello": {"pid": ..., "model": <checkpoint signature>,
  "backend": <kernel backend>, "encoder": ...}}``; the supervisor
  only routes to a worker after its hello, which is what makes
  blue/green rotation safe: a replacement that cannot load its
  checkpoint never receives a single ticket.
* failure — ``{"fatal": "<reason>"}`` and exit code 3 (e.g. a corrupt
  checkpoint; the supervisor aborts the swap and keeps the old worker).

Pipes were chosen over sockets deliberately: a worker that dies — even
``kill -9``, even mid-reply — closes its pipe, so the supervisor's
reader sees EOF immediately and can redispatch. There is no heartbeat
race on crash detection; heartbeats (``op: ping`` envelopes with a
``!``-prefixed ticket) exist only to catch the *hung* worker that is
alive but not answering.

Ticket ids starting with ``!`` are supervisor-internal (pings, stats
polls): they bypass fault injection and the request deadline check so
health-checking measures injected faults instead of perturbing them.

A worker runs one OS thread, BLAS included: the supervisor provides
concurrency across workers, so ``--workers`` is the one unit of scale.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

__all__ = ["BLAS_THREAD_VARS", "main"]

#: The variables that size numpy's BLAS thread pool; a worker pins both
#: to 1 unless the operator has set either (see ``main``).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve.worker",
        description="cluster worker (spawned by the supervisor; speaks "
                    "framed JSONL on stdin/stdout)")
    parser.add_argument("--model", required=True)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--cache-size", type=int, default=1024)
    parser.add_argument("--cache-max-nodes", type=int, default=None)
    parser.add_argument("--cast", action="store_true",
                        help="permit loading a checkpoint whose dtype "
                             "differs from the active backend's "
                             "(REPRO_BACKEND)")
    parser.add_argument("--faults", default=None,
                        help="JSON FaultPlan (chaos testing only)")
    args = parser.parse_args(argv)

    # One BLAS thread: the worker count is the cluster's one unit of
    # parallelism, and OpenBLAS helper threads spin after each
    # multi-threaded matmul, taking the CPU the front door and the other
    # workers need. OpenBLAS sizes its pool when numpy loads, so this
    # comes before the first import below; an operator who sets either
    # variable keeps their value.
    if not any(name in os.environ for name in BLAS_THREAD_VARS):
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

    # Import after argparse so --help stays instant; boot errors from
    # here on are reported through the fatal line, never a bare
    # traceback the supervisor would have to scrape.
    from ..nn import backend as nn_backend
    from .checkpoint_meta import checkpoint_signature
    from .faults import FaultPlan
    from .protocol import ERR_DEADLINE, error_reply, handle_request
    from .service import PredictionService

    try:
        plan = FaultPlan.from_json(args.faults)
        signature = checkpoint_signature(args.model)
        # threaded=False: the worker is single-threaded by design — the
        # supervisor provides concurrency across workers, and an inline
        # batcher gives maximal fused batches for this worker's queue.
        service = PredictionService.from_checkpoint(
            args.model, cast=args.cast, max_batch=args.max_batch,
            cache_size=args.cache_size,
            cache_max_nodes=args.cache_max_nodes, threaded=False)
    except Exception as error:
        _emit({"fatal": f"{type(error).__name__}: {error}"})
        return 3

    _emit({"hello": {"pid": os.getpid(), "model": signature,
                     "backend": nn_backend.describe(),
                     "encoder": service.model.config.get("encoder_kind")
                     if isinstance(getattr(service.model, "config", None),
                                   dict) else None}})

    with service:
        for line in sys.stdin:
            if not line.strip():
                continue
            try:
                envelope = json.loads(line)
                ticket = envelope["t"]
                request = envelope["req"]
            except Exception as error:
                # A framing error is a supervisor bug, not client data;
                # surface it but keep serving.
                _emit({"framing_error": f"{type(error).__name__}: {error}"})
                continue
            internal = isinstance(ticket, str) and ticket.startswith("!")
            if internal and request.get("op") == "ping":
                _emit({"t": ticket, "resp": {"ok": True, "pong": True,
                                             "pid": os.getpid()}})
                continue
            if not internal:
                plan.on_request()          # may sleep; may never return
                deadline = envelope.get("dl")
                if deadline is not None and time.time() > float(deadline):
                    # Late already (e.g. we just un-hung): the
                    # supervisor has answered the client; this reply is
                    # dropped there, but replying keeps the accounting
                    # exact instead of leaving a one-sided ticket.
                    _emit({"t": ticket, "resp": error_reply(
                        ERR_DEADLINE, "deadline expired before the "
                        "worker started the request",
                        request_id=request.get("id")
                        if isinstance(request, dict) else None)})
                    continue
            # The supervisor ticket id doubles as the trace id, so a
            # front-door request can be matched to this worker's spans.
            _emit({"t": ticket,
                   "resp": handle_request(service, request,
                                          trace_id=ticket)})
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
