"""The worker-pool supervisor: spawn, watch, restart, redispatch, swap.

This module owns every robustness property of the cluster except the
TCP transport (that is :mod:`repro.serve.cluster`):

* **Supervision** — each shard owns one worker subprocess
  (:mod:`repro.serve.worker`) joined by pipes. Crash detection is pipe
  EOF (works for ``kill -9``); hang detection is missed heartbeat
  pings. A dead shard is respawned with exponential backoff plus
  seeded jitter; while it boots, its traffic fails over to the other
  ready workers (an affinity miss, not an error).
* **Exactly one reply per ticket** — an in-flight ticket lives in
  precisely one worker's table; popping it (worker reply, deadline
  expiry, worker death) is the single ownership transfer, under one
  lock, so a client can never receive two replies or zero.
* **Deadlines** — every ticket carries one; the housekeeping thread
  expires overdue tickets with a structured ``deadline_exceeded``
  reply and drops the worker's eventual late answer.
* **Redispatch** — tickets orphaned by a dead worker are retried on a
  live worker (bounded by ``max_attempts``), then answered with
  ``worker_failed``. Requests are pure compute, so a retry can never
  double-apply anything.
* **Hot-swap** — a watcher polls the engine's checkpoint slot
  (written atomically by ``save_state``); on a new content digest it
  validates the archive *first* (a corrupt checkpoint is rejected
  before any rotation — the cluster keeps serving the old version),
  then blue/green-rotates one shard at a time: boot the replacement,
  wait for its hello, flip the routing entry, and let the old worker
  finish its in-flight tickets before it is drained away. In-flight
  tickets are never dropped by a swap. ``swap(path)`` with an older
  checkpoint is the rollback command.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

from ..obs import metrics as obs_metrics
from ..obs.metrics import MetricsRegistry
from .checkpoint import checkpoint_signature
from .protocol import (
    ERR_DEADLINE, ERR_SHUTDOWN, ERR_WORKER_FAILED, error_reply,
)

__all__ = ["Supervisor", "SupervisorConfig", "WorkerHandle", "Ticket",
           "backoff_ms"]


def backoff_ms(streak: int, base_ms: float, cap_ms: float,
               rng: random.Random) -> float:
    """Exponential backoff with jitter for restart attempt ``streak``
    (1-based). Deterministic given the rng state — the supervisor's rng
    is seeded, per the repo's resume discipline."""
    delay = min(base_ms * (2.0 ** (max(streak, 1) - 1)), cap_ms)
    return delay + rng.uniform(0.0, base_ms)


class Ticket:
    """One in-flight client request, owned by at most one worker."""

    __slots__ = ("tid", "request", "shard", "attempts", "deadline_mono",
                 "deadline_unix", "reply", "internal")

    def __init__(self, tid: str, request: dict, shard: int, reply,
                 deadline_mono: float, deadline_unix: float,
                 internal: str | None = None):
        self.tid = tid
        self.request = request
        self.shard = shard
        self.reply = reply               # callable(response dict) | None
        self.deadline_mono = deadline_mono
        self.deadline_unix = deadline_unix
        self.internal = internal         # None | "ping" | "stats" | "metrics"
        self.attempts = 0

    @property
    def request_id(self):
        return self.request.get("id") if isinstance(self.request, dict) \
            else None


class WorkerHandle:
    """One worker subprocess: pipes, reader thread, in-flight table."""

    def __init__(self, shard: int, generation: int,
                 proc: subprocess.Popen):
        self.shard = shard
        self.generation = generation
        self.proc = proc
        self.state = "starting"          # -> ready -> exiting/draining/dead
        self.retired = False             # replaced by a swap: no restart
        self.model: dict | None = None   # checkpoint signature from hello
        self.pid = proc.pid
        self.hello = threading.Event()
        self.fatal: str | None = None
        self.inflight: dict[str, Ticket] = {}
        self.dispatched = 0
        self.missed_pings = 0
        self.service_stats: dict | None = None   # last polled stats()
        self.metrics: dict | None = None         # last polled registry snap
        self.metrics_folded = False              # merged into retired base
        self.started = time.monotonic()
        self._stdin_lock = threading.Lock()
        self.stderr_tail: list[str] = []

    def send(self, ticket: Ticket) -> None:
        """Frame and write one envelope; OSError means the worker died
        mid-write and the caller re-owns the ticket."""
        envelope = {"t": ticket.tid, "req": ticket.request}
        if ticket.internal is None:
            envelope["dl"] = ticket.deadline_unix
        line = json.dumps(envelope) + "\n"
        with self._stdin_lock:
            self.proc.stdin.write(line)
            self.proc.stdin.flush()

    def close_stdin(self) -> None:
        with self._stdin_lock:
            try:
                self.proc.stdin.close()
            except OSError:
                pass

    def kill(self) -> None:
        try:
            self.proc.kill()
        except OSError:
            pass

    def describe(self) -> dict:
        live = sum(1 for t in self.inflight.values() if t.internal is None)
        return {"shard": self.shard, "generation": self.generation,
                "state": self.state, "pid": self.pid,
                "model": self.model, "inflight": live,
                "dispatched": self.dispatched,
                "missed_pings": self.missed_pings,
                "service": self.service_stats}


class SupervisorConfig:
    """Tunable knobs, all with production-ish defaults. Tests shrink
    the timeouts; the CLI exposes the user-facing subset."""

    def __init__(self, *, request_timeout_ms: float = 10_000.0,
                 high_water: int = 64, max_attempts: int = 2,
                 ping_interval_ms: float = 1_000.0,
                 ping_timeout_ms: float = 5_000.0, ping_misses: int = 2,
                 stats_poll_ms: float = 1_000.0,
                 backoff_base_ms: float = 100.0,
                 backoff_cap_ms: float = 5_000.0,
                 boot_timeout_s: float = 60.0,
                 drain_grace_s: float = 5.0,
                 watch: bool = False, watch_poll_ms: float = 500.0,
                 stats_interval_ms: float = 0.0, seed: int = 0,
                 max_batch: int = 32, cache_size: int = 1024,
                 cache_max_nodes: int | None = None,
                 cast: bool = False):
        self.request_timeout_ms = request_timeout_ms
        self.high_water = high_water
        self.max_attempts = max_attempts
        self.ping_interval_ms = ping_interval_ms
        self.ping_timeout_ms = ping_timeout_ms
        self.ping_misses = ping_misses
        self.stats_poll_ms = stats_poll_ms
        self.backoff_base_ms = backoff_base_ms
        self.backoff_cap_ms = backoff_cap_ms
        self.boot_timeout_s = boot_timeout_s
        self.drain_grace_s = drain_grace_s
        self.watch = watch
        self.watch_poll_ms = watch_poll_ms
        self.stats_interval_ms = stats_interval_ms
        self.seed = seed
        self.max_batch = max_batch
        self.cache_size = cache_size
        self.cache_max_nodes = cache_max_nodes
        # Allow workers to load a checkpoint whose dtype differs from
        # the active backend's (explicit opt-in, mirrors the CLI --cast).
        self.cast = cast


_COUNTER_NAMES = (
    "dispatched", "replied", "redispatched", "retries_exhausted",
    "deadline_expired", "overload_rejected", "worker_deaths",
    "worker_restarts", "affinity_misses", "late_replies", "parked",
    "swaps", "swap_rejected", "swap_failures", "pings_sent",
    "pings_missed", "events")


class Supervisor:
    """Owns the worker pool. The cluster server feeds it tickets via
    :meth:`admit_and_dispatch`; replies flow back through each ticket's
    ``reply`` callable from supervisor threads."""

    def __init__(self, checkpoint_path, workers: int,
                 config: SupervisorConfig | None = None,
                 fault_plans: dict[int, str] | None = None,
                 stats_stream=None):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.config = config or SupervisorConfig()
        self.checkpoint_path = str(checkpoint_path)
        self.current_signature = checkpoint_signature(checkpoint_path)
        self.n_shards = workers
        # fault_plans maps shard -> FaultPlan JSON, applied to the
        # *first* generation only: a restarted worker is a fresh,
        # healthy process (the whole point of restarting it).
        self.fault_plans = dict(fault_plans or {})
        self.stats_stream = stats_stream
        self._stats_stream_lock = threading.Lock()

        self._lock = threading.RLock()
        self._rng = random.Random(self.config.seed)
        self.routing: list[WorkerHandle | None] = [None] * workers
        self._restart_at: dict[int, float] = {}    # shard -> monotonic
        self._fail_streak: dict[int, int] = {i: 0 for i in range(workers)}
        # Lifecycle counters live on the obs registry; stats()["counters"]
        # stays the historical same-key dict, now a view over this family.
        self.registry = MetricsRegistry()
        self._counters = self.registry.counter(
            "repro_cluster_supervisor_total",
            "supervisor lifecycle counters", ("counter",))
        for name in _COUNTER_NAMES:
            self._counters.labels(name)          # pre-create: stats shows 0s
        self.registry.gauge("repro_cluster_shards", "configured shards",
                            agg="last").set(workers)
        self._uptime = self.registry.gauge(
            "repro_cluster_uptime_seconds",
            "seconds since supervisor start", agg="last")
        # Metrics snapshots of dead/retired workers, pre-merged (and
        # shard-relabeled) so a SIGKILLed worker's counters survive in
        # the aggregated scrape payload.
        self._retired_metrics: dict = {}
        self.events: list[dict] = []               # bounded event log
        self._draining: list[WorkerHandle] = []
        # tickets with no ready worker wait here (still under their
        # deadline) instead of failing: a restart gap becomes latency,
        # not an error burst
        self._parked: list[Ticket] = []
        self._internal_seq = 0
        self._ping_due: dict[int, float] = {}
        self._stats_due: dict[int, float] = {}
        self._watch_raw: tuple | None = None
        self._swap_lock = threading.Lock()
        self._swapping = False
        self._stats_emit_due = 0.0
        self._stopping = False
        self._started = time.monotonic()
        self._housekeeper: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every shard's worker and wait until all are ready."""
        for shard in range(self.n_shards):
            handle = self._spawn(shard, generation=1,
                                 checkpoint=self.checkpoint_path)
            self.routing[shard] = handle
        deadline = time.monotonic() + self.config.boot_timeout_s
        for handle in list(self.routing):
            remaining = max(deadline - time.monotonic(), 0.0)
            if not handle.hello.wait(remaining) or handle.fatal:
                tail = handle.fatal or "; ".join(handle.stderr_tail[-3:])
                self.shutdown()
                raise RuntimeError(
                    f"worker for shard {handle.shard} failed to boot: "
                    f"{tail or 'no hello within boot timeout'}")
        self._housekeeper = threading.Thread(
            target=self._housekeeping_loop, daemon=True,
            name="repro-serve-supervisor")
        self._housekeeper.start()

    def shutdown(self) -> None:
        """Answer every in-flight ticket with ``shutdown``, then stop
        the pool (idempotent)."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            handles = [h for h in self.routing if h is not None]
            handles += self._draining
            orphans = []
            for handle in handles:
                orphans.extend(t for t in handle.inflight.values()
                               if t.internal is None)
                handle.inflight.clear()
            orphans.extend(self._parked)
            self._parked.clear()
        for ticket in orphans:
            self._deliver(ticket, error_reply(
                ERR_SHUTDOWN, "server shutting down",
                request_id=ticket.request_id))
        if self._housekeeper is not None:
            self._housekeeper.join(timeout=2.0)
        for handle in handles:
            handle.close_stdin()
        deadline = time.monotonic() + 2.0
        for handle in handles:
            try:
                handle.proc.wait(timeout=max(deadline - time.monotonic(),
                                             0.05))
            except subprocess.TimeoutExpired:
                handle.kill()

    # ------------------------------------------------------------------
    # spawning
    # ------------------------------------------------------------------
    def _worker_command(self, checkpoint, shard: int,
                        generation: int) -> list[str]:
        cmd = [sys.executable, "-m", "repro.serve.worker",
               "--model", str(checkpoint),
               "--max-batch", str(self.config.max_batch),
               "--cache-size", str(self.config.cache_size)]
        if self.config.cache_max_nodes is not None:
            cmd += ["--cache-max-nodes", str(self.config.cache_max_nodes)]
        if self.config.cast:
            cmd += ["--cast"]
        plan = self.fault_plans.get(shard)
        if plan and generation == 1:
            cmd += ["--faults", plan]
        return cmd

    def _spawn(self, shard: int, generation: int,
               checkpoint) -> WorkerHandle:
        env = os.environ.copy()
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root + (os.pathsep + existing
                                        if existing else "")
        proc = subprocess.Popen(
            self._worker_command(checkpoint, shard, generation),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, bufsize=1, env=env)
        handle = WorkerHandle(shard, generation, proc)
        threading.Thread(target=self._reader_loop, args=(handle,),
                         daemon=True,
                         name=f"repro-worker-reader-{shard}").start()
        threading.Thread(target=self._stderr_loop, args=(handle,),
                         daemon=True,
                         name=f"repro-worker-stderr-{shard}").start()
        return handle

    # ------------------------------------------------------------------
    # per-worker reader threads
    # ------------------------------------------------------------------
    def _stderr_loop(self, handle: WorkerHandle) -> None:
        for line in handle.proc.stderr:
            handle.stderr_tail.append(line.rstrip())
            del handle.stderr_tail[:-20]

    def _reader_loop(self, handle: WorkerHandle) -> None:
        for line in handle.proc.stdout:
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "hello" in message:
                handle.model = message["hello"].get("model")
                handle.pid = message["hello"].get("pid", handle.pid)
                with self._lock:
                    handle.state = "ready"
                    self._fail_streak[handle.shard] = 0
                handle.hello.set()
            elif "fatal" in message:
                handle.fatal = message["fatal"]
                handle.hello.set()
            elif "t" in message:
                self._on_reply(handle, message["t"], message.get("resp"))
        self._on_worker_exit(handle)

    def _on_reply(self, handle: WorkerHandle, tid: str, resp) -> None:
        with self._lock:
            ticket = handle.inflight.pop(tid, None)
            if ticket is None:
                self._counters.labels("late_replies").inc()
                return
            if ticket.internal == "ping":
                handle.missed_pings = 0
                return
            if ticket.internal == "stats":
                if isinstance(resp, dict) and resp.get("ok"):
                    handle.service_stats = resp.get("stats")
                return
            if ticket.internal == "metrics":
                if isinstance(resp, dict) and resp.get("ok"):
                    handle.metrics = resp.get("metrics")
                return
            self._counters.labels("replied").inc()
        self._deliver(ticket, resp if isinstance(resp, dict)
                      else error_reply(ERR_WORKER_FAILED,
                                       "worker returned a malformed reply",
                                       request_id=ticket.request_id))

    def _fold_retired_metrics(self, handle: WorkerHandle) -> None:
        """Merge a dying worker's last polled registry snapshot into the
        retained base (shard-relabeled), so its counters survive in the
        aggregated scrape even through a SIGKILL mid-scrape. Caller
        holds the lock; idempotent per handle."""
        if handle.metrics_folded or not handle.metrics:
            return
        handle.metrics_folded = True
        tagged = obs_metrics.relabel(handle.metrics,
                                     shard=str(handle.shard))
        self._retired_metrics = obs_metrics.merge(
            [self._retired_metrics, tagged])

    def _on_worker_exit(self, handle: WorkerHandle) -> None:
        handle.proc.wait()
        with self._lock:
            was_dead = handle.state == "dead"
            handle.state = "dead"
            self._fold_retired_metrics(handle)
            orphans = [t for t in handle.inflight.values()
                       if t.internal is None]
            handle.inflight.clear()
            if handle in self._draining:
                self._draining.remove(handle)
            is_routed = self.routing[handle.shard] is handle
            if was_dead or self._stopping:
                is_routed = False
            if is_routed and not handle.retired:
                self._counters.labels("worker_deaths").inc()
                self._fail_streak[handle.shard] += 1
                delay = backoff_ms(self._fail_streak[handle.shard],
                                   self.config.backoff_base_ms,
                                   self.config.backoff_cap_ms, self._rng)
                self._restart_at[handle.shard] = (time.monotonic()
                                                  + delay / 1000.0)
                self._event("worker_died", shard=handle.shard,
                            generation=handle.generation,
                            restart_in_ms=round(delay, 1))
        for ticket in orphans:
            self._retry_or_fail(ticket)

    def _retry_or_fail(self, ticket: Ticket) -> None:
        ticket.attempts += 1
        if ticket.attempts >= self.config.max_attempts:
            with self._lock:
                self._counters.labels("retries_exhausted").inc()
            self._deliver(ticket, error_reply(
                ERR_WORKER_FAILED,
                f"worker died {ticket.attempts} time(s) while serving "
                "this request", request_id=ticket.request_id))
            return
        with self._lock:
            self._counters.labels("redispatched").inc()
        self.dispatch(ticket)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _deliver(self, ticket: Ticket, response: dict) -> None:
        if ticket.reply is not None:
            try:
                ticket.reply(response)
            except Exception:
                pass                     # client went away; its problem

    def inflight_for_shard(self, shard: int) -> int:
        with self._lock:
            handle = self.routing[shard]
            if handle is None:
                return 0
            return sum(1 for t in handle.inflight.values()
                       if t.internal is None)

    def _pick_worker(self, shard: int) -> WorkerHandle | None:
        """The shard's own worker when ready, else any ready worker
        (failover: correctness over cache affinity)."""
        handle = self.routing[shard]
        if handle is not None and handle.state == "ready":
            return handle
        for offset in range(1, self.n_shards):
            other = self.routing[(shard + offset) % self.n_shards]
            if other is not None and other.state == "ready":
                self._counters.labels("affinity_misses").inc()
                return other
        return None

    def dispatch(self, ticket: Ticket) -> None:
        """Hand a ticket to a worker; on any failure the ticket is
        answered (retry chain ends in a structured error, never
        silence)."""
        parked = False
        with self._lock:
            if self._stopping:
                handle = None
            else:
                handle = self._pick_worker(ticket.shard)
                if handle is None:
                    # every worker is dead or booting: the ticket waits
                    # for the next ready worker, bounded by its own
                    # deadline — restarts cost latency, not errors
                    self._parked.append(ticket)
                    self._counters.labels("parked").inc()
                    parked = True
            if handle is not None:
                handle.inflight[ticket.tid] = ticket
                handle.dispatched += 1
                self._counters.labels("dispatched").inc()
        if parked:
            return
        if handle is None:
            self._deliver(ticket, error_reply(
                ERR_WORKER_FAILED, "no worker available",
                request_id=ticket.request_id))
            return
        try:
            handle.send(ticket)
        except OSError:
            # Died between pick and write: route nothing more to it
            # (its reader may not have seen the pipe close yet, and a
            # retry picking it again would fail the same way), reclaim
            # the ticket (if the exit path has not already) and walk the
            # retry chain. The exit path still counts the death.
            with self._lock:
                if handle.state == "ready":
                    handle.state = "exiting"
                still_ours = handle.inflight.pop(ticket.tid, None)
            if still_ours is not None:
                self._retry_or_fail(ticket)

    def next_internal_tid(self, kind: str) -> str:
        with self._lock:
            self._internal_seq += 1
            return f"!{kind}{self._internal_seq}"

    def _send_internal(self, handle: WorkerHandle, kind: str,
                       request: dict, timeout_ms: float) -> None:
        now = time.monotonic()
        ticket = Ticket(self.next_internal_tid(kind), request,
                        handle.shard, None, now + timeout_ms / 1000.0,
                        time.time() + timeout_ms / 1000.0, internal=kind)
        with self._lock:
            handle.inflight[ticket.tid] = ticket

        def write():
            # Off-thread: a hung worker with a full stdin pipe must
            # never block the housekeeping loop — deadline expiry is
            # what un-wedges everything else.
            try:
                handle.send(ticket)
            except OSError:
                with self._lock:
                    handle.inflight.pop(ticket.tid, None)

        threading.Thread(target=write, daemon=True).start()

    def bump(self, counter: str, by: int = 1) -> None:
        """Counter hook for the transport layer (e.g. overload sheds)."""
        with self._lock:
            self._counters.labels(counter).inc(by)

    # ------------------------------------------------------------------
    # housekeeping
    # ------------------------------------------------------------------
    def _housekeeping_loop(self) -> None:
        while not self._stopping:
            now = time.monotonic()
            self._expire_deadlines(now)
            self._restart_due_shards(now)
            self._drain_parked()
            self._heartbeat_due(now)
            self._drain_retired(now)
            if self.config.watch:
                self._watch_checkpoint(now)
            self._emit_stats_due(now)
            time.sleep(0.02)

    def _expire_deadlines(self, now: float) -> None:
        expired: list[tuple[WorkerHandle, Ticket]] = []
        overdue_parked: list[Ticket] = []
        with self._lock:
            handles = [h for h in self.routing if h is not None]
            handles += self._draining
            for handle in handles:
                overdue = [t for t in handle.inflight.values()
                           if t.deadline_mono < now]
                for ticket in overdue:
                    handle.inflight.pop(ticket.tid, None)
                    expired.append((handle, ticket))
            if self._parked:
                overdue_parked = [t for t in self._parked
                                  if t.deadline_mono < now]
                for ticket in overdue_parked:
                    self._parked.remove(ticket)
        for ticket in overdue_parked:
            with self._lock:
                self._counters.labels("deadline_expired").inc()
            self._deliver(ticket, error_reply(
                ERR_DEADLINE,
                f"no worker became available within "
                f"{self.config.request_timeout_ms:g} ms",
                request_id=ticket.request_id))
        for handle, ticket in expired:
            if ticket.internal == "ping":
                with self._lock:
                    handle.missed_pings += 1
                    self._counters.labels("pings_missed").inc()
                    hung = (handle.missed_pings >= self.config.ping_misses
                            and handle.state in ("ready", "draining"))
                    if hung:
                        self._event("worker_hung_killed",
                                    shard=handle.shard,
                                    generation=handle.generation)
                if hung:
                    # SIGKILL; pipe EOF then routes through the normal
                    # death path (redispatch + backoff restart)
                    handle.kill()
            elif ticket.internal in ("stats", "metrics"):
                pass
            else:
                with self._lock:
                    self._counters.labels("deadline_expired").inc()
                self._deliver(ticket, error_reply(
                    ERR_DEADLINE,
                    f"no reply within {self.config.request_timeout_ms:g} "
                    "ms", request_id=ticket.request_id))

    def _restart_due_shards(self, now: float) -> None:
        with self._lock:
            # during a swap the rotation itself replaces every shard;
            # restarting one concurrently would leak an extra worker
            if self._swapping:
                return
            due = [shard for shard, at in self._restart_at.items()
                   if at <= now]
            for shard in due:
                del self._restart_at[shard]
                if self._stopping:
                    continue
                generation = (self.routing[shard].generation + 1
                              if self.routing[shard] else 1)
                self._counters.labels("worker_restarts").inc()
                self._event("worker_restarting", shard=shard,
                            generation=generation)
                self.routing[shard] = self._spawn(
                    shard, generation, self.checkpoint_path)

    def _drain_parked(self) -> None:
        """Re-dispatch tickets that were parked while no worker was
        ready. Anything still unlucky is simply re-parked for the next
        tick; its own deadline bounds the wait."""
        with self._lock:
            if not self._parked:
                return
            if not any(h is not None and h.state == "ready"
                       for h in self.routing):
                return
            batch, self._parked = self._parked, []
        for ticket in batch:
            self.dispatch(ticket)

    def _heartbeat_due(self, now: float) -> None:
        with self._lock:
            targets = [h for h in self.routing
                       if h is not None and h.state == "ready"]
        for handle in targets:
            if now >= self._ping_due.get(handle.shard, 0.0):
                self._ping_due[handle.shard] = (
                    now + self.config.ping_interval_ms / 1000.0)
                with self._lock:
                    self._counters.labels("pings_sent").inc()
                self._send_internal(handle, "ping", {"op": "ping"},
                                    self.config.ping_timeout_ms)
            if now >= self._stats_due.get(handle.shard, 0.0):
                self._stats_due[handle.shard] = (
                    now + self.config.stats_poll_ms / 1000.0)
                self._send_internal(handle, "stats", {"op": "stats"},
                                    self.config.stats_poll_ms)
                self._send_internal(handle, "metrics", {"op": "metrics"},
                                    self.config.stats_poll_ms)

    def _drain_retired(self, now: float) -> None:
        with self._lock:
            done = [h for h in self._draining
                    if not any(t.internal is None
                               for t in h.inflight.values())]
        for handle in done:
            handle.close_stdin()         # clean EOF shutdown
            with self._lock:
                if handle in self._draining:
                    self._draining.remove(handle)
            threading.Thread(target=self._reap, args=(handle,),
                             daemon=True).start()

    def _reap(self, handle: WorkerHandle) -> None:
        try:
            handle.proc.wait(timeout=self.config.drain_grace_s)
        except subprocess.TimeoutExpired:
            handle.kill()

    # ------------------------------------------------------------------
    # hot-swap
    # ------------------------------------------------------------------
    def _watch_checkpoint(self, now: float) -> None:
        if now < getattr(self, "_watch_due", 0.0):
            return
        self._watch_due = now + self.config.watch_poll_ms / 1000.0
        path = Path(self.checkpoint_path)
        if path.suffix != ".npz":
            path = path.with_name(path.name + ".npz")
        try:
            stat = path.stat()
        except OSError:
            return
        raw = (stat.st_mtime_ns, stat.st_size)
        if raw == self._watch_raw:
            return
        self._watch_raw = raw
        try:
            signature = checkpoint_signature(path)
        except Exception as error:
            with self._lock:
                self._counters.labels("swap_rejected").inc()
                self._event("swap_rejected", path=str(path),
                            reason=f"{type(error).__name__}: {error}")
            return
        if signature["sha"] == self.current_signature["sha"]:
            return
        threading.Thread(target=self.swap, args=(str(path),),
                         daemon=True, name="repro-serve-swap").start()

    def swap(self, new_checkpoint) -> dict:
        """Blue/green-rotate every shard onto ``new_checkpoint``.

        Validates the archive up front — a corrupt/torn checkpoint is
        rejected with zero impact on the running pool. Returns a result
        dict (also used as the admin ``swap`` op's reply). Rollback is
        this same call with the previous checkpoint file.
        """
        with self._swap_lock:
            with self._lock:
                self._swapping = True
            try:
                return self._swap_locked(new_checkpoint)
            finally:
                with self._lock:
                    self._swapping = False

    def _swap_locked(self, new_checkpoint) -> dict:
        old_signature = self.current_signature
        try:
            new_signature = checkpoint_signature(new_checkpoint)
        except Exception as error:
            with self._lock:
                self._counters.labels("swap_rejected").inc()
                self._event("swap_rejected", path=str(new_checkpoint),
                            reason=f"{type(error).__name__}: {error}")
            return {"ok": False, "error":
                    f"checkpoint rejected: {type(error).__name__}: "
                    f"{error}", "code": "swap_rejected",
                    "current": old_signature}
        rotated = []
        for shard in range(self.n_shards):
            with self._lock:
                old = self.routing[shard]
                generation = (old.generation + 1) if old else 1
            candidate = self._spawn(shard, generation, new_checkpoint)
            ok = candidate.hello.wait(self.config.boot_timeout_s)
            if not ok or candidate.fatal:
                candidate.kill()
                with self._lock:
                    self._counters.labels("swap_failures").inc()
                    self._event(
                        "swap_failed", shard=shard,
                        reason=candidate.fatal or "boot timeout",
                        rotated_shards=rotated)
                return {"ok": False, "code": "swap_failed",
                        "error": f"replacement worker for shard "
                                 f"{shard} failed to boot: "
                                 f"{candidate.fatal or 'boot timeout'}",
                        "rotated_shards": rotated,
                        "current": self.current_signature}
            with self._lock:
                old = self.routing[shard]
                self.routing[shard] = candidate
                self._restart_at.pop(shard, None)
                if old is not None and old.state != "dead":
                    old.retired = True
                    old.state = "draining"
                    self._draining.append(old)
            rotated.append(shard)
        with self._lock:
            self.checkpoint_path = str(new_checkpoint)
            self.current_signature = new_signature
            self._counters.labels("swaps").inc()
            self._event("swapped", old=old_signature["sha"],
                        new=new_signature["sha"],
                        path=str(new_checkpoint))
        return {"ok": True, "old": old_signature,
                "new": new_signature}

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _event(self, kind: str, **fields) -> None:
        # caller holds the lock
        self._counters.labels("events").inc()
        self.events.append(dict(fields, event=kind, ts=time.time()))
        del self.events[:-100]

    def stats(self) -> dict:
        """One aggregated snapshot: supervisor counters + the latest
        polled per-worker ``PredictionService.stats()``."""
        with self._lock:
            workers = [h.describe() for h in self.routing if h is not None]
            draining = [h.describe() for h in self._draining]
            signature = dict(self.current_signature)
            events = list(self.events[-10:])
        counters = {name: int(self._counters.labels(name).value)
                    for name in _COUNTER_NAMES}
        totals = {"cache_hits": 0, "cache_misses": 0, "cache_rejected": 0,
                  "batches": 0, "trees_encoded": 0, "requests": 0,
                  "queue_depth_hwm": 0}
        for worker in workers + draining:
            service = worker.get("service") or {}
            cache = service.get("cache", {})
            totals["cache_hits"] += cache.get("hits", 0)
            totals["cache_misses"] += cache.get("misses", 0)
            totals["cache_rejected"] += cache.get("rejected", 0)
            batcher = service.get("batcher", {})
            totals["batches"] += batcher.get("batches", 0)
            totals["queue_depth_hwm"] = max(
                totals["queue_depth_hwm"],
                batcher.get("queue_depth_hwm", 0))
            encoder = service.get("encoder", {})
            totals["trees_encoded"] += encoder.get("trees_encoded", 0)
            totals["requests"] += service.get("requests", {}).get("total", 0)
        # The workers' kernel backend + dtype (polled from their service
        # stats; they inherit REPRO_BACKEND through the environment), so
        # the --stats-every JSONL stream attributes throughput to the
        # right configuration. Falls back to this process's backend
        # before the first worker poll completes.
        backend = next(((w.get("service") or {}).get("backend")
                        for w in workers + draining
                        if (w.get("service") or {}).get("backend")), None)
        if backend is None:
            from ..nn import backend as nn_backend
            backend = nn_backend.describe()
        return {"uptime_s": time.monotonic() - self._started,
                "checkpoint": signature, "shards": self.n_shards,
                "backend": dict(backend),
                "counters": counters, "totals": totals,
                "workers": workers, "draining": draining,
                "recent_events": events}

    def metrics_snapshot(self) -> dict:
        """Cluster-wide registry snapshot: the supervisor's own families
        merged with every worker's last polled snapshot (shard-labeled)
        plus the retained snapshots of dead/retired workers — the
        payload behind the ``metrics`` front-door op, the scrape
        endpoint, and the ``--stats-every`` stream."""
        self._uptime.set(time.monotonic() - self._started)
        with self._lock:
            live = [(h.shard, h.metrics)
                    for h in (list(self.routing) + self._draining)
                    if h is not None and h.metrics
                    and not h.metrics_folded]
            retired = dict(self._retired_metrics)
        tagged = [obs_metrics.relabel(snap, shard=str(shard))
                  for shard, snap in live]
        return obs_metrics.merge(
            [self.registry.snapshot(), retired] + tagged)

    def _emit_stats_due(self, now: float) -> None:
        if (self.stats_stream is None
                or self.config.stats_interval_ms <= 0
                or now < self._stats_emit_due):
            return
        self._stats_emit_due = now + self.config.stats_interval_ms / 1000.0
        payload = json.dumps(dict(self.stats(), ts=time.time(),
                                  metrics=self.metrics_snapshot()))
        with self._stats_stream_lock:
            try:
                self.stats_stream.write(payload + "\n")
                self.stats_stream.flush()
            except (OSError, ValueError):
                pass                     # stream closed under us
