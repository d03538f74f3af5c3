"""The serving workloads: ``repro serve --workers 2`` driven open-loop.

The cluster is started exactly as a user starts it
(``python -m repro serve --model M --workers 2 --listen 127.0.0.1:0``)
and driven by ``loadgen.py``, a separate process with one connection
and two threads. Latency is timed from each request's due time.
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from common import (BENCH_DIR, REPO_ROOT, BenchError, Spans, child_env,
                    percentile, vmhwm_mb)
from inputs import arrival_offsets

#: Replies are checked against the in-process reference to this bound.
TOLERANCE = 1e-8
#: Reference rate and window (serve-hot; the pipeline's serve segment
#: uses the rate). At 1,000 req/s serve-hot runs at about a fifth of
#: the 2-CPU capacity, and its p50 sits at the arrival gap (see README:
#: the front door's Nagle hold); at 2,000 req/s p50 flips between two
#: levels from run to run. 6,000 requests give ten slices.
REF_RATE = {"serve-hot": 1000.0, "pipeline": 25.0}
REF_REQUESTS = 6000
#: Each rate step is warmed with its own traffic for this long first.
WARM_S = 0.5
#: A sweep step's window: this long, and at least STEP_MIN requests.
STEP_S = 2.5
STEP_MIN = 100
#: The sweep's first step above the reference rate, the ratio of the
#: steps after it, and the number of bisection probes once a pass and
#: a miss bracket the limit.
FIRST_STEP = 2.0
STEP_RATIO = 1.4
PROBES = 3
#: An open-loop phase holds requests back past this many in flight:
#: below the cluster's shedding point (64 per shard), so a step past
#: capacity misses on latency instead of making the server refuse work.
MAX_OUTSTANDING = 48
#: A step whose generator lag (send time minus the time the request
#: could first be sent) has a p99 above this share of the latency limit
#: measures the load generator, not the program: it is neither a pass
#: nor a miss, and the sweep goes no higher.
GENERATOR_LAG_SHARE = 0.25
#: A window's p50 and p95 are medians over slices of this many requests.
SLICE_REQUESTS = 600
#: Setup is measured this many times per run (median reported).
SETUPS = 5


class Cluster:
    """One ``python -m repro serve --workers 2`` process."""

    def __init__(self, checkpoint: Path, workers: int = 2):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model",
             str(checkpoint), "--workers", str(workers),
             "--listen", "127.0.0.1:0"],
            cwd=REPO_ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            line = self.proc.stderr.readline()
        except BaseException:
            self.proc.kill()           # interrupted while booting
            self.proc.wait()
            raise
        if "workers on " not in line:
            self.close()
            raise BenchError(f"cluster failed to start: {line.strip()}")
        host, _, port = line.split("workers on ")[1].split()[0] \
            .rpartition(":")
        self.address = (host, int(port))
        self._drain = threading.Thread(target=self._read_stderr,
                                       daemon=True)
        self._drain.start()

    def _read_stderr(self) -> None:
        for _ in self.proc.stderr:       # keep the pipe from filling up
            pass

    def admin(self, request: dict) -> dict:
        with socket.create_connection(self.address, timeout=30) as sock:
            sock.sendall((json.dumps(request) + "\n").encode())
            with sock.makefile("r", encoding="utf-8") as stream:
                reply = json.loads(stream.readline())
        if not reply.get("ok"):
            raise BenchError(f"admin {request['op']} failed: {reply}")
        return reply

    def wait_ready(self, timeout: float = 60.0) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            stats = self.admin({"op": "cluster_stats"})["stats"]
            if all(w["state"] == "ready" for w in stats["workers"]):
                return stats
            if time.monotonic() > deadline:
                raise BenchError("workers not ready")
            time.sleep(0.05)

    def peak_rss(self) -> dict:
        workers = [w["pid"] for w in
                   self.admin({"op": "cluster_stats"})["stats"]["workers"]]
        return {"frontdoor": vmhwm_mb(self.proc.pid),
                "workers": [vmhwm_mb(pid) for pid in workers]}

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if getattr(self, "_drain", None) is not None:
            self._drain.join(timeout=5)


class LoadGen:
    """The load-generator process (see ``loadgen.py``)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "loadgen.py")],
            cwd=REPO_ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def _call(self, command: dict) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("load generator died")
        return json.loads(line)

    def connect(self, address) -> None:
        self._call({"cmd": "connect", "host": address[0],
                    "port": address[1]})

    def closed(self, requests: list[dict]) -> list:
        return self._call({"cmd": "run", "requests": requests,
                           "offsets": None})["records"]

    def open(self, requests: list[dict], offsets: list[float]) -> dict:
        return self._call({"cmd": "run", "requests": requests,
                           "offsets": offsets,
                           "max_outstanding": MAX_OUTSTANDING})

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Session:
    """Everything sent in one run, in order, with every record, so the
    reference check covers every reply."""

    def __init__(self):
        self.requests: list[dict] = []
        self.records: list = []

    def add(self, requests, records) -> list:
        self.requests.extend(requests[:len(records)])
        self.records.extend(records)
        return records

    def ok_served(self) -> int:
        """Replies a worker answered (what its request counter counts)."""
        return sum(1 for r in self.records
                   if r[3] is not None and r[3].get("ok"))


def _slices(values: list[float]) -> list:
    return np.array_split(np.asarray(values),
                          max(1, len(values) // SLICE_REQUESTS))


def _sliced(values: list[float], q: float) -> float:
    return float(np.median([percentile(part, q)
                            for part in _slices(values)]))


def window_stats(records: list, limit_ms: float) -> dict:
    """Latency from due time, failures and backlog of one window.

    ``p50_ms`` and ``p95_ms`` are medians over consecutive slices of
    ``SLICE_REQUESTS``: one host or program stall then moves one slice,
    not the figure. ``p99_ms`` is over the whole window."""
    latencies, failed = [], 0
    for due, _, received, reply, _ in records:
        if received is None or not reply.get("ok"):
            failed += 1
            continue
        latencies.append((received - due) * 1000)
    stats = {"requests": len(records), "failed": failed}
    if len(latencies) < 2:
        return dict(stats, passed=False, generator_limited=False)
    received = [r[2] for r in records if r[2] is not None]
    offered = (len(records) - 1) / (records[-1][0] - records[0][0])
    # replies arriving slower than requests were due: the backlog grows
    completed = (len(received) - 1) / (max(received) - min(received))
    stats.update(
        p50_ms=_sliced(latencies, 50), p95_ms=_sliced(latencies, 95),
        p99_ms=percentile(latencies, 99),
        p95_slices_ms=[round(percentile(part, 95), 3)
                       for part in _slices(latencies)],
        late_ms_p99=percentile([(r[1] - r[0]) * 1000 for r in records], 99),
        lag_ms_p99=percentile([(r[1] - r[4]) * 1000 for r in records], 99),
        mean_wire_ms=float(np.mean([(r[2] - r[1]) * 1000 for r in records
                                    if r[2] is not None])),
        achieved_rps=completed, growing=completed < 0.9 * offered)
    stats["generator_limited"] = (stats["lag_ms_p99"]
                                  > GENERATOR_LAG_SHARE * limit_ms)
    stats["passed"] = (failed == 0 and stats["p99_ms"] <= limit_ms
                       and not stats["growing"]
                       and not stats["generator_limited"])
    return stats


# --- program counters ------------------------------------------------------
def _family_total(snapshot: dict, name: str, field: str | None = None,
                  ops=None) -> float:
    """Sum of a family over every label row (shards, ops)."""
    payload = snapshot.get(name)
    if payload is None:
        return 0.0
    labels = payload.get("labels", [])
    total = 0.0
    for values, dumped in payload.get("values", []):
        if ops is not None and "op" in labels \
                and values[labels.index("op")] not in ops:
            continue
        total += dumped[field] if field else dumped
    return total


SERVED_OPS = ("compare", "rank")


def settled_scrape(cluster: Cluster, expected: int, spans: Spans,
                   timeout: float = 10.0) -> tuple[dict, dict]:
    """Worker counters once they include every request answered so
    far. The supervisor refreshes worker snapshots only every
    ``stats_poll_ms`` (1 s by default), so an immediate scrape would
    under-count."""
    deadline = time.monotonic() + timeout
    with spans.span("scrape.settle"):
        while True:
            snapshot = cluster.admin({"op": "metrics"})["metrics"]
            served = _family_total(snapshot, "repro_serve_requests_total",
                                   ops=SERVED_OPS)
            if served >= expected:
                break
            if time.monotonic() > deadline:
                raise BenchError(f"worker counters did not settle: "
                                 f"{served:.0f} of {expected} requests")
            time.sleep(0.2)
        stats = cluster.admin({"op": "cluster_stats"})["stats"]
    return snapshot, stats


def counter_layers(before: tuple, after: tuple, window: dict) -> dict:
    """Per-layer metrics from two settled scrapes around a window."""
    (snap_a, stats_a), (snap_b, stats_b) = before, after

    def delta(name, field=None, ops=None):
        return (_family_total(snap_b, name, field, ops)
                - _family_total(snap_a, name, field, ops))

    handled = delta("repro_serve_request_latency_seconds", "count",
                    SERVED_OPS)
    handle_ms = 1000 * delta("repro_serve_request_latency_seconds", "sum",
                             SERVED_OPS) / max(1.0, handled)
    hits = delta("repro_serve_cache_hits_total")
    misses = delta("repro_serve_cache_misses_total")
    batches = delta("repro_serve_batcher_batches_total")
    trees = delta("repro_serve_encoded_trees_total")
    counters_a, counters_b = stats_a["counters"], stats_b["counters"]
    dispatched = [w_b["dispatched"] - w_a["dispatched"]
                  for w_a, w_b in zip(stats_a["workers"],
                                      stats_b["workers"])]
    layer = {
        "service.handle_ms": handle_ms,
        "cluster.transport_ms": window["mean_wire_ms"] - handle_ms,
        "cache.hit_share": hits / max(1.0, hits + misses),
        "batcher.mean_batch": delta("repro_serve_batcher_items_total")
        / max(1.0, batches),
        "encoder.ms_per_tree": 1000 * delta(
            "repro_serve_encode_seconds_total") / max(1.0, trees),
        "encoder.trees": trees,
        "supervisor.shard_skew": max(dispatched)
        / max(1e-9, float(np.mean(dispatched))),
        "load.late_ms_p99": window["late_ms_p99"],
    }
    for name in ("overload_rejected", "deadline_expired", "redispatched",
                 "affinity_misses", "parked"):
        layer[f"supervisor.{name}"] = counters_b[name] - counters_a[name]
    return layer


# --- the in-process reference ----------------------------------------------
def reference_answers(checkpoint: str, requests: list[dict]) -> list:
    """Expected answer and canonical-AST keys per request, from the
    checkpoint loaded in this process."""
    from repro.serve import PredictionService
    from repro.serve.cache import canonical_key
    from repro.serve.checkpoint import load_checkpoint

    from inputs import request_sources

    model = load_checkpoint(checkpoint)
    service = PredictionService(load_checkpoint(checkpoint), threaded=False)
    out = []
    for request in requests:
        if request["op"] == "compare":
            expected = model.predict_probability(request["first"],
                                                 request["second"])
        else:
            expected = [[e["candidate"], e["score"]]
                        for e in service.rank(request["candidates"])]
        out.append([expected, [canonical_key(model.featurizer(s))
                               for s in request_sources(request)]])
    return out


def request_key(request: dict) -> str:
    return json.dumps(request, sort_keys=True)


def reference(checkpoint: Path, requests: list[dict],
              workdir: Path) -> dict:
    """The reference answer of every distinct request, computed from
    the same checkpoint in two processes (``load_checkpoint`` →
    ``predict_probability`` for compare, ``PredictionService.rank`` for
    rank). The reference is not measured: each process gets one BLAS
    thread so the two do not oversubscribe the cores."""
    distinct = list({request_key(r): r for r in requests}.values())
    half = (len(distinct) + 1) // 2
    chunks = [distinct[:half], distinct[half:]]
    env = dict(child_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    procs = []
    for index, chunk in enumerate(chunks):
        (workdir / f"ref-in-{index}.json").write_text(json.dumps(chunk))
        procs.append(subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve.py"), str(checkpoint),
             str(workdir / f"ref-in-{index}.json"),
             str(workdir / f"ref-out-{index}.json")],
            cwd=REPO_ROOT, env=env))
    try:
        codes = [proc.wait(timeout=170) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if any(codes):
        raise BenchError(f"reference processes failed: {codes}")
    refs = {}
    for index, chunk in enumerate(chunks):
        answers = json.loads((workdir / f"ref-out-{index}.json").read_text())
        for request, answer in zip(chunk, answers):
            if request["op"] == "rank":
                answer[0] = dict((int(c), v) for c, v in answer[0])
            refs[request_key(request)] = answer
    return refs


def check_replies(requests: list[dict], records: list, refs: dict) -> dict:
    """Count replies that are missing, refused, or differ from the
    reference by more than ``TOLERANCE``."""
    counts = {"attempted": len(requests), "succeeded": 0, "failed": 0,
              "dropped": 0, "mismatched": 0}
    for request, record in zip(requests, records):
        reply = record[3]
        if reply is None:
            counts["dropped"] += 1
            continue
        if not reply.get("ok"):
            counts["failed"] += 1
            continue
        expected = refs[request_key(request)][0]
        if request["op"] == "compare":
            good = abs(reply["p_first_slower"] - expected) <= TOLERANCE
        else:
            got = {e["candidate"]: e["score"] for e in reply["ranking"]}
            good = got.keys() == expected.keys() and all(
                abs(got[k] - expected[k]) <= TOLERANCE for k in got)
        if good:
            counts["succeeded"] += 1
        else:
            counts["mismatched"] += 1
    counts["dropped"] += len(requests) - len(records)
    return counts


def ast_repeat_share(requests: list[dict], refs: dict) -> float:
    """Share of source occurrences whose canonical AST came earlier."""
    seen: set[str] = set()
    repeats = total = 0
    for request in requests:
        for key in refs[request_key(request)][1]:
            total += 1
            repeats += key in seen
            seen.add(key)
    return repeats / max(1, total)


# --- the workloads ---------------------------------------------------------
def make_checkpoint(seed: int, path: Path) -> Path:
    """A paper-size tree-LSTM checkpoint (weights seeded, untrained:
    serving cost does not depend on what the weights learned)."""
    from repro.core import build_model
    from repro.serve import save_checkpoint

    from common import EMBEDDING_DIM, HIDDEN_SIZE

    model = build_model(encoder_kind="treelstm", embedding_dim=EMBEDDING_DIM,
                        hidden_size=HIDDEN_SIZE, seed=seed)
    return save_checkpoint(model, path)


class Driver:
    """One run's cluster, load generator and request log."""

    def __init__(self, checkpoint: Path, take, limit_ms: float,
                 spans: Spans):
        self.checkpoint = checkpoint
        self.take = take
        self.limit_ms = limit_ms
        self.spans = spans
        self.session = Session()
        self.loadgen = LoadGen()
        self.cluster: Cluster | None = None
        self.baseline = 0
        self.phase = 0

    def boot(self, warmup: list[dict]) -> float:
        """Launch until every worker is ready and the warm-up is done."""
        if self.cluster is not None:
            self.cluster.close()
        self.baseline = self.session.ok_served()
        start = time.monotonic()
        self.cluster = Cluster(self.checkpoint)
        self.cluster.wait_ready()
        self.loadgen.connect(self.cluster.address)
        self.session.add(warmup, self.loadgen.closed(warmup))
        return time.monotonic() - start

    def step(self, rate: float, requests: int) -> dict:
        """One rate step: warm-up at the step's own rate and mix, then
        the measured window, with no idle gap between them."""
        self.phase += 1
        warm = max(10, int(rate * WARM_S))
        batch = self.take(warm + requests)
        offsets = arrival_offsets(rate, len(batch))
        out = self.loadgen.open(batch, offsets)
        records = self.session.add(batch, out["records"])
        window = records[warm:]
        stats = window_stats(window, self.limit_ms)
        if out["aborted"] or len(window) < requests:
            stats["passed"] = False
        stats.update(rate=rate, aborted=out["aborted"])
        self.last_window = (batch[warm:warm + len(window)], window)
        return stats

    def scrape(self) -> tuple[dict, dict]:
        return settled_scrape(self.cluster,
                              self.session.ok_served() - self.baseline,
                              self.spans)

    def traced_step(self, rate: float, requests: int) -> tuple[dict, dict]:
        """A step bracketed by settled counter scrapes, with a span per
        request; returns the window stats and the counter layers."""
        before = self.scrape()
        with self.spans.span("serve.window"):
            stats = self.step(rate, requests)
            window = self.last_window[1]
            for index, (due, at, received, _, _) in enumerate(window):
                if received is None:
                    continue
                parent = self.spans.add("client.request", due, received,
                                        rid=f"{self.phase}:{index}")
                self.spans.add("load.send_delay", due, at, parent=parent)
        after = self.scrape()
        return stats, counter_layers(before, after, stats)

    def peak_rss(self) -> dict:
        return self.cluster.peak_rss()

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
        self.loadgen.close()


def sweep(driver: Driver, ref: dict, seconds: float) -> dict:
    """Highest offered rate whose window meets the latency limit with
    nothing failed and no growing backlog. Steps up from the reference
    rate (down, if it misses) until the outcome flips or ``seconds``
    are spent, then bisects between the bracketing rates. On the way up
    a missed rate is run once more and misses only if that window
    misses too. A step the load generator could not keep up with is
    neither a pass nor a miss: the sweep goes no higher and says so.
    Reports the rate achieved at the best passing step."""
    steps = [ref]
    limited_by = "time"

    def step(rate):
        stats = driver.step(rate, max(STEP_MIN, int(rate * STEP_S)))
        steps.append(stats)
        return stats

    started = time.monotonic()
    low = high = None
    if ref["passed"]:
        low, rate = ref["rate"], ref["rate"] * FIRST_STEP
        while high is None and time.monotonic() - started < seconds:
            stats = step(rate)
            if not (stats["passed"] or stats["generator_limited"]):
                # one host stall must not end the ascent: a rate misses
                # when a second window at it misses too
                stats = step(rate)
            if stats["generator_limited"]:
                break
            if stats["passed"]:
                low, rate = rate, rate * STEP_RATIO
            else:
                high = rate
    else:
        # a miss, or a generator that could not keep up: step down
        high, rate = ref["rate"], ref["rate"] / STEP_RATIO
        while low is None and time.monotonic() - started < seconds:
            if step(rate)["passed"]:
                low = rate
            else:
                high, rate = rate, rate / STEP_RATIO
    if low is not None and high is not None:
        limited_by = "latency"
        for _ in range(PROBES):
            mid = (low * high) ** 0.5
            stats = step(mid)
            if stats["generator_limited"]:
                break
            if stats["passed"]:
                low = mid
            else:
                high = mid
    if any(s["generator_limited"] for s in steps):
        limited_by = "generator"
    passing = [s for s in steps if s["passed"]]
    best = max(passing, key=lambda s: s["rate"]) if passing else None
    return {"max_rps_at_slo": best["achieved_rps"] if best else 0.0,
            "best_rate": best["rate"] if best else None,
            "limited_by": limited_by,
            "steps": [{k: (round(v, 3) if isinstance(v, float) else v)
                       for k, v in s.items()} for s in steps]}


def serve_replays(spans: Spans, checkpoint: Path,
                  requests: list[dict]) -> dict:
    """The per-layer replays on a serve workload's measured requests:
    frontend (parse, featurize), encode in compare-sized batches, and
    the router."""
    from repro.serve.checkpoint import load_checkpoint

    import replays
    from inputs import request_sources

    model = load_checkpoint(checkpoint)
    sources = list(dict.fromkeys(s for r in requests
                                 for s in request_sources(r)))[:300]
    layer, trees = replays.frontend(spans, sources, model.featurizer.vocab)
    layer.update(replays.encode(spans, model, trees, 2))
    layer.update(replays.router(spans, checkpoint, requests))
    return layer


if __name__ == "__main__":
    # reference worker: serve.py CHECKPOINT REQUESTS_JSON OUT_JSON
    _, model_path, requests_path, out_path = sys.argv
    Path(out_path).write_text(json.dumps(reference_answers(
        model_path, json.loads(Path(requests_path).read_text()))))
