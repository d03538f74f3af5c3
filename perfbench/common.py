"""Shared plumbing of the benchmark: paths, environment, stamps, spans.

Nothing here imports the program at module import time; the program is
loaded from ``src/`` of the checkout the benchmark runs in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC = REPO_ROOT / "src"
WORK = BENCH_DIR / ".work"

#: Model size of the paper (tree-LSTM, embedding 120 / hidden 100).
EMBEDDING_DIM = 120
HIDDEN_SIZE = 100

#: Thread variables the program reads; recorded, never set.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "REPRO_NUM_THREADS", "REPRO_BACKEND")


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, bad spec, boot failure)."""


def require_program() -> None:
    """Fail fast when the checkout does not hold the program."""
    missing = [p for p in (SRC / "repro" / "__init__.py",
                           REPO_ROOT / "benchmarks" / "run_microbench.py",
                           REPO_ROOT / "BENCHMARK.json")
               if not p.is_file()]
    if missing:
        raise BenchError("not a checkout of the program; missing: "
                         + ", ".join(str(p.relative_to(REPO_ROOT))
                                     for p in missing))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(REPO_ROOT) not in sys.path:
        sys.path.append(str(REPO_ROOT))


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` every process of a run gets (see README:
    ``Collector`` seeds families with ``hash(tag)``)."""
    return str(seed % 4_294_967_296)


def child_env() -> dict:
    """Environment for every process the benchmark launches: the
    program on ``PYTHONPATH``, the run's hash seed inherited, thread
    variables left exactly as the user has them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def vmhwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def host_steal_s() -> float:
    """CPU seconds the hypervisor has given to other guests so far,
    summed over this machine's CPUs (``steal`` in ``/proc/stat``)."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _git_commit() -> str | None:
    if not (REPO_ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _blas() -> dict:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
    except TypeError:                     # numpy < 1.26
        return {"name": "unknown"}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def stamp() -> dict:
    """Where, on what and with what configuration a result was made."""
    from benchmarks.run_microbench import machine_fingerprint
    from repro.nn import backend as nn_backend

    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {"machine": machine_fingerprint(),
            "nproc": affinity or os.cpu_count(),
            "commit": _git_commit(),
            "backend": nn_backend.describe(),
            "blas": _blas(),
            "threads": {name: os.environ.get(name) for name in THREAD_VARS},
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "python": sys.version.split()[0]}


def percentile(values, q: float) -> float:
    import numpy as np

    if len(values) == 0:
        raise BenchError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50)


class Spans:
    """In-memory span recorder, written out once when the run ends.

    A span is ``{id, name, start, end, parent, rid}`` with monotonic
    seconds; ``parent`` is the id of the enclosing span, ``rid`` the
    request (or submission) the span belongs to.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rid=None):
        if not self.enabled:
            yield None
            return
        record = {"id": len(self.spans), "name": name,
                  "start": time.monotonic(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "rid": rid}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.monotonic()

    def add(self, name: str, start: float, end: float, parent=None,
            rid=None) -> int:
        """Record a span timed elsewhere (e.g. by the load generator)."""
        if not self.enabled:
            return -1
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": start, "end": end, "parent": parent,
                           "rid": rid})
        return len(self.spans) - 1

    def extend(self, spans: list[dict], parent=None) -> None:
        """Adopt spans recorded in another process, re-numbering ids."""
        base = len(self.spans)
        for span in spans:
            copied = dict(span, id=span["id"] + base)
            copied["parent"] = (span["parent"] + base
                                if span["parent"] is not None else parent)
            self.spans.append(copied)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time[span["id"]]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans,
                                    "self_time_s": self.self_times()}))
