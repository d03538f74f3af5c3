"""A cluster worker runs one OS thread, BLAS included.

``repro.serve.worker.main`` sets ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` to 1 before numpy loads, unless the operator has set
either one; then it changes nothing. Without the pin, numpy's OpenBLAS
starts one helper thread per further usable CPU, and the helpers spin
after every multi-threaded matmul. With one usable CPU it starts none
whatever the variables say, so these tests skip there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import build_model
from repro.serve import save_checkpoint
from repro.serve.cluster import ClusterClient, ClusterServer
from repro.serve.worker import BLAS_THREAD_VARS

from .test_cluster import fast_config
from .test_service_e2e import variants

pytestmark = [
    pytest.mark.slow,              # spawns worker subprocesses
    pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                       reason="OpenBLAS starts no helper thread on one CPU"),
]

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    return save_checkpoint(build_model(embedding_dim=16, hidden_size=16,
                                       seed=2),
                           tmp_path_factory.mktemp("threads") / "model.npz")


def os_threads(pid: int) -> int:
    return len(os.listdir(f"/proc/{pid}/task"))


def _compare(first: str, second: str) -> dict:
    return {"op": "compare", "first": first, "second": second}


def boot_worker(checkpoint, **preset) -> subprocess.Popen:
    """``python -m repro.serve.worker`` with neither thread variable
    inherited, plus ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(preset)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serve.worker", "--model",
         str(checkpoint)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True, env=env)


def threads_at_hello_and_after_compare(proc) -> tuple[int, int]:
    try:
        pid = json.loads(proc.stdout.readline())["hello"]["pid"]
        at_hello = os_threads(pid)
        first, second = variants(2)
        request = {"t": "c1", "req": _compare(first, second)}
        proc.stdin.write(json.dumps(request) + "\n")
        proc.stdin.flush()
        assert json.loads(proc.stdout.readline())["resp"]["ok"] is True
        return at_hello, os_threads(pid)
    finally:
        proc.stdin.close()
        proc.wait(timeout=30)


def test_worker_pins_one_blas_thread(checkpoint):
    proc = boot_worker(checkpoint)
    assert threads_at_hello_and_after_compare(proc) == (1, 1)


@pytest.mark.parametrize("name", BLAS_THREAD_VARS)
def test_operator_thread_setting_wins(checkpoint, name):
    proc = boot_worker(checkpoint, **{name: "2"})
    assert threads_at_hello_and_after_compare(proc) == (2, 2)


def test_every_cluster_worker_runs_one_thread(checkpoint, monkeypatch):
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    server = ClusterServer(checkpoint, workers=2,
                           config=fast_config()).start()
    try:
        pids = [w["pid"] for w in server.supervisor.stats()["workers"]]
        assert len(pids) == 2
        assert [os_threads(pid) for pid in pids] == [1, 1]
        sources = variants(4)
        with ClusterClient(server.address) as client:
            for first, second in zip(sources, sources[1:]):
                assert client.request(_compare(first, second))["ok"] is True
        assert [os_threads(pid) for pid in pids] == [1, 1]
    finally:
        server.close()
