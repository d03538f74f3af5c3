#!/usr/bin/env python
"""CI smoke for the scrape endpoint: boot a real 2-worker cluster via
the CLI with ``--metrics-port``, serve a handful of JSONL requests over
TCP, scrape ``/metrics`` over HTTP, and assert the request counters
moved. Exercises the full wire path a production Prometheus would see:
CLI flag -> supervisor metrics poll -> shard relabel + merge -> text
exposition. Then stop the server with SIGTERM, as ``docker stop`` does,
and assert that it drains and exits 0.

Run from the repository root (CI wires this next to archlint)::

    PYTHONPATH=src python tools/metrics_smoke.py

Exit status 0 on success; any failure raises with a readable message.
"""

import json
import os
import re
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")
sys.path.insert(0, SRC)

BASE = """
int main() {
    int n; cin >> n;
    long long s = 0;
    for (int i = 0; i < n; i++) s += i;
%s    cout << s;
    return 0;
}
"""

#: structurally distinct programs (the canonical hash ignores literals)
SOURCES = [BASE % ("".join(f"    s += {j} * n;\n" for j in range(k)))
           for k in range(1, 7)]

BANNER = re.compile(r"cluster: (\d+) workers on ([\d.]+):(\d+)"
                    r".* metrics on :(\d+)")


def wait_for(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    last = None
    while time.monotonic() < deadline:
        last = predicate()
        if last:
            return last
        time.sleep(0.1)
    raise AssertionError(f"timed out waiting for {message}")


def scrape(port: int, path: str = "/metrics") -> str:
    url = f"http://127.0.0.1:{port}{path}"
    with urllib.request.urlopen(url, timeout=10) as response:
        assert response.status == 200, f"{url} -> {response.status}"
        return response.read().decode("utf-8")


def counter_total(text: str, name: str) -> float:
    """Sum every sample of one counter family in Prometheus text."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith(name + "_"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def main() -> int:
    from repro.core import build_model
    from repro.serve import save_checkpoint

    with tempfile.TemporaryDirectory(prefix="metrics_smoke_") as tmp:
        checkpoint = save_checkpoint(
            build_model(embedding_dim=16, hidden_size=16, seed=2),
            Path(tmp) / "model.npz")

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--model", str(checkpoint), "--workers", "2",
             "--listen", "127.0.0.1:0", "--metrics-port", "0"],
            stderr=subprocess.PIPE, text=True, env=env, cwd=REPO_ROOT)
        try:
            def banner():
                line = proc.stderr.readline()
                if not line:
                    raise AssertionError(
                        f"server exited (rc={proc.poll()}) before its "
                        "startup banner")
                return BANNER.search(line)

            match = wait_for(banner, timeout=60,
                             message="cluster startup banner")
            host, tcp_port = match.group(2), int(match.group(3))
            metrics_port = int(match.group(4))
            print(f"cluster up: {match.group(1)} workers at "
                  f"{host}:{tcp_port}, scrape on :{metrics_port}")

            # the endpoint answers before any traffic (zeroed families)
            text = scrape(metrics_port)
            assert "# TYPE repro_cluster_shards gauge" in text, \
                "supervisor families missing from first scrape"

            with socket.create_connection((host, tcp_port),
                                          timeout=30) as conn:
                stream = conn.makefile("r", encoding="utf-8")
                for i, source in enumerate(SOURCES):
                    conn.sendall((json.dumps(
                        {"id": i, "op": "embed", "source": source})
                        + "\n").encode())
                    reply = json.loads(stream.readline())
                    assert reply["ok"], f"embed failed: {reply}"
                print(f"served {len(SOURCES)} embed requests over TCP")

                def counters_scraped():
                    served = counter_total(scrape(metrics_port),
                                           "repro_serve_requests_total")
                    return served >= len(SOURCES) and served

                served = wait_for(counters_scraped, timeout=30,
                                  message="request counters in scrape")

            text = scrape(metrics_port)
            for needle in ('repro_serve_requests_total{shard="',
                           "# TYPE repro_serve_request_latency_seconds "
                           "histogram",
                           "# TYPE repro_serve_cache_misses_total "
                           "counter"):
                assert needle in text, f"scrape is missing {needle!r}"
            snap = json.loads(scrape(metrics_port, "/metrics.json"))
            assert "repro_serve_requests_total" in snap, \
                "JSON exposition missing request counters"
            print(f"scrape OK: repro_serve_requests_total={served:g} "
                  "across shards, histogram + cache families present")
        finally:
            # SIGTERM, as `docker stop` sends it: the front door drains
            # and exits 0.
            proc.terminate()
            try:
                code = proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=15)
                raise AssertionError("server did not exit within 15 s "
                                     "of SIGTERM")
        assert code == 0, f"server exited {code} on SIGTERM, not 0"
        print("SIGTERM: server drained and exited 0")
    print("metrics smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
