"""Concurrent load (and chaos) driver for the serving cluster.

Boots a ``ClusterServer`` over a freshly-checkpointed small model,
hammers it from N client threads, and verifies the cluster's two hard
invariants under load:

* **zero unanswered** — every request gets exactly one reply (a result
  or a structured error), never a hang;
* **zero incorrect** — every successful reply equals the single-process
  reference answer to 1e-8.

With ``--chaos`` the run additionally (a) ``SIGKILL``\\ s one worker
process mid-load, (b) offers the pool a deterministically corrupted
checkpoint (must be rejected with zero impact), and (c) hot-swaps to a
same-weights checkpoint mid-load (must rotate with zero dropped
requests) — the CI chaos smoke job. Throughput and the final
supervisor counters are written to a JSON artifact::

    PYTHONPATH=src python benchmarks/load_cluster.py --chaos \\
        --out chaos-load.json

Exit code is non-zero if any invariant is violated.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]


def build_reference(model, sources, pairs):
    embeds = {s: model.embed(s) for s in sources}
    compares = {pair: model.predict_probability(*pair) for pair in pairs}
    return embeds, compares


def make_sources(n):
    base = """
int main() {
    int n; cin >> n;
    long long s = 0;
    for (int i = 0; i < n; i++) s += i;
%s    cout << s;
    return 0;
}
"""
    return [base % ("".join(f"    s += {j} * n;\n" for j in range(k)))
            for k in range(1, n + 1)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--requests-per-thread", type=int, default=25)
    parser.add_argument("--chaos", action="store_true",
                        help="SIGKILL a worker and inject a corrupt + a "
                             "good checkpoint swap mid-load")
    parser.add_argument("--out", type=Path, default=None,
                        help="JSON artifact path (e.g. chaos-load.json)")
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args()

    from repro.core import build_model
    from repro.serve import checkpoint_signature, save_checkpoint
    from repro.serve.cluster import ClusterClient, ClusterServer
    from repro.serve.faults import corrupt_checkpoint
    from repro.serve.supervisor import SupervisorConfig

    model = build_model(embedding_dim=16, hidden_size=16, seed=args.seed)
    sources = make_sources(10)
    pairs = [(sources[i], sources[(i + 3) % 10]) for i in range(10)]
    embeds_ref, compares_ref = build_reference(model, sources, pairs)

    workdir = Path(tempfile.mkdtemp(prefix="repro-load-cluster-"))
    slot = save_checkpoint(model, workdir / "model.npz")
    v2 = save_checkpoint(model, workdir / "model_v2.npz",
                         extra={"tag": "load-test-v2"})
    broken = workdir / "broken.npz"
    shutil.copy(slot, broken)
    corrupt_checkpoint(broken, seed=0)

    total = args.threads * args.requests_per_thread
    results: list[list] = [[] for _ in range(args.threads)]
    failures: list[str] = []

    def load(index, address):
        try:
            with ClusterClient(address) as client:
                for step in range(args.requests_per_thread):
                    if (index + step) % 2 == 0:
                        source = sources[(index + step) % len(sources)]
                        reply = client.request(
                            {"op": "embed", "source": source}, timeout=120)
                        results[index].append(("embed", source, reply))
                    else:
                        pair = pairs[(index + step) % len(pairs)]
                        reply = client.request(
                            {"op": "compare", "first": pair[0],
                             "second": pair[1]}, timeout=120)
                        results[index].append(("compare", pair, reply))
        except Exception as error:
            failures.append(f"client {index}: {type(error).__name__}: "
                            f"{error}")

    config = SupervisorConfig(request_timeout_ms=60_000,
                              backoff_base_ms=50, backoff_cap_ms=400,
                              ping_interval_ms=200, ping_timeout_ms=500,
                              stats_poll_ms=100, seed=0)
    chaos_log: list[str] = []
    start = time.perf_counter()
    with ClusterServer(slot, workers=args.workers,
                       config=config).start() as server:
        threads = [threading.Thread(target=load, args=(i, server.address))
                   for i in range(args.threads)]
        for thread in threads:
            thread.start()
        if args.chaos:
            with ClusterClient(server.address) as admin:
                stats = admin.request({"op": "cluster_stats"},
                                      timeout=60)["stats"]
                victim = stats["workers"][0]
                os.kill(victim["pid"], signal.SIGKILL)
                chaos_log.append(f"SIGKILL worker shard="
                                 f"{victim['shard']} pid={victim['pid']}")
                reply = admin.request({"op": "swap",
                                       "model": str(broken)}, timeout=120)
                assert reply["ok"] is False \
                    and reply["code"] == "swap_rejected", reply
                chaos_log.append("corrupt checkpoint rejected (pool "
                                 "unaffected)")
                reply = admin.request({"op": "swap", "model": str(v2)},
                                      timeout=180)
                assert reply["ok"] is True, reply
                chaos_log.append(f"hot-swapped to "
                                 f"{checkpoint_signature(v2)['sha']}")
        for thread in threads:
            thread.join(timeout=300)
        wall = time.perf_counter() - start
        unanswered = total - sum(len(bucket) for bucket in results)
        hung = sum(t.is_alive() for t in threads)
        counters = server.supervisor.stats()["counters"]

    incorrect, errors = 0, 0
    for bucket in results:
        for kind, key, reply in bucket:
            if not reply.get("ok"):
                if isinstance(reply.get("code"), str):
                    errors += 1       # structured error: answered, allowed
                else:
                    incorrect += 1    # unstructured failure: not allowed
                continue
            if kind == "embed":
                good = np.allclose(reply["embedding"], embeds_ref[key],
                                   atol=1e-8)
            else:
                good = abs(reply["p_first_slower"]
                           - compares_ref[key]) <= 1e-8
            incorrect += 0 if good else 1

    answered = total - unanswered - hung
    report = {
        "pr": 6,
        "scenario": "cluster_chaos_load" if args.chaos
        else "cluster_load",
        "workers": args.workers,
        "threads": args.threads,
        "requests": total,
        "answered": answered,
        "unanswered": unanswered + hung,
        "errors": errors,
        "incorrect": incorrect,
        "wall_s": round(wall, 3),
        "throughput_rps": round(answered / wall, 1) if wall else None,
        "chaos": chaos_log,
        "client_failures": failures,
        "counters": counters,
    }
    print(json.dumps(report, indent=2))
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    shutil.rmtree(workdir, ignore_errors=True)

    ok = (not failures and unanswered == 0 and hung == 0
          and incorrect == 0)
    if args.chaos:
        ok = ok and counters["worker_deaths"] >= 1 \
            and counters["swap_rejected"] == 1 and counters["swaps"] == 1
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
