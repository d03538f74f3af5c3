"""End-to-end tests of the fault-tolerant serving cluster.

These are the acceptance tests of the `repro.serve.cluster` tier. Every
test drives a real TCP server over real worker subprocesses; faults are
injected deterministically (:mod:`repro.serve.faults`), never hoped
for. The invariants proved here:

* answers through the cluster equal the single-process
  ``PredictionService`` to 1e-8, whatever worker served them;
* routing follows the canonical-AST hash, so each distinct tree is
  encoded exactly once across the whole pool;
* every fault — crash, hang, overload, corrupt checkpoint — degrades to
  exactly one structured reply per request, never a hang;
* a restarted worker rejoins its shard; a hot-swap rotates the pool
  with zero dropped requests, and rollback is one admin op.
"""

import io
import json
import os
import shutil
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import build_model
from repro.serve import checkpoint_signature, save_checkpoint
from repro.serve.cluster import ClusterClient, ClusterServer, probe
from repro.serve.faults import corrupt_checkpoint
from repro.serve.supervisor import Supervisor, SupervisorConfig

from ..helpers import backend_tolerance

from .test_service_e2e import variants

pytestmark = pytest.mark.slow      # spawns worker subprocesses


def fast_config(**overrides):
    """Production defaults shrunk to test-suite timescales."""
    settings = dict(request_timeout_ms=15_000.0, high_water=64,
                    ping_interval_ms=200.0, ping_timeout_ms=400.0,
                    ping_misses=2, stats_poll_ms=100.0,
                    backoff_base_ms=50.0, backoff_cap_ms=400.0,
                    drain_grace_s=5.0, seed=0)
    settings.update(overrides)
    return SupervisorConfig(**settings)


def wait_until(predicate, timeout=20.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)  # archlint: allow-sleep (bounded poll, not a synchronization wait)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture(scope="module")
def model():
    return build_model(embedding_dim=16, hidden_size=16, seed=2)


@pytest.fixture(scope="module")
def model_b():
    """A second, differently-initialized model for swap tests."""
    return build_model(embedding_dim=16, hidden_size=16, seed=3)


@pytest.fixture(scope="module")
def checkpoint(model, tmp_path_factory):
    root = tmp_path_factory.mktemp("cluster_ckpt")
    return save_checkpoint(model, root / "model.npz")


def _accepted_end(server, client: socket.socket) -> socket.socket:
    """The front door's socket for ``client``, found under the lock that
    keeps it open while it is in the connection set."""
    with server._conns_lock:
        for conn in server._conns:
            try:
                if conn.getpeername() == client.getsockname():
                    return conn
            except OSError:
                continue                # another test's client hung up
    raise AssertionError("connection not accepted")


class TestClusterEquivalence:
    """Answers through the pool == the single-process service, 1e-8."""

    @pytest.fixture(scope="class")
    def server(self, checkpoint):
        server = ClusterServer(checkpoint, workers=2,
                               config=fast_config()).start()
        yield server
        server.close()

    def test_mixed_ops_match_single_process(self, server, model):
        sources = variants(8)
        with ClusterClient(server.address) as client:
            for source in sources:
                reply = client.request({"op": "embed", "source": source})
                assert reply["ok"] is True
                np.testing.assert_allclose(reply["embedding"],
                                           model.embed(source), atol=backend_tolerance(1e-8))
            reply = client.request({"op": "compare", "first": sources[0],
                                    "second": sources[1]})
            assert reply["p_first_slower"] == pytest.approx(
                model.predict_probability(sources[0], sources[1]), abs=backend_tolerance(1e-8))
            reply = client.request({"op": "compare", "old": sources[2],
                                    "new": sources[3], "threshold": 0.9})
            assert reply["regression_probability"] == pytest.approx(
                model.predict_probability(sources[3], sources[2]), abs=backend_tolerance(1e-8))
            assert reply["flagged"] is False
            reply = client.request({"op": "embed_many",
                                    "sources": sources[:3]})
            for row, source in zip(reply["embeddings"], sources[:3]):
                np.testing.assert_allclose(row, model.embed(source),
                                           atol=backend_tolerance(1e-8))
            reply = client.request({"op": "rank",
                                    "candidates": sources[:4]})
            for entry in reply["ranking"]:
                i = entry["candidate"]
                probs = [model.predict_probability(sources[i], other)
                         for j, other in enumerate(sources[:4]) if j != i]
                assert entry["score"] == pytest.approx(
                    float(np.mean(probs)), abs=backend_tolerance(1e-8))

    def test_structured_errors_with_codes(self, server):
        with ClusterClient(server.address) as client:
            reply = client.request({"op": "embed", "source": "int main( {"})
            assert reply["ok"] is False
            assert reply["code"] == "bad_request"
            assert "ParseError" in reply["error"]
            reply = client.request({"op": "frobnicate"})
            assert reply["ok"] is False and reply["code"] == "bad_request"

    def test_bad_json_line_gets_a_reply_and_stream_survives(self, server,
                                                            model):
        source = variants(1)[0]
        with socket.create_connection(server.address, timeout=10) as raw:
            stream = raw.makefile("r", encoding="utf-8")
            raw.sendall(b"{definitely not json\n")
            reply = json.loads(stream.readline())
            assert reply["ok"] is False and reply["code"] == "bad_json"
            # replies are not held back by Nagle's algorithm
            assert _accepted_end(server, raw).getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY)
            raw.sendall(b"[1, 2, 3]\n")
            reply = json.loads(stream.readline())
            assert reply["ok"] is False and reply["code"] == "bad_json"
            # the connection is still perfectly serviceable
            raw.sendall((json.dumps({"id": 1, "op": "embed",
                                     "source": source}) + "\n").encode())
            reply = json.loads(stream.readline())
            assert reply["ok"] is True
            np.testing.assert_allclose(reply["embedding"],
                                       model.embed(source), atol=backend_tolerance(1e-8))

    def test_out_of_order_replies_rematch_by_id(self, server, model):
        sources = variants(4)
        with ClusterClient(server.address) as client:
            ids = [client.send({"op": "embed", "source": s})
                   for s in sources]
            # collect in reverse: recv buffers whatever arrives first
            for request_id, source in zip(reversed(ids), reversed(sources)):
                reply = client.recv(request_id)
                np.testing.assert_allclose(reply["embedding"],
                                           model.embed(source), atol=backend_tolerance(1e-8))

    def test_probe_healthcheck(self, server):
        host, port = server.address
        stats = probe(f"{host}:{port}")
        assert stats["shards"] == 2
        assert len(stats["workers"]) == 2

    def test_stats_op_is_cluster_aggregated(self, server):
        # plain `stats` is an admin op answered by the supervisor with
        # the same aggregated snapshot as `cluster_stats`; a per-worker
        # counter dump would be misleading behind the round-robin router
        with ClusterClient(server.address) as client:
            reply = client.request({"op": "stats"})
            assert reply["ok"] is True
            stats = reply["stats"]
            assert stats["shards"] == 2
            assert len(stats["workers"]) == 2
            assert "totals" in stats and "counters" in stats
            admin = client.request({"op": "cluster_stats"})["stats"]
            assert set(stats) == set(admin)


class TestShardAffinity:
    def test_each_distinct_tree_encoded_once_across_the_pool(
            self, checkpoint, model):
        sources = variants(6)
        with ClusterServer(checkpoint, workers=2,
                           config=fast_config()).start() as server:
            shards = [server.router.shard_for({"op": "embed", "source": s})
                      for s in sources]
            assert len(set(shards)) == 2      # both shards get traffic
            with ClusterClient(server.address) as client:
                for _ in range(2):            # every source twice
                    for source in sources:
                        reply = client.request({"op": "embed",
                                                "source": source})
                        np.testing.assert_allclose(
                            reply["embedding"], model.embed(source),
                            atol=backend_tolerance(1e-8))
                # a reformatted resubmission routes to the same shard
                reformatted = sources[0].replace("\n    ", "\n          ")
                assert server.router.shard_for(
                    {"op": "embed", "source": reformatted}) == shards[0]
                reply = client.request({"op": "embed",
                                        "source": reformatted})
                np.testing.assert_allclose(reply["embedding"],
                                           model.embed(sources[0]),
                                           atol=backend_tolerance(1e-8))
                # wait for a stats poll that has seen all 13 requests (an
                # earlier poll can land between the two passes)
                wait_until(
                    lambda: client.request({"op": "cluster_stats"})
                    ["stats"]["totals"]["requests"] >= 13,
                    message="stats poll")
                stats = client.request({"op": "cluster_stats"})["stats"]
        # 13 requests, 6 distinct trees: affinity means no tree was ever
        # encoded by more than one worker
        assert stats["totals"]["trees_encoded"] == 6
        assert stats["totals"]["cache_hits"] >= 7
        assert stats["counters"]["affinity_misses"] == 0
        dispatched = {w["shard"]: w["dispatched"] for w in stats["workers"]}
        for shard in set(shards):
            assert dispatched[shard] > 0

    def test_router_keeps_no_trees_and_builds_no_adjacency(
            self, checkpoint, monkeypatch):
        # The shard memo answers every repeat and holds shard numbers
        # only; routing parses and hashes, so it never builds the GCN's
        # dense adjacency or an encoder schedule, and leaves the
        # process-wide schedule memo as it found it.
        from repro.core import features
        from repro.nn import treelstm
        from repro.serve.cluster import _Router

        def refuse(num_nodes, edges):
            raise AssertionError("the router built a dense adjacency")

        monkeypatch.setattr(features, "normalized_adjacency", refuse)
        monkeypatch.setattr(treelstm, "_SCHEDULE_CACHE", {})
        router = _Router(checkpoint, n_shards=2)
        sources = variants(4)
        shards = [router.shard_for({"op": "embed", "source": s})
                  for s in sources]
        assert [router.shard_for({"op": "compare", "first": s,
                                  "second": sources[0]})
                for s in sources] == shards
        assert treelstm._SCHEDULE_CACHE == {}
        assert all(type(shard) is int
                   for shard in router._memo._data.values())

    def test_router_digest_is_the_worker_cache_key(self, checkpoint):
        # Affinity holds only if the front door's numpy-free digest is
        # byte-for-byte the key a worker's embedding cache uses.
        from repro.core import TreeFeaturizer
        from repro.corpus.registry import (TABLE1_TAGS, family_for_tag,
                                           mp_families)
        from repro.corpus.styles import Style
        from repro.lang.vocab import NodeVocab
        from repro.serve import canonical_key, read_checkpoint_meta
        from repro.serve.cluster import _Router

        router = _Router(checkpoint, n_shards=2)
        featurize = TreeFeaturizer(NodeVocab.from_payload(
            read_checkpoint_meta(checkpoint)["vocab"]))
        families = ([family_for_tag(tag, scale=0.1) for tag in TABLE1_TAGS]
                    + mp_families(count=6, scale=0.1))
        sources = []
        for family in families:
            sources += [family.generate(np.random.default_rng(seed)).source
                        for seed in (0, 1)]
            sources += [family.emit_solution(
                np.random.default_rng(5),
                Style(np.random.default_rng(style_seed))).source
                for style_seed in (11, 12, 13)]
        assert len(set(sources)) > 60
        for source in sources:
            assert router.digest(source) == canonical_key(featurize(source))


class TestOverloadShedding:
    def test_past_high_water_sheds_with_structured_reply(self, checkpoint,
                                                         model):
        fault = json.dumps({"seed": 0, "specs": [
            {"action": "slow", "after_requests": 1, "ms": 300, "every": 1}]})
        source = variants(1)[0]
        with ClusterServer(checkpoint, workers=1,
                           config=fast_config(high_water=1),
                           fault_plans={0: fault}).start() as server:
            with ClusterClient(server.address) as client:
                ids = [client.send({"op": "embed", "source": source})
                       for _ in range(6)]
                replies = [client.recv(i) for i in ids]
        served = [r for r in replies if r["ok"]]
        shed = [r for r in replies if not r["ok"]]
        assert len(replies) == 6              # exactly one reply each
        assert served and shed                # some served, some shed
        assert all(r["code"] == "overloaded" for r in shed)
        assert all("retry" in r["error"] for r in shed)
        for reply in served:
            np.testing.assert_allclose(reply["embedding"],
                                       model.embed(source), atol=backend_tolerance(1e-8))


class TestHangAndDeadline:
    def test_hung_worker_deadline_then_healthcheck_restart(self, checkpoint,
                                                           model):
        fault = json.dumps({"seed": 0, "specs": [
            {"action": "hang", "after_requests": 1}]})
        source = variants(1)[0]
        with ClusterServer(checkpoint, workers=1,
                           config=fast_config(request_timeout_ms=500),
                           fault_plans={0: fault}).start() as server:
            with ClusterClient(server.address) as client:
                reply = client.request({"op": "embed", "source": source},
                                       timeout=10)
                # the client is never left hanging: a deadline reply
                # arrives while the worker sleeps forever
                assert reply["ok"] is False
                assert reply["code"] == "deadline_exceeded"

                # missed heartbeats get the hung worker killed and
                # replaced; the replacement (generation 2, no faults)
                # serves the same request correctly
                def recovered():
                    stats = server.supervisor.stats()
                    workers = stats["workers"]
                    return (stats["counters"]["worker_restarts"] >= 1
                            and workers
                            and workers[0]["state"] == "ready"
                            and workers[0]["generation"] >= 2)

                wait_until(recovered, message="hung worker replacement")
                reply = client.request({"op": "embed", "source": source},
                                       timeout=20)
                assert reply["ok"] is True
                np.testing.assert_allclose(reply["embedding"],
                                           model.embed(source), atol=backend_tolerance(1e-8))
            stats = server.supervisor.stats()
        assert stats["counters"]["pings_missed"] >= 2
        assert stats["counters"]["worker_deaths"] >= 1


class TestCrashRedispatch:
    def test_kill_mid_request_redispatches_and_rejoins_shard(
            self, checkpoint, model):
        fault = json.dumps({"seed": 0, "specs": [
            {"action": "kill", "after_requests": 3}]})
        with ClusterServer(checkpoint, workers=2,
                           config=fast_config(),
                           fault_plans={0: fault}).start() as server:
            # enough sources that shard 0 certainly owns four of them
            sources = variants(16)
            shard0 = [s for s in sources if server.router.shard_for(
                {"op": "embed", "source": s}) == 0]
            assert len(shard0) >= 4
            with ClusterClient(server.address) as client:
                # request 3 kills the shard-0 worker *before* answering;
                # the orphaned ticket is redispatched to the other
                # worker — the client just sees a correct answer
                for source in shard0[:3]:
                    reply = client.request({"op": "embed",
                                            "source": source}, timeout=30)
                    assert reply["ok"] is True
                    np.testing.assert_allclose(reply["embedding"],
                                               model.embed(source),
                                               atol=backend_tolerance(1e-8))
                stats = server.supervisor.stats()
                assert stats["counters"]["worker_deaths"] == 1
                assert stats["counters"]["redispatched"] >= 1
                assert stats["counters"]["affinity_misses"] >= 1

                # backoff restart: generation 2 comes up on shard 0
                def rejoined():
                    workers = server.supervisor.stats()["workers"]
                    by_shard = {w["shard"]: w for w in workers}
                    return (0 in by_shard
                            and by_shard[0]["state"] == "ready"
                            and by_shard[0]["generation"] == 2)

                wait_until(rejoined, message="shard-0 restart")
                before = {w["shard"]: w["dispatched"]
                          for w in server.supervisor.stats()["workers"]}
                reply = client.request({"op": "embed",
                                        "source": shard0[3]}, timeout=30)
                assert reply["ok"] is True
                np.testing.assert_allclose(reply["embedding"],
                                           model.embed(shard0[3]),
                                           atol=backend_tolerance(1e-8))
                after = {w["shard"]: w["dispatched"]
                         for w in server.supervisor.stats()["workers"]}
        # the restarted worker took its own shard's traffic again
        assert after[0] == before[0] + 1
        assert after[1] == before[1]

    def test_restart_gap_parks_requests_instead_of_failing(self, checkpoint,
                                                           model):
        """With a single worker, a crash leaves *no* ready worker; the
        ticket waits out the restart instead of erroring."""
        fault = json.dumps({"seed": 0, "specs": [
            {"action": "kill", "after_requests": 1}]})
        source = variants(1)[0]
        with ClusterServer(checkpoint, workers=1,
                           config=fast_config(),
                           fault_plans={0: fault}).start() as server:
            with ClusterClient(server.address) as client:
                reply = client.request({"op": "embed", "source": source},
                                       timeout=30)
                assert reply["ok"] is True
                np.testing.assert_allclose(reply["embedding"],
                                           model.embed(source), atol=backend_tolerance(1e-8))
            stats = server.supervisor.stats()
        assert stats["counters"]["worker_deaths"] == 1
        assert stats["counters"]["parked"] >= 1
        assert stats["counters"]["worker_restarts"] == 1
        assert stats["counters"]["retries_exhausted"] == 0

    def test_write_to_dead_worker_fails_over(self, checkpoint, model,
                                             monkeypatch):
        """A worker can be dead before its reader thread has handled the
        pipe closing. A request written to it in that gap goes to the
        other worker after the first failed write instead of spending
        every retry on the same closed pipe."""
        noticed, release = threading.Event(), threading.Event()
        on_exit = Supervisor._on_worker_exit

        def held_exit(self, handle):
            noticed.set()
            release.wait(timeout=30)
            on_exit(self, handle)

        monkeypatch.setattr(Supervisor, "_on_worker_exit", held_exit)
        with ClusterServer(checkpoint, workers=2,
                           config=fast_config()).start() as server:
            source = next(s for s in variants(16) if server.router.shard_for(
                {"op": "embed", "source": s}) == 0)
            try:
                server.supervisor.routing[0].kill()
                assert noticed.wait(timeout=30)
                with ClusterClient(server.address) as client:
                    reply = client.request({"op": "embed",
                                            "source": source}, timeout=30)
            finally:
                release.set()
            stats = server.supervisor.stats()
        assert reply["ok"] is True, reply
        np.testing.assert_allclose(reply["embedding"], model.embed(source),
                                   atol=backend_tolerance(1e-8))
        assert stats["counters"]["redispatched"] == 1
        assert stats["counters"]["retries_exhausted"] == 0


class TestHotSwap:
    def test_swap_rollback_and_watcher(self, model, model_b, tmp_path):
        slot = save_checkpoint(model, tmp_path / "slot.npz")
        other = save_checkpoint(model_b, tmp_path / "other.npz")
        broken = tmp_path / "broken.npz"
        shutil.copy(slot, broken)
        corrupt_checkpoint(broken, seed=0)
        sha_v1 = checkpoint_signature(slot)["sha"]
        sha_v2 = checkpoint_signature(other)["sha"]
        source = variants(1)[0]
        config = fast_config(watch=True, watch_poll_ms=100,
                             drain_grace_s=2)
        with ClusterServer(slot, workers=1, config=config).start() as server:
            with ClusterClient(server.address) as client:
                def served_embedding():
                    reply = client.request({"op": "embed",
                                            "source": source}, timeout=30)
                    assert reply["ok"] is True
                    return np.asarray(reply["embedding"])

                np.testing.assert_allclose(served_embedding(),
                                           model.embed(source), atol=backend_tolerance(1e-8))

                # 1. corrupt checkpoint: rejected before any rotation
                reply = client.request({"op": "swap",
                                        "model": str(broken)}, timeout=60)
                assert reply["ok"] is False
                assert reply["code"] == "swap_rejected"
                assert reply["current"]["sha"] == sha_v1
                np.testing.assert_allclose(served_embedding(),
                                           model.embed(source), atol=backend_tolerance(1e-8))

                # 2. real swap: the pool now answers with the new model
                reply = client.request({"op": "swap",
                                        "model": str(other)}, timeout=60)
                assert reply["ok"] is True
                assert reply["old"]["sha"] == sha_v1
                assert reply["new"]["sha"] == sha_v2
                np.testing.assert_allclose(served_embedding(),
                                           model_b.embed(source), atol=backend_tolerance(1e-8))
                wait_until(lambda: not server.supervisor.stats()["draining"],
                           message="old worker drain")

                # 3. rollback is the same op pointed at the old file
                reply = client.request({"op": "swap",
                                        "model": str(slot)}, timeout=60)
                assert reply["ok"] is True
                np.testing.assert_allclose(served_embedding(),
                                           model.embed(source), atol=backend_tolerance(1e-8))

                # 4. watcher: an atomic overwrite of the checkpoint slot
                # (exactly what engine save_state does) is picked up and
                # rotated in without any admin op
                staging = tmp_path / "staging.npz"
                shutil.copy(other, staging)
                os.replace(staging, slot)
                wait_until(
                    lambda: server.supervisor.stats()["checkpoint"]["sha"]
                    == sha_v2, message="watcher swap")
                np.testing.assert_allclose(served_embedding(),
                                           model_b.embed(source), atol=backend_tolerance(1e-8))
            stats = server.supervisor.stats()
        assert stats["counters"]["swaps"] == 3
        assert stats["counters"]["swap_rejected"] == 1
        assert stats["counters"]["swap_failures"] == 0


class TestStatsStream:
    def test_periodic_jsonl_stream_aggregates_worker_counters(
            self, model, tmp_path):
        """Satellite 3: per-worker cache admission + backpressure
        counters are polled by the supervisor, aggregated, and emitted
        as a periodic JSONL stats stream."""
        path = save_checkpoint(model, tmp_path / "model.npz")
        stream = io.StringIO()
        sources = variants(4)
        config = fast_config(stats_interval_ms=100,
                             cache_max_nodes=1)    # admit nothing
        with ClusterServer(path, workers=2, config=config,
                           stats_stream=stream).start() as server:
            with ClusterClient(server.address) as client:
                for _ in range(2):
                    for source in sources:
                        assert client.request({"op": "embed",
                                               "source": source})["ok"]

                def aggregated():
                    totals = client.request({"op": "cluster_stats"}) \
                        ["stats"]["totals"]
                    return (totals["cache_rejected"] >= 8
                            and totals["requests"] >= 8)

                wait_until(aggregated, message="stats aggregation")
                stats = client.request({"op": "cluster_stats"})["stats"]

                def stream_caught_up():
                    lines = stream.getvalue().splitlines()
                    return bool(lines) and json.loads(lines[-1]) \
                        ["totals"]["cache_rejected"] >= 8

                wait_until(stream_caught_up, message="stats stream")
        # cache admission under the cluster: every embedding was over
        # the admission threshold, so repeats re-encoded, nothing cached
        assert stats["totals"]["cache_rejected"] >= 8
        assert stats["totals"]["cache_hits"] == 0
        assert stats["totals"]["trees_encoded"] >= 8
        assert stats["totals"]["requests"] >= 8
        for worker in stats["workers"]:
            service = worker["service"]
            assert service["cache"]["rejected"] >= 1
            assert "queue_depth_hwm" in service["batcher"]
        # the periodic JSONL stream carries the same aggregation
        lines = [json.loads(line)
                 for line in stream.getvalue().splitlines()]
        assert len(lines) >= 2               # it is genuinely periodic
        for snapshot in lines:
            assert snapshot["shards"] == 2
            assert set(snapshot["counters"]) >= {"dispatched", "replied"}
            assert "cache_rejected" in snapshot["totals"]
        assert lines[-1]["totals"]["cache_rejected"] >= 8


class TestChaos:
    def test_kill_and_checkpoint_corruption_mid_load(self, model,
                                                     tmp_path):
        """The acceptance criterion: under concurrent load, kill a
        worker and throw a corrupt checkpoint + a hot-swap at the pool;
        every request gets exactly one reply, every reply is correct to
        1e-8, and the restarted worker rejoins its shard."""
        slot = save_checkpoint(model, tmp_path / "model.npz")
        # same weights, different bytes: replies stay reference-equal
        # no matter which version answers mid-rotation
        v2 = save_checkpoint(model, tmp_path / "model_v2.npz",
                             extra={"tag": "v2"})
        broken = tmp_path / "broken.npz"
        shutil.copy(slot, broken)
        corrupt_checkpoint(broken, seed=0)
        sha_v2 = checkpoint_signature(v2)["sha"]
        assert sha_v2 != checkpoint_signature(slot)["sha"]

        sources = variants(10)
        reference = {s: model.embed(s) for s in sources}
        pairs = [(sources[i], sources[(i + 3) % 10]) for i in range(10)]
        compare_ref = {pair: model.predict_probability(*pair)
                       for pair in pairs}

        fault = json.dumps({"seed": 0, "specs": [
            {"action": "kill", "after_requests": 4}]})
        n_threads, per_thread = 4, 12
        results: list[list] = [[] for _ in range(n_threads)]
        failures: list[Exception] = []

        def load(worker_index, address):
            try:
                with ClusterClient(address) as client:
                    for step in range(per_thread):
                        if (worker_index + step) % 2 == 0:
                            source = sources[(worker_index + step) % 10]
                            reply = client.request(
                                {"op": "embed", "source": source},
                                timeout=60)
                            results[worker_index].append(
                                ("embed", source, reply))
                        else:
                            pair = pairs[(worker_index + step) % 10]
                            reply = client.request(
                                {"op": "compare", "first": pair[0],
                                 "second": pair[1]}, timeout=60)
                            results[worker_index].append(
                                ("compare", pair, reply))
            except Exception as error:  # pragma: no cover - diagnostics
                failures.append(error)

        config = fast_config(request_timeout_ms=30_000)
        with ClusterServer(slot, workers=2, config=config,
                           fault_plans={0: fault}).start() as server:
            threads = [threading.Thread(target=load,
                                        args=(i, server.address))
                       for i in range(n_threads)]
            for thread in threads:
                thread.start()
            with ClusterClient(server.address) as admin:
                # the scheduled kill fires within the first few requests
                wait_until(
                    lambda: admin.request({"op": "cluster_stats"})
                    ["stats"]["counters"]["worker_deaths"] >= 1,
                    timeout=30, message="scheduled worker kill")
                # corrupt checkpoint mid-load: rejected, zero impact
                reply = admin.request({"op": "swap",
                                       "model": str(broken)}, timeout=60)
                assert reply["ok"] is False
                assert reply["code"] == "swap_rejected"
                # zero-downtime hot-swap mid-load
                reply = admin.request({"op": "swap", "model": str(v2)},
                                      timeout=120)
                assert reply["ok"] is True

                for thread in threads:
                    thread.join(timeout=120)
                assert not any(t.is_alive() for t in threads), \
                    "a client hung: some request never got a reply"
                assert not failures, failures

                def settled():
                    stats = admin.request({"op": "cluster_stats"})["stats"]
                    workers = stats["workers"]
                    return (len(workers) == 2
                            and all(w["state"] == "ready" for w in workers)
                            and {w["shard"] for w in workers} == {0, 1})

                wait_until(settled, message="pool to settle post-swap")
                stats = admin.request({"op": "cluster_stats"})["stats"]

        # exactly one reply per request...
        flat = [entry for bucket in results for entry in bucket]
        assert len(flat) == n_threads * per_thread
        # ...and every single one is correct to 1e-8 — the kill, the
        # rejected checkpoint, and the live rotation were all absorbed
        for kind, key, reply in flat:
            assert reply["ok"] is True, reply
            if kind == "embed":
                np.testing.assert_allclose(reply["embedding"],
                                           reference[key], atol=backend_tolerance(1e-8))
            else:
                assert reply["p_first_slower"] == pytest.approx(
                    compare_ref[key], abs=backend_tolerance(1e-8))
        assert stats["counters"]["worker_deaths"] >= 1
        assert stats["counters"]["swap_rejected"] == 1
        assert stats["counters"]["swaps"] == 1
        assert stats["checkpoint"]["sha"] == sha_v2
        # the killed worker's shard is staffed by a ready replacement
        by_shard = {w["shard"]: w for w in stats["workers"]}
        assert by_shard[0]["generation"] >= 2
