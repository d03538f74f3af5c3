"""End-to-end serving tests: the acceptance criteria of the subsystem.

Drives ``PredictionService`` (and the ``repro serve`` CLI) through a
mixed stream of >= 32 embed/compare/rank requests and proves:

(a) batcher-coalesced answers equal single-request answers to 1e-8;
(b) a repeated (even reformatted) source is a cache hit — the encoder
    sees the tree exactly once;
(c) warm-cache serving beats naive per-request ``predict_probability``
    by >= 3x, timed live on the burst of the serving microbenchmark.
"""

import io
import json
import threading
import time

import numpy as np
import pytest

from benchmarks.test_perf_serve import _compare_burst
from repro.cli import main
from repro.core import build_model
from repro.serve import PredictionService, save_checkpoint

from ..helpers import backend_tolerance

BASE = """
int main() {
    int n; cin >> n;
    long long s = 0;
    for (int i = 0; i < n; i++) s += i;
%s    cout << s;
    return 0;
}
"""


def variants(n):
    """Structurally distinct programs (k extra statements each): the
    canonical hash ignores literal values, so structure must differ."""
    return [BASE % ("".join(f"    s += {j} * n;\n" for j in range(k)))
            for k in range(1, n + 1)]


@pytest.fixture(scope="module")
def model():
    return build_model(embedding_dim=16, hidden_size=16, seed=2)


class TestMixedRequestStream:
    def test_32_mixed_requests_match_single_request_answers(self, model):
        """(a): coalesced results == single-request results to 1e-8."""
        sources = variants(12)
        rng = np.random.default_rng(0)
        requests = []
        for t in range(36):                      # > 32, mixed ops
            if t % 3 == 0:
                requests.append(("embed", sources[int(rng.integers(12))]))
            else:
                i, j = rng.integers(0, 12, size=2)
                requests.append(("compare", sources[int(i)],
                                 sources[int(j)]))
        with PredictionService(model, threaded=False, max_batch=8) as svc:
            answers = []
            for req in requests:
                if req[0] == "embed":
                    answers.append(svc.embed(req[1]))
                else:
                    answers.append(svc.compare(req[1], req[2]))
            stats = svc.stats()
        # every answer equals the unbatched, uncached reference path
        for req, got in zip(requests, answers):
            if req[0] == "embed":
                np.testing.assert_allclose(got, model.embed(req[1]),
                                           atol=backend_tolerance(1e-8))
            else:
                assert got == pytest.approx(
                    model.predict_probability(req[1], req[2]), abs=backend_tolerance(1e-8))
        # and the work was genuinely coalesced + cached
        assert stats["requests"]["total"] == 36
        assert stats["encoder"]["trees_encoded"] == 12     # distinct trees
        assert stats["batcher"]["batches"] < 12            # fused, not 1-by-1
        assert stats["cache"]["hits"] > 0

    def test_threaded_concurrent_clients_coalesce(self, model):
        """Concurrent submitters share fused flushes, same answers."""
        sources = variants(16)
        with PredictionService(model, threaded=True, max_batch=16,
                               max_delay_ms=25.0) as svc:
            results = [None] * 16

            def client(i):
                results[i] = svc.embed(sources[i])

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = svc.stats()
        for i, source in enumerate(sources):
            np.testing.assert_allclose(results[i], model.embed(source),
                                       atol=backend_tolerance(1e-8))
        assert stats["batcher"]["batches"] < 16  # coalesced across threads

    def test_rank_matches_pairwise_compares(self, model):
        sources = variants(4)
        with PredictionService(model, threaded=False) as svc:
            ranking = svc.rank(sources)
            # recompute each score from single-request compares
            for entry in ranking:
                i = entry["candidate"]
                probs = [model.predict_probability(sources[i], s)
                         for j, s in enumerate(sources) if j != i]
                assert entry["score"] == pytest.approx(
                    float(np.mean(probs)), abs=backend_tolerance(1e-8))
        order = [e["candidate"] for e in ranking]
        assert sorted(order) == [0, 1, 2, 3]


class TestCacheBehaviour:
    def test_repeated_source_is_cache_hit_encoder_once(self, model):
        """(b): resubmissions never re-encode — even reformatted ones."""
        source = variants(3)[-1]
        reformatted = source.replace("\n    ", "\n        ")
        with PredictionService(model, threaded=False) as svc:
            encoded_batches = []
            original = svc.model.encoder.encode_batch

            def spy(feats):
                encoded_batches.append(len(feats))
                return original(feats)

            svc.model.encoder.encode_batch = spy
            try:
                first = svc.embed(source)
                for _ in range(4):
                    np.testing.assert_array_equal(svc.embed(source), first)
                np.testing.assert_array_equal(svc.embed(reformatted), first)
            finally:
                svc.model.encoder.encode_batch = original
            stats = svc.stats()
        assert sum(encoded_batches) == 1          # the encoder ran once
        assert stats["cache"]["hits"] == 5

    def test_lru_bound_forces_reencode_after_eviction(self, model):
        a, b, c = variants(3)
        with PredictionService(model, threaded=False, cache_size=2) as svc:
            svc.embed(a)
            svc.embed(b)
            svc.embed(c)                          # evicts a
            svc.embed(a)                          # must re-encode
            stats = svc.stats()
        assert stats["encoder"]["trees_encoded"] == 4
        assert stats["cache"]["size"] == 2

    def test_admission_threshold_keeps_giant_trees_out(self, model):
        """A tree above --cache-max-nodes is served correctly but never
        cached: re-embedding it re-encodes, while small trees keep
        hitting."""
        small, giant = variants(1)[0], variants(12)[-1]
        small_nodes = model.featurizer(small).num_nodes
        giant_nodes = model.featurizer(giant).num_nodes
        threshold = (small_nodes + giant_nodes) // 2
        with PredictionService(model, threaded=False, cache_size=8,
                               cache_max_nodes=threshold) as svc:
            first = svc.embed(giant)
            np.testing.assert_array_equal(svc.embed(giant), first)
            svc.embed(small)
            svc.embed(small)
            stats = svc.stats()
        assert stats["encoder"]["trees_encoded"] == 3  # giant twice + small
        assert stats["cache"]["rejected"] == 2
        assert stats["cache"]["size"] == 1             # only the small tree

    def test_stats_expose_batcher_backpressure(self, model):
        with PredictionService(model, threaded=False) as svc:
            svc.embed_many(variants(3))
            stats = svc.stats()
        batcher = stats["batcher"]
        assert batcher["queue_depth_hwm"] == 3
        assert batcher["flush_triggers"]["inline"] >= 1
        assert set(batcher["flush_triggers"]) == {"size", "latency",
                                                 "inline", "close"}


def _best_of_3(run) -> float:
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


class TestWarmServingSpeed:
    def test_warm_serving_beats_naive_by_3x(self, model):
        """(c): a 32-compare burst over prewarmed trees, timed through
        the service and through per-request ``predict_probability``."""
        sources = variants(16)
        burst = _compare_burst(sources)
        with PredictionService(model, threaded=False) as svc:
            svc.prewarm(sources)
            warm = _best_of_3(lambda: [svc.compare(a, b) for a, b in burst])
        naive = _best_of_3(
            lambda: [model.predict_probability(a, b) for a, b in burst])
        assert naive >= 3.0 * warm, \
            f"warm serving only {naive / warm:.1f}x faster than naive"


class TestServeCli:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("serve_cli")
        model = build_model(embedding_dim=16, hidden_size=16, seed=2)
        return save_checkpoint(model, root / "model.npz"), model

    def test_bulk_file_mode(self, checkpoint, tmp_path):
        path, model = checkpoint
        sources = variants(6)
        requests = [{"id": i, "op": "embed", "source": s}
                    for i, s in enumerate(sources)]
        requests.append({"id": 90, "op": "compare",
                         "first": sources[0], "second": sources[1]})
        requests.append({"id": 91, "op": "compare",
                         "old": sources[0], "new": sources[1],
                         "threshold": 0.9})
        requests.append({"id": 92, "op": "rank",
                         "candidates": sources[:3]})
        requests.append({"id": 93, "op": "embed", "source": "garbage(("})
        requests.append({"id": 94, "op": "stats"})
        req_file = tmp_path / "requests.jsonl"
        req_file.write_text(
            "".join(json.dumps(r) + "\n" for r in requests))
        out_file = tmp_path / "responses.jsonl"
        assert main(["serve", "--model", str(path),
                     "--requests", str(req_file),
                     "--out", str(out_file)]) == 0
        responses = {r["id"]: r for r in
                     (json.loads(line)
                      for line in out_file.read_text().splitlines())}
        assert len(responses) == len(requests)
        for i, s in enumerate(sources):
            np.testing.assert_allclose(responses[i]["embedding"],
                                       model.embed(s), atol=backend_tolerance(1e-8))
        assert responses[90]["p_first_slower"] == pytest.approx(
            model.predict_probability(sources[0], sources[1]), abs=backend_tolerance(1e-8))
        assert responses[91]["flagged"] is False  # threshold 0.9
        assert [e["candidate"] for e in responses[92]["ranking"]]
        assert responses[93]["ok"] is False
        assert "ParseError" in responses[93]["error"]
        assert responses[94]["stats"]["requests"]["total"] >= 9

    def test_bulk_mode_survives_malformed_json_line(self, checkpoint,
                                                    tmp_path):
        """One bad line yields one error response, not a dead run."""
        path, model = checkpoint
        source = variants(1)[0]
        req_file = tmp_path / "requests.jsonl"
        req_file.write_text(
            json.dumps({"id": 0, "op": "embed", "source": source}) + "\n"
            "{truncated\n"
            + json.dumps({"id": 1, "op": "embed", "source": source}) + "\n")
        out_file = tmp_path / "responses.jsonl"
        assert main(["serve", "--model", str(path),
                     "--requests", str(req_file),
                     "--out", str(out_file)]) == 0
        responses = [json.loads(line)
                     for line in out_file.read_text().splitlines()]
        assert [r["ok"] for r in responses] == [True, False, True]
        assert "bad JSON" in responses[1]["error"]

    def test_out_of_range_threshold_is_a_request_error(self, checkpoint,
                                                       tmp_path):
        path, _ = checkpoint
        a, b = variants(2)
        req_file = tmp_path / "requests.jsonl"
        req_file.write_text(json.dumps(
            {"id": 0, "op": "compare", "old": a, "new": b,
             "threshold": 2.0}) + "\n")
        out_file = tmp_path / "responses.jsonl"
        assert main(["serve", "--model", str(path),
                     "--requests", str(req_file),
                     "--out", str(out_file)]) == 0
        response = json.loads(out_file.read_text())
        assert response["ok"] is False
        assert "threshold" in response["error"]

    def test_stream_mode_over_stdin(self, checkpoint, capsys, monkeypatch):
        path, model = checkpoint
        sources = variants(2)
        lines = [
            json.dumps({"id": 0, "op": "embed", "source": sources[0]}),
            "not json at all",
            json.dumps({"id": 1, "op": "compare",
                        "first": sources[0], "second": sources[1]}),
            json.dumps({"id": 2, "op": "nonsense"}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", "--model", str(path)]) == 0
        out = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
        assert len(out) == 4
        assert out[0]["ok"] is True
        np.testing.assert_allclose(out[0]["embedding"],
                                   model.embed(sources[0]), atol=backend_tolerance(1e-8))
        assert out[1]["ok"] is False and "bad JSON" in out[1]["error"]
        assert out[2]["p_first_slower"] == pytest.approx(
            model.predict_probability(sources[0], sources[1]), abs=backend_tolerance(1e-8))
        assert out[3]["ok"] is False and "unknown op" in out[3]["error"]
