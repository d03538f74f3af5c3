"""Self-tests of the benchmark itself (not collected by the tier-1 run):

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import REPO_ROOT, SRC, child_env, load_spec, require_program  # noqa: E402

require_program()

import inputs  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402

_DIGEST = """
import sys
sys.path.insert(0, {bench!r})
import inputs
from repro.corpus import Collector
from repro.corpus.registry import family_for_tag
db = Collector(seed=3).collect([family_for_tag("E", scale=0.25)],
                               per_problem=4)
print(inputs.corpus_digest(db))
"""


def _digest_under(hash_seed: str) -> str:
    code = _DIGEST.format(bench=str(Path(__file__).resolve().parent))
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT,
                         env=dict(child_env(), PYTHONHASHSEED=hash_seed),
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return out.stdout.strip()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Collector seeds each family with hash(family.tag) "
    "(src/repro/corpus/collector.py:96), which PYTHONHASHSEED randomizes"))
def test_corpus_digest_does_not_depend_on_hash_seed():
    assert _digest_under("1") == _digest_under("2")


def _compare_case():
    request = {"op": "compare", "first": "a", "second": "b"}
    rank = {"op": "rank", "candidates": ["a", "b", "c", "d"]}
    refs = {serve.request_key(request): (0.25, []),
            serve.request_key(rank): ({0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4}, [])}
    ranking = [{"candidate": i, "score": s}
               for i, s in enumerate((0.1, 0.2, 0.3, 0.4))]
    records = [[0.0, 0.0, 0.001, {"ok": True, "p_first_slower": 0.25}],
               [0.0, 0.0, 0.001, {"ok": True, "ranking": ranking}]]
    return [request, rank], records, refs


def test_correct_replies_pass_the_check():
    requests, records, refs = _compare_case()
    counts = serve.check_replies(requests, records, refs)
    assert counts["succeeded"] == 2 and counts["mismatched"] == 0


def test_wrong_reply_fails_the_check():
    requests, records, refs = _compare_case()
    records[0][3]["p_first_slower"] = 0.25 + 1e-6
    records[1][3]["ranking"][2]["score"] = 0.31
    counts = serve.check_replies(requests, records, refs)
    assert counts["mismatched"] == 2


def test_dropped_reply_fails_the_check():
    requests, records, refs = _compare_case()
    records[0][2] = records[0][3] = None
    assert serve.check_replies(requests, records, refs)["dropped"] == 1
    assert serve.check_replies(requests, records[:1], refs)["dropped"] == 2


def test_one_seed_gives_byte_identical_streams():
    def stream_bytes(seed):
        stream = inputs.ServeStream(seed)
        phases = [stream.prewarm(), stream.take(30), stream.take(30)]
        return json.dumps(phases).encode()

    assert stream_bytes(5) == stream_bytes(5)
    assert stream_bytes(5) != stream_bytes(6)


def test_hot_working_set_fits_the_default_caches():
    stream = inputs.ServeStream(4)
    sources = {s for r in stream.prewarm() for s in inputs.request_sources(r)}
    assert len(sources) <= inputs.HOT_PROGRAMS <= 1024


def test_printed_metric_names_are_the_spec_names():
    spec = load_spec()
    for names in (spec["end_to_end"], spec["per_layer"]):
        metrics = {m["name"]: 1.0 for m in names}
        line = run._final_line({"correct": True, "attempted": 1,
                                "failed": 0, "metrics": metrics}, names)
        assert list(line["metrics"]) == [m["name"] for m in names]
        with pytest.raises(run.BenchError):
            run._final_line({"correct": True, "attempted": 1, "failed": 0,
                             "metrics": dict(metrics, unlisted=1.0)}, names)
        with pytest.raises(run.BenchError):
            missing = dict(metrics)
            missing.pop(names[0]["name"])
            run._final_line({"correct": True, "attempted": 1, "failed": 0,
                             "metrics": missing}, names)


def test_every_layer_is_measured_by_some_workload():
    spec = load_spec()
    names = {m["name"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    assert set(run.BYPASSED) == set(workloads)
    for bypassed in run.BYPASSED.values():
        assert set(bypassed) <= names
    assert set.intersection(*(set(b) for b in run.BYPASSED.values())) \
        == set()


def test_bypassed_layers_read_zero_and_must_not_be_measured():
    names = [{"name": "a", "unit": "ms"}, {"name": "b", "unit": "ms"}]
    line = run._final_line({"correct": True, "attempted": 1, "failed": 0,
                            "metrics": {"a": 2.5}}, names, ("b",))
    assert line["metrics"]["b"]["value"] == 0.0
    assert line["metrics"]["a"]["value"] == 2.5
    with pytest.raises(run.BenchError):
        run._final_line({"correct": True, "attempted": 1, "failed": 0,
                         "metrics": {"a": 2.5, "b": 1.0}}, names, ("b",))


def _window(lag_s: float) -> list:
    """An on-time, fast window at 1,000 req/s whose requests were sent
    ``lag_s`` after they could first be sent."""
    records = []
    for i in range(400):
        due = i / 1000
        reply = {"ok": True, "p_first_slower": 0.5}
        records.append([due, due + lag_s, due + lag_s + 0.001, reply, due])
    return records


def test_a_lagging_generator_is_neither_a_pass_nor_a_miss():
    on_time = serve.window_stats(_window(0.0), 100.0)
    assert on_time["passed"] and not on_time["generator_limited"]
    lagging = serve.window_stats(_window(0.03), 100.0)
    assert lagging["generator_limited"] and not lagging["passed"]


class _Windows:
    """A stand-in for ``serve.Driver``: windows pass up to ``capacity``
    req/s; the first window at ``stall`` misses once; from ``lagging``
    req/s up the generator cannot keep up."""

    def __init__(self, capacity, stall=None, lagging=float("inf")):
        self.capacity, self.stall, self.lagging = capacity, stall, lagging

    def step(self, rate, requests):
        stalled = rate == self.stall
        self.stall = None if stalled else self.stall
        lagging = rate >= self.lagging
        return {"rate": rate, "achieved_rps": rate,
                "generator_limited": lagging,
                "passed": rate <= self.capacity and not stalled
                and not lagging}


def _ref(rate=1000.0):
    return {"rate": rate, "achieved_rps": rate, "passed": True,
            "generator_limited": False}


def test_one_stalled_window_does_not_end_the_sweep():
    found = serve.sweep(_Windows(5000, stall=2800.0), _ref(), 60)
    assert found["limited_by"] == "latency"
    assert 4500 < found["max_rps_at_slo"] <= 5000


def test_sweep_stops_where_the_generator_falls_behind():
    found = serve.sweep(_Windows(9000, lagging=3900), _ref(), 60)
    assert found["limited_by"] == "generator"
    assert found["max_rps_at_slo"] == 2800.0


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).resolve().parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (REPO_ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert out.returncode != 0 and out.stdout == ""
    assert SRC.is_dir()
