"""Seeded inputs for every workload.

Everything the program receives is made here from ``--seed`` before any
timing starts; the same seed yields byte-identical inputs.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

# --- pipeline --------------------------------------------------------------
#: Generator scale of every Table-I family (the CLI's ``collect`` default
#: is 0.4). At 0.1 judging is cheap enough for 12 submissions a problem,
#: which averages out how much a seed's variant draws cost to judge.
PIPELINE_SCALE = 0.1
#: Submissions per Table-I problem in the corpus.
PER_PROBLEM = 12
#: The problem ``run_experiment`` trains on, and its corpus size. E is
#: the cheapest problem to judge, so 30 training and 30 held-out
#: programs cost little judging, and a seed's draw of programs moves
#: the training cost little.
TRAIN_TAG = "E"
TRAIN_PER_PROBLEM = 60


def experiment_config(seed: int):
    """``run_experiment``'s settings at paper size. Four epochs give each
    run about 6 s of ``Engine.fit``, the pipeline's gated throughput."""
    from repro.core import ExperimentConfig, TrainConfig

    from common import EMBEDDING_DIM, HIDDEN_SIZE

    return ExperimentConfig(
        encoder_kind="treelstm", embedding_dim=EMBEDDING_DIM,
        hidden_size=HIDDEN_SIZE, train_fraction=0.5, train_pairs=128,
        eval_pairs=200, seed=seed,
        train=TrainConfig(epochs=4, batch_size=16, learning_rate=5e-3,
                          seed=seed))


def corpus_digest(db) -> str:
    """Digest of a corpus: every source with its judged labels."""
    digest = hashlib.sha256()
    for tag in db.problems():
        for sub in db.submissions(tag):
            digest.update(json.dumps(
                [sub.problem_tag, sub.submission_id, sub.source,
                 sub.mean_runtime_ms, sub.max_runtime_ms,
                 sub.memory_kb]).encode())
    return digest.hexdigest()


# --- serving ---------------------------------------------------------------
SERVE_SCALE = 0.25
#: Share of ``rank`` requests; the rest are ``compare``. An assumed
#: mix, not a measured one: the paper's use case (is the new version
#: slower than the old?) is ``compare``, and nothing in the paper or
#: the repo records how often users rank.
RANK_SHARE = 0.15
RANK_MIN, RANK_MAX = 4, 8
#: serve-hot working set: distinct programs and distinct request
#: payloads. Both fit the default caches (worker embedding cache 1,024
#: entries, router memo 8,192).
HOT_PROGRAMS = 48
HOT_TEMPLATES = 160


def serve_families():
    from repro.corpus.registry import TABLE1_TAGS, family_for_tag, \
        mp_families

    return ([family_for_tag(tag, scale=SERVE_SCALE) for tag in TABLE1_TAGS]
            + mp_families(count=10, scale=SERVE_SCALE))


class SourcePool:
    """Distinct generated programs, drawn from the Table-I and MP
    generators as generated."""

    def __init__(self, rng: np.random.Generator, families):
        self.rng = rng
        self.families = families
        self.seen: set[str] = set()

    def draw(self) -> str:
        while True:
            index = int(self.rng.integers(len(self.families)))
            source = self.families[index].generate(self.rng).source
            if source not in self.seen:
                self.seen.add(source)
                return source


def _request(rng: np.random.Generator, draw) -> dict:
    if rng.random() < RANK_SHARE:
        k = int(rng.integers(RANK_MIN, RANK_MAX + 1))
        return {"op": "rank", "candidates": [draw() for _ in range(k)]}
    return {"op": "compare", "first": draw(), "second": draw()}


class ServeStream:
    """The request stream of serve-hot: a fixed set of request payloads
    over a small working set of generated programs, re-sent verbatim.
    ``take(n)`` continues the stream."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 1])
        pool = SourcePool(np.random.default_rng([seed, 1, 1]),
                          serve_families())
        programs = [pool.draw() for _ in range(HOT_PROGRAMS)]
        pick = np.random.default_rng([seed, 1, 2])

        def from_set():
            return programs[int(pick.integers(len(programs)))]

        self.templates = [_request(pick, from_set)
                          for _ in range(HOT_TEMPLATES)]

    def prewarm(self) -> list[dict]:
        """Every distinct payload once: fills the caches before timing."""
        return [dict(t) for t in self.templates]

    def take(self, n: int) -> list[dict]:
        return [dict(self.templates[int(i)])
                for i in self.rng.integers(len(self.templates), size=n)]


def arrival_offsets(rate: float, n: int) -> list[float]:
    """Send times (s from the phase start) of an open loop at ``rate``/s,
    evenly spaced: the schedule does not depend on the seed, so runs of
    different seeds differ in their requests only."""
    return [(i + 1) / rate for i in range(n)]


def request_sources(request: dict) -> list[str]:
    if request["op"] == "rank":
        return list(request["candidates"])
    return [request["first"], request["second"]]


def op_mix(requests: list[dict]) -> dict:
    counts: dict[str, int] = {}
    for request in requests:
        counts[request["op"]] = counts.get(request["op"], 0) + 1
    total = max(1, len(requests))
    return {op: round(n / total, 4) for op, n in sorted(counts.items())}


def text_repeat_share(requests: list[dict]) -> float:
    """Share of source occurrences whose exact text came earlier."""
    seen: set[str] = set()
    repeats = total = 0
    for request in requests:
        for source in request_sources(request):
            total += 1
            repeats += source in seen
            seen.add(source)
    return repeats / max(1, total)
