"""Tests for the experiments layer: profiles, corpus cache, drivers.

Drivers are exercised at QUICK scale on a tiny in-memory corpus so the
full benchmark harness remains the place where real sizes run.
"""

import numpy as np
import pytest

from repro.corpus import Collector, SubmissionDatabase, family_for_tag
from repro.experiments import (
    BENCH, PAPER, QUICK, ScaleProfile, load_table1_corpus, run_fig4,
    run_fig6, run_hpo, run_table1, train_problem_model,
)
from repro.judge import MachineProfile


@pytest.fixture(scope="module")
def mini_db():
    """Two problems, 14 submissions each — enough for driver smoke runs."""
    collector = Collector(machine=MachineProfile(cycles_per_ms=2000.0,
                                                 seed=23), seed=77)
    families = [family_for_tag("A", scale=0.3, num_tests=2),
                family_for_tag("C", scale=0.3, num_tests=2)]
    return collector.collect(families, per_problem=14)


class TestProfiles:
    def test_presets_are_ordered(self):
        assert QUICK.submissions_per_problem < BENCH.submissions_per_problem
        assert BENCH.submissions_per_problem < PAPER.submissions_per_problem

    def test_paper_profile_matches_section_vc(self):
        assert PAPER.embedding_dim == 120
        assert PAPER.hidden_size == 100

    def test_smaller_override(self):
        tweaked = BENCH.smaller(epochs=2)
        assert tweaked.epochs == 2
        assert tweaked.corpus_scale == BENCH.corpus_scale

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaleProfile(name="bad", corpus_scale=-1,
                         submissions_per_problem=1, mp_problem_count=1,
                         mp_submissions_per_problem=1, embedding_dim=1,
                         hidden_size=1, epochs=1, train_pairs=1,
                         eval_pairs=1)
        with pytest.raises(ValueError):
            BENCH.smaller(epochs=0)

    def test_profile_is_frozen(self):
        with pytest.raises(Exception):
            BENCH.epochs = 3  # type: ignore[misc]


class TestCorpusCache:
    def test_cache_roundtrip(self, tmp_path):
        profile = QUICK.smaller(submissions_per_problem=3, corpus_scale=0.25,
                                num_tests=2)
        db1 = load_table1_corpus(profile, seed=9, cache_dir=tmp_path)
        assert (tmp_path / f"table1_quick_s9_n3.jsonl").exists()
        db2 = load_table1_corpus(profile, seed=9, cache_dir=tmp_path)
        assert len(db1) == len(db2)
        assert db1.problems() == db2.problems()


class TestDrivers:
    def test_table1_driver(self, mini_db):
        result = run_table1(mini_db)
        tags = [row[0] for row in result.rows]
        assert tags == ["A", "C"]
        rendered = result.render()
        assert "Median(ms)" in rendered
        assert "PaperMedian(ms)" in rendered

    def test_train_problem_model_split_is_disjoint(self, mini_db):
        trained = train_problem_model(mini_db.submissions("C"), QUICK,
                                      encoder_kind="gcn", seed=1, tag="C")
        train_ids = {s.submission_id for s in trained.train_submissions}
        test_ids = {s.submission_id for s in trained.test_submissions}
        assert not train_ids & test_ids

    def test_fig4_driver_smoke(self, mini_db):
        profile = QUICK.smaller(epochs=2, train_pairs=20, eval_pairs=20)
        result = run_fig4(mini_db, profile, tag="C", seed=0)
        assert 0.0 <= result.auc <= 1.0
        assert "AUC" in result.render()

    def test_fig6_driver_smoke(self, mini_db):
        profile = QUICK.smaller(epochs=2, train_pairs=20, eval_pairs=20)
        result = run_fig6(mini_db, profile, tags=("C",), seed=0)
        assert "C" in result.curves
        thresholds = [t for t, _, _ in result.curves["C"]]
        assert thresholds == sorted(thresholds)

    def test_hpo_driver_smoke(self, mini_db):
        profile = QUICK.smaller(epochs=2, train_pairs=20, eval_pairs=20)
        result = run_hpo(mini_db, profile, tag="C", n_trials=2)
        assert result.trials == 2
        assert set(result.best_gcn_params) == {"layers", "hidden"}
        assert 0.0 <= result.best_gcn_accuracy <= 1.0
        assert 0.0 <= result.treelstm_accuracy <= 1.0

    def test_hpo_driver_is_seeded(self, mini_db):
        profile = QUICK.smaller(epochs=2, train_pairs=20, eval_pairs=20)
        first = run_hpo(mini_db, profile, tag="C", n_trials=2, seed=3)
        again = run_hpo(mini_db, profile, tag="C", n_trials=2, seed=3)
        assert again == first
