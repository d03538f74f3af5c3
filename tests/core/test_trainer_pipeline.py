"""Integration tests: training reduces loss and beats chance; the
pipeline and PerformanceGate behave as the paper describes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    ExperimentConfig, PerformanceGate, TrainConfig, Trainer, build_model,
    evaluate_on_pairs, run_experiment, sensitivity_curve,
)
from repro.data import sample_pairs, split_submissions

SRC = Path(__file__).resolve().parents[2] / "src"

# Prints the (first, second) submission ids of every pair that
# cross_problem_matrix draws, in draw order.
_TABLE2_DRAWS = """
import numpy as np
from repro.core import cross_problem_matrix
from repro.corpus.problem import Submission

class Recorder:
    seen = []

    def predict_probabilities(self, pairs, batch_size=None):
        self.seen += [(p.first.submission_id, p.second.submission_id)
                      for p in pairs]
        return np.full(len(pairs), 0.5)

subs = {tag: [Submission(tag, k, "", float(k), k, 0) for k in range(12)]
        for tag in ("F", "G", "I")}
cross_problem_matrix({tag: Recorder() for tag in subs}, subs,
                     pairs_per_cell=6, seed=3)
print(Recorder.seen)
"""


@pytest.fixture(scope="module")
def trained(corpus_c):
    """One GCN experiment on the C corpus (fast enough for unit tests)."""
    config = ExperimentConfig(
        encoder_kind="gcn", embedding_dim=12, hidden_size=12, num_layers=2,
        train_pairs=100, eval_pairs=80, seed=5,
        train=TrainConfig(epochs=8, batch_size=16, learning_rate=8e-3))
    return run_experiment(corpus_c, config)


class TestTraining:
    def test_loss_decreases(self, trained):
        losses = trained.history.losses
        assert losses[-1] < losses[0]

    def test_beats_chance_on_disjoint_split(self, trained):
        # Problem C has a clear fast/slow algorithmic split, so even a
        # small model should clear 0.6 on held-out submissions.
        assert trained.evaluation.accuracy > 0.6
        assert trained.evaluation.auc > 0.6

    def test_train_test_disjoint(self, trained):
        train_ids = {s.submission_id for s in trained.train_submissions}
        test_ids = {s.submission_id for s in trained.test_submissions}
        assert not train_ids & test_ids

    def test_empty_pairs_rejected(self, corpus_c):
        model = build_model(encoder_kind="gcn", embedding_dim=8, hidden_size=8)
        with pytest.raises(ValueError):
            Trainer(model).fit([])

    def test_treelstm_smoke_training(self, corpus_c):
        """Tiny tree-LSTM run: loss must go down (full accuracy checks
        live in the benchmark harness where budgets are larger)."""
        model = build_model(encoder_kind="treelstm", embedding_dim=8,
                            hidden_size=8, seed=0)
        rng = np.random.default_rng(0)
        pairs = sample_pairs(corpus_c, 24, rng)
        trainer = Trainer(model, TrainConfig(epochs=3, batch_size=8,
                                             learning_rate=8e-3))
        history = trainer.fit(pairs)
        assert history.losses[-1] < history.losses[0]

    def test_early_stopping(self, corpus_c):
        model = build_model(encoder_kind="gcn", embedding_dim=8,
                            hidden_size=8)
        rng = np.random.default_rng(1)
        train, test = split_submissions(corpus_c, 0.7, rng)
        train_pairs = sample_pairs(train, 40, rng)
        val_pairs = sample_pairs(test, 30, rng)
        trainer = Trainer(model, TrainConfig(epochs=50, batch_size=16,
                                             learning_rate=8e-3,
                                             early_stop_patience=2))
        history = trainer.fit(train_pairs, val_pairs=val_pairs)
        assert len(history.losses) < 50  # stopped before the budget
        assert history.stopped_early


class TestEvaluation:
    def test_evaluate_on_pairs_fields(self, trained, corpus_c):
        rng = np.random.default_rng(2)
        pairs = sample_pairs(trained.test_submissions, 30, rng)
        result = evaluate_on_pairs(trained.trainer, pairs)
        assert result.num_pairs == 30
        assert 0.0 <= result.accuracy <= 1.0

    def test_sensitivity_curve_shape(self, trained):
        rng = np.random.default_rng(3)
        pairs = sample_pairs(trained.test_submissions, 60, rng)
        curve = sensitivity_curve(trained.trainer, pairs,
                                  [0.0, 5.0, 10.0, 1e9])
        assert len(curve) == 4
        threshold0 = curve[0]
        assert threshold0[2] == len(pairs)  # zero threshold keeps every pair
        assert curve[-1][2] == 0    # impossible threshold keeps none
        assert np.isnan(curve[-1][1])


    def test_cross_problem_draws_ignore_hash_seed(self):
        """Table II cells draw the same pairs in every process."""
        draws = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(SRC))
            proc = subprocess.run([sys.executable, "-c", _TABLE2_DRAWS],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            draws.append(proc.stdout)
        assert draws[0].count("(") == 9 * 6
        assert draws[0] == draws[1]


class TestPerformanceGate:
    def test_flags_slower_rewrite(self, trained, corpus_c):
        # Pick a fast and a slow submission from the corpus.
        ordered = sorted(corpus_c, key=lambda s: s.mean_runtime_ms)
        fast, slow = ordered[0], ordered[-1]
        gate = PerformanceGate(trained.trainer.model)
        prob_regression = gate.regression_probability(fast.source, slow.source)
        prob_improvement = gate.regression_probability(slow.source, fast.source)
        assert prob_regression > prob_improvement

    def test_check_payload(self, trained, corpus_c):
        gate = PerformanceGate(trained.trainer.model, flag_threshold=0.5)
        result = gate.check(corpus_c[0].source, corpus_c[1].source)
        assert set(result) == {"regression_probability", "flagged", "threshold"}

    def test_threshold_validation(self, trained):
        with pytest.raises(ValueError):
            PerformanceGate(trained.trainer.model, flag_threshold=1.5)
