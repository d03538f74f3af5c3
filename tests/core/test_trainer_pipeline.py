"""Integration tests: training reduces loss and beats chance; the
pipeline and PerformanceGate behave as the paper describes."""

import numpy as np
import pytest

from repro.core import (
    ExperimentConfig, PerformanceGate, TrainConfig, Trainer, build_model,
    evaluate_on_pairs, run_experiment, sensitivity_curve,
)
from repro.data import sample_pairs, split_submissions


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

    def test_validation_scored_each_epoch(self, corpus_c):
        """``val_pairs`` adds one held-out accuracy per epoch, scored on
        the weights at that epoch's end, and leaves the run itself
        untouched."""
        rng = np.random.default_rng(1)
        train, test = split_submissions(corpus_c, 0.7, rng)
        train_pairs = sample_pairs(train, 40, rng)
        val_pairs = sample_pairs(test, 30, rng)
        config = TrainConfig(epochs=3, batch_size=16, learning_rate=8e-3)

        def fit(val):
            model = build_model(encoder_kind="gcn", embedding_dim=8,
                                hidden_size=8)
            trainer = Trainer(model, config)
            return trainer, trainer.fit(train_pairs, val_pairs=val)

        plain_trainer, plain = fit(None)
        scored_trainer, scored = fit(val_pairs)
        assert plain.val_accuracies == []
        assert len(scored.val_accuracies) == 3
        assert all(0.0 <= acc <= 1.0 for acc in scored.val_accuracies)
        assert (scored.val_accuracies[-1]
                == scored_trainer.engine.evaluate_accuracy(val_pairs))
        assert scored.losses == plain.losses
        assert scored.grad_norms == plain.grad_norms
        for (name, a), (_, b) in zip(
                plain_trainer.model.state_dict().items(),
                scored_trainer.model.state_dict().items()):
            assert np.array_equal(a, b), f"weight drift in {name}"


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
