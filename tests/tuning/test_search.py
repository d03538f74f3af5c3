"""Tests for the Study/Trial hyper-parameter search."""

import numpy as np
import pytest

from repro.tuning import RandomSampler, Study, TpeLiteSampler


class TestStudyBasics:
    def test_runs_requested_trials(self):
        study = Study()
        study.optimize(lambda t: t.suggest_float("x", 0, 1), n_trials=7)
        assert len(study.trials) == 7

    def test_best_trial_maximize(self):
        study = Study(direction="maximize")
        study.optimize(lambda t: t.suggest_float("x", 0, 1), n_trials=20)
        values = [t.value for t in study.trials]
        assert study.best_value == max(values)

    def test_best_trial_minimize(self):
        study = Study(direction="minimize")
        study.optimize(lambda t: t.suggest_float("x", 0, 1), n_trials=20)
        values = [t.value for t in study.trials]
        assert study.best_value == min(values)

    def test_params_recorded(self):
        study = Study()

        def objective(trial):
            layers = trial.suggest_int("layers", 1, 16)
            hidden = trial.suggest_int("hidden", 8, 256)
            return -abs(layers - 6) - abs(hidden - 117) / 100

        study.optimize(objective, n_trials=10)
        assert set(study.best_params) == {"layers", "hidden"}

    def test_validation(self):
        with pytest.raises(ValueError):
            Study(direction="sideways")
        with pytest.raises(ValueError):
            Study().optimize(lambda t: 0.0, n_trials=0)
        with pytest.raises(ValueError):
            _ = Study().best_trial


class TestSuggestions:
    def test_int_bounds(self):
        study = Study()
        seen = []
        study.optimize(lambda t: seen.append(t.suggest_int("k", 3, 9)) or 0.0,
                       n_trials=40)
        assert all(3 <= v <= 9 for v in seen)
        assert len(set(seen)) > 2

    def test_float_log_scale(self):
        sampler = RandomSampler(seed=3)
        values = [sampler.suggest_float(1e-4, 1e-1, [], log=True)
                  for _ in range(200)]
        assert all(1e-4 <= v <= 1e-1 for v in values)
        # log sampling puts ~half the mass below the geometric mean
        geo_mid = 10 ** ((np.log10(1e-4) + np.log10(1e-1)) / 2)
        frac_below = np.mean([v < geo_mid for v in values])
        assert 0.35 < frac_below < 0.65

    def test_categorical(self):
        study = Study()
        seen = set()
        study.optimize(
            lambda t: seen.add(t.suggest_categorical("d", ["a", "b"])) or 0.0,
            n_trials=30)
        assert seen == {"a", "b"}

    def test_bad_ranges(self):
        study = Study()
        with pytest.raises(ValueError):
            study.optimize(lambda t: t.suggest_int("k", 5, 2), n_trials=1)


class TestTpeLite:
    def test_concentrates_near_good_history(self):
        """Given a history whose best trials sit near x=3, TPE-lite
        samples closer to 3 than a uniform sampler on average."""
        history = [(-(x - 3.0) ** 2, x)
                   for x in np.linspace(-10, 10, 25)]
        tpe = TpeLiteSampler(seed=0, warmup=5, gamma=0.3)
        uniform = RandomSampler(seed=0)
        tpe_dist = np.mean([abs(tpe.suggest_float(-10, 10, history) - 3.0)
                            for _ in range(300)])
        uni_dist = np.mean([abs(uniform.suggest_float(-10, 10, []) - 3.0)
                            for _ in range(300)])
        assert tpe_dist < uni_dist

    def test_optimizes_quadratic_end_to_end(self):
        def objective(trial):
            x = trial.suggest_float("x", -10, 10)
            return -(x - 3.0) ** 2

        study = Study(sampler=TpeLiteSampler(seed=1, warmup=6))
        study.optimize(objective, n_trials=50)
        assert abs(study.best_params["x"] - 3.0) < 2.0

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            TpeLiteSampler(gamma=1.5)

