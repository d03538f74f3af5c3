"""Study/Trial API (Optuna stand-in; paper Section V-C).

The paper tunes GCN depth/width and tree-LSTM sizes with Optuna. This
module reproduces the ergonomics::

    study = Study(direction="maximize", sampler=TpeLiteSampler(seed=1))
    study.optimize(objective, n_trials=20)
    study.best_trial.params

where ``objective(trial)`` calls ``trial.suggest_int("layers", 1, 16)``
etc. and returns the validation metric. Every trial runs to completion;
the sampler sees each finished trial's value when it suggests the next
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .samplers import RandomSampler

__all__ = ["Trial", "FrozenTrial", "Study"]


@dataclass
class FrozenTrial:
    number: int
    value: float
    params: dict = field(default_factory=dict)


class Trial:
    """Live parameter-suggestion handle passed to the objective."""

    def __init__(self, number: int, study: "Study"):
        self.number = number
        self._study = study
        self.params: dict = {}

    def _history_for(self, name: str):
        return [(t.value, t.params[name]) for t in self._study.trials
                if name in t.params]

    def suggest_int(self, name: str, low: int, high: int) -> int:
        if low > high:
            raise ValueError(f"empty range for {name!r}")
        value = self._study.sampler.suggest_int(low, high,
                                                self._history_for(name))
        self.params[name] = value
        return value

    def suggest_float(self, name: str, low: float, high: float,
                      log: bool = False) -> float:
        if low > high or (log and low <= 0):
            raise ValueError(f"bad range for {name!r}")
        value = self._study.sampler.suggest_float(low, high,
                                                  self._history_for(name),
                                                  log=log)
        self.params[name] = value
        return value

    def suggest_categorical(self, name: str, choices):
        if not choices:
            raise ValueError(f"no choices for {name!r}")
        value = self._study.sampler.suggest_categorical(
            list(choices), self._history_for(name))
        self.params[name] = value
        return value


class Study:
    """Sequential optimization loop over trials."""

    def __init__(self, direction: str = "maximize",
                 sampler: RandomSampler | None = None):
        if direction not in ("maximize", "minimize"):
            raise ValueError("direction must be 'maximize' or 'minimize'")
        self.direction = direction
        self.sampler = sampler or RandomSampler()
        self.trials: list[FrozenTrial] = []

    # ------------------------------------------------------------------
    def optimize(self, objective, n_trials: int) -> None:
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        for _ in range(n_trials):
            trial = Trial(len(self.trials), self)
            value = float(objective(trial))
            self.trials.append(FrozenTrial(
                number=trial.number, value=value, params=dict(trial.params)))

    # ------------------------------------------------------------------
    @property
    def best_trial(self) -> FrozenTrial:
        if not self.trials:
            raise ValueError("no completed trials")
        key = (max if self.direction == "maximize" else min)
        return key(self.trials, key=lambda t: t.value)

    @property
    def best_value(self) -> float:
        return self.best_trial.value

    @property
    def best_params(self) -> dict:
        return self.best_trial.params
