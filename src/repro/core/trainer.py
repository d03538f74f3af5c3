"""Trainer: the historical training facade, now a thin shell over
:class:`repro.engine.Engine` (paper Section IV-D).

``Trainer.fit`` keeps its longstanding contract — mini-batch BCE over
code pairs, forest-batched encoding, grad clipping, optional per-epoch
validation, a fresh run per call — but the loop itself lives in
:mod:`repro.engine`: one resumable, callback-instrumented engine shared
by every driver, experiment, HPO trial, and CLI run. ``TrainConfig`` and
``TrainHistory`` are re-exported from there unchanged, so existing
imports keep working.
"""

from __future__ import annotations

import numpy as np

from ..data.pairs import CodePair
from ..engine.loop import Engine, TrainConfig, TrainHistory
from .model import ComparativeModel

__all__ = ["TrainConfig", "TrainHistory", "Trainer"]


class Trainer:
    """Optimizes a :class:`ComparativeModel` on labelled pairs.

    Pass ``engine`` to wrap an existing (e.g. checkpoint-resumed)
    engine instead of building a fresh one; ``model`` and ``config``
    are then taken from it.
    """

    def __init__(self, model: ComparativeModel,
                 config: TrainConfig | None = None,
                 engine: Engine | None = None):
        if engine is not None:
            self.engine = engine
            self.model = engine.model
            self.config = engine.config
        else:
            self.config = config or TrainConfig()
            self.engine = Engine(model, self.config)
            self.model = model
        self.optimizer = self.engine.optimizer

    # ------------------------------------------------------------------
    def fit(self, train_pairs: list[CodePair],
            val_pairs: list[CodePair] | None = None) -> TrainHistory:
        return self.engine.fit(train_pairs, val_pairs=val_pairs)

    # ------------------------------------------------------------------
    def predict_probabilities(self, pairs: list[CodePair],
                              batch_size: int | None = None) -> np.ndarray:
        """P(label=1) for every pair, forest-batched under ``no_grad``."""
        return self.engine.predict_probabilities(pairs, batch_size=batch_size)

    def evaluate_accuracy(self, pairs: list[CodePair],
                          threshold: float = 0.5) -> float:
        return self.engine.evaluate_accuracy(pairs, threshold=threshold)
