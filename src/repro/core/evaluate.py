"""Experiment-level evaluation: generalization and sensitivity.

Implements the measurement protocols of Section VI:

* same-problem accuracy on a disjoint submission split (the line plots
  of Fig. 3),
* cross-problem accuracy (the boxplots of Fig. 3),
* sensitivity to the minimum runtime gap (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.pairs import CodePair
from .trainer import Trainer

__all__ = ["EvalResult", "evaluate_on_pairs", "sensitivity_curve"]


@dataclass
class EvalResult:
    accuracy: float
    auc: float
    num_pairs: int


def evaluate_on_pairs(trainer: Trainer, pairs: list[CodePair],
                      batch_size: int | None = None) -> EvalResult:
    """Accuracy/AUC over ``pairs``; probabilities are computed with the
    forest-batched inference path (``batch_size`` pairs per fused
    encode, defaulting to the trainer's ``eval_batch_size``)."""
    from .metrics import accuracy as accuracy_fn
    from .metrics import auc as auc_fn

    if not pairs:
        raise ValueError("no evaluation pairs")
    probs = trainer.predict_probabilities(pairs, batch_size=batch_size)
    labels = np.array([p.label for p in pairs])
    return EvalResult(accuracy=accuracy_fn(labels, probs),
                      auc=auc_fn(labels, probs),
                      num_pairs=len(pairs))


def sensitivity_curve(trainer: Trainer, pairs: list[CodePair],
                      thresholds_ms: list[float]) -> list[tuple[float, float, int]]:
    """Fig. 6: accuracy restricted to pairs whose runtime gap exceeds a
    minimum, for each threshold. Returns (threshold, accuracy, n)."""
    from .metrics import accuracy as accuracy_fn

    probs = trainer.predict_probabilities(pairs)
    labels = np.array([p.label for p in pairs])
    gaps = np.array([p.gap_ms for p in pairs])
    curve = []
    for threshold in thresholds_ms:
        mask = gaps >= threshold
        if mask.sum() == 0:
            curve.append((threshold, float("nan"), 0))
            continue
        acc = accuracy_fn(labels[mask], probs[mask])
        curve.append((threshold, acc, int(mask.sum())))
    return curve
