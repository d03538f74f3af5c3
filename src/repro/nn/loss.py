"""The training loss.

The paper optimizes binary cross-entropy between the classifier's sigmoid
probability and the slower/faster label (Section IV-D). We implement the
numerically stable logits formulation.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["bce_with_logits"]


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Stable BCE, mean-reduced: ``max(x,0) - x*y + log(1 + exp(-|x|))``.

    Implemented as a fused primitive with the exact analytic gradient
    ``(sigmoid(x) - y) / n``, which is both faster and numerically safer
    than composing it from elementary ops.
    """
    x = logits.data
    # Targets follow the logits' dtype so a float32 forward never widens.
    y = np.asarray(targets, dtype=x.dtype)
    if x.shape != y.shape:
        y = np.broadcast_to(y, x.shape)
    loss_data = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
    n = max(x.size, 1)

    def backward(grad):
        if logits.requires_grad:
            p = np.empty_like(x)
            pos = x >= 0
            p[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            p[~pos] = ex / (1.0 + ex)
            logits._accumulate(grad * (p - y) / n)

    return Tensor._make(np.asarray(loss_data.mean()), (logits,), backward)

