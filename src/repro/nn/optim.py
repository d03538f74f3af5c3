"""The Adam optimizer and global-norm gradient clipping.

Training in the paper is mini-batch optimization of the BCE objective;
every model here trains with Adam, and trainers clip and log the global
gradient norm.

The optimizer is checkpointable: ``state_dict()`` returns the full
update state (hyper-parameters, step counter, and the per-parameter
moment arrays) and ``load_state_dict()`` restores it exactly, so a
resumed training run (:mod:`repro.engine`) continues bitwise where it
left off. ``optimizer_from_state`` rebuilds the optimizer a state names
in its ``type`` tag — the construct-from-checkpoint half used by
:mod:`repro.serve.checkpoint` format v2.
"""

from __future__ import annotations

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "Adam", "clip_grad_norm", "OPTIMIZERS",
           "optimizer_from_state"]


class Optimizer:
    """Base class holding the parameter list and zero_grad logic."""

    def __init__(self, parameters, lr: float):
        self.parameters: list[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full update state: hypers, counters, per-parameter arrays."""
        raise NotImplementedError

    def load_state_dict(self, state: dict) -> None:
        raise NotImplementedError

    def _check_type(self, state: dict, expected: str) -> None:
        kind = state.get("type", expected)
        if kind != expected:
            raise ValueError(
                f"optimizer state is for {kind!r}, not {expected!r}")

    def _restore_arrays(self, values) -> list[np.ndarray]:
        """Validate and cast one per-parameter array list from a state.

        Accepts any castable dtype (checkpoint files may round-trip
        through other widths) but insists on one array per parameter with
        matching shapes. Restored moments land in each parameter's own
        dtype so mixed-width models never smuggle float64 state into a
        float32 run (or vice versa).
        """
        values = list(values)
        if len(values) != len(self.parameters):
            raise ValueError(
                f"optimizer state has {len(values)} arrays for "
                f"{len(self.parameters)} parameters")
        arrays = []
        for value, p in zip(values, self.parameters):
            arr = np.asarray(value, dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"optimizer state shape {arr.shape} does not match "
                    f"parameter shape {p.data.shape}")
            arrays.append(arr.copy())
        return arrays


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(self, parameters, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self._t
        bias2 = 1.0 - b2 ** self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def state_dict(self) -> dict:
        return {"type": "adam", "lr": self.lr,
                "betas": [self.beta1, self.beta2], "eps": self.eps,
                "weight_decay": self.weight_decay, "t": self._t,
                "m": [m.copy() for m in self._m],
                "v": [v.copy() for v in self._v]}

    def load_state_dict(self, state: dict) -> None:
        self._check_type(state, "adam")
        self.lr = float(state["lr"])
        self.beta1, self.beta2 = (float(b) for b in state["betas"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        self._t = int(state["t"])
        self._m = self._restore_arrays(state["m"])
        self._v = self._restore_arrays(state["v"])


#: state_dict ``type`` tag -> optimizer class (checkpoint reconstruction).
OPTIMIZERS: dict[str, type] = {"adam": Adam}


def optimizer_from_state(parameters, state: dict) -> Optimizer:
    """Rebuild an optimizer over ``parameters`` from a ``state_dict``."""
    kind = state.get("type")
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer type {kind!r} "
                         f"(supported: {sorted(OPTIMIZERS)})")
    optimizer = OPTIMIZERS[kind](parameters, lr=float(state["lr"]))
    optimizer.load_state_dict(state)
    return optimizer


def clip_grad_norm(parameters, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm, which trainers log to monitor the
    exploding-gradient behaviour the paper cites as motivation for LSTMs.
    """
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for p in params:
            p.grad *= scale
    return total

