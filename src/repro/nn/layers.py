"""Feed-forward building blocks: Linear and Embedding.

The paper's node-embedding lookup (Section IV-B) is :class:`Embedding`;
the classifier head (Section IV-D) is a :class:`Linear` with sigmoid.
"""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["Linear", "Embedding"]


class Linear(Module):
    """Affine transform ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        # The biased form is one fused addmm node (the backend's
        # gemm_gates kernel).
        if self.bias is not None:
            return Tensor.addmm(self.bias, x, self.weight)
        return x.matmul(self.weight.T)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class Embedding(Module):
    """Learned lookup table mapping integer IDs to dense vectors.

    This implements the paper's node-embedding layer: each AST node *type*
    gets a trainable vector of dimension ``embedding_dim`` (λ in the paper,
    120 in their best configuration), initialized randomly and tuned during
    training (Section IV-B).
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError("num_embeddings and embedding_dim must be positive")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(rng.normal(0.0, 0.1, size=(num_embeddings, embedding_dim)))

    def checked_ids(self, indices) -> np.ndarray:
        """``indices`` as int64 row numbers of the table.

        Raises ``IndexError`` on an id outside ``[0, num_embeddings)``:
        numpy fancy indexing would silently wrap a negative one.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={idx.min()}, max={idx.max()}"
            )
        return idx

    def forward(self, indices) -> Tensor:
        return self.weight.take_rows(self.checked_ids(indices))

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"

