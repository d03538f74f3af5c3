"""Graph Convolutional Network baseline (Kipf & Welling 2016).

The paper compares its tree-LSTM encoder against a GCN that treats the
AST as an undirected graph: stacked graph-convolution layers propagate
information between *all* neighbours (parent and children alike), which
is exactly the distinction the paper draws — GCN lacks the parent/child
asymmetry that the tree-LSTM exploits.

The adjacency is normalized once per graph as ``D^-1/2 (A + I) D^-1/2``,
on the GCN's first read of a featurized tree's ``adjacency``.
Mean pooling over the node states gives the code vector (the paper's
"wrapper layer that combines information from an internal node's
directly connected nodes" followed by pooling into the classifier).
"""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["normalized_adjacency", "GraphConv", "GCN"]


def normalized_adjacency(num_nodes: int, edges) -> np.ndarray:
    """Dense symmetric-normalized adjacency with self-loops.

    ``edges`` is a sequence of ``(a, b)`` pairs or an ``(E, 2)`` int
    array. ASTs in this pipeline are a few hundred nodes, so a dense
    matrix is both simpler and faster than sparse formats at this
    scale; it costs ``num_nodes² × 8`` bytes, so only the GCN builds it
    (see :attr:`repro.core.features.TreeFeatures.adjacency`).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    outside = ((edges < 0) | (edges >= num_nodes)).any(axis=1)
    if outside.any():
        a, b = edges[np.argmax(outside)]
        raise ValueError(f"edge ({a}, {b}) out of range for {num_nodes} nodes")
    adj = np.eye(num_nodes)
    adj[edges[:, 0], edges[:, 1]] = 1.0
    adj[edges[:, 1], edges[:, 0]] = 1.0
    deg = adj.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return adj * inv_sqrt[:, None] * inv_sqrt[None, :]


class GraphConv(Module):
    """One graph convolution: ``H' = relu(Â H W + b)``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(np.zeros(out_features))

    def forward(self, h: Tensor, adj_norm: np.ndarray) -> Tensor:
        return Tensor.addmm(self.bias, Tensor(adj_norm).matmul(h),
                            self.weight).relu()

    def forward_packed(self, h: Tensor, adjs: list[np.ndarray],
                       offsets: np.ndarray) -> Tensor:
        """Batched convolution over several graphs packed row-wise.

        ``h`` stacks all graphs' node features; graph ``g`` owns rows
        ``[offsets[g], offsets[g+1])``. The weight projection runs as a
        single fused GEMM over every node in the batch (``Â(HW)`` —
        associativity-equivalent to the per-graph ``(ÂH)W``); only the
        per-graph adjacency propagation loops, since the block-diagonal
        batch adjacency would be dense O(N_total²).
        """
        hw = h.matmul(self.weight.T)
        parts = [Tensor(adj).matmul(hw[int(a):int(b)])
                 for adj, a, b in zip(adjs, offsets[:-1], offsets[1:])]
        return (Tensor.concat(parts, axis=0) + self.bias).relu()


class GCN(Module):
    """Stack of graph convolutions with mean-pooling readout.

    ``encode`` produces the code vector consumed by the pair classifier,
    mirroring :meth:`repro.nn.treelstm.TreeLSTMStack.encode`.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 2,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.num_layers = num_layers
        self._layer_names = []
        in_dim = input_size
        for layer in range(num_layers):
            conv = GraphConv(in_dim, hidden_size, rng=rng)
            name = f"conv{layer}"
            self.register_module(name, conv)
            self._layer_names.append(name)
            in_dim = hidden_size
        self.hidden_size = hidden_size
        self.output_size = hidden_size

    def forward(self, x: Tensor, adj_norm: np.ndarray) -> Tensor:
        h = x
        for name in self._layer_names:
            h = self._modules[name](h, adj_norm)
        return h

    def encode(self, x: Tensor, adj_norm: np.ndarray) -> Tensor:
        return self.forward(x, adj_norm).mean(axis=0)

    def encode_batch(self, x: Tensor, adjs: list[np.ndarray]) -> Tensor:
        """Code vectors for a batch of graphs packed row-wise, (T, d).

        Mirrors :meth:`repro.nn.treelstm.TreeLSTMStack.root_states`: the
        per-layer weight projections run as one fused GEMM across the
        whole batch (see :meth:`GraphConv.forward_packed`); only the
        adjacency propagation and the cheap readout remain per-graph.
        """
        sizes = [adj.shape[0] for adj in adjs]
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(sizes, dtype=np.int64)])
        if x.shape[0] != int(offsets[-1]):
            raise ValueError(
                f"feature rows ({x.shape[0]}) != total graph nodes ({int(offsets[-1])})"
            )
        h = x
        for name in self._layer_names:
            h = self._modules[name].forward_packed(h, adjs, offsets)
        codes = [h[int(a):int(b)].mean(axis=0)
                 for a, b in zip(offsets[:-1], offsets[1:])]
        return Tensor.stack(codes, axis=0)
