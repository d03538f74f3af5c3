"""Deep representation learning: the feature extractor F of the paper.

Both encoders share the structure of Section III-A: a learned node
embedding lookup (dimension λ) followed by a structural network that
produces one latent vector z per AST — the tree-LSTM stack (the paper's
proposal) or the GCN (the baseline it is compared against in Fig. 3).

The tree-LSTM encoder never looks the embedding up per node: it hands
its stack the embedding table and the range-checked node ids, and the
first layer projects the table (see "Table path" in
:mod:`repro.nn.treelstm`). With the ids, the stack also runs its
upward cell once per distinct type-labelled subtree ("Shared
subtrees" there). The GCN and chain-LSTM encoders look up one
embedding row per node.
"""

from __future__ import annotations

import numpy as np

from ..nn.gcn import GCN
from ..nn.layers import Embedding
from ..nn.module import Module
from ..nn.rnn import LSTM
from ..nn.tensor import Tensor
from ..nn.treelstm import TreeLSTMStack
from .features import TreeFeatures, pack_forest

__all__ = ["TreeLstmEncoder", "GcnEncoder", "LstmEncoder"]


class TreeLstmEncoder(Module):
    """Embedding lookup + multi-layer child-sum tree-LSTM.

    Defaults follow Section V-C: embedding λ=120, 100 hidden states —
    shrink both for quick experiments.

    The lookup is never materialized per node: every entry point hands
    the stack the embedding table plus the range-checked node ids, so
    the first layer projects each node *type* once (the corpus has 120
    types, a training batch thousands of nodes) and its level loop
    reads the projected rows by id. ``x_j = E[id_j]`` and the
    projection is linear, so this is the same model as
    lookup-then-project; the embedding's gradient comes straight from
    the projection GEMMs.
    """

    def __init__(self, vocab_size: int, embedding_dim: int = 120,
                 hidden_size: int = 100, num_layers: int = 1,
                 direction: str = "alternating",
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.embedding = Embedding(vocab_size, embedding_dim, rng=rng)
        self.stack = TreeLSTMStack(embedding_dim, hidden_size,
                                   num_layers=num_layers,
                                   direction=direction, rng=rng)
        self.output_size = self.stack.output_size

    def forward(self, features: TreeFeatures) -> Tensor:
        """Latent code vector z for one AST (shape: (hidden,))."""
        ids = self.embedding.checked_ids(features.node_ids)
        return self.stack.encode(self.embedding.weight, features.schedule, ids)

    def encode_batch(self, features_list: list[TreeFeatures]) -> Tensor:
        """Latent vectors for a whole batch, (T, hidden), in ONE pass.

        The batch is packed into a fused forest (one table projection,
        one level-batched tree-LSTM sweep, one root gather) — this is
        the hot path for training and bulk evaluation.
        """
        packed = pack_forest(features_list)
        ids = self.embedding.checked_ids(packed.node_ids)
        return self.stack.root_states(self.embedding.weight, packed.schedule, ids)

    def node_states(self, features: TreeFeatures) -> Tensor:
        """All node hidden states, for visualization (Fig. 7)."""
        ids = self.embedding.checked_ids(features.node_ids)
        return self.stack(self.embedding.weight, features.schedule, ids)


class GcnEncoder(Module):
    """Embedding lookup + graph convolution stack (baseline F)."""

    def __init__(self, vocab_size: int, embedding_dim: int = 120,
                 hidden_size: int = 117, num_layers: int = 6,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.embedding = Embedding(vocab_size, embedding_dim, rng=rng)
        self.gcn = GCN(embedding_dim, hidden_size, num_layers=num_layers,
                       rng=rng)
        self.output_size = self.gcn.output_size

    def forward(self, features: TreeFeatures) -> Tensor:
        x = self.embedding(features.node_ids)
        return self.gcn.encode(x, features.adjacency)

    def encode_batch(self, features_list: list[TreeFeatures]) -> Tensor:
        """Latent vectors for a whole batch, (T, hidden).

        Same batched-encode API as :class:`TreeLstmEncoder`: one fused
        embedding lookup and per-layer weight GEMM across the batch;
        only the dense per-graph adjacency propagation loops.
        """
        node_ids = np.concatenate([f.node_ids for f in features_list])
        x = self.embedding(node_ids)
        return self.gcn.encode_batch(x, [f.adjacency for f in features_list])

    def node_states(self, features: TreeFeatures) -> Tensor:
        x = self.embedding(features.node_ids)
        return self.gcn(x, features.adjacency)


class LstmEncoder(Module):
    """Embedding lookup + sequential LSTM over the pre-order node walk.

    The structure-blind ablation of the paper's Section III: the AST is
    consumed as a flat token sequence (Eq. 3's chain LSTM), so any win
    of the tree-LSTM over this encoder is attributable to the tree
    topology. The latent code vector is the final hidden state.
    """

    def __init__(self, vocab_size: int, embedding_dim: int = 120,
                 hidden_size: int = 100,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.embedding = Embedding(vocab_size, embedding_dim, rng=rng)
        self.lstm = LSTM(embedding_dim, hidden_size, rng=rng)
        self.output_size = hidden_size

    def forward(self, features: TreeFeatures) -> Tensor:
        x = self.embedding(features.node_ids)
        _, (h, _) = self.lstm(x)
        return h

    def encode_batch(self, features_list: list[TreeFeatures]) -> Tensor:
        """Latent vectors for a whole batch, (T, hidden).

        One fused embedding lookup; the recurrence itself runs per tree
        (sequences have ragged lengths), matching the batched-encode
        API of the other encoders.
        """
        node_ids = np.concatenate([f.node_ids for f in features_list])
        x = self.embedding(node_ids)
        finals = []
        offset = 0
        for feats in features_list:
            n = feats.num_nodes
            _, (h, _) = self.lstm(x[offset:offset + n])
            finals.append(h)
            offset += n
        return Tensor.stack(finals, axis=0)

    def node_states(self, features: TreeFeatures) -> Tensor:
        x = self.embedding(features.node_ids)
        states, _ = self.lstm(x)
        return states
