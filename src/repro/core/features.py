"""Source -> model-ready tree features (the paper's "Input Processing").

:class:`TreeFeaturizer` runs the full frontend (parse -> simplify ->
flatten -> vocabulary encoding) and precomputes the evaluation schedule
for the tree-LSTM, which also holds the tree's edge list as int arrays.
The GCN's dense normalized adjacency is *not* precomputed: it costs
``N² × 8`` bytes (276 MiB for a 6,000-node tree) and only the GCN reads
it, so :attr:`TreeFeatures.adjacency` builds it from the edge list on
first read and keeps it. Training, evaluation and serving a tree-LSTM
never build one. Featurized trees are cached by source text: the corpus
pairs reuse the same submissions many times. Tree-LSTM schedules are
additionally memoized on tree *structure*
(:func:`repro.nn.treelstm.schedule_for`), so two submissions with the
same AST shape share one schedule object.

:func:`pack_forest` fuses a mini-batch of featurized trees into one
:class:`ForestFeatures` — concatenated node IDs plus a merged
:class:`~repro.nn.treelstm.ForestSchedule` — so the encoder runs a
single level-batched pass over the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..lang.parser import parse
from ..lang.simplify import flatten, simplify
from ..lang.vocab import NodeVocab
from ..nn.gcn import normalized_adjacency
from ..nn.treelstm import ForestSchedule, TreeSchedule, schedule_for

__all__ = ["TreeFeatures", "TreeFeaturizer", "ForestFeatures", "pack_forest"]


@dataclass
class TreeFeatures:
    """Everything the encoders need about one submission's AST."""

    node_ids: np.ndarray          # (n,) vocabulary IDs
    schedule: TreeSchedule        # tree-LSTM evaluation order + edges
    categories: list[str]         # Fig. 7 colour groups
    kinds: list[str]
    _adjacency: np.ndarray | None = field(default=None, init=False,
                                          repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.shape[0])

    @property
    def adjacency(self) -> np.ndarray:
        """(n, n) normalized adjacency for the GCN, built from the
        schedule's edge list on first read and kept on this object."""
        if self._adjacency is None:
            edges = np.stack((self.schedule.edge_parent,
                              self.schedule.edge_child), axis=1)
            self._adjacency = normalized_adjacency(self.num_nodes, edges)
        return self._adjacency

    @property
    def root(self) -> int:
        return int(self.schedule.roots[0])


@dataclass
class ForestFeatures:
    """A mini-batch of trees packed into one fused encoder input.

    ``node_ids`` concatenates the member trees' vocabulary IDs in order;
    ``schedule`` is their merged level schedule. ``trees`` keeps the
    original per-tree features (the GCN baseline still consumes them
    one adjacency at a time).
    """

    node_ids: np.ndarray          # (N_total,) vocabulary IDs
    schedule: ForestSchedule      # merged tree-LSTM evaluation order
    trees: list[TreeFeatures]

    @property
    def num_trees(self) -> int:
        return len(self.trees)

    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.shape[0])


def pack_forest(trees: list[TreeFeatures]) -> ForestFeatures:
    """Concatenate a batch of featurized trees into one forest.

    Packing is pure index arithmetic on the already-built per-tree
    schedules (concatenations and one sort by level); the fused encode
    is numerically equivalent to encoding each tree alone (verified by
    the equivalence test-suite). Nothing is memoized: training batches
    are shuffled, so a merged schedule is rarely met twice.
    """
    if not trees:
        raise ValueError("cannot pack an empty batch of trees")
    return ForestFeatures(
        node_ids=np.concatenate([t.node_ids for t in trees]),
        schedule=ForestSchedule([t.schedule for t in trees]),
        trees=list(trees),
    )


class TreeFeaturizer:
    """Stateful featurizer sharing one vocabulary across the corpus."""

    def __init__(self, vocab: NodeVocab | None = None, cache_size: int = 4096):
        self.vocab = vocab if vocab is not None else NodeVocab(frozen=True)
        # Keyed on the text itself, not hash(source): two sources whose
        # hashes collide must not share one entry.
        self._cache: dict[str, TreeFeatures] = {}
        self._cache_size = cache_size

    def __call__(self, source: str) -> TreeFeatures:
        return self.featurize(source)

    def featurize(self, source: str) -> TreeFeatures:
        hit = self._cache.get(source)
        if hit is not None:
            return hit
        flat = flatten(simplify(parse(source)))
        features = TreeFeatures(
            node_ids=np.asarray(self.vocab.encode_all(flat.kinds),
                                dtype=np.int64),
            schedule=schedule_for(flat.children),
            categories=flat.categories,
            kinds=flat.kinds,
        )
        if self._cache_size > 0:
            if len(self._cache) >= self._cache_size:
                self._cache.pop(next(iter(self._cache)))
            self._cache[source] = features
        return features
