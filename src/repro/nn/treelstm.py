"""Child-sum tree-LSTM (equation 4) and the paper's three stackings.

The paper proposes encoding an AST bottom-up with a child-sum tree-LSTM
(Tai, Socher & Manning 2015): each node aggregates the hidden states of
its children with per-child forget gates, so the root's hidden state
summarizes the whole tree. Three multi-layer stackings are evaluated
(Section IV-C / Table III):

* **uni-directional** — every layer runs leaves-to-root;
* **bi-directional** — each layer runs an upward and an independent
  downward pass and concatenates them (the last layer only needs the
  upward pass, since prediction uses the root);
* **alternating** — layers alternate upward and downward passes, e.g.
  a 3-layer stack is up/down/up; half the parameters of bi-directional.

For speed, nodes are processed in *level batches*: all nodes whose
children are already encoded advance together, with child aggregation
expressed as a segment-sum over the (parent, child) edge list. This is
mathematically identical to the per-node recursion and lets numpy do the
heavy lifting.

Forest batching
---------------
A whole mini-batch of trees is encoded as *one* fused computation, in
the style of dynamic-batching systems (TensorFlow Fold / SPINN):
:class:`ForestSchedule` merges the per-tree level schedules of the
batch — level ``L`` of the forest is the union of level ``L`` of every
member tree — so the cell's level loop runs once per **batch** level
instead of once per **tree** level, with proportionally larger (and
therefore BLAS-friendlier) matrices. Because a node's height/depth in
its tree equals its height/depth in the forest, the fused recursion is
mathematically identical to encoding each tree alone; the equivalence
test-suite verifies agreement to ~1e-12.

Within one pass, per-level outputs are accumulated in a Python list and
concatenated **once** at the end; children (which live on arbitrary
earlier levels) are fetched with :meth:`Tensor.gather_rows`. The
previous implementation grew the state tensor with ``Tensor.concat``
every level, which copied all earlier levels again and again —
O(levels²) traffic that dominated on deep ASTs.

Table path
----------
A first layer's input is a node-type embedding, ``x_j = E[id_j]``,
and its input projections ``W x_j + b`` are linear in it, so they are
computed once per row of the table ``E`` (the corpus has 120 node
types) instead of once per node (thousands per training batch).
:meth:`TreeLSTMStack.forward` takes the table plus ``ids`` and hands
both to its first layer only; that layer's level loop reads each
node's projected row with ``take_rows(ids[nodes])``. No node-level
N×λ input exists, nor its N×4h projections with their two backward
GEMMs, nor the embedding's own row scatter. Later layers read the
previous layer's hidden states, one row per node. Without ``ids`` the
input has one row per node and the same code runs with ``ids`` the
identity.
"""

from __future__ import annotations

import numpy as np

from . import backend as _backend
from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["TreeSchedule", "ForestSchedule", "schedule_for",
           "ChildSumTreeLSTM", "TreeLSTMStack", "DIRECTIONS"]

DIRECTIONS = ("uni", "bi", "alternating")


def _segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets (autograd-aware)."""
    out_data = _segment_reduce(x.data, segment_ids, num_segments)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad[segment_ids])

    return Tensor._make(out_data, (x,), backward)


def _segment_reduce(data: np.ndarray, segment_ids: np.ndarray,
                    num_segments: int) -> np.ndarray:
    """Raw segment sum, dispatched to the active backend's kernel.

    The backend keeps the historical behaviour: a ``reduceat`` fast path
    for non-decreasing ids (what every level schedule emits, including
    the empty-segment variant) and a ``np.add.at`` scatter fallback for
    unsorted ids. Compiled backends replace both with a JIT loop that
    accumulates in the same edge order.
    """
    return _backend.active().segment_sum(data, segment_ids, num_segments)


def _segment_sum_pair(a: Tensor, b: Tensor, segment_ids: np.ndarray,
                      num_segments: int) -> tuple[Tensor, Tensor]:
    """Fused segment sum of two same-shaped operands (one sweep, one node).

    The tree-LSTM level step needs two bucket sums over the *same* edge
    list — the child-state sum h̃ and the forget-gated cell sum Σ f⊙c.
    Concatenating the operands along the feature axis turns those two
    scatters into a single reduction over a twice-as-wide matrix, and
    the backward into a single gather: half the segment-reduce calls
    per level (the ROADMAP "fuse the two ``_segment_sum`` calls" lever).
    """
    width = a.shape[1]
    fused = _backend.active().segment_sum_pair(a.data, b.data,
                                               segment_ids, num_segments)

    def backward(grad):
        gathered = grad[segment_ids]
        if a.requires_grad:
            a._accumulate(gathered[:, :width])
        if b.requires_grad:
            b._accumulate(gathered[:, width:])

    out = Tensor._make(fused, (a, b), backward)
    return out[:, :width], out[:, width:]


def _segment_sum_pair_gated(a: Tensor, f: Tensor, c: Tensor,
                            segment_ids: np.ndarray,
                            num_segments: int) -> tuple[Tensor, Tensor]:
    """:func:`_segment_sum_pair` with the forget-gate product fused in.

    The second operand of the upward level step is always ``f ⊙ c``
    (forget gates times child cells). Folding the product into the
    sweep drops the explicit mul node — one less full-size temporary
    forward and one less gather/accumulate round backward. The
    backward applies the product rule against the *saved* operand data
    in the same order the composed graph did (f first, then c), so
    gradients stay bitwise identical.
    """
    width = a.shape[1]
    fused = _backend.active().segment_sum_pair_gated(
        a.data, f.data, c.data, segment_ids, num_segments)

    def backward(grad):
        gathered = grad[segment_ids]
        if a.requires_grad:
            a._accumulate(gathered[:, :width])
        gate_grad = gathered[:, width:]
        if f.requires_grad:
            f._accumulate(gate_grad * c.data)
        if c.requires_grad:
            c._accumulate(gate_grad * f.data)

    out = Tensor._make(fused, (a, f, c), backward)
    return out[:, :width], out[:, width:]


def _lstm_cell(iou: Tensor, fc: Tensor) -> tuple[Tensor, Tensor]:
    """Fused pointwise LSTM cell: one node for the whole gate algebra.

    ``iou`` holds the *post*-activation packed gate block (the fused
    ``addmm(..., activation="iou")`` output) and ``fc`` the
    forget-gated cell sum.  The composed graph spent seven nodes per
    level on ``c = i⊙u + fc; h = o⊙tanh(c)`` (three gate slices, two
    muls, an add, a tanh); this is one backend kernel forward and one
    backward, with identical float64 results (the backend keeps the
    historical elementwise op order).  Returns ``(h, c)`` as slices of
    the packed ``[h | c]`` output.
    """
    hs = fc.shape[1]
    packed, th = _backend.active().lstm_cell(iou.data, fc.data)

    def backward(grad):
        giou, gfc = _backend.active().lstm_cell_backward(grad, iou.data, th)
        if iou.requires_grad:
            iou._accumulate(giou)
        if fc.requires_grad:
            fc._accumulate(gfc)

    out = Tensor._make(packed, (iou, fc), backward)
    return out[:, :hs], out[:, hs:]


class TreeSchedule:
    """Precomputed evaluation order for one tree (or a forest).

    Parameters
    ----------
    children:
        ``children[j]`` lists the node indices of j's children. A node
        may appear as a child of at most one parent.

    Attributes
    ----------
    up_levels:
        List of levels for the leaves-to-root pass. Each level is a tuple
        ``(nodes, edge_child, edge_parent_pos)`` where ``nodes`` are the
        node indices evaluated in this level, ``edge_child`` the global
        child index per incoming edge, and ``edge_parent_pos`` the
        position (within ``nodes``) of each edge's parent.
    down_levels:
        List of levels for the root-to-leaves pass; each is
        ``(nodes, parents)`` with ``parents[i]`` the parent of
        ``nodes[i]``. The first level holds the roots with parents == -1.
    roots:
        Indices of nodes with no parent.
    """

    def __init__(self, children: list[list[int]]):
        n = len(children)
        if n == 0:
            raise ValueError("cannot schedule an empty tree")
        parent = np.full(n, -1, dtype=np.int64)
        for j, kids in enumerate(children):
            for k in kids:
                if not 0 <= k < n:
                    raise ValueError(f"child index {k} out of range for {n} nodes")
                if parent[k] != -1:
                    raise ValueError(f"node {k} has two parents ({parent[k]} and {j})")
                if k == j:
                    raise ValueError(f"node {j} is its own child")
                parent[k] = j
        self.num_nodes = n
        self.parent = parent
        self.roots = np.flatnonzero(parent == -1)
        if self.roots.size == 0:
            raise ValueError("tree has a cycle: no root found")

        # Height of each node: leaves are 0; a parent is 1 + max child height.
        height = np.zeros(n, dtype=np.int64)
        pending = np.array([len(kids) for kids in children])
        frontier = [j for j in range(n) if pending[j] == 0]
        seen = 0
        while frontier:
            nxt: list[int] = []
            for j in frontier:
                seen += 1
                p = parent[j]
                if p != -1:
                    height[p] = max(height[p], height[j] + 1)
                    pending[p] -= 1
                    if pending[p] == 0:
                        nxt.append(int(p))
            frontier = nxt
        if seen != n:
            raise ValueError("tree has a cycle: topological sort incomplete")

        self.up_levels = []
        for lvl in range(int(height.max()) + 1):
            nodes = np.flatnonzero(height == lvl)
            pos_of = {int(node): i for i, node in enumerate(nodes)}
            edge_child: list[int] = []
            edge_parent_pos: list[int] = []
            for i, node in enumerate(nodes):
                for k in children[node]:
                    edge_child.append(int(k))
                    edge_parent_pos.append(i)
            self.up_levels.append(
                (nodes,
                 np.asarray(edge_child, dtype=np.int64),
                 np.asarray(edge_parent_pos, dtype=np.int64))
            )

        # Depth levels for the downward pass (root depth 0).
        depth = np.zeros(n, dtype=np.int64)
        order = [int(r) for r in self.roots]
        head = 0
        while head < len(order):
            j = order[head]
            head += 1
            for k in children[j]:
                depth[k] = depth[j] + 1
                order.append(int(k))
        self.down_levels = []
        for lvl in range(int(depth.max()) + 1):
            nodes = np.flatnonzero(depth == lvl)
            self.down_levels.append((nodes, parent[nodes]))


_SCHEDULE_CACHE: dict[tuple, TreeSchedule] = {}
_SCHEDULE_CACHE_SIZE = 8192


def schedule_for(children: list[list[int]]) -> TreeSchedule:
    """Memoized :class:`TreeSchedule` construction, keyed by structure.

    Many submissions share an AST shape (and every epoch revisits the
    same trees), so schedules are cached on the child-list structure and
    reused rather than rebuilt. The cache is bounded FIFO.
    """
    key = tuple(tuple(kids) for kids in children)
    sched = _SCHEDULE_CACHE.get(key)
    if sched is None:
        sched = TreeSchedule(children)
        if len(_SCHEDULE_CACHE) >= _SCHEDULE_CACHE_SIZE:
            _SCHEDULE_CACHE.pop(next(iter(_SCHEDULE_CACHE)))
        _SCHEDULE_CACHE[key] = sched
    return sched


def _concat_or_empty(parts: list[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


class ForestSchedule:
    """Merged evaluation order for a mini-batch of trees.

    Exposes the same attribute contract as :class:`TreeSchedule`
    (``num_nodes``, ``up_levels``, ``down_levels``, ``roots``,
    ``parent``), so :class:`ChildSumTreeLSTM` consumes either
    transparently. Node indices of tree ``t`` are shifted by
    ``tree_offsets[t]`` in the packed ordering.

    Merging is pure index arithmetic over the already-built per-tree
    schedules (array concatenation with offsets) — no re-traversal of
    the trees — so packing a fresh shuffled batch every step is cheap.

    Attributes
    ----------
    tree_offsets:
        ``(T + 1,)`` prefix offsets; tree ``t`` owns packed rows
        ``[tree_offsets[t], tree_offsets[t+1])``.
    tree_roots:
        ``(T,)`` packed index of each member tree's (first) root — the
        readout rows for batched encoding.
    """

    def __init__(self, schedules: list[TreeSchedule]):
        if not schedules:
            raise ValueError("cannot build a forest from zero trees")
        # Keep the member schedules alive: the forest cache keys on
        # their object identity, which is only stable while they live.
        self.members = list(schedules)
        sizes = [s.num_nodes for s in schedules]
        self.tree_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(sizes, dtype=np.int64)])
        self.num_nodes = int(self.tree_offsets[-1])
        self.num_trees = len(schedules)
        offs = self.tree_offsets[:-1]
        self.parent = np.concatenate(
            [np.where(s.parent >= 0, s.parent + off, -1)
             for s, off in zip(schedules, offs)])
        self.roots = np.concatenate(
            [s.roots + off for s, off in zip(schedules, offs)])
        self.tree_roots = np.array(
            [int(s.roots[0]) + off for s, off in zip(schedules, offs)],
            dtype=np.int64)

        # Forest level L (up): union of level L of every tree that is
        # that tall. Children of its nodes were produced at levels < L
        # in their own tree, hence at levels < L of the forest.
        self.up_levels = []
        for lvl in range(max(len(s.up_levels) for s in schedules)):
            nodes_parts, child_parts, pos_parts = [], [], []
            pos_base = 0
            for s, off in zip(schedules, offs):
                if lvl >= len(s.up_levels):
                    continue
                nodes, edge_child, edge_parent_pos = s.up_levels[lvl]
                nodes_parts.append(nodes + off)
                child_parts.append(edge_child + off)
                pos_parts.append(edge_parent_pos + pos_base)
                pos_base += nodes.shape[0]
            self.up_levels.append((_concat_or_empty(nodes_parts),
                                   _concat_or_empty(child_parts),
                                   _concat_or_empty(pos_parts)))

        # Forest level L (down): every tree's depth-L nodes; all their
        # parents sit at forest level L-1 (or are roots at level 0).
        self.down_levels = []
        for lvl in range(max(len(s.down_levels) for s in schedules)):
            nodes_parts, parent_parts = [], []
            for s, off in zip(schedules, offs):
                if lvl >= len(s.down_levels):
                    continue
                nodes, parents = s.down_levels[lvl]
                nodes_parts.append(nodes + off)
                parent_parts.append(np.where(parents >= 0, parents + off, -1))
            self.down_levels.append((_concat_or_empty(nodes_parts),
                                     _concat_or_empty(parent_parts)))


class ChildSumTreeLSTM(Module):
    """One child-sum tree-LSTM pass (upward or downward).

    Equation (4) of the paper: for node j with children C(j),

    .. math::
        \\tilde h_j = \\sum_{k \\in C(j)} h_k, \\quad
        i_j = \\sigma(W_i x_j + U_i \\tilde h_j + b_i), \\quad
        f_{jk} = \\sigma(W_f x_j + U_f h_k + b_f),

        o_j, u_j \\text{ likewise}, \\quad
        c_j = i_j \\odot u_j + \\sum_k f_{jk} \\odot c_k, \\quad
        h_j = o_j \\odot \\tanh(c_j).

    The downward direction runs the same recursion on reversed edges:
    each node's single "child" is its parent, so information flows from
    the root toward the leaves (used by the bi-directional and
    alternating stacks).
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Fused [i, o, u] input/hidden projections; forget gate separate
        # because it is applied per (parent, child) edge.
        self.w_iou = Parameter(init.xavier_uniform((3 * hidden_size, input_size), rng))
        self.u_iou = Parameter(init.xavier_uniform((3 * hidden_size, hidden_size), rng))
        self.b_iou = Parameter(np.zeros(3 * hidden_size))
        self.w_f = Parameter(init.xavier_uniform((hidden_size, input_size), rng))
        self.u_f = Parameter(init.xavier_uniform((hidden_size, hidden_size), rng))
        self.b_f = Parameter(np.ones(hidden_size))

    # ------------------------------------------------------------------
    def forward(self, x: Tensor, schedule: TreeSchedule | ForestSchedule,
                direction: str = "up",
                ids: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        """Encode every node; returns (h, c) of shape (n, hidden).

        ``direction`` is ``"up"`` (leaves -> root) or ``"down"``
        (root -> leaves). ``x`` holds one input row per node or, given
        ``ids``, a table whose row ``ids[j]`` is node j's input (the
        table path of the module docstring). The input projections
        run once per row of ``x``; the level loop reads each node's
        projected row through ``ids``.
        """
        if direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
        n = schedule.num_nodes
        if ids is None:
            if x.shape[0] != n:
                raise ValueError(f"feature rows ({x.shape[0]}) != schedule nodes ({n})")
            ids = np.arange(n)
        elif ids.shape != (n,):
            raise ValueError(f"node ids {ids.shape} != schedule nodes ({n},)")
        x_iou = Tensor.addmm(self.b_iou, x, self.w_iou)  # (rows, 3h)
        x_f = Tensor.addmm(self.b_f, x, self.w_f)        # (rows, h)
        if direction == "up":
            return self._run_up(x_iou, x_f, ids, schedule)
        return self._run_down(x_iou, x_f, ids, schedule)

    # ------------------------------------------------------------------
    def _level_step(self, x_iou_level: Tensor, h_tilde: Tensor, fc: Tensor):
        # Two fused nodes for the whole level: the gate GEMM with the
        # packed i|o|u nonlinearities applied in the same kernel pass,
        # then the pointwise cell (c = i⊙u + fc, h = o⊙tanh(c)).
        iou = Tensor.addmm(x_iou_level, h_tilde, self.u_iou,
                           activation="iou")
        return _lstm_cell(iou, fc)

    def _run_up(self, x_iou: Tensor, x_f: Tensor, ids: np.ndarray,
                schedule: TreeSchedule | ForestSchedule):
        # Levels are processed as whole batches. Per-level outputs are
        # kept in a list and concatenated ONCE after the loop (the old
        # per-level Tensor.concat re-copied every earlier level:
        # O(levels^2) traffic). Children, which live on arbitrary
        # earlier levels, are fetched with a single multi-source
        # gather_rows per level. A level's input projections are the
        # rows ids[nodes] of x_iou / x_f.
        hs = self.hidden_size
        n = schedule.num_nodes
        row_of = np.full(n, -1, dtype=np.int64)      # packed output row
        level_of = np.full(n, -1, dtype=np.int64)    # producing level
        offset_of = np.full(n, -1, dtype=np.int64)   # row within level
        h_levels: list[Tensor] = []
        c_levels: list[Tensor] = []
        rows = 0

        for li, (nodes, edge_child, edge_parent_pos) in enumerate(schedule.up_levels):
            m = nodes.shape[0]
            rows_in = ids[nodes]
            if edge_child.size:
                src = level_of[edge_child]
                off = offset_of[edge_child]
                h_children = Tensor.gather_rows(h_levels, src, off)
                c_children = Tensor.gather_rows(c_levels, src, off)
                # Per-edge forget gates f_jk applied to each child's cell.
                f_edges = Tensor.addmm(x_f.take_rows(rows_in[edge_parent_pos]),
                                       h_children, self.u_f,
                                       activation="sigmoid")
                # h~ and sum(f*c) bucket over the same edges: one fused
                # segment sweep instead of two.
                h_tilde, fc = _segment_sum_pair_gated(
                    h_children, f_edges, c_children, edge_parent_pos, m)
            else:
                h_tilde = Tensor(_backend.active().zeros((m, hs)))
                fc = Tensor(_backend.active().zeros((m, hs)))

            h_level, c_level = self._level_step(x_iou.take_rows(rows_in), h_tilde, fc)
            h_levels.append(h_level)
            c_levels.append(c_level)
            level_of[nodes] = li
            offset_of[nodes] = np.arange(m)
            row_of[nodes] = np.arange(rows, rows + m)
            rows += m

        h_all = h_levels[0] if len(h_levels) == 1 else Tensor.concat(h_levels, axis=0)
        c_all = c_levels[0] if len(c_levels) == 1 else Tensor.concat(c_levels, axis=0)
        return h_all.take_rows(row_of), c_all.take_rows(row_of)

    # ------------------------------------------------------------------
    def _run_down(self, x_iou: Tensor, x_f: Tensor, ids: np.ndarray,
                  schedule: TreeSchedule | ForestSchedule):
        # Same list-accumulate/concat-once scheme as _run_up. The down
        # pass is simpler: every non-root node's single predecessor (its
        # parent) was produced exactly one level earlier, so the child
        # fetch is a plain take_rows from the previous level.
        hs = self.hidden_size
        n = schedule.num_nodes
        row_of = np.full(n, -1, dtype=np.int64)
        offset_of = np.full(n, -1, dtype=np.int64)
        h_levels: list[Tensor] = []
        c_levels: list[Tensor] = []
        rows = 0

        for li, (nodes, parents) in enumerate(schedule.down_levels):
            m = nodes.shape[0]
            rows_in = ids[nodes]
            if li > 0:
                parent_rows = offset_of[parents]
                h_par = h_levels[-1].take_rows(parent_rows)
                c_par = c_levels[-1].take_rows(parent_rows)
                h_tilde = h_par
                f = Tensor.addmm(x_f.take_rows(rows_in), h_par, self.u_f,
                                 activation="sigmoid")
                fc = f * c_par
            else:
                # Root level (all trees' roots in a forest): zero state.
                h_tilde = Tensor(_backend.active().zeros((m, hs)))
                fc = Tensor(_backend.active().zeros((m, hs)))

            h_level, c_level = self._level_step(x_iou.take_rows(rows_in), h_tilde, fc)
            h_levels.append(h_level)
            c_levels.append(c_level)
            offset_of[nodes] = np.arange(m)
            row_of[nodes] = np.arange(rows, rows + m)
            rows += m

        h_all = h_levels[0] if len(h_levels) == 1 else Tensor.concat(h_levels, axis=0)
        c_all = c_levels[0] if len(c_levels) == 1 else Tensor.concat(c_levels, axis=0)
        return h_all.take_rows(row_of), c_all.take_rows(row_of)


class TreeLSTMStack(Module):
    """Multi-layer tree-LSTM in the paper's three flavours.

    The hidden states at the end of one layer become the next layer's
    node representations (Section IV-C). ``encode`` returns the root's
    final hidden state, which the classifier consumes.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 direction: str = "alternating",
                 rng: np.random.Generator | None = None):
        super().__init__()
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.direction = direction
        self.num_layers = num_layers
        self.hidden_size = hidden_size
        self._layer_names: list[str] = []

        in_dim = input_size
        for layer in range(num_layers):
            last = layer == num_layers - 1
            if direction == "bi" and not last:
                up = ChildSumTreeLSTM(in_dim, hidden_size, rng=rng)
                down = ChildSumTreeLSTM(in_dim, hidden_size, rng=rng)
                self.register_module(f"up{layer}", up)
                self.register_module(f"down{layer}", down)
                self._layer_names.append(f"bi:{layer}")
                in_dim = 2 * hidden_size
            else:
                cell = ChildSumTreeLSTM(in_dim, hidden_size, rng=rng)
                self.register_module(f"cell{layer}", cell)
                self._layer_names.append(f"single:{layer}")
                in_dim = hidden_size
        self.output_size = hidden_size

    def _layer_direction(self, layer: int) -> str:
        if self.direction == "alternating":
            return "up" if layer % 2 == 0 else "down"
        return "up"

    def forward(self, x: Tensor, schedule: TreeSchedule | ForestSchedule,
                ids: np.ndarray | None = None) -> Tensor:
        """Return hidden states for all nodes, (n, hidden).

        ``schedule`` may be a single tree's :class:`TreeSchedule` or a
        whole mini-batch's :class:`ForestSchedule`; the level loop runs
        once per (merged) level either way. With ``ids``, ``x`` is a
        table (node j's input is row ``ids[j]``) and only the first
        layer reads it that way; later layers take the hidden states.
        """
        h = x
        for layer, name in enumerate(self._layer_names):
            kind, idx = name.split(":")
            if kind == "bi":
                up = self._modules[f"up{idx}"]
                down = self._modules[f"down{idx}"]
                h_up, _ = up(h, schedule, direction="up", ids=ids)
                h_down, _ = down(h, schedule, direction="down", ids=ids)
                h = Tensor.concat([h_up, h_down], axis=1)
            else:
                cell = self._modules[f"cell{idx}"]
                h, _ = cell(h, schedule, direction=self._layer_direction(layer),
                            ids=ids)
            ids = None
        return h

    def encode(self, x: Tensor, schedule: TreeSchedule,
               ids: np.ndarray | None = None) -> Tensor:
        """Return the root representation (d,) used for prediction.

        With an alternating stack ending on a downward layer the root's
        state would only reflect the path above it, so the prediction
        always reads the root from the *last upward* output; the shipped
        configurations (1–3 layers) all end upward anyway.
        """
        h = self.forward(x, schedule, ids)
        root = int(schedule.roots[0])
        return h[root]

    def root_states(self, x: Tensor, schedule: TreeSchedule | ForestSchedule,
                    ids: np.ndarray | None = None) -> Tensor:
        """Batched readout: one root representation per tree, (T, d).

        For a :class:`ForestSchedule` this gathers every member tree's
        root in a single ``take_rows``; for a plain :class:`TreeSchedule`
        it returns one row per root (so a single tree yields (1, d)).
        """
        h = self.forward(x, schedule, ids)
        roots = getattr(schedule, "tree_roots", schedule.roots)
        return h.take_rows(roots)
