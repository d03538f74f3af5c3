"""The tree-LSTM's per-level runner and loop forest merge: test-only oracles.

These are the encoder's earlier implementations, kept so the
equivalence suite can hold the one-node-per-pass runner
(``ChildSumTreeLSTM.run``) and the sort-based :class:`ForestSchedule`
to them. Do not optimize them.

* :func:`reference_run` runs a pass as a graph of per-level autograd
  nodes (input-row takes, the gate GEMMs, the fused segment sum and the
  fused cell), exactly as the encoder did before it became one node.
  Children, which live on arbitrary earlier levels, are read with
  ``Tensor.concat`` of the levels produced so far plus ``take_rows``;
  the encoder once used a multi-source ``gather_rows`` for that, which
  computed the same rows.
* :func:`reference_passes` swaps :func:`reference_run` in for
  ``ChildSumTreeLSTM.run``, so a whole :class:`TreeLSTMStack` (every
  stacking, shared subtrees included) runs on the oracle.
* :func:`loop_tree_levels` builds one tree's levels node by node, and
  :class:`LoopForestSchedule` merges member schedules level by level
  with Python loops; ``TreeSchedule`` and ``ForestSchedule`` must
  produce equal arrays.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.nn import backend as _backend
from repro.nn.tensor import Tensor
from repro.nn.treelstm import ChildSumTreeLSTM, TreeSchedule

__all__ = ["reference_run", "reference_passes", "loop_tree_levels",
           "LoopForestSchedule"]


def _segment_sum_pair_gated(a: Tensor, f: Tensor, c: Tensor,
                            segment_ids: np.ndarray,
                            num_segments: int) -> tuple[Tensor, Tensor]:
    """Bucket sums of ``a`` and ``f ⊙ c`` over one edge list, one node."""
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
    """Pointwise cell on the post-activation gates, one node."""
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


def _cat_rows(levels: list[Tensor]) -> Tensor:
    return levels[0] if len(levels) == 1 else Tensor.concat(levels, axis=0)


def _level_step(cell, x_iou_level: Tensor, h_tilde: Tensor, fc: Tensor):
    iou = Tensor.addmm(x_iou_level, h_tilde, cell.u_iou, activation="iou")
    return _lstm_cell(iou, fc)


def _run_up(cell, x_iou: Tensor, x_f: Tensor, ids: np.ndarray, levels: list):
    hs = cell.hidden_size
    n = ids.shape[0]
    row_of = np.full(n, -1, dtype=np.int64)
    h_levels: list[Tensor] = []
    c_levels: list[Tensor] = []
    rows = 0
    for nodes, edge_child, edge_parent_pos in levels:
        m = nodes.shape[0]
        rows_in = ids[nodes]
        if edge_child.size:
            child_rows = row_of[edge_child]
            h_children = _cat_rows(h_levels).take_rows(child_rows)
            c_children = _cat_rows(c_levels).take_rows(child_rows)
            f_edges = Tensor.addmm(x_f.take_rows(rows_in[edge_parent_pos]),
                                   h_children, cell.u_f,
                                   activation="sigmoid")
            h_tilde, fc = _segment_sum_pair_gated(
                h_children, f_edges, c_children, edge_parent_pos, m)
        else:
            h_tilde = Tensor(_backend.active().zeros((m, hs)))
            fc = Tensor(_backend.active().zeros((m, hs)))
        h_level, c_level = _level_step(cell, x_iou.take_rows(rows_in),
                                       h_tilde, fc)
        h_levels.append(h_level)
        c_levels.append(c_level)
        row_of[nodes] = np.arange(rows, rows + m)
        rows += m
    return _cat_rows(h_levels), _cat_rows(c_levels), row_of


def _run_down(cell, x_iou: Tensor, x_f: Tensor, ids: np.ndarray,
              levels: list):
    hs = cell.hidden_size
    n = ids.shape[0]
    row_of = np.full(n, -1, dtype=np.int64)
    offset_of = np.full(n, -1, dtype=np.int64)
    h_levels: list[Tensor] = []
    c_levels: list[Tensor] = []
    rows = 0
    for li, (nodes, parents) in enumerate(levels):
        m = nodes.shape[0]
        rows_in = ids[nodes]
        if li > 0:
            parent_rows = offset_of[parents]
            h_par = h_levels[-1].take_rows(parent_rows)
            c_par = c_levels[-1].take_rows(parent_rows)
            f = Tensor.addmm(x_f.take_rows(rows_in), h_par, cell.u_f,
                             activation="sigmoid")
            h_tilde, fc = h_par, f * c_par
        else:
            h_tilde = Tensor(_backend.active().zeros((m, hs)))
            fc = Tensor(_backend.active().zeros((m, hs)))
        h_level, c_level = _level_step(cell, x_iou.take_rows(rows_in),
                                       h_tilde, fc)
        h_levels.append(h_level)
        c_levels.append(c_level)
        offset_of[nodes] = np.arange(m)
        row_of[nodes] = np.arange(rows, rows + m)
        rows += m
    return _cat_rows(h_levels), _cat_rows(c_levels), row_of


def reference_run(cell: ChildSumTreeLSTM, x: Tensor, levels: list,
                  ids: np.ndarray, direction: str = "up"):
    """``ChildSumTreeLSTM.run`` as a graph of per-level nodes."""
    x_iou = Tensor.addmm(cell.b_iou, x, cell.w_iou)
    x_f = Tensor.addmm(cell.b_f, x, cell.w_f)
    if direction == "up":
        return _run_up(cell, x_iou, x_f, ids, levels)
    return _run_down(cell, x_iou, x_f, ids, levels)


@contextlib.contextmanager
def reference_passes():
    """Run every ``ChildSumTreeLSTM`` pass on :func:`reference_run`."""
    run = ChildSumTreeLSTM.run
    ChildSumTreeLSTM.run = reference_run
    try:
        yield
    finally:
        ChildSumTreeLSTM.run = run


def loop_tree_levels(children: list[list[int]]) -> tuple[list, list]:
    """One tree's ``(up_levels, down_levels)``, built node by node."""
    n = len(children)
    parent = np.full(n, -1, dtype=np.int64)
    for j, kids in enumerate(children):
        for k in kids:
            parent[k] = j
    height = np.zeros(n, dtype=np.int64)
    pending = np.array([len(kids) for kids in children])
    frontier = [j for j in range(n) if pending[j] == 0]
    while frontier:
        nxt: list[int] = []
        for j in frontier:
            p = parent[j]
            if p != -1:
                height[p] = max(height[p], height[j] + 1)
                pending[p] -= 1
                if pending[p] == 0:
                    nxt.append(int(p))
        frontier = nxt
    up_levels = []
    for lvl in range(int(height.max()) + 1):
        nodes = np.flatnonzero(height == lvl)
        edge_child: list[int] = []
        edge_parent_pos: list[int] = []
        for i, node in enumerate(nodes):
            for k in children[node]:
                edge_child.append(int(k))
                edge_parent_pos.append(i)
        up_levels.append((nodes, np.asarray(edge_child, dtype=np.int64),
                          np.asarray(edge_parent_pos, dtype=np.int64)))
    depth = np.zeros(n, dtype=np.int64)
    order = [int(r) for r in np.flatnonzero(parent == -1)]
    head = 0
    while head < len(order):
        j = order[head]
        head += 1
        for k in children[j]:
            depth[k] = depth[j] + 1
            order.append(int(k))
    down_levels = []
    for lvl in range(int(depth.max()) + 1):
        nodes = np.flatnonzero(depth == lvl)
        down_levels.append((nodes, parent[nodes]))
    return up_levels, down_levels


def _concat_or_empty(parts: list[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


class LoopForestSchedule:
    """Forest merge by Python loops over levels and member trees."""

    def __init__(self, schedules: list[TreeSchedule]):
        if not schedules:
            raise ValueError("cannot build a forest from zero trees")
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
