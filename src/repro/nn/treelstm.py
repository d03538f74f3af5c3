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

Packing is index arithmetic, not a walk: every :class:`TreeSchedule`
keeps flat per-node arrays (height, depth, parent, node-major edges),
and the forest concatenates them with offsets and sorts them by level
once, for up and down levels alike.

One pass is **one autograd node** (:func:`_tree_pass`). Its forward
runs the level loop on raw arrays through the backend kernels (a row
take of the children, the forget-gate GEMM, the fused segment sum, the
i|o|u gate GEMM, the fused cell) and writes every level's ``[h | c]``
rows into one level-major block; children, which live on arbitrary
earlier levels, are rows of that same block. Its hand-written backward
walks the levels in reverse, scattering each level's child gradients
into the block's gradient, and then accumulates the input projections
with one row scatter each and the recurrent weights with one GEMM
each. A training step's graph holds a few nodes per layer, not a few
per level, and ``no_grad`` passes keep nothing for a backward.

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
previous layer's hidden states. Without ``ids`` the input has one row
per node and the same code runs with ``ids`` the identity.

Shared subtrees
---------------
The encoder sees node types only, so a node's upward state depends
only on its type-labelled subtree, and ASTs repeat subtrees: leaves of
a few dozen kinds, the same statements in many programs, identical
trees across a batch. Given ``ids``, :class:`TreeLSTMStack` hash-conses
the forest once per forward (:func:`share_subtrees`): a node's class is
its type plus its children's classes in edge order, and the upward
cell runs once per class instead of once per node. The gather reads a
class row once per parent that uses it, and the backward's row scatter
sums those duplicates, so values and gradients equal the per-node pass
up to summation order. A uni-directional stack runs every layer on
classes (each layer's input is the previous layer's class rows), and
the readout takes only the root rows. Downward passes are never
shared, since a node's downward state depends on its ancestors: a
downward layer reads the class rows through each node's class, and
the layers after it run every node. Ordered children keep the
child-sum order; sorting them would merge more classes but reorder
the sums.
"""

from __future__ import annotations

import numpy as np

from . import backend as _backend
from . import init
from .module import Module, Parameter
from .tensor import Tensor, is_grad_enabled

__all__ = ["TreeSchedule", "ForestSchedule", "schedule_for",
           "share_subtrees", "ChildSumTreeLSTM", "TreeLSTMStack",
           "DIRECTIONS"]

DIRECTIONS = ("uni", "bi", "alternating")


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
    height, depth, edge_parent, edge_child:
        The flat arrays the levels are sorted from: each node's up level
        (leaves 0) and down level (roots 0), and every (parent, child)
        edge node by node, children in list order.
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

        # Depth of each node (roots 0), breadth first from the roots.
        depth = np.zeros(n, dtype=np.int64)
        order = [int(r) for r in self.roots]
        head = 0
        while head < len(order):
            j = order[head]
            head += 1
            for k in children[j]:
                depth[k] = depth[j] + 1
                order.append(int(k))
        self.height = height
        self.depth = depth
        # Edges node by node, each node's children in list order.
        self.edge_parent = np.repeat(np.arange(n, dtype=np.int64),
                                     [len(kids) for kids in children])
        self.edge_child = np.asarray([k for kids in children for k in kids],
                                     dtype=np.int64)
        self.up_levels, self.down_levels = _levels(
            height, depth, parent, self.edge_parent, self.edge_child)


def _levels(height: np.ndarray, depth: np.ndarray, parent: np.ndarray,
            edge_parent: np.ndarray, edge_child: np.ndarray):
    """``(up_levels, down_levels)`` from flat per-node arrays.

    A stable sort by height (depth) lists each level's nodes in index
    order, and a stable sort of the node-major edges by their parent's
    height lists each up level's edges node by node, children in edge
    order. Heights and depths have no gaps, so no level is empty.
    """
    up_order = np.argsort(height, kind="stable")
    up_sizes = np.bincount(height)
    up_cuts = np.cumsum(up_sizes)[:-1]
    pos = np.empty_like(up_order)                 # position in its level
    pos[up_order] = (np.arange(up_order.shape[0])
                     - np.repeat(np.cumsum(up_sizes) - up_sizes, up_sizes))
    edge_level = height[edge_parent]
    edge_order = np.argsort(edge_level, kind="stable")
    edge_cuts = np.cumsum(np.bincount(edge_level,
                                      minlength=up_sizes.shape[0]))[:-1]
    up_levels = list(zip(
        np.split(up_order, up_cuts),
        np.split(edge_child[edge_order], edge_cuts),
        np.split(pos[edge_parent[edge_order]], edge_cuts)))
    down_order = np.argsort(depth, kind="stable")
    down_cuts = np.cumsum(np.bincount(depth))[:-1]
    down_levels = list(zip(np.split(down_order, down_cuts),
                           np.split(parent[down_order], down_cuts)))
    return up_levels, down_levels


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


class ForestSchedule:
    """Merged evaluation order for a mini-batch of trees.

    Exposes the same attribute contract as :class:`TreeSchedule`
    (``num_nodes``, ``up_levels``, ``down_levels``, ``roots``,
    ``parent`` and the flat per-node arrays), so
    :class:`ChildSumTreeLSTM` consumes either transparently. Node
    indices of tree ``t`` are shifted by ``tree_offsets[t]`` in the
    packed ordering.

    Merging concatenates the members' flat arrays (heights, depths,
    parents, node-major edges) with offsets and sorts them by level
    (:func:`_levels`, the same code a tree's own levels come from), so
    no Python loop runs per level and packing a fresh shuffled batch
    every step is cheap. Forest level ``L`` is the union
    of level ``L`` of every member tree, in tree order: a node's height
    and depth in its tree are its height and depth in the forest.

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
        sizes = [s.num_nodes for s in schedules]
        self.tree_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(sizes, dtype=np.int64)])
        self.num_nodes = int(self.tree_offsets[-1])
        self.num_trees = len(schedules)
        offs = self.tree_offsets[:-1]
        parent = np.concatenate([s.parent for s in schedules])
        self.parent = np.where(parent >= 0, parent + np.repeat(offs, sizes),
                               -1)
        self.roots = np.concatenate([s.roots for s in schedules]) \
            + np.repeat(offs, [s.roots.shape[0] for s in schedules])
        self.tree_roots = np.array([s.roots[0] for s in schedules],
                                   dtype=np.int64) + offs
        edge_offs = np.repeat(offs, [s.edge_child.shape[0] for s in schedules])
        self.edge_parent = np.concatenate(
            [s.edge_parent for s in schedules]) + edge_offs
        self.edge_child = np.concatenate(
            [s.edge_child for s in schedules]) + edge_offs
        self.height = np.concatenate([s.height for s in schedules])
        self.depth = np.concatenate([s.depth for s in schedules])
        self.up_levels, self.down_levels = _levels(
            self.height, self.depth, self.parent, self.edge_parent,
            self.edge_child)


def share_subtrees(up_levels: list, ids: np.ndarray):
    """Hash-cons upward levels over node-type subtrees.

    Two nodes fall in one *class* when they have the same ``ids`` entry
    and their children, in edge order, fall in the same classes, i.e.
    when their type-labelled subtrees are equal. Equal subtrees have
    equal heights, so each class lives on one level. Class ids are
    assigned level by level (leaves by id, then in order of first
    occurrence), so a class id is its row in the level-major output of
    the pass.

    Returns ``(levels, reps, row_of)``: ``levels`` in the
    ``up_levels`` form over class ids (the edges of each class's first
    node; a class read by several parents appears in several edges),
    ``reps[k]`` a node of class k, and ``row_of[j]`` node j's class.
    The schedule is never annotated: classes depend on ``ids``, and
    :func:`schedule_for` shares one schedule between trees of the same
    shape.
    """
    row_of = np.empty(ids.shape[0], dtype=np.int64)
    # Level 0 holds exactly the leaves (about half the nodes), whose
    # class is their id alone: one np.unique instead of the dict loop.
    leaves = up_levels[0][0]
    _, first_leaf, leaf_class = np.unique(ids[leaves], return_index=True,
                                          return_inverse=True)
    row_of[leaves] = leaf_class
    reps = leaves[first_leaf].tolist()
    none = np.empty(0, dtype=np.int64)
    levels = [(np.arange(len(reps), dtype=np.int64), none, none)]
    # Internal keys hold at least one child, so they never equal a
    # leaf's; the dict numbers the internal classes after the leaves.
    classes: dict[tuple, int] = {}
    for nodes, edge_child, edge_parent_pos in up_levels[1:]:
        first = len(reps)
        kids = row_of[edge_child].tolist()
        ends = np.cumsum(np.bincount(edge_parent_pos,
                                     minlength=nodes.shape[0])).tolist()
        level_rows: list[int] = []
        new_child: list[int] = []
        new_pos: list[int] = []
        start = 0
        for node, kind, end in zip(nodes.tolist(), ids[nodes].tolist(), ends):
            key = (kind, *kids[start:end])
            cls = classes.get(key)
            if cls is None:
                cls = classes[key] = len(reps)
                reps.append(node)
                new_child.extend(kids[start:end])
                new_pos.extend([cls - first] * (end - start))
            level_rows.append(cls)
            start = end
        row_of[nodes] = level_rows
        levels.append((np.arange(first, len(reps), dtype=np.int64),
                       np.asarray(new_child, dtype=np.int64),
                       np.asarray(new_pos, dtype=np.int64)))
    return levels, np.asarray(reps, dtype=np.int64), row_of


def _input_rows(x: Tensor, ids: np.ndarray | None, n: int) -> np.ndarray:
    """Row of ``x`` holding each node's input: ``ids``, or the identity
    when ``x`` has one row per node."""
    if ids is None:
        if x.shape[0] != n:
            raise ValueError(f"feature rows ({x.shape[0]}) != schedule nodes ({n})")
        return np.arange(n)
    if ids.shape != (n,):
        raise ValueError(f"node ids {ids.shape} != schedule nodes ({n},)")
    return ids


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
        table path of the module docstring). Every node is computed;
        :class:`TreeLSTMStack` computes each shared subtree once.
        """
        if direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
        ids = _input_rows(x, ids, schedule.num_nodes)
        levels = schedule.up_levels if direction == "up" else schedule.down_levels
        h, c, row_of = self.run(x, levels, ids, direction)
        return h.take_rows(row_of), c.take_rows(row_of)

    def run(self, x: Tensor, levels: list, ids: np.ndarray,
            direction: str = "up") -> tuple[Tensor, Tensor, np.ndarray]:
        """One pass over ``levels``; returns level-major ``(h, c, row_of)``.

        ``levels`` are ``up_levels`` or ``down_levels`` over an index
        space of ``len(ids)`` items (the nodes, or the classes of
        :func:`share_subtrees`), ``ids[k]`` is the row of ``x`` holding
        item k's input, and ``row_of[k]`` is item k's row in ``h`` and
        ``c``. The input projections run once per row of ``x``; the
        level loop is one autograd node (:func:`_tree_pass`).
        """
        x_iou = Tensor.addmm(self.b_iou, x, self.w_iou)  # (rows, 3h)
        x_f = Tensor.addmm(self.b_f, x, self.w_f)        # (rows, h)
        block, row_of = _tree_pass(x_iou, x_f, self.u_iou, self.u_f,
                                   levels, ids, direction)
        hs = self.hidden_size
        return block[:, :hs], block[:, hs:], row_of


def _pass_edges(levels: list, direction: str):
    """Each level's ``(edge_child, edge_parent_pos)``. A downward level
    reads one edge per node, from its parent; the roots read none."""
    if direction == "up":
        return [(child, pos) for _, child, pos in levels]
    none = np.empty(0, dtype=np.int64)
    return [(parents, np.arange(nodes.shape[0])) if li else (none, none)
            for li, (nodes, parents) in enumerate(levels)]


def _tree_pass(x_iou: Tensor, x_f: Tensor, u_iou: Tensor, u_f: Tensor,
               levels: list, ids: np.ndarray,
               direction: str) -> tuple[Tensor, np.ndarray]:
    """Every level of one pass as a single autograd node.

    ``x_iou`` / ``x_f`` hold the input projections ``W x + b``, one row
    per row of the pass's input; item k reads row ``ids[k]``. The level
    loop runs on raw arrays through the backend kernels and writes each
    level's packed ``[h | c]`` rows into one level-major ``(K, 2h)``
    block. Under ``no_grad`` nothing is kept for a backward.

    The backward walks the levels in reverse. A level's rows of the
    block gradient are complete when it is reached (its readers sit on
    later levels); it runs the cell and gate backwards, then scatters
    the children's ``[h | c]`` gradient into the block gradient with one
    ``scatter_add_rows``. ``x_iou`` and ``x_f`` then take one row
    scatter each, and ``u_iou`` and ``u_f`` one GEMM each over all
    levels.
    """
    kb = _backend.active()
    hs = u_f.shape[0]
    u_iou_w, u_f_w = u_iou.data, u_f.data
    edges = _pass_edges(levels, direction)
    bounds = np.cumsum([0] + [lvl[0].shape[0] for lvl in levels]).tolist()
    edge_bounds = np.cumsum([0] + [c.shape[0] for c, _ in edges]).tolist()
    order = np.concatenate([lvl[0] for lvl in levels])
    k = order.shape[0]
    row_of = np.full(ids.shape[0], -1, dtype=np.int64)
    row_of[order] = np.arange(k)
    # Every level's edges at once: the child's block row, and the
    # parent's block row (level start + position in the level).
    child_rows = row_of[np.concatenate([c for c, _ in edges])]
    parent_rows = np.concatenate([pos for _, pos in edges]) + np.repeat(
        bounds[:-1], np.diff(edge_bounds))
    x_rows = ids[order]
    f_rows = x_rows[parent_rows]
    xi = kb.take_rows(x_iou.data, x_rows)        # (K, 3h)
    xf = kb.take_rows(x_f.data, f_rows)          # (E, h)

    track = is_grad_enabled() and any(
        t.requires_grad for t in (x_iou, x_f, u_iou, u_f))
    block = np.empty((k, 2 * hs), dtype=xi.dtype)
    saved = []
    # h~ of every level, for u_iou's GEMM, which starts at the first
    # level with edges (h~ is 0 on a level without)
    h_tilde_all = kb.zeros((k, hs)) if track else None
    tilde_lo = next((bounds[li] for li in range(len(levels))
                     if edge_bounds[li + 1] > edge_bounds[li]), k)
    for li in range(len(levels)):
        lo, hi = bounds[li], bounds[li + 1]
        e_lo, e_hi = edge_bounds[li], edge_bounds[li + 1]
        f = kids = None
        if e_hi > e_lo:
            kids = kb.take_rows(block, child_rows[e_lo:e_hi])   # [h | c]
            f = kb.gemm_gates(xf[e_lo:e_hi], kids[:, :hs], u_f_w,
                              "sigmoid")
            sums = kb.segment_sum_pair_gated(kids[:, :hs], f, kids[:, hs:],
                                             edges[li][1], hi - lo)
            h_tilde, fc = sums[:, :hs], sums[:, hs:]
            if track:
                h_tilde_all[lo:hi] = h_tilde
        else:
            h_tilde = fc = kb.zeros((hi - lo, hs))
        iou = kb.gemm_gates(xi[lo:hi], h_tilde, u_iou_w, "iou")
        block[lo:hi], th = kb.lstm_cell(iou, fc)
        if track:
            saved.append((iou, th, f, kids))

    def backward(grad):
        g = grad.copy()               # the children's terms add in here
        g_iou = np.empty_like(xi)     # pre-activation gate gradients
        g_f = np.empty_like(xf)
        for li in reversed(range(len(levels))):
            lo, hi = bounds[li], bounds[li + 1]
            e_lo, e_hi = edge_bounds[li], edge_bounds[li + 1]
            iou, th, f, kids = saved[li]
            g_act, g_fc = kb.lstm_cell_backward(g[lo:hi], iou, th)
            g_iou[lo:hi] = kb.act_backward(g_act, iou, "iou")
            if e_hi == e_lo:
                continue
            pos = edges[li][1]
            g_h_tilde = (g_iou[lo:hi] @ u_iou_w)[pos]
            g_fc = g_fc[pos]
            g_f[e_lo:e_hi] = kb.act_backward(g_fc * kids[:, hs:], f,
                                             "sigmoid")
            g_kids = np.empty_like(kids)
            g_kids[:, :hs] = g_h_tilde + g_f[e_lo:e_hi] @ u_f_w
            g_kids[:, hs:] = g_fc * f
            kb.scatter_add_rows(g, child_rows[e_lo:e_hi], g_kids)
        if x_iou.requires_grad:
            x_iou._accumulate_at(x_rows, g_iou)
        if x_f.requires_grad and f_rows.size:
            x_f._accumulate_at(f_rows, g_f)
        if u_iou.requires_grad:
            u_iou._accumulate(g_iou[tilde_lo:].T @ h_tilde_all[tilde_lo:])
        if u_f.requires_grad and f_rows.size:
            kids = np.concatenate([s[3] for s in saved if s[3] is not None])
            u_f._accumulate(g_f.T @ kids[:, :hs])

    return Tensor._make(block, (x_iou, x_f, u_iou, u_f), backward), row_of


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

    def _layers(self, x: Tensor, schedule: TreeSchedule | ForestSchedule,
                ids: np.ndarray | None) -> tuple[Tensor, np.ndarray]:
        """Run every layer; return the last one's states and each node's
        row in them.

        Node j's input to a layer is row ``rows[j]`` of ``h``. Given
        ``ids``, the forest is hash-consed once and an upward layer runs
        the shared levels while ``rows`` is constant on classes: the ids
        themselves, then the class rows of each shared upward layer. A
        downward or bi-directional layer makes every node's state its
        own, so the layers after it run every node.
        """
        rows = _input_rows(x, ids, schedule.num_nodes)
        shared = None if ids is None else share_subtrees(schedule.up_levels, ids)
        h = x
        for layer, name in enumerate(self._layer_names):
            kind, idx = name.split(":")
            if kind == "bi":
                h_up, up_rows = self._upward(self._modules[f"up{idx}"], h, rows,
                                             schedule, shared)
                h_down, _, down_rows = self._modules[f"down{idx}"].run(
                    h, schedule.down_levels, rows, "down")
                h = Tensor.concat([h_up.take_rows(up_rows),
                                   h_down.take_rows(down_rows)], axis=1)
                rows, shared = np.arange(schedule.num_nodes), None
            elif self._layer_direction(layer) == "down":
                h, _, rows = self._modules[f"cell{idx}"].run(
                    h, schedule.down_levels, rows, "down")
                shared = None
            else:
                h, rows = self._upward(self._modules[f"cell{idx}"], h, rows,
                                       schedule, shared)
        return h, rows

    @staticmethod
    def _upward(cell: ChildSumTreeLSTM, h: Tensor, rows: np.ndarray,
                schedule: TreeSchedule | ForestSchedule, shared):
        if shared is None:
            h, _, row_of = cell.run(h, schedule.up_levels, rows)
            return h, row_of
        levels, reps, row_of = shared
        h, _, _ = cell.run(h, levels, rows[reps])
        return h, row_of

    def forward(self, x: Tensor, schedule: TreeSchedule | ForestSchedule,
                ids: np.ndarray | None = None) -> Tensor:
        """Return hidden states for all nodes, (n, hidden).

        ``schedule`` may be a single tree's :class:`TreeSchedule` or a
        whole mini-batch's :class:`ForestSchedule`; the level loop runs
        once per (merged) level either way. With ``ids``, ``x`` is a
        table (node j's input is row ``ids[j]``) and only the first
        layer reads it that way; later layers take the hidden states.
        """
        h, rows = self._layers(x, schedule, ids)
        return h.take_rows(rows)

    def encode(self, x: Tensor, schedule: TreeSchedule,
               ids: np.ndarray | None = None) -> Tensor:
        """Return the root representation (d,) used for prediction.

        The prediction reads the root's row of the *last* layer,
        whichever way that layer runs. Alternating stacks with an even
        layer count (e.g. 2 layers: up, down) end on a downward layer,
        where the root, having no parent, gets one cell step over its
        own state from the upward layer before.
        """
        h, rows = self._layers(x, schedule, ids)
        return h[int(rows[schedule.roots[0]])]

    def root_states(self, x: Tensor, schedule: TreeSchedule | ForestSchedule,
                    ids: np.ndarray | None = None) -> Tensor:
        """Batched readout: one root representation per tree, (T, d).

        For a :class:`ForestSchedule` this gathers every member tree's
        root in a single ``take_rows``; for a plain :class:`TreeSchedule`
        it returns one row per root (so a single tree yields (1, d)).
        Only the last layer's root rows are read, not every node's.
        """
        h, rows = self._layers(x, schedule, ids)
        roots = getattr(schedule, "tree_roots", schedule.roots)
        return h.take_rows(rows[roots])
