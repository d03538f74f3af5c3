"""Tests for the child-sum tree-LSTM: schedules, equations, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (ChildSumTreeLSTM, Embedding, ForestSchedule, LSTM,
                      Tensor, TreeLSTMStack, TreeSchedule, schedule_for)
from repro.nn.treelstm import share_subtrees

from ..helpers import backend_tolerance, check_gradients


def chain_children(n):
    """Children lists for a chain 0 <- 1 <- ... (node 0 is root)."""
    return [[i + 1] if i + 1 < n else [] for i in range(n)]


def star_children(n):
    """Node 0 is root with n-1 leaf children."""
    return [list(range(1, n))] + [[] for _ in range(n - 1)]


class TestTreeSchedule:
    def test_chain_levels(self):
        sched = TreeSchedule(chain_children(4))
        assert sched.roots.tolist() == [0]
        assert len(sched.up_levels) == 4
        # Leaf (node 3) is processed first, root last.
        assert sched.up_levels[0][0].tolist() == [3]
        assert sched.up_levels[-1][0].tolist() == [0]

    def test_star_levels(self):
        sched = TreeSchedule(star_children(5))
        assert len(sched.up_levels) == 2
        assert sorted(sched.up_levels[0][0].tolist()) == [1, 2, 3, 4]

    def test_down_levels_start_at_root(self):
        sched = TreeSchedule(chain_children(3))
        nodes, parents = sched.down_levels[0]
        assert nodes.tolist() == [0]
        assert parents.tolist() == [-1]

    def test_rejects_two_parents(self):
        with pytest.raises(ValueError, match="two parents"):
            TreeSchedule([[1], [2], [], [2]])

    def test_rejects_self_child(self):
        with pytest.raises(ValueError, match="own child"):
            TreeSchedule([[0]])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            TreeSchedule([[1], [0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TreeSchedule([])

    def test_rejects_out_of_range_child(self):
        with pytest.raises(ValueError, match="out of range"):
            TreeSchedule([[5], []])

    def test_forest_has_multiple_roots(self):
        sched = TreeSchedule([[1], [], [3], []])
        assert sorted(sched.roots.tolist()) == [0, 2]


class TestForestSchedule:
    TREES = [[[1, 2], [3], [], []],      # height 2
             [[1], [2], []],             # chain, height 2
             [[]],                       # single node
             [[1, 2, 3], [], [4], [], []]]  # height 2, uneven

    def _forest(self):
        scheds = [TreeSchedule(c) for c in self.TREES]
        return scheds, ForestSchedule(scheds)

    def test_offsets_and_roots(self):
        scheds, forest = self._forest()
        assert forest.num_trees == 4
        assert forest.num_nodes == sum(s.num_nodes for s in scheds)
        assert forest.tree_offsets.tolist() == [0, 4, 7, 8, 13]
        # Every tree's root is its own node 0, shifted by its offset.
        assert forest.tree_roots.tolist() == [0, 4, 7, 8]

    def test_merged_up_levels_union_trees(self):
        scheds, forest = self._forest()
        assert len(forest.up_levels) == max(len(s.up_levels) for s in scheds)
        # Level 0 of the forest = all leaves of all trees.
        leaves = sorted(forest.up_levels[0][0].tolist())
        assert leaves == [2, 3, 6, 7, 9, 11, 12]

    def test_parent_indices_shifted(self):
        scheds, forest = self._forest()
        # Tree 1 (offset 4) is the chain 4 <- 5 <- 6.
        assert forest.parent[5] == 4
        assert forest.parent[6] == 5
        assert forest.parent[4] == -1

    def test_rejects_empty_forest(self):
        with pytest.raises(ValueError):
            ForestSchedule([])

    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_forest_encode_matches_per_tree(self, direction):
        """Fused forest pass == per-tree passes, to ~1e-12 (tentpole)."""
        rng = np.random.default_rng(7)
        scheds, forest = self._forest()
        xs = [rng.normal(size=(s.num_nodes, 3)) for s in scheds]
        cell = ChildSumTreeLSTM(3, 4, rng=np.random.default_rng(1))
        h_f, c_f = cell(Tensor(np.concatenate(xs)), forest, direction=direction)
        offs = forest.tree_offsets
        for t, (s, x) in enumerate(zip(scheds, xs)):
            h_t, c_t = cell(Tensor(x), s, direction=direction)
            np.testing.assert_allclose(h_f.data[offs[t]:offs[t + 1]], h_t.data,
                                       atol=backend_tolerance(1e-12))
            np.testing.assert_allclose(c_f.data[offs[t]:offs[t + 1]], c_t.data,
                                       atol=backend_tolerance(1e-12))

    def test_forest_gradients_match_per_tree(self):
        rng = np.random.default_rng(3)
        scheds, forest = self._forest()
        xs = [rng.normal(size=(s.num_nodes, 3)) for s in scheds]
        stack = TreeLSTMStack(3, 4, num_layers=2, direction="alternating",
                              rng=np.random.default_rng(5))
        x_cat = Tensor(np.concatenate(xs), requires_grad=True)
        z = stack.root_states(x_cat, forest)
        assert z.shape == (4, 4)
        (z ** 2).sum().backward()
        offs = forest.tree_offsets
        for t, (s, x) in enumerate(zip(scheds, xs)):
            xi = Tensor(x, requires_grad=True)
            zi = stack.encode(xi, s)
            np.testing.assert_allclose(zi.data, z.data[t], atol=backend_tolerance(1e-12))
            (zi ** 2).sum().backward()
            np.testing.assert_allclose(x_cat.grad[offs[t]:offs[t + 1]],
                                       xi.grad, atol=backend_tolerance(1e-10))

    def test_forest_gradcheck_numeric(self):
        """Finite-difference gradcheck straight through the fused pass."""
        rng = np.random.default_rng(11)
        scheds = [TreeSchedule(c) for c in ([[1, 2], [], []], [[1], []])]
        forest = ForestSchedule(scheds)
        cell = ChildSumTreeLSTM(2, 2, rng=rng)
        x = Tensor(rng.normal(size=(forest.num_nodes, 2)), requires_grad=True)

        def loss():
            h, _ = cell(x, forest)
            return (h.take_rows(forest.tree_roots) ** 2).sum()

        check_gradients(loss, [x, cell.w_iou, cell.u_f], atol=1e-4, rtol=1e-3)

    def test_root_states_single_tree(self):
        stack = TreeLSTMStack(3, 4, rng=np.random.default_rng(0))
        sched = TreeSchedule([[1, 2], [], []])
        x = Tensor(np.random.default_rng(1).normal(size=(3, 3)))
        z = stack.root_states(x, sched)
        assert z.shape == (1, 4)
        np.testing.assert_allclose(z.data[0], stack.encode(x, sched).data,
                                   atol=backend_tolerance(1e-12))


def assert_table_path_matches_reference(sched, ids, vocab, direction, layers,
                                        rng):
    """Root states and every gradient, the embedding's included, of the
    table path (hash-consed subtrees) against the node-level reference:
    the embedding lookup followed by dense projections over the nodes.
    ``rng`` draws the readout weights."""
    emb = Embedding(vocab, 3, rng=np.random.default_rng(2))
    stack = TreeLSTMStack(3, 4, num_layers=layers, direction=direction,
                          rng=np.random.default_rng(3))
    named = [("embedding", emb.weight), *stack.named_parameters()]
    readout = Tensor(rng.normal(size=(len(sched.roots), 4)))

    def run(table_path):
        for _, p in named:
            p.zero_grad()
        if table_path:
            z = stack.root_states(emb.weight, sched, ids)
        else:
            z = stack.root_states(emb(ids), sched)
        (z * readout).sum().backward()
        return z.data, [p.grad for _, p in named]

    z_table, grads_table = run(table_path=True)
    z_ref, grads_ref = run(table_path=False)
    tol = backend_tolerance(1e-8)
    np.testing.assert_allclose(z_table, z_ref, rtol=0, atol=tol)
    for (name, _), got, want in zip(named, grads_table, grads_ref):
        assert got is not None and want is not None, name
        np.testing.assert_allclose(got, want, rtol=0, atol=tol,
                                   err_msg=name)


class TestTablePath:
    """A first layer fed the embedding table plus node ids projects the
    table and reads it by id. Root states and every gradient, the
    table's included, must match the node-level reference: the
    embedding lookup followed by dense projections over the nodes."""

    VOCAB = 5

    def _schedule(self, kind):
        if kind == "tree":
            return TreeSchedule([[1, 2], [3, 4], [], [5], [], []])
        return ForestSchedule([TreeSchedule(c)
                               for c in TestForestSchedule.TREES])

    @pytest.mark.parametrize("kind", ["tree", "forest"])
    @pytest.mark.parametrize("direction", ["uni", "bi", "alternating"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_node_level_reference(self, kind, direction, layers):
        sched = self._schedule(kind)
        rng = np.random.default_rng(layers)
        ids = rng.integers(0, self.VOCAB, sched.num_nodes)  # repeated types
        assert_table_path_matches_reference(sched, ids, self.VOCAB,
                                            direction, layers, rng)

    def test_node_ids_must_cover_the_schedule(self):
        cell = ChildSumTreeLSTM(3, 4)
        table = Tensor(np.zeros((self.VOCAB, 3)))
        with pytest.raises(ValueError, match="node ids"):
            cell(table, TreeSchedule([[1], []]), ids=np.array([0, 1, 2]))
        stack = TreeLSTMStack(3, 4)
        with pytest.raises(ValueError, match="node ids"):
            stack.root_states(table, TreeSchedule([[1], []]),
                              ids=np.array([0, 1, 2]))


def random_children(rng, n):
    """Children lists of a random n-node tree rooted at node 0: the
    parent of node i > 0 is uniform in [0, i)."""
    children = [[] for _ in range(n)]
    for i in range(1, n):
        children[int(rng.integers(0, i))].append(i)
    return children


class TestSharedSubtrees:
    """``share_subtrees`` merges nodes whose type-labelled subtrees are
    equal, children in edge order, and the stack's table path computes
    each class once."""

    # root(0) -> a(1) -> leaf(3); root -> a'(2) -> leaf(4): 1 ~ 2, 3 ~ 4
    TWIN = [[1, 2], [3], [4], [], []]
    TWIN_IDS = [0, 1, 1, 2, 2]

    @staticmethod
    def _forest(children_list, ids_list):
        sched = ForestSchedule([TreeSchedule(c) for c in children_list])
        ids = np.concatenate([np.asarray(i) for i in ids_list])
        return sched, ids, share_subtrees(sched.up_levels, ids)

    def test_single_tree_schedule(self):
        sched = TreeSchedule(self.TWIN)
        levels, reps, row_of = share_subtrees(sched.up_levels,
                                              np.array(self.TWIN_IDS))
        assert len(reps) == 3
        assert row_of[1] == row_of[2] and row_of[3] == row_of[4]
        # a class id is its row: levels number classes consecutively
        assert np.concatenate([lvl[0] for lvl in levels]).tolist() == [0, 1, 2]
        assert row_of.tolist() == [2, 1, 1, 0, 0]
        # the root class reads the shared child class twice
        assert levels[2][1].tolist() == [1, 1]
        assert levels[2][2].tolist() == [0, 0]

    def test_identical_trees_give_one_trees_classes(self):
        k = 4
        _, _, (_, reps, row_of) = self._forest([self.TWIN] * k,
                                               [self.TWIN_IDS] * k)
        assert len(reps) == 3
        assert row_of.reshape(k, -1).tolist() == [[2, 1, 1, 0, 0]] * k

    def test_leaves_of_one_type_share_one_row(self):
        _, _, (levels, reps, row_of) = self._forest(
            [[[1, 2, 3], [], [], []], [[1], []], [[]]],
            [[0, 5, 5, 5], [1, 5], [5]])
        assert levels[0][0].tolist() == [0]
        assert row_of[[1, 2, 3, 5, 6]].tolist() == [0] * 5
        assert len(reps) == 3

    def test_child_order_makes_two_classes(self):
        _, _, (levels, reps, row_of) = self._forest(
            [[[1, 2], [], []], [[1, 2], [], []]], [[0, 1, 2], [0, 2, 1]])
        assert len(reps) == 4
        assert row_of[0] != row_of[3]
        assert levels[1][1].tolist() == [0, 1, 1, 0]

    def test_types_split_equal_shapes(self):
        _, _, (_, reps, row_of) = self._forest(
            [self.TWIN] * 2, [self.TWIN_IDS, [0, 1, 1, 2, 3]])
        assert len(reps) == 6
        assert row_of[0] != row_of[5]

    @pytest.mark.parametrize("direction", ["uni", "bi", "alternating"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_node_states_match_reference_per_node(self, direction, layers):
        sched, ids, (_, reps, _) = self._forest(
            [self.TWIN, TestForestSchedule.TREES[3], self.TWIN],
            [self.TWIN_IDS, [0, 1, 2, 1, 2], self.TWIN_IDS])
        assert len(reps) < sched.num_nodes
        emb = Embedding(3, 3, rng=np.random.default_rng(2))
        stack = TreeLSTMStack(3, 4, num_layers=layers, direction=direction,
                              rng=np.random.default_rng(3))
        np.testing.assert_allclose(stack(emb.weight, sched, ids).data,
                                   stack(emb(ids), sched).data, rtol=0,
                                   atol=backend_tolerance(1e-8))


@st.composite
def shared_forests(draw):
    """A forest of random trees over a 3-type vocabulary, some of them
    repeated, with its node ids. Tree 0 has an edge, so every parameter
    gets a gradient."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    sizes = [draw(st.integers(2, 9))] + draw(st.lists(st.integers(1, 9),
                                                      max_size=2))
    distinct = [(random_children(rng, n), rng.integers(0, 3, n))
                for n in sizes]
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1,
                          max_size=5))
    if 0 not in picks:
        picks.append(0)
    sched = ForestSchedule([TreeSchedule(distinct[p][0]) for p in picks])
    return sched, np.concatenate([distinct[p][1] for p in picks])


@pytest.mark.parametrize("direction", ["uni", "bi", "alternating"])
@pytest.mark.parametrize("layers", [1, 2, 3])
@settings(max_examples=8, deadline=None)
@given(forest=shared_forests())
def test_property_shared_subtrees_match_node_level_reference(
        direction, layers, forest):
    sched, ids = forest
    assert_table_path_matches_reference(sched, ids, 3, direction, layers,
                                        np.random.default_rng(0))


class TestScheduleMemo:
    def test_same_structure_shares_schedule(self):
        children = [[1, 2], [], []]
        assert schedule_for(children) is schedule_for([[1, 2], [], []])

    def test_different_structure_differs(self):
        assert schedule_for([[1], []]) is not schedule_for([[], [0]])


class TestChildSumEquations:
    def test_leaf_matches_lstm_step(self):
        """A single-node tree is one LSTM step from a zero state."""
        rng = np.random.default_rng(7)
        cell = ChildSumTreeLSTM(4, 3, rng=rng)
        x = Tensor(rng.normal(size=(1, 4)))
        h, c = cell(x, TreeSchedule([[]]))

        # Manual equation-4 computation with no children.
        xv = x.data[0]
        iou = cell.w_iou.data @ xv + cell.b_iou.data
        i = 1 / (1 + np.exp(-iou[0:3]))
        o = 1 / (1 + np.exp(-iou[3:6]))
        u = np.tanh(iou[6:9])
        c_exp = i * u
        h_exp = o * np.tanh(c_exp)
        np.testing.assert_allclose(h.data[0], h_exp, atol=backend_tolerance(1e-12))
        np.testing.assert_allclose(c.data[0], c_exp, atol=backend_tolerance(1e-12))

    def test_parent_aggregates_children_manual(self):
        """Verify eq. 4 by hand on a root with two leaves."""
        rng = np.random.default_rng(1)
        cell = ChildSumTreeLSTM(2, 2, rng=rng)
        children = [[1, 2], [], []]
        x = Tensor(rng.normal(size=(3, 2)))
        h, c = cell(x, TreeSchedule(children))

        def sig(v):
            return 1 / (1 + np.exp(-v))

        def leaf(xv):
            iou = cell.w_iou.data @ xv + cell.b_iou.data
            i, o, u = sig(iou[0:2]), sig(iou[2:4]), np.tanh(iou[4:6])
            cc = i * u
            return o * np.tanh(cc), cc

        h1, c1 = leaf(x.data[1])
        h2, c2 = leaf(x.data[2])
        h_tilde = h1 + h2
        iou = cell.w_iou.data @ x.data[0] + cell.u_iou.data @ h_tilde + cell.b_iou.data
        i, o, u = sig(iou[0:2]), sig(iou[2:4]), np.tanh(iou[4:6])
        f1 = sig(cell.w_f.data @ x.data[0] + cell.u_f.data @ h1 + cell.b_f.data)
        f2 = sig(cell.w_f.data @ x.data[0] + cell.u_f.data @ h2 + cell.b_f.data)
        c0 = i * u + f1 * c1 + f2 * c2
        h0 = o * np.tanh(c0)
        np.testing.assert_allclose(c.data[0], c0, atol=backend_tolerance(1e-10))
        np.testing.assert_allclose(h.data[0], h0, atol=backend_tolerance(1e-10))

    def test_child_order_invariance(self):
        """Child-sum aggregation must not depend on sibling order."""
        rng = np.random.default_rng(3)
        cell = ChildSumTreeLSTM(3, 4, rng=rng)
        x = rng.normal(size=(4, 3))
        h1, _ = cell(Tensor(x), TreeSchedule([[1, 2, 3], [], [], []]))
        h2, _ = cell(Tensor(x), TreeSchedule([[3, 2, 1], [], [], []]))
        np.testing.assert_allclose(h1.data[0], h2.data[0], atol=backend_tolerance(1e-12))

    def test_chain_tree_matches_sequential_lstm(self):
        """On a chain, child-sum tree-LSTM == sequential LSTM (same weights).

        The chain 0 <- 1 <- 2 processes node 2 first, like the t=0 step.
        """
        rng = np.random.default_rng(5)
        n, d, hs = 5, 3, 4
        cell = ChildSumTreeLSTM(d, hs, rng=rng)
        lstm = LSTM(d, hs, rng=np.random.default_rng(99))
        # Copy tree weights into the sequential cell (gate order differs:
        # tree uses [i,o,u]+separate f; seq uses [i,f,o,u]).
        lstm.cell.w_x.data[0 * hs:1 * hs] = cell.w_iou.data[0 * hs:1 * hs]
        lstm.cell.w_x.data[1 * hs:2 * hs] = cell.w_f.data
        lstm.cell.w_x.data[2 * hs:3 * hs] = cell.w_iou.data[1 * hs:2 * hs]
        lstm.cell.w_x.data[3 * hs:4 * hs] = cell.w_iou.data[2 * hs:3 * hs]
        lstm.cell.w_h.data[0 * hs:1 * hs] = cell.u_iou.data[0 * hs:1 * hs]
        lstm.cell.w_h.data[1 * hs:2 * hs] = cell.u_f.data
        lstm.cell.w_h.data[2 * hs:3 * hs] = cell.u_iou.data[1 * hs:2 * hs]
        lstm.cell.w_h.data[3 * hs:4 * hs] = cell.u_iou.data[2 * hs:3 * hs]
        lstm.cell.bias.data[0 * hs:1 * hs] = cell.b_iou.data[0 * hs:1 * hs]
        lstm.cell.bias.data[1 * hs:2 * hs] = cell.b_f.data
        lstm.cell.bias.data[2 * hs:3 * hs] = cell.b_iou.data[1 * hs:2 * hs]
        lstm.cell.bias.data[3 * hs:4 * hs] = cell.b_iou.data[2 * hs:3 * hs]

        x = rng.normal(size=(n, d))
        h_tree, _ = cell(Tensor(x), TreeSchedule(chain_children(n)))
        # Sequence order: last chain node first.
        _, (h_final, _) = lstm(Tensor(x[::-1].copy()))
        np.testing.assert_allclose(h_tree.data[0], h_final.data, atol=backend_tolerance(1e-10))

    def test_gradients_small_tree(self):
        rng = np.random.default_rng(11)
        cell = ChildSumTreeLSTM(2, 3, rng=rng)
        children = [[1, 2], [3], []]
        children = [[1, 2], [3], [], []]
        sched = TreeSchedule(children)
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        params = [cell.w_iou, cell.u_iou, cell.b_iou, cell.w_f, cell.u_f, cell.b_f, x]

        def loss():
            h, _ = cell(x, sched)
            return (h[0] ** 2).sum()

        check_gradients(loss, params, atol=1e-4, rtol=1e-3)

    def test_downward_gradients(self):
        rng = np.random.default_rng(13)
        cell = ChildSumTreeLSTM(2, 2, rng=rng)
        sched = TreeSchedule([[1, 2], [], []])
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)

        def loss():
            h, _ = cell(x, sched, direction="down")
            return (h ** 2).sum()

        check_gradients(loss, [x, cell.w_iou, cell.u_f], atol=1e-4, rtol=1e-3)

    def test_invalid_direction(self):
        cell = ChildSumTreeLSTM(2, 2)
        with pytest.raises(ValueError):
            cell(Tensor(np.zeros((1, 2))), TreeSchedule([[]]), direction="sideways")

    def test_shape_mismatch(self):
        cell = ChildSumTreeLSTM(2, 2)
        with pytest.raises(ValueError):
            cell(Tensor(np.zeros((2, 2))), TreeSchedule([[]]))


class TestTreeLSTMStack:
    @pytest.mark.parametrize("direction", ["uni", "bi", "alternating"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_encode_shapes(self, direction, layers):
        stack = TreeLSTMStack(4, 6, num_layers=layers, direction=direction,
                              rng=np.random.default_rng(0))
        sched = TreeSchedule([[1, 2], [3], [], []])
        x = Tensor(np.random.default_rng(1).normal(size=(4, 4)))
        code_vec = stack.encode(x, sched)
        assert code_vec.shape == (6,)

    def test_bi_has_roughly_double_params_of_alternating(self):
        """Paper: alternating has half the parameters of bi-directional."""
        bi = TreeLSTMStack(8, 8, num_layers=3, direction="bi")
        alt = TreeLSTMStack(8, 8, num_layers=3, direction="alternating")
        assert bi.num_parameters() > 1.5 * alt.num_parameters()

    def test_uni_layers_share_nothing(self):
        stack = TreeLSTMStack(4, 4, num_layers=2, direction="uni")
        names = {n for n, _ in stack.named_parameters()}
        assert any(n.startswith("cell0") for n in names)
        assert any(n.startswith("cell1") for n in names)

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            TreeLSTMStack(4, 4, direction="diagonal")

    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            TreeLSTMStack(4, 4, num_layers=0)

    def test_stack_is_trainable_end_to_end(self):
        """One gradient step reduces a toy loss."""
        rng = np.random.default_rng(42)
        stack = TreeLSTMStack(3, 4, num_layers=2, direction="alternating", rng=rng)
        sched = TreeSchedule([[1, 2], [], []])
        x = Tensor(rng.normal(size=(3, 3)))
        target = np.ones(4)

        def compute_loss():
            v = stack.encode(x, sched)
            return ((v - Tensor(target)) ** 2).sum()

        from repro.nn import Adam

        opt = Adam(stack.parameters(), lr=0.1)
        first = compute_loss()
        first.backward()
        opt.step()
        opt.zero_grad()
        second = compute_loss()
        assert second.item() < first.item()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
def test_property_random_tree_root_grad_matches_numeric(seed, n):
    """For random trees, d(root h)/d(embedding) matches finite differences."""
    rng = np.random.default_rng(seed)
    sched = TreeSchedule(random_children(rng, n))
    cell = ChildSumTreeLSTM(2, 2, rng=rng)
    x = Tensor(rng.normal(size=(n, 2)), requires_grad=True)

    def loss():
        h, _ = cell(x, sched)
        return (h[0] ** 2).sum()

    check_gradients(loss, [x], atol=1e-4, rtol=1e-3)
