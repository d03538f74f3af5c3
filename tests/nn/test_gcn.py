"""Tests for the GCN baseline encoder."""

import numpy as np
import pytest

from repro.nn import GCN, GraphConv, Tensor, normalized_adjacency

from ..helpers import check_gradients


class TestNormalizedAdjacency:
    def test_symmetric(self):
        adj = normalized_adjacency(4, [(0, 1), (1, 2), (1, 3)])
        np.testing.assert_allclose(adj, adj.T)

    def test_self_loops_present(self):
        adj = normalized_adjacency(3, [(0, 1)])
        assert np.all(np.diag(adj) > 0)

    def test_isolated_node(self):
        adj = normalized_adjacency(2, [])
        np.testing.assert_allclose(adj, np.eye(2))

    def test_row_normalization_bounds(self):
        adj = normalized_adjacency(5, [(0, i) for i in range(1, 5)])
        # Largest eigenvalue of D^-1/2 (A+I) D^-1/2 is <= 1 + eps.
        eig = np.linalg.eigvalsh(adj).max()
        assert eig <= 1.0 + 1e-9

    def test_invalid_edge(self):
        with pytest.raises(ValueError):
            normalized_adjacency(2, [(0, 5)])


class TestGraphConv:
    def test_forward_shape(self):
        conv = GraphConv(3, 5)
        adj = normalized_adjacency(4, [(0, 1), (0, 2), (2, 3)])
        out = conv(Tensor(np.ones((4, 3))), adj)
        assert out.shape == (4, 5)

    def test_gradients(self):
        rng = np.random.default_rng(0)
        conv = GraphConv(2, 3, rng=rng)
        adj = normalized_adjacency(3, [(0, 1), (1, 2)])
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        check_gradients(lambda: (conv(x, adj) ** 2).sum(),
                        [x, conv.weight, conv.bias], atol=1e-4, rtol=1e-3)

    def test_message_passing_spreads_information(self):
        """After one conv, a node's output depends on its neighbour's input."""
        conv = GraphConv(1, 1)
        conv.weight.data[...] = 1.0
        conv.bias.data[...] = 0.0
        adj = normalized_adjacency(2, [(0, 1)])
        a = conv(Tensor([[1.0], [0.0]]), adj)
        b = conv(Tensor([[1.0], [5.0]]), adj)
        assert not np.allclose(a.data[0], b.data[0])


class TestGCN:
    def test_encode_shapes(self):
        gcn = GCN(4, 6, num_layers=2)
        adj = normalized_adjacency(5, [(0, 1), (0, 2), (2, 3), (2, 4)])
        vec = gcn.encode(Tensor(np.ones((5, 4))), adj)
        assert vec.shape == (6,)

    def test_layer_count_respected(self):
        gcn = GCN(4, 4, num_layers=6)
        assert len(gcn._layer_names) == 6

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            GCN(4, 4, num_layers=0)

    def test_trainable(self):
        from repro.nn import Adam

        rng = np.random.default_rng(5)
        gcn = GCN(3, 4, num_layers=2, rng=rng)
        adj = normalized_adjacency(3, [(0, 1), (1, 2)])
        x = Tensor(rng.normal(size=(3, 3)))
        target = np.ones(4)

        def compute_loss():
            return ((gcn.encode(x, adj) - Tensor(target)) ** 2).sum()

        opt = Adam(gcn.parameters(), lr=0.05)
        first = compute_loss()
        first.backward()
        opt.step()
        assert compute_loss().item() < first.item()
