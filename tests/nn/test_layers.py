"""Tests for Module/Parameter plumbing and the basic layers."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor

from ..helpers import check_gradients


class TwoLayer(nn.Module):
    """``second(tanh(first(x)))`` — a nested module for plumbing tests."""

    def __init__(self, first: nn.Module, second: nn.Module):
        super().__init__()
        self.first = first
        self.second = second

    def forward(self, x: Tensor) -> Tensor:
        return self.second(self.first(x).tanh())


class TestModulePlumbing:
    def test_named_parameters_nested(self):
        model = TwoLayer(nn.Linear(3, 4), nn.Linear(4, 2))
        names = [n for n, _ in model.named_parameters()]
        assert "first.weight" in names
        assert "second.bias" in names
        assert len(names) == 4

    def test_parameters_unique(self):
        lin = nn.Linear(3, 3)
        model = TwoLayer(lin, lin)  # alias the same module
        params = list(model.parameters())
        assert len(params) == 2  # weight + bias, not duplicated

    def test_train_eval_propagates(self):
        model = TwoLayer(nn.Linear(2, 2), nn.Linear(2, 2))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_state_dict_roundtrip(self):
        a = nn.Linear(3, 4, rng=np.random.default_rng(1))
        b = nn.Linear(3, 4, rng=np.random.default_rng(2))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_load_state_dict_validates_keys(self):
        a = nn.Linear(2, 2)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": np.zeros((2, 2))})  # missing bias

    def test_load_state_dict_validates_shape(self):
        a = nn.Linear(2, 2)
        state = a.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_num_parameters(self):
        lin = nn.Linear(3, 4)
        assert lin.num_parameters() == 3 * 4 + 4

    def test_zero_grad(self):
        lin = nn.Linear(2, 2)
        loss = lin(Tensor(np.ones(2))).sum()
        loss.backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None


class TestLinear:
    def test_forward_shape(self):
        lin = nn.Linear(5, 3)
        out = lin(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)

    def test_matches_manual_affine(self):
        lin = nn.Linear(4, 2)
        x = np.random.default_rng(0).normal(size=(3, 4))
        out = lin(Tensor(x))
        expected = x @ lin.weight.data.T + lin.bias.data
        np.testing.assert_allclose(out.data, expected)

    def test_no_bias(self):
        lin = nn.Linear(4, 2, bias=False)
        assert lin.bias is None
        assert len(list(lin.parameters())) == 1

    def test_gradients(self):
        lin = nn.Linear(3, 2, rng=np.random.default_rng(3))
        x = Tensor(np.random.default_rng(4).normal(size=(5, 3)))
        check_gradients(lambda: (lin(x) ** 2).sum(), [lin.weight, lin.bias])


class TestEmbedding:
    def test_lookup_shape(self):
        emb = nn.Embedding(10, 6)
        out = emb([1, 2, 3, 3])
        assert out.shape == (4, 6)

    def test_out_of_range_raises(self):
        emb = nn.Embedding(4, 2)
        with pytest.raises(IndexError):
            emb([4])
        with pytest.raises(IndexError):
            emb([-1])

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            nn.Embedding(0, 4)

    def test_gradient_scatter_adds(self):
        emb = nn.Embedding(5, 3)
        out = emb([2, 2, 4]).sum()
        out.backward()
        np.testing.assert_allclose(emb.weight.grad[2], np.full(3, 2.0))
        np.testing.assert_allclose(emb.weight.grad[4], np.ones(3))
        np.testing.assert_allclose(emb.weight.grad[0], np.zeros(3))

