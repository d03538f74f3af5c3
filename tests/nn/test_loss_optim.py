"""Tests for the loss, the optimizer and gradient clipping."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn.loss import bce_with_logits

from ..helpers import check_gradients


class TestLosses:
    def test_bce_matches_definition(self):
        logits = Tensor([0.3, -1.2, 2.0])
        y = np.array([1.0, 0.0, 1.0])
        p = 1 / (1 + np.exp(-logits.data))
        expected = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        assert np.isclose(bce_with_logits(logits, y).item(), expected)

    def test_bce_extreme_logits_finite(self):
        logits = Tensor([1000.0, -1000.0])
        loss = bce_with_logits(logits, np.array([0.0, 1.0]))
        assert np.isfinite(loss.item())
        assert loss.item() > 100  # confidently wrong is heavily penalized

    def test_bce_gradient_is_sigmoid_minus_target(self):
        logits = Tensor([0.5, -0.5], requires_grad=True)
        y = np.array([1.0, 0.0])
        bce_with_logits(logits, y).backward()
        p = 1 / (1 + np.exp(-logits.data))
        np.testing.assert_allclose(logits.grad, (p - y) / 2, atol=1e-10)

    def test_bce_numeric_gradient(self):
        logits = Tensor(np.random.default_rng(0).normal(size=5), requires_grad=True)
        y = np.array([1.0, 0, 1, 0, 1])
        check_gradients(lambda: bce_with_logits(logits, y), [logits])


def quadratic_param():
    return nn.Parameter(np.array([5.0, -3.0]))


class TestOptimizers:
    def test_minimizes_quadratic(self):
        p = quadratic_param()
        opt = nn.Adam([p], lr=0.2)
        for _ in range(200):
            opt.zero_grad()
            loss = (Tensor._coerce(p) ** 2).sum() if False else (p * p).sum()
            loss.backward()
            opt.step()
        assert float((p.data ** 2).sum()) < 1e-2

    def test_weight_decay_shrinks_weights(self):
        p = nn.Parameter(np.array([10.0]))
        opt = nn.Adam([p], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        assert abs(p.data[0]) < 10.0

    def test_skips_params_without_grad(self):
        p1 = nn.Parameter(np.array([1.0]))
        p2 = nn.Parameter(np.array([1.0]))
        opt = nn.Adam([p1, p2], lr=0.1)
        (p1 * 2.0).sum().backward()
        opt.step()  # p2.grad is None; must not crash
        assert p2.data[0] == 1.0

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_negative_lr_raises(self):
        with pytest.raises(ValueError):
            nn.Adam([nn.Parameter(np.zeros(1))], lr=-1.0)


class TestClip:
    def test_clip_grad_norm(self):
        p = nn.Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        pre = nn.clip_grad_norm([p], max_norm=1.0)
        assert np.isclose(pre, 20.0)
        assert np.isclose(np.linalg.norm(p.grad), 1.0)

    def test_clip_noop_when_under(self):
        p = nn.Parameter(np.zeros(2))
        p.grad = np.array([0.1, 0.1])
        nn.clip_grad_norm([p], max_norm=5.0)
        np.testing.assert_allclose(p.grad, [0.1, 0.1])
