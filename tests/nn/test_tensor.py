"""Unit tests for the autograd engine, including finite-difference checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor, no_grad

from ..helpers import check_gradients


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestBasics:
    def test_wraps_data_in_backend_dtype(self):
        # Lists and scalars land in the active backend's float dtype
        # (float64 on the default backend).
        from repro.nn import backend as nn_backend

        t = Tensor([1, 2, 3])
        assert t.data.dtype == nn_backend.default_dtype()
        assert t.shape == (3,)

    def test_integer_arrays_are_not_floated(self):
        # Index maps / masks keep their dtype and identity — the old
        # behaviour silently upcast them to float64, which copied every
        # row index array.
        idx = np.array([0, 2, 1], dtype=np.int64)
        assert Tensor(idx).data is idx
        mask = np.array([True, False], dtype=np.bool_)
        assert Tensor(mask).data is mask

    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_item_single_element_any_shape(self):
        assert Tensor(np.array([[2.0]])).item() == 2.0

    def test_item_multi_element_raises(self):
        with pytest.raises(ValueError, match="single-element"):
            Tensor([1.0, 2.0]).item()

    def test_detach_shares_data_but_no_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_backward_requires_grad(self):
        t = Tensor([1.0])
        with pytest.raises(RuntimeError):
            t.backward()

    def test_backward_nonscalar_needs_grad_arg(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_no_grad_context(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2
        assert not out.requires_grad


class TestArithmeticGradients:
    def test_add(self):
        a = Tensor(rand((3, 4)), requires_grad=True)
        b = Tensor(rand((3, 4), 1), requires_grad=True)
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_add_broadcast(self):
        a = Tensor(rand((3, 4)), requires_grad=True)
        b = Tensor(rand((4,), 1), requires_grad=True)
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_mul_broadcast_scalar(self):
        a = Tensor(rand((2, 3)), requires_grad=True)
        b = Tensor(rand((1,), 1), requires_grad=True)
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_sub_neg(self):
        a = Tensor(rand((5,)), requires_grad=True)
        b = Tensor(rand((5,), 1), requires_grad=True)
        check_gradients(lambda: (a - b).sum(), [a, b])

    def test_div(self):
        a = Tensor(rand((4,)) + 3.0, requires_grad=True)
        b = Tensor(rand((4,), 1) + 3.0, requires_grad=True)
        check_gradients(lambda: (a / b).sum(), [a, b])

    def test_pow(self):
        a = Tensor(np.abs(rand((4,))) + 1.0, requires_grad=True)
        check_gradients(lambda: (a ** 3).sum(), [a])

    def test_rsub_rdiv(self):
        a = Tensor(rand((3,)) + 2.0, requires_grad=True)
        check_gradients(lambda: (1.0 - a).sum(), [a])
        check_gradients(lambda: (1.0 / a).sum(), [a])


class TestMatmulGradients:
    def test_matrix_matrix(self):
        a = Tensor(rand((3, 4)), requires_grad=True)
        b = Tensor(rand((4, 5), 1), requires_grad=True)
        check_gradients(lambda: a.matmul(b).sum(), [a, b])

    def test_vector_matrix(self):
        a = Tensor(rand((4,)), requires_grad=True)
        b = Tensor(rand((4, 5), 1), requires_grad=True)
        check_gradients(lambda: a.matmul(b).sum(), [a, b])

    def test_matrix_vector(self):
        a = Tensor(rand((3, 4)), requires_grad=True)
        b = Tensor(rand((4,), 1), requires_grad=True)
        check_gradients(lambda: a.matmul(b).sum(), [a, b])


class TestNonlinearityGradients:
    @pytest.mark.parametrize("op", ["tanh", "sigmoid"])
    def test_smooth_ops(self, op):
        a = Tensor(rand((3, 3)), requires_grad=True)
        check_gradients(lambda: getattr(a, op)().sum(), [a])

    def test_relu_away_from_kink(self):
        a = Tensor(rand((10,)) + 5.0, requires_grad=True)
        check_gradients(lambda: a.relu().sum(), [a])

    def test_sigmoid_extreme_values_stable(self):
        a = Tensor([-800.0, 800.0])
        out = a.sigmoid()
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)


class TestReductionsAndShape:
    def test_sum_axis_keepdims(self):
        a = Tensor(rand((3, 4)), requires_grad=True)
        check_gradients(lambda: (a.sum(axis=0) ** 2).sum(), [a])
        check_gradients(lambda: (a.sum(axis=1, keepdims=True) ** 2).sum(), [a])

    def test_mean(self):
        a = Tensor(rand((3, 4)), requires_grad=True)
        check_gradients(lambda: (a.mean(axis=1) ** 2).sum(), [a])
        assert np.isclose(a.mean().item(), a.data.mean())

    def test_reshape(self):
        a = Tensor(rand((3, 4)), requires_grad=True)
        check_gradients(lambda: (a.reshape(12) ** 2).sum(), [a])

    def test_transpose(self):
        a = Tensor(rand((3, 4)), requires_grad=True)
        check_gradients(lambda: (a.T.matmul(Tensor(rand((3, 2), 1)))).sum(), [a])

    def test_getitem_row(self):
        a = Tensor(rand((5, 3)), requires_grad=True)
        check_gradients(lambda: (a[2] ** 2).sum(), [a])

    def test_getitem_fancy(self):
        a = Tensor(rand((5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        check_gradients(lambda: (a[idx] ** 2).sum(), [a])

    def test_take_rows_repeated_indices_accumulate(self):
        a = Tensor(rand((4, 2)), requires_grad=True)
        out = a.take_rows([1, 1, 1]).sum()
        out.backward()
        np.testing.assert_allclose(a.grad[1], [3.0, 3.0])
        np.testing.assert_allclose(a.grad[0], [0.0, 0.0])

    def test_getitem_strided_slice(self):
        # The batched pair split (z[0::2] / z[1::2]) relies on strided
        # slice gradients through the sparse accumulation fast path.
        a = Tensor(rand((6, 3)), requires_grad=True)
        check_gradients(lambda: (a[0::2] ** 2).sum() + (a[1::2] ** 3).sum(), [a])

    def test_sparse_backward_matches_dense_reference(self):
        # take_rows must accumulate exactly like the dense scatter it
        # replaced, including multiple reads of the same tensor.
        a = Tensor(rand((6, 2)), requires_grad=True)
        (a.take_rows([0, 5, 5]).sum() + (a.take_rows([1, 0]) ** 2).sum()).backward()
        expected = np.zeros((6, 2))
        np.add.at(expected, [0, 5, 5], np.ones((3, 2)))
        np.add.at(expected, [1, 0], 2 * a.data[[1, 0]])
        np.testing.assert_allclose(a.grad, expected)


class TestConcatTakeRows:
    """Rows of several tensors read through ``Tensor.concat`` plus
    ``take_rows``: how the tree-LSTM oracle reads children that live on
    different levels."""

    def test_forward_multi_source(self):
        a, b = Tensor(rand((3, 2))), Tensor(rand((4, 2), 1))
        out = Tensor.concat([a, b], axis=0).take_rows([2, 6, 3, 0])
        np.testing.assert_allclose(
            out.data, np.stack([a.data[2], b.data[3], b.data[0], a.data[0]]))

    def test_gradcheck(self):
        a = Tensor(rand((3, 2)), requires_grad=True)
        b = Tensor(rand((4, 2), 1), requires_grad=True)
        check_gradients(
            lambda: (Tensor.concat([a, b], axis=0).take_rows(
                [2, 6, 3, 0, 2]) ** 2).sum(),
            [a, b])

    def test_unread_source_gets_zero_grad(self):
        a = Tensor(rand((3, 2)), requires_grad=True)
        b = Tensor(rand((3, 2), 1), requires_grad=True)
        Tensor.concat([a, b], axis=0).take_rows([1, 2]).sum().backward()
        np.testing.assert_array_equal(a.grad, [[0, 0], [1, 1], [1, 1]])
        np.testing.assert_array_equal(b.grad, np.zeros((3, 2)))

    def test_rejects_empty_and_bad_rows(self):
        with pytest.raises(ValueError):
            Tensor.concat([], axis=0)
        with pytest.raises(IndexError):
            Tensor.concat([Tensor(np.zeros((2, 2)))], axis=0).take_rows([2])


class TestCombinators:
    def test_concat(self):
        a = Tensor(rand((2, 3)), requires_grad=True)
        b = Tensor(rand((2, 5), 1), requires_grad=True)
        check_gradients(lambda: (Tensor.concat([a, b], axis=1) ** 2).sum(), [a, b])

    def test_stack(self):
        a = Tensor(rand((3,)), requires_grad=True)
        b = Tensor(rand((3,), 1), requires_grad=True)
        check_gradients(lambda: (Tensor.stack([a, b]) ** 2).sum(), [a, b])


class TestGraphReuse:
    def test_diamond_graph_accumulates(self):
        # y = x*x + x*x must give dy/dx = 4x.
        x = Tensor([3.0], requires_grad=True)
        y = x * x + x * x
        y.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_shared_subexpression(self):
        x = Tensor([2.0], requires_grad=True)
        s = x * 3
        y = (s * s).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [2 * 3 * 3 * 2.0])


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_chain_rule_linear_tanh(rows, cols, seed):
    """d/dW of sum(tanh(x W)) matches finite differences for random shapes."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(rows, cols)))
    w = Tensor(rng.normal(size=(cols, 3)), requires_grad=True)
    check_gradients(lambda: x.matmul(w).tanh().sum(), [w])
