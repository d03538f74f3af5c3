"""Unit tests for the pluggable ops backend: registry, dtype policy,
buffer pool, kernels, the fused ``addmm`` node, and the parametrized
float32 equivalence/gradcheck suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.nn import backend as nn_backend
from repro.nn.backend import BufferPool, _sigmoid_stable
from repro.nn.tensor import Tensor
from repro.nn.treelstm import ChildSumTreeLSTM, TreeSchedule

from ..helpers import (backend_tolerance, check_gradients,
                       check_gradients_fp64_ref)

REPO_ROOT = Path(__file__).resolve().parents[2]

ALL_BACKENDS = ["numpy64", "numpy32"]


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestRegistry:
    def test_default_is_numpy64(self):
        assert nn_backend.active().name in ALL_BACKENDS
        # Tests run without REPRO_BACKEND (or with it pointing at the
        # leg under test); whatever is active must self-describe.
        d = nn_backend.describe()
        assert set(d) == {"name", "dtype", "tolerance"}

    @pytest.mark.parametrize("name", ["cuda", "numba", "cnative"])
    def test_unknown_backend_raises_value_error(self, name):
        with pytest.raises(ValueError, match="unknown backend"):
            nn_backend.get(name)

    def test_numpy_backends_always_available(self):
        # Both backends are plain NumPy, so both are always registered,
        # and the unknown-name error lists exactly them.
        assert nn_backend.get("numpy64").dtype == np.float64
        assert nn_backend.get("numpy32").dtype == np.float32
        with pytest.raises(ValueError, match=r"\['numpy32', 'numpy64'\]"):
            nn_backend.get("cnative")

    def test_use_is_scoped_and_restores(self):
        before = nn_backend.active().name
        with nn_backend.use("numpy32") as b:
            assert b.name == "numpy32"
            assert nn_backend.active() is b
            assert nn_backend.default_dtype() == np.float32
        assert nn_backend.active().name == before

    def test_use_restores_on_error(self):
        before = nn_backend.active()
        with pytest.raises(RuntimeError):
            with nn_backend.use("numpy32"):
                raise RuntimeError("boom")
        assert nn_backend.active() is before

    def test_set_backend_returns_instance(self):
        before = nn_backend.active().name
        try:
            b = nn_backend.set_backend("numpy32")
            assert nn_backend.active() is b
        finally:
            nn_backend.set_backend(before)

    def test_tolerances_documented(self):
        assert nn_backend.get("numpy64").tolerance == 1e-8
        assert nn_backend.get("numpy32").tolerance == 3e-4

    def _spawn(self, env_value: str, code: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, REPRO_BACKEND=env_value,
                   PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)

    def test_env_selects_backend_at_import(self):
        proc = self._spawn("numpy32", (
            "from repro.nn import backend; print(backend.active().name)"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "numpy32"

    @pytest.mark.parametrize("name", ["cuda", "numba", "cnative"])
    def test_env_unknown_backend_fails_loudly(self, name):
        proc = self._spawn(name, "import repro.nn.backend")
        assert proc.returncode != 0
        assert "REPRO_BACKEND" in proc.stderr


class TestBufferPool:
    def test_take_returns_zeroed_array(self):
        pool = BufferPool()
        buf = pool.take((3, 2), np.float64)
        np.testing.assert_array_equal(buf, 0.0)
        assert buf.dtype == np.float64

    def test_give_take_recycles_and_rezeroes(self):
        pool = BufferPool()
        buf = pool.take((4,), np.float64)
        buf.fill(7.5)
        pool.give(buf)
        again = pool.take((4,), np.float64)
        assert again is buf                 # recycled, not reallocated
        np.testing.assert_array_equal(again, 0.0)
        assert pool.hits == 1 and pool.recycled == 1

    def test_keys_are_shape_and_dtype(self):
        pool = BufferPool()
        pool.give(np.zeros((2, 2), dtype=np.float64))
        assert pool.take((2, 2), np.float32).dtype == np.float32
        assert pool.take((3, 2), np.float64).shape == (3, 2)
        assert pool.stats()["held_buffers"] == 1  # the f64 one, untouched

    def test_views_are_never_pooled(self):
        pool = BufferPool()
        backing = np.zeros((4, 4))
        pool.give(backing[1:])
        assert pool.recycled == 0
        assert pool.stats()["held_buffers"] == 0

    def test_per_key_bound(self):
        pool = BufferPool(max_per_key=2)
        for _ in range(5):
            pool.give(np.zeros(3))
        assert pool.stats()["held_buffers"] == 2

    def test_byte_budget_bound(self):
        pool = BufferPool(max_bytes=100)
        pool.give(np.zeros(64))            # 512 bytes > budget: dropped
        assert pool.stats()["held_bytes"] == 0
        pool.give(np.zeros(10))            # 80 bytes: kept
        assert pool.stats()["held_bytes"] == 80

    def test_trim_drops_shapes_not_taken_since_the_last_trim(self):
        pool = BufferPool()
        kept = pool.take((3,), np.float64)
        pool.give(kept)
        pool.give(np.zeros(5))             # a shape nobody took
        pool.trim()
        assert pool.stats()["held_buffers"] == 1
        assert pool.take((3,), np.float64) is kept     # it survived
        pool.give(kept)
        pool.trim()                        # taken since the last trim
        assert pool.stats()["held_bytes"] == kept.nbytes
        pool.trim()                        # not taken since: dropped
        assert pool.stats()["held_bytes"] == 0
        assert pool.stats()["held_buffers"] == 0

    def test_trim_keeps_no_more_buffers_than_were_taken(self):
        pool = BufferPool()
        taken = [pool.take((2, 2), np.float32) for _ in range(2)]
        for buf in taken + [np.zeros((2, 2), np.float32)]:
            pool.give(buf)
        assert pool.stats()["held_buffers"] == 3
        pool.trim()
        assert pool.stats()["held_buffers"] == 2
        assert pool.stats()["held_bytes"] == 2 * taken[0].nbytes

    def test_clear(self):
        pool = BufferPool()
        pool.give(np.zeros(8))
        pool.clear()
        assert pool.stats() == {"hits": 0, "misses": 0, "recycled": 1,
                                "held_bytes": 0, "held_buffers": 0}


class TestDtypePolicy:
    @pytest.mark.parametrize("name,dtype", [("numpy64", np.float64),
                                            ("numpy32", np.float32)])
    def test_float_inputs_land_in_backend_dtype(self, name, dtype):
        with nn_backend.use(name):
            assert Tensor([1, 2, 3]).data.dtype == dtype
            assert Tensor(2.5).data.dtype == dtype
            assert Tensor(np.ones(3, dtype=np.float64)).data.dtype == dtype
            assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == dtype

    @pytest.mark.parametrize("name", ["numpy64", "numpy32"])
    @pytest.mark.parametrize("idx_dtype", [np.int32, np.int64, np.uint32,
                                           np.bool_])
    def test_int_and_bool_arrays_pass_through_uncopied(self, name, idx_dtype):
        # Regression: index maps and masks must keep their dtype AND
        # identity — a silent float64 upcast would break (and slow) the
        # gather/scatter kernels.
        arr = np.array([0, 1, 1], dtype=idx_dtype)
        with nn_backend.use(name):
            out = nn_backend.active().asarray(arr)
            assert out is arr
            t = Tensor(arr)
            assert t.data is arr
            assert t.data.dtype == idx_dtype

    def test_matching_float_array_not_copied(self):
        arr = np.ones(4, dtype=np.float64)
        assert nn_backend.get("numpy64").asarray(arr) is arr
        arr32 = np.ones(4, dtype=np.float32)
        assert nn_backend.get("numpy32").asarray(arr32) is arr32

    def test_zeros_follow_backend_dtype(self):
        assert nn_backend.get("numpy32").zeros((2, 2)).dtype == np.float32
        assert nn_backend.get("numpy64").zeros((2, 2)).dtype == np.float64


class TestIndexArraysStayIntegral:
    """Satellite regression: the row indices driving take_rows are
    never floated by Tensor coercion."""

    @pytest.mark.parametrize("name", ["numpy64", "numpy32"])
    def test_take_rows_roundtrip(self, name):
        idx = np.array([2, 0], dtype=np.int64)
        with nn_backend.use(name):
            a = Tensor(rand((4, 3)), requires_grad=True)
            gathered = a.take_rows(idx)
            np.testing.assert_allclose(gathered.data, a.data[idx])
            gathered.sum().backward()
            assert a.grad.dtype == a.data.dtype

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_int32_rows_keep_value_dtype(self, name):
        with nn_backend.use(name) as b:
            data = rand((4, 2)).astype(b.dtype)
            out = b.take_rows(data, np.array([2, 3, 2], dtype=np.int32))
            assert out.dtype == data.dtype
            np.testing.assert_array_equal(out, data[[2, 3, 2]])


def _segment_reference(data, segment_ids, num_segments):
    out = np.zeros((num_segments,) + data.shape[1:], dtype=data.dtype)
    np.add.at(out, segment_ids, data)
    return out


class TestSegmentSum:
    """Direct kernel coverage (satellite): the reduceat fast path, the
    unsorted-ids fallback, and empty segments — per backend."""

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_sorted_ids_fast_path(self, name):
        data = rand((7, 4))
        ids = np.array([0, 0, 1, 1, 1, 2, 3])
        with nn_backend.use(name) as b:
            out = b.segment_sum(data.astype(b.dtype), ids, 4)
        np.testing.assert_allclose(
            out, _segment_reference(data, ids, 4), atol=b.tolerance)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_unsorted_ids_fallback(self, name):
        data = rand((6, 3), 1)
        ids = np.array([2, 0, 2, 1, 0, 2])     # decreasing at index 1
        with nn_backend.use(name) as b:
            out = b.segment_sum(data.astype(b.dtype), ids, 3)
        np.testing.assert_allclose(
            out, _segment_reference(data, ids, 3), atol=b.tolerance)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize("ids,m", [
        (np.array([0, 0, 2, 2]), 4),     # middle + trailing segments empty
        (np.array([1, 3]), 5),           # leading + interior + trailing
        (np.array([3, 1]), 5),           # same but unsorted
    ])
    def test_empty_segments_stay_zero(self, name, ids, m):
        data = rand((ids.size, 2), 2)
        with nn_backend.use(name) as b:
            out = b.segment_sum(data.astype(b.dtype), ids, m)
        ref = _segment_reference(data, ids, m)
        np.testing.assert_allclose(out, ref, atol=b.tolerance)
        empty = np.setdiff1d(np.arange(m), ids)
        np.testing.assert_array_equal(out[empty], 0.0)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_no_rows_at_all(self, name):
        with nn_backend.use(name) as b:
            out = b.segment_sum(np.empty((0, 3), dtype=b.dtype),
                                np.empty(0, dtype=np.int64), 2)
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(out, 0.0)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_pair_matches_two_single_sums(self, name):
        a, c = rand((5, 3), 3), rand((5, 3), 4)
        ids = np.array([0, 1, 1, 2, 2])
        with nn_backend.use(name) as b:
            fused = b.segment_sum_pair(a.astype(b.dtype), c.astype(b.dtype),
                                       ids, 3)
            left = b.segment_sum(a.astype(b.dtype), ids, 3)
            right = b.segment_sum(c.astype(b.dtype), ids, 3)
        np.testing.assert_allclose(fused[:, :3], left, atol=b.tolerance)
        np.testing.assert_allclose(fused[:, 3:], right, atol=b.tolerance)

    def test_dtype_preserved(self):
        b = nn_backend.get("numpy64")
        data = rand((3, 2)).astype(np.float32)
        out = b.segment_sum(data, np.array([0, 0, 1]), 3)
        assert out.dtype == np.float32      # follows the operand, not policy

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_pair_gated_matches_composed(self, name):
        # The tree-LSTM's child sweep: h~ and sum(f*c) over one edge list.
        a, f, c = rand((6, 3), 5), rand((6, 3), 6), rand((6, 3), 7)
        ids = np.array([0, 0, 1, 3, 3, 3])      # segment 2 empty
        with nn_backend.use(name) as b:
            gated = b.segment_sum_pair_gated(
                *(v.astype(b.dtype) for v in (a, f, c)), ids, 4)
        np.testing.assert_allclose(gated[:, :3],
                                   _segment_reference(a, ids, 4),
                                   atol=b.tolerance)
        np.testing.assert_allclose(gated[:, 3:],
                                   _segment_reference(f * c, ids, 4),
                                   atol=b.tolerance)


def _scatter(b, base, rows, values):
    out = base.copy()
    b.scatter_add_rows(out, np.asarray(rows), values)
    return out


def _add_at(base, rows, values):
    out = base.copy()
    np.add.at(out, np.asarray(rows), values)
    return out


class TestScatterAddRows:
    """``scatter_add_rows`` is the backward of every ``take_rows`` and
    of the tree-LSTM pass's child reads: unique rows must stay bitwise
    equal to
    ``np.add.at``, duplicate rows close to it and deterministic."""

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize("shape", [(50, 7), (50,)])
    def test_unique_rows_bitwise_equal_to_add_at(self, name, shape):
        rows = np.random.default_rng(2).permutation(shape[0])[:30]
        with nn_backend.use(name) as b:
            base = rand(shape, 1).astype(b.dtype)
            values = rand((30,) + shape[1:], 3).astype(b.dtype)
            out = _scatter(b, base, rows, values)
        assert out.tobytes() == _add_at(base, rows, values).tobytes()

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize("shape", [(20, 5), (20,)])
    def test_duplicate_rows_close_and_deterministic(self, name, shape):
        # Row 7 is hit 1,000 times, interleaved with 300 other hits.
        rng = np.random.default_rng(4)
        rows = np.concatenate([rng.integers(0, 20, 300), np.full(1000, 7)])
        rng.shuffle(rows)
        with nn_backend.use(name) as b:
            base = rand(shape, 5).astype(b.dtype)
            values = rand((rows.size,) + shape[1:], 6).astype(b.dtype)
            outs = [_scatter(b, base, rows, values) for _ in range(3)]
            tol = backend_tolerance()
        np.testing.assert_allclose(outs[0], _add_at(base, rows, values),
                                   rtol=0, atol=tol)
        assert all(o.tobytes() == outs[0].tobytes() for o in outs[1:])

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize("rows", [[-1, 0, 2], [-1, 3, -4, 0, -1]])
    def test_negative_rows_count_from_the_end(self, name, rows):
        with nn_backend.use(name) as b:
            base = rand((4, 3), 7).astype(b.dtype)
            values = rand((len(rows), 3), 8).astype(b.dtype)
            out = _scatter(b, base, rows, values)
            tol = backend_tolerance()
        np.testing.assert_allclose(out, _add_at(base, rows, values),
                                   rtol=0, atol=tol)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_negative_rows_through_autograd(self, name):
        with nn_backend.use(name):
            a = Tensor(rand((4, 3), 9), requires_grad=True)
            b = Tensor(rand((2, 3), 10), requires_grad=True)
            picked = a[np.array([-1, 0, -1])]
            taken = a.take_rows(np.array([-2]))
            gathered = Tensor.concat([a, b], axis=0).take_rows(
                np.array([-6, -1, -2]))
            np.testing.assert_array_equal(taken.data, a.data[[-2]])
            np.testing.assert_array_equal(
                gathered.data, np.stack([a.data[0], b.data[1], b.data[0]]))
            (picked.sum() + taken.sum() + gathered.sum()).backward()
        np.testing.assert_array_equal(
            a.grad, [[2, 2, 2], [0, 0, 0], [1, 1, 1], [2, 2, 2]])
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_empty_rows_are_a_no_op(self, name):
        with nn_backend.use(name) as b:
            base = rand((4, 3), 10).astype(b.dtype)
            out = _scatter(b, base, np.empty(0, dtype=np.int64),
                           np.empty((0, 3), dtype=b.dtype))
        assert out.tobytes() == base.tobytes()


def _scatter_case(rows):
    def run(b, cast):
        out = cast(rand((4, 3), 1))
        b.scatter_add_rows(out, rows, cast(rand((rows.size, 3), 2)))
        return (out,)
    return run


def _gates(b, cast, activation):
    return b.gemm_gates(cast(rand((6,))), cast(rand((4, 5), 1)),
                        cast(rand((6, 5), 2)), activation)


def _act_backward_case(activation):
    def run(b, cast):
        out = _gates(b, cast, activation)
        return (b.act_backward(cast(rand((4, 6), 3)), out, activation),)
    return run


# Each case runs one kernel on ``cast`` operands and returns its outputs.
KERNEL_CASES = {
    "segment_sum-sorted": lambda b, cast: (
        b.segment_sum(cast(rand((7, 4))),
                      np.array([0, 0, 1, 1, 1, 2, 3]), 4),),
    "segment_sum-unsorted": lambda b, cast: (
        b.segment_sum(cast(rand((6, 3), 1)),
                      np.array([2, 0, 2, 1, 0, 2]), 3),),
    "segment_sum-empty-segments": lambda b, cast: (
        b.segment_sum(cast(rand((4, 2), 2)), np.array([0, 0, 2, 2]), 4),),
    "segment_sum-no-rows": lambda b, cast: (
        b.segment_sum(cast(np.empty((0, 3))),
                      np.empty(0, dtype=np.int64), 2),),
    "segment_sum_pair": lambda b, cast: (
        b.segment_sum_pair(cast(rand((5, 3), 3)), cast(rand((5, 3), 4)),
                           np.array([0, 1, 1, 2, 2]), 3),),
    "segment_sum_pair_gated": lambda b, cast: (
        b.segment_sum_pair_gated(
            *(cast(rand((6, 3), seed)) for seed in (5, 6, 7)),
            np.array([0, 0, 1, 3, 3, 3]), 4),),
    "take_rows": lambda b, cast: (
        b.take_rows(cast(rand((4, 2))), np.array([2, 3, 2])),),
    "scatter_add_rows-unique": _scatter_case(np.array([2, 0, 3])),
    "scatter_add_rows-duplicates": _scatter_case(np.array([3, 0, 3, 1, 3])),
    "gemm_gates": lambda b, cast: (_gates(b, cast, None),),
    "gemm_gates-sigmoid": lambda b, cast: (_gates(b, cast, "sigmoid"),),
    "gemm_gates-tanh": lambda b, cast: (_gates(b, cast, "tanh"),),
    "gemm_gates-iou": lambda b, cast: (_gates(b, cast, "iou"),),
    "act_backward-sigmoid": _act_backward_case("sigmoid"),
    "act_backward-tanh": _act_backward_case("tanh"),
    "act_backward-iou": _act_backward_case("iou"),
    "lstm_cell": lambda b, cast: b.lstm_cell(
        _gates(b, cast, "iou"), cast(rand((4, 2), 4))),
    "lstm_cell_backward": lambda b, cast: b.lstm_cell_backward(
        cast(rand((4, 4), 5)), _gates(b, cast, "iou"),
        cast(np.tanh(rand((4, 2), 6)))),
}


class TestKernelsFollowOperandDtype:
    """The two backends differ only in dtype and tolerance. Every
    kernel keeps its operands' float width (only ``asarray`` and
    ``zeros`` apply the policy), gives the same bits on either backend,
    and at float32 stays within ``numpy32``'s tolerance of float64."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["float64", "float32"])
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_kernel_follows_operand_dtype(self, case, dtype):
        run = KERNEL_CASES[case]
        outs = {name: run(nn_backend.get(name),
                          lambda a: np.asarray(a, dtype=dtype))
                for name in ALL_BACKENDS}
        reference = run(nn_backend.get("numpy64"),
                        lambda a: np.asarray(a, dtype=np.float64))
        tol = 0.0 if dtype == np.float64 else \
            nn_backend.get("numpy32").tolerance
        for name, out in outs.items():
            assert len(out) == len(reference)
            for got, first, ref in zip(out, outs["numpy64"], reference):
                assert got.dtype == dtype, name
                assert got.tobytes() == first.tobytes(), name
                np.testing.assert_allclose(got, ref, rtol=0, atol=tol)


def _masked_sigmoid(x):
    """The historical boolean-mask stable sigmoid (bitwise reference)."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoidStable:
    EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0,
             746.0, -746.0, 36.0, -36.0, 88.0, -88.0, 1e-300, -1e-300]

    def _inputs(self, dtype):
        x = np.concatenate([np.array(self.EDGES), 30.0 * rand(4000, 11)])
        return x.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_to_masked_form(self, dtype):
        x = self._inputs(dtype)
        got = _sigmoid_stable(x)
        assert got.dtype == dtype
        assert got.tobytes() == _masked_sigmoid(x).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_on_strided_slices(self, dtype):
        # The fused iou epilogue applies it to a column slice.
        grid = self._inputs(dtype)[:4000].reshape(50, 80)
        for view in (grid[:, :53], grid[::3, 7::2]):
            assert not view.flags.c_contiguous
            got = _sigmoid_stable(view)
            assert got.tobytes() == _masked_sigmoid(view).tobytes()

    def test_tensor_sigmoid_is_the_helper(self):
        x = Tensor(self._inputs(np.float64))
        assert x.sigmoid().data.tobytes() == _sigmoid_stable(x.data).tobytes()


class TestAddmm:
    def test_matches_composed_graph_bitwise(self):
        bias = Tensor(rand((4,)), requires_grad=True)
        x = Tensor(rand((3, 5), 1), requires_grad=True)
        w = Tensor(rand((4, 5), 2), requires_grad=True)
        fused = Tensor.addmm(bias, x, w)
        composed = bias + x.matmul(w.T)
        np.testing.assert_array_equal(fused.data, composed.data)

        fused.sum().backward()
        fused_grads = [t.grad.copy() for t in (bias, x, w)]
        for t in (bias, x, w):
            t.zero_grad()
        composed2 = bias + x.matmul(w.T)
        composed2.sum().backward()
        for g, t in zip(fused_grads, (bias, x, w)):
            np.testing.assert_array_equal(g, t.grad)

    @pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
    def test_fused_activation_matches_composed_graph_bitwise(self,
                                                             activation):
        bias = Tensor(rand((4,)), requires_grad=True)
        x = Tensor(rand((3, 5), 1), requires_grad=True)
        w = Tensor(rand((4, 5), 2), requires_grad=True)
        upstream = Tensor(rand((3, 4), 3))

        def run(build):
            for t in (bias, x, w):
                t.zero_grad()
            out = build()
            (out * upstream).sum().backward()
            return [out.data] + [t.grad.copy() for t in (bias, x, w)]

        fused = run(lambda: Tensor.addmm(bias, x, w, activation=activation))
        composed = run(lambda: getattr(bias + x.matmul(w.T), activation)())
        for f, c in zip(fused, composed):
            np.testing.assert_array_equal(f, c)

    @pytest.mark.parametrize("activation", ["sigmoid", "tanh", "iou"])
    def test_gradcheck_through_fused_activation(self, activation):
        base = Tensor(rand((9,), 3), requires_grad=True)
        mat = Tensor(rand((5, 4), 4), requires_grad=True)
        weight = Tensor(rand((9, 4), 5), requires_grad=True)
        check_gradients(
            lambda: (Tensor.addmm(base, mat, weight,
                                  activation=activation) ** 2).sum(),
            [base, mat, weight])

    def test_gradcheck_broadcast_bias(self):
        bias = Tensor(rand((4,)), requires_grad=True)
        x = Tensor(rand((3, 5), 1), requires_grad=True)
        w = Tensor(rand((4, 5), 2), requires_grad=True)
        check_gradients(
            lambda: (Tensor.addmm(bias, x, w) ** 2).sum(), [bias, x, w])

    def test_gradcheck_full_base(self):
        base = Tensor(rand((3, 4)), requires_grad=True)
        x = Tensor(rand((3, 5), 1), requires_grad=True)
        w = Tensor(rand((4, 5), 2), requires_grad=True)
        check_gradients(
            lambda: (Tensor.addmm(base, x, w) ** 2).sum(), [base, x, w])

    def test_non_2d_falls_back(self):
        bias = Tensor(rand((4,)), requires_grad=True)
        x = Tensor(rand((5,), 1), requires_grad=True)   # 1-D step input
        w = Tensor(rand((4, 5), 2), requires_grad=True)
        out = Tensor.addmm(bias, x, w)
        np.testing.assert_allclose(out.data, bias.data + x.data @ w.data.T)
        check_gradients(
            lambda: (Tensor.addmm(bias, x, w) ** 2).sum(), [bias, x, w])


class TestFreeBuffers:
    def _loss(self, params):
        a, w = params
        h = a.matmul(w).tanh()
        return (h * h).sum()

    def test_leaf_grads_identical_and_intermediates_freed(self):
        a = Tensor(rand((4, 3)), requires_grad=True)
        w = Tensor(rand((3, 2), 1), requires_grad=True)

        h = a.matmul(w).tanh()
        loss = (h * h).sum()
        loss.backward()
        ref = [a.grad.copy(), w.grad.copy()]
        assert h.grad is not None
        a.zero_grad(); w.zero_grad()

        h2 = a.matmul(w).tanh()
        loss2 = (h2 * h2).sum()
        loss2.backward(free_buffers=True)
        np.testing.assert_array_equal(a.grad, ref[0])
        np.testing.assert_array_equal(w.grad, ref[1])
        assert h2.grad is None              # recycled into the pool
        assert loss2.grad is None

    def test_freed_buffers_are_recycled_on_next_backward(self):
        pool = nn_backend.active().pool
        a = Tensor(rand((16, 8)), requires_grad=True)
        w = Tensor(rand((8, 8), 1), requires_grad=True)
        self._loss([a, w]).backward(free_buffers=True)
        hits_before = pool.hits
        a.zero_grad(); w.zero_grad()
        self._loss([a, w]).backward(free_buffers=True)
        assert pool.hits > hits_before      # same shapes came back pooled


class TestNumpy32Equivalence:
    """The documented-tolerance contract: numpy32 agrees with the
    float64 reference to each backend's ``tolerance`` on forwards and
    (via the fp64 finite-difference reference) on gradients."""

    def _tol(self):
        return nn_backend.get("numpy32").tolerance

    def test_init_streams_match_across_backends(self):
        from repro.nn import init

        with nn_backend.use("numpy64"):
            w64 = init.xavier_uniform((6, 4), np.random.default_rng(0))
        with nn_backend.use("numpy32"):
            w32 = init.xavier_uniform((6, 4), np.random.default_rng(0))
        assert w64.dtype == np.float64 and w32.dtype == np.float32
        # Sampling happens in float64 then casts: identical streams.
        np.testing.assert_array_equal(w32, w64.astype(np.float32))

    def test_mlp_forward_within_tolerance(self):
        x = rand((6, 8))
        w1, w2 = rand((5, 8), 1), rand((1, 5), 2)
        b1, b2 = rand((5,), 3), rand((1,), 4)

        def forward():
            h = Tensor.addmm(Tensor(b1), Tensor(x), Tensor(w1)).tanh()
            return Tensor.addmm(Tensor(b2), h, Tensor(w2)).sigmoid().data

        with nn_backend.use("numpy64"):
            ref = forward()
        with nn_backend.use("numpy32"):
            out = forward()
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, ref, atol=self._tol())

    def test_tree_pass_forward_within_tolerance(self):
        x = rand((6, 4))
        sched = TreeSchedule([[1, 2], [3, 4], [], [5], [], []])

        def forward():
            cell = ChildSumTreeLSTM(4, 3, rng=np.random.default_rng(0))
            h, c = cell(Tensor(x), sched)
            return np.concatenate([h.data, c.data], axis=1)

        with nn_backend.use("numpy64"):
            ref = forward()
        with nn_backend.use("numpy32"):
            out = forward()
        np.testing.assert_allclose(out, ref, atol=self._tol())

    def test_gradcheck_mlp_fp32(self):
        arrays = [rand((4, 6)), rand((3, 6), 1), rand((3,), 2)]

        def loss(ts):
            x, w, b = ts
            return (Tensor.addmm(b, x, w).tanh() ** 2).sum()

        with nn_backend.use("numpy32"):
            check_gradients_fp64_ref(loss, arrays)

    def test_gradcheck_tree_pass_fp32(self):
        # The pass's hand-written backward, segment sums included.
        sched = TreeSchedule([[1, 2, 3], [4], [], [], []])
        arrays = [rand((5, 3)), rand((6, 2), 1), rand((2, 2), 2)]

        def loss(ts):
            x, u_iou, u_f = ts
            cell = ChildSumTreeLSTM(3, 2, rng=np.random.default_rng(0))
            cell.u_iou, cell.u_f = u_iou, u_f
            h, c = cell(x, sched)
            return (h ** 2).sum() + (c ** 2).sum()

        with nn_backend.use("numpy32"):
            check_gradients_fp64_ref(loss, arrays)

    def test_gradcheck_gather_scatter_fp32(self):
        arrays = [rand((5, 3)), rand((4, 3), 1)]

        def loss(ts):
            out = Tensor.concat(ts, axis=0).take_rows([4, 5, 8, 4])
            return (out ** 2).sum()

        with nn_backend.use("numpy32"):
            check_gradients_fp64_ref(loss, arrays)

    def test_optimizer_moments_follow_dtype(self):
        from repro.nn.optim import Adam

        with nn_backend.use("numpy32"):
            p = Tensor(rand((3, 3)), requires_grad=True)
            opt = Adam([p], lr=1e-2)
            p.grad = np.ones_like(p.data)
            opt.step()
            assert p.data.dtype == np.float32
            assert all(m.dtype == np.float32 for m in opt._m)
            assert all(v.dtype == np.float32 for v in opt._v)
