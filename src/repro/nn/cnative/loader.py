"""ctypes bindings for the compiled ``kernels.c`` shared object.

The wrappers here are the only code that talks to the library: they
coerce operands to the C-contiguous float64 / int64 layout the kernels
expect, pick a thread count, and hand raw buffer addresses across.
ctypes releases the GIL for the duration of every call, which is what
lets the serve tier's worker threads overlap encode work for real.

Threading policy (``_threads_for``): explicit ``nthreads`` wins (tests
pin it to prove determinism); otherwise inputs below
:data:`PAR_ROW_THRESHOLD` rows run serially — forking a team costs
more than a small sweep saves — and larger inputs use
``REPRO_NUM_THREADS`` (default: the machine's CPU count, capped at 16)
or whatever :func:`set_num_threads` pinned.  Results are bitwise
identical for every thread count by construction (see kernels.c).
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from .build import BuildResult, build_library

__all__ = [
    "PAR_ROW_THRESHOLD", "ACTIVATION_CODES", "NativeKernels",
    "load", "set_num_threads", "get_num_threads",
]

#: inputs with fewer rows than this stay serial (thread-team startup
#: costs more than the sweep itself at tree-LSTM level sizes)
PAR_ROW_THRESHOLD = 4096

#: fused-activation codes shared with kernels.c's ``act`` argument
#: ("iou" = sigmoid on the first two thirds of the columns, tanh on
#: the last third — the tree-LSTM's packed i|o|u gate block)
ACTIVATION_CODES = {None: 0, "sigmoid": 1, "tanh": 2, "iou": 3}

_MAX_THREADS = 16
_PINNED_THREADS: int | None = None


def set_num_threads(n: int | None) -> None:
    """Pin the auto thread count (``None`` returns to the env policy)."""
    global _PINNED_THREADS
    _PINNED_THREADS = None if n is None else max(1, int(n))


def get_num_threads() -> int:
    """The thread count auto-dispatch uses for large inputs."""
    if _PINNED_THREADS is not None:
        return _PINNED_THREADS
    env = os.environ.get("REPRO_NUM_THREADS", "").strip()
    if env:
        try:
            return min(_MAX_THREADS, max(1, int(env)))
        except ValueError:
            pass
    return min(_MAX_THREADS, os.cpu_count() or 1)


def _threads_for(rows: int, nthreads: int | None) -> int:
    if nthreads is not None:
        return max(1, int(nthreads))
    if rows < PAR_ROW_THRESHOLD:
        return 1
    return get_num_threads()


def _f64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64)


def _i64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


class NativeKernels:
    """NumPy-level facade over one loaded shared object."""

    def __init__(self, cdll: ctypes.CDLL, build: BuildResult):
        self.build = build
        self._c = cdll
        LL, VP, IT = ctypes.c_longlong, ctypes.c_void_p, ctypes.c_int
        sig = {
            "repro_scatter_add_rows": [VP, VP, VP, LL, LL, IT],
            "repro_segment_sum_pair": [VP, VP, VP, LL, LL, VP, IT],
            "repro_segment_sum_pair_gated": [VP, VP, VP, VP, LL, LL, VP,
                                             IT],
            "repro_take_rows": [VP, VP, LL, LL, VP, IT],
            "repro_gemm_gates": [VP, IT, VP, VP, LL, LL, LL, VP, IT, IT],
            "repro_act_backward": [VP, VP, LL, LL, LL, IT, VP, IT],
            "repro_lstm_cell": [VP, VP, LL, LL, VP, VP, IT],
            "repro_lstm_cell_backward": [VP, VP, VP, LL, LL, VP, VP, IT],
        }
        for name, argtypes in sig.items():
            fn = getattr(cdll, name)
            fn.argtypes = argtypes
            fn.restype = None
        probe = cdll.repro_abi_probe
        probe.argtypes = [LL]
        probe.restype = LL
        if probe(20) != 41:
            raise OSError(f"cnative ABI probe failed for {build.path}")

    # ------------------------------------------------------------------
    # kernels (validated float64 2-D operands only; the backend guards)
    # ------------------------------------------------------------------
    def scatter_add_rows(self, out: np.ndarray, rows: np.ndarray,
                         values: np.ndarray,
                         nthreads: int | None = None) -> None:
        rows = _i64(rows)
        values = _f64(values)
        n, w = values.shape
        self._c.repro_scatter_add_rows(
            out.ctypes.data, rows.ctypes.data, values.ctypes.data,
            n, w, _threads_for(n, nthreads))

    def segment_sum(self, data: np.ndarray, segment_ids: np.ndarray,
                    num_segments: int,
                    nthreads: int | None = None) -> np.ndarray:
        data = _f64(data)
        out = np.zeros((num_segments, data.shape[1]), dtype=np.float64)
        self.scatter_add_rows(out, segment_ids, data, nthreads)
        return out

    def segment_sum_pair(self, a: np.ndarray, b: np.ndarray,
                         segment_ids: np.ndarray, num_segments: int,
                         nthreads: int | None = None) -> np.ndarray:
        a = _f64(a)
        b = _f64(b)
        seg = _i64(segment_ids)
        n, w = a.shape
        out = np.zeros((num_segments, 2 * w), dtype=np.float64)
        self._c.repro_segment_sum_pair(
            a.ctypes.data, b.ctypes.data, seg.ctypes.data, n, w,
            out.ctypes.data, _threads_for(n, nthreads))
        return out

    def segment_sum_pair_gated(self, a: np.ndarray, f: np.ndarray,
                               c: np.ndarray, segment_ids: np.ndarray,
                               num_segments: int,
                               nthreads: int | None = None) -> np.ndarray:
        a = _f64(a)
        f = _f64(f)
        c = _f64(c)
        seg = _i64(segment_ids)
        n, w = a.shape
        out = np.zeros((num_segments, 2 * w), dtype=np.float64)
        self._c.repro_segment_sum_pair_gated(
            a.ctypes.data, f.ctypes.data, c.ctypes.data, seg.ctypes.data,
            n, w, out.ctypes.data, _threads_for(n, nthreads))
        return out

    def take_rows(self, data: np.ndarray, rows: np.ndarray,
                  nthreads: int | None = None) -> np.ndarray:
        rows = _i64(rows)
        n = rows.shape[0]
        out = np.empty((n, data.shape[1]), dtype=np.float64)
        self._c.repro_take_rows(
            data.ctypes.data, rows.ctypes.data, n, data.shape[1],
            out.ctypes.data, _threads_for(n, nthreads))
        return out

    def lstm_cell(self, iou: np.ndarray, fc: np.ndarray,
                  nthreads: int | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
        iou = _f64(iou)
        fc = _f64(fc)
        m, hs = fc.shape
        out = np.empty((m, 2 * hs), dtype=np.float64)
        th = np.empty((m, hs), dtype=np.float64)
        self._c.repro_lstm_cell(
            iou.ctypes.data, fc.ctypes.data, m, hs, out.ctypes.data,
            th.ctypes.data, _threads_for(m, nthreads))
        return out, th

    def lstm_cell_backward(self, grad: np.ndarray, iou: np.ndarray,
                           th: np.ndarray,
                           nthreads: int | None = None
                           ) -> tuple[np.ndarray, np.ndarray]:
        grad = _f64(grad)
        iou = _f64(iou)
        th = _f64(th)
        m, hs = th.shape
        giou = np.empty((m, 3 * hs), dtype=np.float64)
        gfc = np.empty((m, hs), dtype=np.float64)
        self._c.repro_lstm_cell_backward(
            grad.ctypes.data, iou.ctypes.data, th.ctypes.data, m, hs,
            giou.ctypes.data, gfc.ctypes.data, _threads_for(m, nthreads))
        return giou, gfc

    def act_backward(self, grad: np.ndarray, out: np.ndarray, two: int,
                     act: int, nthreads: int | None = None) -> np.ndarray:
        grad = _f64(grad)
        out = _f64(out)
        m, n = grad.shape
        g = np.empty_like(grad)
        self._c.repro_act_backward(
            grad.ctypes.data, out.ctypes.data, m, n, two, act,
            g.ctypes.data, _threads_for(m, nthreads))
        return g

    def gemm_gates(self, base: np.ndarray, base_mode: int, mat: np.ndarray,
                   weight: np.ndarray, act: int,
                   nthreads: int | None = None) -> np.ndarray:
        base = _f64(base)
        mat = _f64(mat)
        weight = _f64(weight)
        m, k = mat.shape
        n = weight.shape[0]
        out = np.empty((m, n), dtype=np.float64)
        self._c.repro_gemm_gates(
            base.ctypes.data, base_mode, mat.ctypes.data,
            weight.ctypes.data, m, n, k, out.ctypes.data, act,
            _threads_for(m, nthreads))
        return out


_LOADED: NativeKernels | None = None


def load() -> NativeKernels:
    """Compile if needed, then load (memoized per process)."""
    global _LOADED
    if _LOADED is None:
        result = build_library()
        _LOADED = NativeKernels(ctypes.CDLL(str(result.path)), result)
    return _LOADED
