"""Ops backend: the dtype policy + the autograd core's hot kernels.

Every numerical hot spot of the reproduction funnels through a handful
of named kernels — the per-level segment sums of the tree-LSTM, the
``take_rows`` / ``scatter_add_rows`` pair that moves states between
levels, the gate GEMMs, and gradient-buffer allocation. This
module gives those kernels one home and runs them at the selected
float width **without forking any model code**. There are two
backends, one :class:`KernelBackend` each, that differ only in dtype
and tolerance:

* ``numpy64`` — the default and the float64 reference. It agrees with
  the historical inlined NumPy code to 1e-8, not bitwise: the row
  scatter sums duplicate rows before adding them, and the tree-LSTM
  projects its embedding table instead of every node, so a few sums
  run in another order. The 1e-8 batched-vs-per-tree equivalence suite
  is its correctness bar, and resume stays bitwise within the backend.
* ``numpy32`` — float32 end-to-end. The dtype policy threads through
  :class:`~repro.nn.tensor.Tensor` creation, weight init, optimizer
  moments, and checkpoints (which record their dtype). Equivalence to
  the float64 reference holds at the documented ``tolerance`` (see
  ``docs/backends.md``).

Selection: the ``REPRO_BACKEND`` environment variable at import, the
``--backend`` flag of ``repro train`` / ``repro serve``, or
programmatically::

    from repro.nn import backend
    backend.set_backend("numpy32")          # process-wide
    with backend.use("numpy64"):            # scoped (tests)
        ...

An unknown name is a ``ValueError``, at import for ``REPRO_BACKEND``.

Backends also own a bounded **gradient-buffer pool**: the training
engine returns parameter-gradient and freed intermediate-gradient
arrays after each optimizer step, and ``Tensor._accumulate`` draws its
zeroed accumulators from the pool instead of a fresh ``np.zeros`` per
tensor per step. Parameter- and table-shaped gradients repeat every
step and keep recycling; the tree-LSTM's per-pass ``(K, 2h)`` block
gradients take a new ``K`` (the batch's subtree-class count) almost
every step, so the engine calls :meth:`BufferPool.trim` once per step
to drop what the last step did not use.
"""

from __future__ import annotations

import contextlib
import os
import threading

import numpy as np

from .policy import BACKENDS, check_backend

__all__ = [
    "KernelBackend", "BufferPool", "get", "active", "set_backend", "use",
    "default_dtype", "describe",
]


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    """Numerically-stable sigmoid: ``1/(1+e)`` where ``x >= 0`` and
    ``e/(1+e)`` elsewhere, with ``e = exp(-|x|)`` so nothing overflows.

    Both branches are computed over the whole array and picked with
    ``np.where`` (no boolean-mask gathers and scatters); each is the
    expression the historical masked form used, so results are bitwise
    the same. ``min(x, -x)`` is ``-|x|`` that also keeps a NaN's sign
    bit. ``Tensor.sigmoid`` and every fused sigmoid epilogue call this
    one helper, so they agree by construction.
    """
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


class BufferPool:
    """Bounded free-list of reusable gradient arrays, keyed by
    ``(shape, dtype)``.

    ``take`` returns a **zeroed** array (pool hit or fresh allocation);
    ``give`` returns one for reuse. The pool is an allocation cache,
    not a correctness feature: dropping every buffer on the floor is
    always safe, so ``give`` silently discards when a key's free-list
    or the total byte budget is full, and ``trim`` drops whatever the
    last step did not take.
    """

    def __init__(self, max_per_key: int = 16,
                 max_bytes: int = 128 * 1024 * 1024):
        self.max_per_key = max_per_key
        self.max_bytes = max_bytes
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._taken: dict[tuple, int] = {}    # takes per key since trim
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.recycled = 0

    @staticmethod
    def _key(shape: tuple, dtype) -> tuple:
        return (shape, np.dtype(dtype).str)

    def take(self, shape: tuple, dtype) -> np.ndarray:
        key = self._key(shape, dtype)
        with self._lock:
            self._taken[key] = self._taken.get(key, 0) + 1
            stack = self._free.get(key)
            if stack:
                buf = stack.pop()
                self._bytes -= buf.nbytes
                self.hits += 1
                buf.fill(0.0)
                return buf
            self.misses += 1
        return np.zeros(shape, dtype=dtype)

    def give(self, array: np.ndarray) -> None:
        if not isinstance(array, np.ndarray) or array.base is not None:
            return                       # never pool a view
        with self._lock:
            if self._bytes + array.nbytes > self.max_bytes:
                return
            stack = self._free.setdefault(self._key(array.shape,
                                                    array.dtype), [])
            if len(stack) >= self.max_per_key:
                return
            stack.append(array)
            self._bytes += array.nbytes
            self.recycled += 1

    def trim(self) -> None:
        """Bound the pool to the working set of the last step: keep, per
        key, at most as many buffers as were taken since the previous
        trim, and drop the rest.

        Called once per training step, after the step's gradients are
        released, this leaves the pool holding no more bytes than the
        step took: a shape the step did not take (an earlier batch's
        ``(K, 2h)`` block gradient) is dropped, a recurring one
        (parameter-shaped) keeps recycling.
        """
        with self._lock:
            kept = {key: stack[:self._taken[key]]
                    for key, stack in self._free.items()
                    if key in self._taken}
            self._free = kept
            self._bytes = sum(buf.nbytes for stack in kept.values()
                              for buf in stack)
            self._taken.clear()

    def clear(self) -> None:
        with self._lock:
            self._free.clear()
            self._bytes = 0

    def stats(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "recycled": self.recycled, "held_bytes": self._bytes,
                    "held_buffers": sum(len(s) for s in
                                        self._free.values())}


class KernelBackend:
    """The NumPy kernels at one float width.

    These kernels at float64 are the reference. They keep the
    historical inlined code's formulas, and every kernel but the
    duplicate-row case of :meth:`scatter_add_rows` (which sums each
    row's values before adding them) reproduces it bitwise; ``numpy64``
    is therefore within 1e-8 of the historical code, and bitwise with
    itself across a checkpoint resume. The kernels follow their
    operands' dtype; only :meth:`asarray` and :meth:`zeros` apply the
    policy.

    Attributes
    ----------
    name:
        The name ``get``, ``REPRO_BACKEND`` and ``--backend`` select it
        by; checkpoints record it.
    dtype:
        The float width every :class:`~repro.nn.tensor.Tensor` carrying
        real-valued data is coerced to. Integer/bool arrays (index maps,
        masks) are never touched by the policy.
    tolerance:
        The documented absolute tolerance at which this backend's
        results agree with the float64 reference implementation. The
        equivalence test-suite is parametrized on it.
    """

    def __init__(self, name: str, dtype, tolerance: float):
        self.name = name
        self.dtype = dtype
        self.tolerance = tolerance
        self.pool = BufferPool()

    # ------------------------------------------------------------------
    # dtype policy
    # ------------------------------------------------------------------
    def asarray(self, data) -> np.ndarray:
        """Coerce ``data`` for Tensor storage under this backend's policy.

        Float arrays are cast to :attr:`dtype`; integer and bool arrays
        pass through **unchanged and uncopied** — they are index maps
        and masks whose integrality the gather/scatter kernels rely on.
        Non-array inputs (lists, scalars) become :attr:`dtype` arrays.
        """
        if isinstance(data, np.ndarray):
            if data.dtype == self.dtype or data.dtype.kind in "iub":
                return data
            return data.astype(self.dtype)
        return np.asarray(data, dtype=self.dtype)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    # ------------------------------------------------------------------
    # gradient-buffer pool
    # ------------------------------------------------------------------
    def grad_buffer(self, shape, dtype) -> np.ndarray:
        """A zeroed accumulator array (pooled when one was released)."""
        return self.pool.take(tuple(shape), dtype)

    def release(self, array: np.ndarray) -> None:
        """Return a gradient buffer to the pool for reuse."""
        self.pool.give(array)

    # ------------------------------------------------------------------
    # hot kernels (raw ndarray in, raw ndarray out; autograd wiring
    # stays in tensor.py / treelstm.py)
    # ------------------------------------------------------------------
    def segment_sum(self, data: np.ndarray, segment_ids: np.ndarray,
                    num_segments: int) -> np.ndarray:
        """Sum rows of ``data`` into ``num_segments`` buckets.

        ``reduceat`` fast path for non-decreasing ids (what every level
        schedule emits); unsorted ids fall back to ``np.add.at``.
        """
        if segment_ids.size == 0:
            return np.zeros((num_segments,) + data.shape[1:],
                            dtype=data.dtype)
        if np.all(segment_ids[:-1] <= segment_ids[1:]):
            counts = np.bincount(segment_ids, minlength=num_segments)
            starts = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]])
            nonempty = counts > 0
            if nonempty.all():
                return np.add.reduceat(data, starts, axis=0)
            # Empty segments contribute no rows, so reducing at only the
            # non-empty starts still sums each segment exactly.
            out = np.zeros((num_segments,) + data.shape[1:],
                           dtype=data.dtype)
            out[nonempty] = np.add.reduceat(data, starts[nonempty], axis=0)
            return out
        out = np.zeros((num_segments,) + data.shape[1:], dtype=data.dtype)
        np.add.at(out, segment_ids, data)
        return out

    def segment_sum_pair(self, a: np.ndarray, b: np.ndarray,
                         segment_ids: np.ndarray,
                         num_segments: int) -> np.ndarray:
        """Fused bucket sum of two same-shaped operands -> ``(m, 2w)``.

        One sweep over a twice-as-wide matrix instead of two scatters
        (the tree-LSTM's h̃ and Σ f⊙c share the same edge list).
        """
        return self.segment_sum(np.concatenate([a, b], axis=1),
                                segment_ids, num_segments)

    def segment_sum_pair_gated(self, a: np.ndarray, f: np.ndarray,
                               c: np.ndarray, segment_ids: np.ndarray,
                               num_segments: int) -> np.ndarray:
        """:meth:`segment_sum_pair` with the second operand's
        forget-gate product ``f ⊙ c`` folded into the sweep.

        The tree-LSTM's upward pass sums ``h`` and ``f ⊙ c`` over the
        same child-edge list; computing the product per edge inside
        the sweep skips one full-size temporary (and its graph node).
        The reference formulation *is* the composed one, so float64
        results are bitwise identical to ``segment_sum_pair(a, f*c)``.
        """
        return self.segment_sum_pair(a, f * c, segment_ids, num_segments)

    def take_rows(self, data: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Row gather ``data[rows]`` (embedding/state lookup)."""
        return data[rows]

    def scatter_add_rows(self, out: np.ndarray, rows: np.ndarray,
                         values: np.ndarray) -> None:
        """In-place ``out[rows] += values`` with duplicate rows summed.

        Unique rows (one ``bincount`` tells) take a single fancy-indexed
        add, bitwise equal to ``np.add.at``. Duplicate rows are summed
        per row first (a stable argsort, then ``np.add.reduceat`` over
        the sorted values) and added once into each hit row: the same
        result on every call, equal to ``np.add.at`` up to the order of
        the sums. Negative rows count from the end, as in numpy
        indexing.
        """
        if rows.size == 0:
            return
        if rows.min() < 0:
            rows = np.where(rows < 0, rows + out.shape[0], rows)
        if np.bincount(rows).max() < 2:
            out[rows] += values
            return
        order = np.argsort(rows, kind="stable")
        ordered = rows[order]
        starts = np.flatnonzero(np.diff(ordered, prepend=-1))
        out[ordered[starts]] += np.add.reduceat(values[order], starts, axis=0)

    def gemm_gates(self, base: np.ndarray, mat: np.ndarray,
                   weight: np.ndarray,
                   activation: str | None = None) -> np.ndarray:
        """The gate projection ``base + mat @ weight.T`` (one GEMM).

        ``base`` may broadcast (a bias row) or match the output shape
        (a precomputed input projection); :meth:`gemm_gates` is the
        forward of ``Tensor.addmm``, the fused op every LSTM/tree-LSTM
        gate and linear layer routes through.

        ``activation`` fuses the gate nonlinearity into the kernel
        (``"sigmoid"``, ``"tanh"``, or ``"iou"`` — sigmoid on the first
        two thirds of the columns, tanh on the last third, matching the
        tree-LSTM's packed i|o|u gate block). It applies the exact
        formulations ``Tensor.sigmoid``/``tanh`` use, so fusing is
        bitwise-neutral on float64.
        """
        out = base + mat @ weight.T
        if activation is None:
            return out
        if activation == "sigmoid":
            return _sigmoid_stable(out)
        if activation == "tanh":
            return np.tanh(out)
        if activation == "iou":
            if out.shape[-1] % 3:
                raise ValueError(
                    "iou activation needs a column count divisible by 3, "
                    f"got {out.shape[-1]}")
            two = 2 * (out.shape[-1] // 3)
            out[..., :two] = _sigmoid_stable(out[..., :two])
            out[..., two:] = np.tanh(out[..., two:])
            return out
        raise ValueError(f"unknown gemm_gates activation {activation!r}")

    def act_backward(self, grad: np.ndarray, out: np.ndarray,
                     activation: str) -> np.ndarray:
        """Backward of the fused :meth:`gemm_gates` activation: fold
        the derivative into ``grad``, given the *post*-activation
        values ``out``.

        It uses the exact expressions the unfused
        ``Tensor.sigmoid``/``tanh`` backwards use, so fusing stays
        bitwise-neutral on float64.
        """
        if activation == "sigmoid":
            return grad * out * (1.0 - out)
        if activation == "tanh":
            return grad * (1.0 - out ** 2)
        if activation == "iou":
            two = 2 * (out.shape[-1] // 3)
            g = np.empty_like(grad)
            sig = out[..., :two]
            g[..., :two] = grad[..., :two] * sig * (1.0 - sig)
            th = out[..., two:]
            g[..., two:] = grad[..., two:] * (1.0 - th ** 2)
            return g
        raise ValueError(f"unknown gemm_gates activation {activation!r}")

    def lstm_cell(self, iou: np.ndarray,
                  fc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fused pointwise (tree-)LSTM cell on the *post*-activation
        packed gate block ``iou = [σ(i) | σ(o) | tanh(u)]`` and the
        forget-gated cell sum ``fc``::

            c = i ⊙ u + fc          h = o ⊙ tanh(c)

        Returns ``(out, th)``: the packed ``(m, 2h)`` block ``[h | c]``
        (the caller slices it into the two state tensors) plus
        ``tanh(c)``, which the caller keeps for
        :meth:`lstm_cell_backward` so the backward never recomputes
        the transcendental. The elementwise op order matches the
        historical composed graph (slice → mul → add → tanh → mul),
        so float64 results are bitwise-identical to the unfused
        version.
        """
        hs = fc.shape[-1]
        i = iou[..., :hs]
        o = iou[..., hs:2 * hs]
        u = iou[..., 2 * hs:]
        c = i * u + fc
        th = np.tanh(c)
        out = np.empty(c.shape[:-1] + (2 * hs,), dtype=c.dtype)
        out[..., :hs] = o * th
        out[..., hs:] = c
        return out, th

    def lstm_cell_backward(self, grad: np.ndarray, iou: np.ndarray,
                           th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backward of :meth:`lstm_cell`.

        ``grad`` is the packed incoming gradient ``[gh | gc]`` (the
        external consumers of h and c have already accumulated into
        it), ``iou`` the post-activation gates, ``th`` the ``tanh(c)``
        the forward returned. Returns ``(giou, gfc)`` using the exact
        historical formulas, with the tanh-path contribution added to
        the external c gradient last, the same order the composed
        graph accumulated it.
        """
        hs = th.shape[-1]
        i = iou[..., :hs]
        o = iou[..., hs:2 * hs]
        u = iou[..., 2 * hs:]
        gh = grad[..., :hs]
        gc = grad[..., hs:] + (gh * o) * (1.0 - th ** 2)
        giou = np.empty_like(iou)
        giou[..., :hs] = gc * u
        giou[..., hs:2 * hs] = gh * th
        giou[..., 2 * hs:] = gc * i
        return giou, gc

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        return {"name": self.name, "dtype": np.dtype(self.dtype).name,
                "tolerance": self.tolerance}


# ----------------------------------------------------------------------
# the two backends + selection
# ----------------------------------------------------------------------
_BACKENDS: dict[str, KernelBackend] = {
    name: KernelBackend(name, getattr(np, dtype), tolerance)
    for name, (dtype, tolerance) in BACKENDS.items()}

_ACTIVE: KernelBackend = _BACKENDS["numpy64"]


def get(name: str) -> KernelBackend:
    """The backend called ``name``; raises ``ValueError`` on an unknown
    name."""
    return _BACKENDS[check_backend(name)]


def active() -> KernelBackend:
    """The backend every Tensor/kernel call currently dispatches to."""
    return _ACTIVE


def set_backend(name: str) -> KernelBackend:
    """Select the process-wide backend."""
    global _ACTIVE
    _ACTIVE = get(name)
    return _ACTIVE


@contextlib.contextmanager
def use(name: str):
    """Scoped backend selection (tests, per-call overrides)::

        with backend.use("numpy32"):
            model = build_model(...)
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = get(name)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def default_dtype():
    """The active backend's float dtype (the Tensor coercion target)."""
    return _ACTIVE.dtype


def describe() -> dict:
    """Stats-stream-friendly identity of the active backend."""
    return _ACTIVE.describe()


def _init_from_env() -> None:
    name = os.environ.get("REPRO_BACKEND", "").strip()
    if not name:
        return
    try:
        set_backend(name)
    except ValueError as error:
        raise ValueError(f"REPRO_BACKEND: {error}") from None


_init_from_env()
