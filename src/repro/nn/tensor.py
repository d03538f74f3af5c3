"""Reverse-mode automatic differentiation on numpy arrays.

This module is the numerical core of the reproduction: every model in the
paper (sequential LSTM, child-sum tree-LSTM, GCN, the sigmoid classifier)
is expressed as a graph of :class:`Tensor` operations, and gradients are
obtained by a single topological backward sweep, exactly as a framework
like PyTorch would do.

Only the operations the paper's architectures need are implemented, but
each one supports full numpy broadcasting with correct gradient
reduction, which the test-suite verifies against finite differences.
"""

from __future__ import annotations

import threading

import numpy as np

from . import backend as _backend

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

# Per-thread, so concurrent serving threads (repro.serve) toggling
# no_grad cannot corrupt each other's — or a training loop's — state.
_GRAD_STATE = threading.local()


class no_grad:
    """Context manager that disables graph construction (like torch.no_grad)."""

    def __enter__(self):
        self._prev = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _GRAD_STATE.enabled = self._prev
        return False


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded for backprop."""
    return getattr(_GRAD_STATE, "enabled", True)


def _as_array(data) -> np.ndarray:
    """Coerce ``data`` under the active backend's dtype policy.

    Float arrays land in the backend dtype (float64 on the default
    backend, float32 under ``numpy32``). Integer and bool arrays pass
    through untouched and uncopied — they are index maps and masks, and
    silently floating them would break the gather/scatter kernels.
    """
    return _backend.active().asarray(data)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a float64 numpy array.
    requires_grad:
        If True, gradients are accumulated into ``.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a single-element tensor, got shape {self.shape}"
            )
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # ------------------------------------------------------------------
    # graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # Pooled zeroed buffer: parameter-shaped gradients recur
            # every training step, so after the first batch they are
            # recycled arrays; a per-batch shape such as a tree-LSTM
            # pass's (K, 2h) block is mostly a fresh allocation.
            self.grad = _backend.active().grad_buffer(self.data.shape,
                                                      self.data.dtype)
        self.grad += grad

    def _accumulate_at(self, key, grad: np.ndarray) -> None:
        """Sparse gradient accumulation: scatter-add ``grad`` at ``key``.

        Gather-style ops (``take_rows``, ``__getitem__``) read only a few
        rows, so their backward must not pay a full
        ``zeros_like`` + dense add per read. The zero buffer is allocated
        once per backward sweep and every subsequent read scatters into
        it directly — O(rows read) instead of O(tensor size).
        """
        if self.grad is None:
            self.grad = _backend.active().grad_buffer(self.data.shape,
                                                      self.data.dtype)
        if isinstance(key, np.ndarray) and key.dtype.kind in "iu" and key.ndim == 1:
            # Row scatter-add — the hot path of take_rows.
            _backend.active().scatter_add_rows(self.grad, key, grad)
            return
        keys = key if isinstance(key, tuple) else (key,)
        if all(isinstance(k, (int, np.integer, slice)) for k in keys):
            # Basic indexing cannot alias the same element twice.
            self.grad[key] += grad
        else:
            np.add.at(self.grad, key, grad)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad):
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    ga = np.outer(grad, b) if grad.ndim else grad * b
                    if a.ndim == 1:
                        ga = grad * b
                else:
                    ga = grad @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(np.asarray(ga).reshape(a.shape), a.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    gb = np.outer(a, grad) if b.ndim == 2 else a * grad
                else:
                    gb = np.swapaxes(a, -1, -2) @ grad
                other._accumulate(_unbroadcast(np.asarray(gb).reshape(b.shape), b.shape))

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # nonlinearities
    # ------------------------------------------------------------------
    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = _backend._sigmoid_stable(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions and shape ops
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self) -> "Tensor":
        out_data = self.data.T

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.T)

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad):
            if self.requires_grad:
                self._accumulate_at(key, grad)

        return Tensor._make(np.array(out_data, copy=True), (self,), backward)

    def take_rows(self, indices) -> "Tensor":
        """Gather rows (embedding lookup); gradient scatter-adds back.

        The backward pass uses the sparse accumulation fast path: it
        scatters directly into ``self.grad`` instead of materialising a
        dense ``zeros_like`` per read.
        """
        idx = np.asarray(indices, dtype=np.int64)
        out_data = _backend.active().take_rows(self.data, idx)

        def backward(grad):
            if self.requires_grad:
                self._accumulate_at(idx, grad)

        return Tensor._make(out_data, (self,), backward)

    @staticmethod
    def addmm(base: "Tensor", mat: "Tensor", weight: "Tensor",
              activation: str | None = None) -> "Tensor":
        """Fused gate projection: ``base + mat @ weight.T`` as one node.

        This is the shape of every linear/gate computation in the repo
        (``bias + x @ W.T``, ``x_proj + h @ U.T``), dispatched to the
        backend's ``gemm_gates`` kernel. One graph node instead of three
        (transpose, matmul, add) — and its backward feeds the GEMM
        outputs straight into the parents, skipping two intermediate
        gradient arrays per gate per level.

        ``activation`` (``"sigmoid"`` / ``"tanh"`` / ``"iou"``) fuses
        the gate nonlinearity into the same node: the backend kernel
        applies it in the GEMM epilogue and the backward folds the
        activation derivative into the incoming gradient before the
        GEMM backward — the same formulas ``Tensor.sigmoid``/``tanh``
        use, so float64 results and gradients stay bitwise-identical to
        the unfused graph. ``"iou"`` is the tree-LSTM's packed gate block:
        sigmoid on the first two thirds of the columns, tanh on the
        last third (column count must be divisible by 3).

        ``base`` may broadcast against the GEMM output (a bias row) or
        match it exactly (a precomputed input projection). Falls back to
        the composed ops for non-2-D operands (e.g. 1-D step inputs).
        """
        base = Tensor._coerce(base)
        mat = Tensor._coerce(mat)
        weight = Tensor._coerce(weight)
        if activation not in (None, "sigmoid", "tanh", "iou"):
            raise ValueError(f"unknown addmm activation {activation!r}")
        if mat.data.ndim != 2 or weight.data.ndim != 2:
            if activation == "iou":
                raise ValueError("iou activation requires 2-D operands")
            out = base + mat.matmul(weight.T)
            if activation == "sigmoid":
                out = out.sigmoid()
            elif activation == "tanh":
                out = out.tanh()
            return out
        out_data = _backend.active().gemm_gates(base.data, mat.data,
                                                weight.data, activation)

        def backward(grad):
            if activation is not None:
                grad = _backend.active().act_backward(grad, out_data,
                                                      activation)
            if base.requires_grad:
                base._accumulate(_unbroadcast(grad, base.shape))
            if mat.requires_grad:
                mat._accumulate(grad @ weight.data)
            if weight.requires_grad:
                weight._accumulate(grad.T @ mat.data)

        return Tensor._make(out_data, (base, mat, weight), backward)

    # ------------------------------------------------------------------
    # combination ops used by the tree models
    # ------------------------------------------------------------------
    @staticmethod
    def concat(tensors: list["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad):
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    t._accumulate(grad[tuple(slicer)])

        return Tensor._make(out_data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad):
            pieces = np.moveaxis(grad, axis, 0)
            for t, piece in zip(tensors, pieces):
                if t.requires_grad:
                    t._accumulate(piece)

        return Tensor._make(out_data, tuple(tensors), backward)

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def backward(self, grad=None, free_buffers: bool = False) -> None:
        """Backpropagate from this tensor through the recorded graph.

        With ``free_buffers=True``, each intermediate (non-leaf) node's
        gradient array is returned to the backend's buffer pool as soon
        as its backward hook has consumed it, and ``.grad`` is reset to
        ``None``. Leaf gradients (parameters, inputs) are kept. Safe
        because no backward hook retains a reference to its incoming
        gradient array — they all copy via ``+=`` / scatter-add. The
        training engine opts in; callers that inspect intermediate
        ``.grad`` after backward should keep the default.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        self._accumulate(grad)
        if not free_buffers:
            for node in reversed(order):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)
            return
        pool = _backend.active()
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Intermediate grads are dead once propagated — recycle.
                pool.release(node.grad)
                node.grad = None
