"""Minimal reverse-mode differentiation over float64 numpy arrays.

A :class:`Tensor` wraps an ndarray and remembers how it was produced; calling
:func:`grad` on a scalar output walks the graph once in reverse topological
order and accumulates exact gradients.  The op set is exactly what the
attention network and its contrastive loss need: broadcast arithmetic,
(stacked) matmul, the pointwise nonlinearities, axis reductions, the
gather / segment-sum pair that moves messages along graph edges, and
:func:`custom` for a node whose backward pass is written by hand.
"""

from __future__ import annotations

import numpy as np


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum out the axes numpy broadcasting added or stretched."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Array node in the computation graph; leaves have no parents.

    A Tensor built directly is a leaf that receives gradients.  A plain array
    or number handed to an op is wrapped as a constant (``requires_grad``
    false), and so is every op result that depends on constants only; no
    gradient is computed for constants.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw")

    def __init__(self, data, parents=(), bw=None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = not parents or any(p.requires_grad for p in parents)
        self._parents = parents
        self._bw = bw

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Set ``grad`` to d(self)/d(node) on every reachable node that needs one.

        Gradients are allocated lazily: a node's first contribution is stored
        as is and later ones are added out of place, so an array shared by
        several nodes is never written.  Nodes that receive no gradient keep
        ``grad`` as ``None`` and are not propagated through.
        """
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar-valued computation")
        if not self.requires_grad:  # built from constants only
            self.grad = np.ones_like(self.data)
            return
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._bw is not None and node.grad is not None:
                node._bw(node.grad)

    # Operator sugar; every op also exists as a module function.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _t(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    const = Tensor(x)
    const.requires_grad = False
    return const


def _acc(t: Tensor, g: np.ndarray) -> None:
    """Add one gradient contribution to ``t`` without writing into any array."""
    t.grad = g if t.grad is None else t.grad + g


def custom(data, parents: tuple[Tensor, ...], backward) -> Tensor:
    """A node with a hand-written backward pass.

    ``backward(g)`` gets the output's gradient and returns one gradient per
    parent, in order; each is added to its parent if that parent needs one.
    """
    def bw(g):
        for p, gp in zip(parents, backward(g)):
            if p.requires_grad:
                _acc(p, gp)

    return Tensor(data, parents, bw)


def add(a, b) -> Tensor:
    a, b = _t(a), _t(b)
    out = Tensor(a.data + b.data, (a, b))

    def bw(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(g, b.data.shape))

    out._bw = bw
    return out


def sub(a, b) -> Tensor:
    a, b = _t(a), _t(b)
    out = Tensor(a.data - b.data, (a, b))

    def bw(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _acc(b, -_unbroadcast(g, b.data.shape))

    out._bw = bw
    return out


def mul(a, b) -> Tensor:
    a, b = _t(a), _t(b)
    out = Tensor(a.data * b.data, (a, b))

    def bw(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(g * a.data, b.data.shape))

    out._bw = bw
    return out


def div(a, b) -> Tensor:
    a, b = _t(a), _t(b)
    out = Tensor(a.data / b.data, (a, b))

    def bw(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    out._bw = bw
    return out


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y``; with a contracted size of 1 it is an outer product, done as a
    broadcast multiply (the same values) rather than a stacked gemm."""
    return x * y if x.shape[-1] == 1 else np.matmul(x, y)


def matmul(a, b) -> Tensor:
    """np.matmul semantics for 2-D and leading-axis-stacked operands."""
    a, b = _t(a), _t(b)
    out = Tensor(np.matmul(a.data, b.data), (a, b))

    def bw(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(_product(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(_product(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    out._bw = bw
    return out


def relu(a) -> Tensor:
    a = _t(a)
    mask = a.data > 0.0
    out = Tensor(np.where(mask, a.data, 0.0), (a,))

    def bw(g):
        _acc(a, g * mask)

    out._bw = bw
    return out


def leaky_relu_values(x: np.ndarray, slope: float) -> np.ndarray:
    """``max(x, slope * x)`` on a plain array, for ``0 <= slope <= 1``."""
    return np.maximum(x, slope * x)


def leaky_relu_slopes(x: np.ndarray, slope: float) -> np.ndarray:
    """The leaky relu's derivative at ``x``: 1 above 0 and ``slope`` elsewhere.

    Built by arithmetic on the comparison, not by ``np.where``, whose
    branches are slow on mixed signs.
    """
    factor = np.greater(x, 0.0, out=np.empty(x.shape))
    factor *= 1.0 - slope
    factor += slope
    return factor


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    """``max(x, slope * x)``, which is ``x`` above 0 and ``slope * x`` below."""
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky_relu slope must lie in [0, 1], got {slope}")
    a = _t(a)
    out = Tensor(leaky_relu_values(a.data, slope), (a,))

    def bw(g):
        _acc(a, g * leaky_relu_slopes(a.data, slope))

    out._bw = bw
    return out


def sigmoid(a) -> Tensor:
    a = _t(a)
    x = a.data
    s = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out = Tensor(s, (a,))

    def bw(g):
        _acc(a, g * s * (1.0 - s))

    out._bw = bw
    return out


def exp(a) -> Tensor:
    a = _t(a)
    e = np.exp(a.data)
    out = Tensor(e, (a,))

    def bw(g):
        _acc(a, g * e)

    out._bw = bw
    return out


def log(a) -> Tensor:
    a = _t(a)
    out = Tensor(np.log(a.data), (a,))

    def bw(g):
        _acc(a, g / a.data)

    out._bw = bw
    return out


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _t(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,))

    def bw(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        _acc(a, np.broadcast_to(gg, a.data.shape))

    out._bw = bw
    return out


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _t(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a, shape) -> Tensor:
    a = _t(a)
    out = Tensor(a.data.reshape(shape), (a,))

    def bw(g):
        _acc(a, g.reshape(a.data.shape))

    out._bw = bw
    return out


class SegmentIndex:
    """An integer index map into ``size`` segments, stably sorted once.

    :func:`gather` reads through it and :func:`segment_sum` adds through it.
    Both scatter-adds run as ``np.add.reduceat`` over the sorted order, one
    reduction per non-empty segment, so the entries of a segment are added
    in index order.  Build one per index map and reuse it.
    """

    __slots__ = ("index", "size", "order", "starts", "present")

    def __init__(self, index, size: int):
        self.index = np.asarray(index, dtype=np.int64).reshape(-1)
        self.size = int(size)
        self.order = np.argsort(self.index, kind="stable")
        ranked = self.index[self.order]
        if ranked.size and (ranked[0] < 0 or ranked[-1] >= self.size):
            raise IndexError(f"segment index out of range [0, {self.size})")
        first = np.ones(ranked.size, dtype=bool)  # first entry of each segment
        first[1:] = ranked[1:] != ranked[:-1]
        self.starts = np.flatnonzero(first)
        self.present = ranked[self.starts]

    def _reduce(self, ufunc, x: np.ndarray, axis: int) -> np.ndarray:
        return ufunc.reduceat(np.take(x, self.order, axis=axis), self.starts, axis=axis)

    def sum(self, x: np.ndarray, axis: int = 0) -> np.ndarray:
        """Slices of ``x`` along ``axis`` added per segment; empty segments are 0."""
        shape = list(x.shape)
        shape[axis] = self.size
        out = np.zeros(shape)
        if self.index.size:
            out[(slice(None),) * axis + (self.present,)] = self._reduce(np.add, x, axis)
        return out

    def maximum(self, floor: np.ndarray, x: np.ndarray, axis: int = 0) -> np.ndarray:
        """Per-segment maximum of ``x`` and ``floor`` (which has the segment shape).

        Empty segments keep ``floor``; this equals ``np.maximum.at`` into a
        copy of ``floor``.
        """
        out = np.array(floor, dtype=np.float64)
        if self.index.size:
            sel = (slice(None),) * axis + (self.present,)
            out[sel] = np.maximum(out[sel], self._reduce(np.maximum, x, axis))
        return out


def _segments(index, size: int) -> SegmentIndex:
    if isinstance(index, SegmentIndex):
        if index.size != size:
            raise ValueError(f"segment index covers {index.size} segments, expected {size}")
        return index
    return SegmentIndex(index, size)


def gather(a, index, axis: int = 0) -> Tensor:
    """Take slices along ``axis`` by integer index; backward scatter-adds.

    ``index`` is an integer array or a :class:`SegmentIndex` over
    ``a.shape[axis]``.
    """
    a = _t(a)
    seg = _segments(index, a.data.shape[axis])
    out = Tensor(np.take(a.data, seg.index, axis=axis), (a,))

    def bw(g):
        _acc(a, seg.sum(g, axis))

    out._bw = bw
    return out


def segment_sum(a, segments, num_segments: int, axis: int = 0) -> Tensor:
    """Sum entries sharing a segment id along ``axis``; adjoint of gather.

    ``segments`` is an integer array or a :class:`SegmentIndex` over
    ``num_segments``.
    """
    a = _t(a)
    seg = _segments(segments, num_segments)
    out = Tensor(seg.sum(a.data, axis), (a,))

    def bw(g):
        _acc(a, np.take(g, seg.index, axis=axis))

    out._bw = bw
    return out


def grad(output: Tensor, wrt: list[Tensor]) -> list[np.ndarray]:
    """Exact reverse-mode gradients of a scalar output for each listed tensor.

    Each returned array is a fresh writable copy owned by the caller.
    Tensors not reachable from ``output`` get zero gradients.
    """
    output = _t(output)
    for p in wrt:
        p.grad = None
    output.backward()
    return [
        np.array(p.grad, dtype=np.float64) if p.grad is not None else np.zeros_like(p.data)
        for p in wrt
    ]
