"""Minimal reverse-mode differentiation over float64 numpy arrays.

A :class:`Tensor` wraps an ndarray and remembers how it was produced; calling
:func:`grad` on a scalar output walks the graph once in reverse topological
order and accumulates exact gradients.  The op set is exactly what the
attention network and its contrastive loss need: broadcast arithmetic,
(stacked) matmul, the pointwise nonlinearities, axis reductions, and the
gather / segment-sum pair that moves messages along graph edges.  The model
and its training run without the tape, in plain numpy; the tests check
their hand-written backward passes against it.
"""

from __future__ import annotations

import numpy as np

from .model import SegmentIndex, _product, leaky_relu_slopes, leaky_relu_values


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


def _t(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    const = Tensor(x)
    const.requires_grad = False
    return const


def _acc(t: Tensor, g: np.ndarray) -> None:
    """Add one gradient contribution to ``t`` without writing into any array."""
    t.grad = g if t.grad is None else t.grad + g


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
