"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for the label-graph pathway, lateral connections, and
the toy backbone: broadcast-aware elementwise ops, batched matmul,
reshape/axis swap, a few activations, reductions, stride-1 convolution,
2x average pooling, and a numerically stable binary cross-entropy head.

Arrays stay in whatever float dtype they arrive in (float64 for gradient
checks, float32 allowed for training); all ops are deterministic.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def backward(self, grad=None):
        """Accumulate gradients of this tensor into the graph's leaves.

        Without an argument the tensor must be scalar-valued; otherwise
        `grad` supplies the upstream gradient (same shape as `data`).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(f"gradient shape {grad.shape} != value shape {self.data.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        self.grad = grad if self.grad is None else self.grad + grad
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            for parent, pgrad in zip(node._parents, node._backward(node.grad)):
                if pgrad is None or not parent.requires_grad:
                    continue
                parent.grad = pgrad if parent.grad is None else parent.grad + pgrad

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return add(self, mul_scalar(as_tensor(other), -1.0))

    def __neg__(self):
        return mul_scalar(self, -1.0)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(a.data + b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(a.data * b.data, (a, b), backward)


def mul_scalar(a, s: float) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        return (g * s,)

    return _node(a.data * s, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")

    def backward(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _node(np.matmul(a.data, b.data), (a, b), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        return (g.reshape(a.shape),)

    return _node(a.data.reshape(shape), (a,), backward)


def swap_last(a) -> Tensor:
    """Transpose the last two axes."""
    a = as_tensor(a)

    def backward(g):
        return (np.swapaxes(g, -1, -2),)

    return _node(np.swapaxes(a.data, -1, -2), (a,), backward)


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = as_tensor(a)
    mask = a.data >= 0

    def backward(g):
        return (g * np.where(mask, 1.0, slope),)

    return _node(np.where(mask, a.data, slope * a.data), (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out * out),)

    return _node(out, (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below.

    Branch-free and computed in place on one scratch array, so a large score
    matrix needs no more memory than the naive ``1 / (1 + exp(-x))``.
    """
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)  # e^-|x| never overflows
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid(a.data)

    def backward(g):
        return (g * out * (1.0 - out),)

    return _node(out, (a,), backward)


def activate(a, name: str, slope: float = 0.2) -> Tensor:
    """Dispatch an activation by name: leaky_relu, tanh, sigmoid, identity."""
    if name == "leaky_relu":
        return leaky_relu(a, slope)
    if name == "tanh":
        return tanh(a)
    if name == "sigmoid":
        return sigmoid(a)
    if name == "identity":
        return as_tensor(a)
    raise ValueError(f"unknown activation {name!r}")


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=False),)
        ax = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=False),)

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[i] for i in ax]))
    return mul_scalar(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def conv2d(x, w, b=None, padding: int = 1) -> Tensor:
    """Stride-1 2D convolution of (B, C, H, W) with (O, C, kh, kw) kernels."""
    x, w = as_tensor(x), as_tensor(w)
    kh, kw = w.shape[2], w.shape[3]
    if kh != kw:
        raise ValueError("only square kernels are supported")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"channel mismatch: input {x.shape[1]}, kernel {w.shape[1]}")
    k = kh
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    out = np.einsum("bcijuv,ocuv->boij", win, w.data, optimize=True)

    def backward(g):
        gw = np.einsum("boij,bcijuv->ocuv", g, win, optimize=True)
        gp = np.pad(g, ((0, 0), (0, 0), (k - 1 - padding,) * 2, (k - 1 - padding,) * 2))
        gwin = np.lib.stride_tricks.sliding_window_view(gp, (k, k), axis=(2, 3))
        wflip = w.data[:, :, ::-1, ::-1]
        gx = np.einsum("boijuv,ocuv->bcij", gwin, wflip, optimize=True)
        return gx, gw

    out_t = _node(out, (x, w), backward)
    if b is not None:
        b = as_tensor(b)
        out_t = add(out_t, reshape(b, (1, b.shape[0], 1, 1)))
    return out_t


def avg_pool2d(x, k: int = 2) -> Tensor:
    """Non-overlapping k x k average pooling; spatial dims must divide by k."""
    x = as_tensor(x)
    bs, c, h, w = x.shape
    if h % k or w % k:
        raise ValueError(f"spatial dims {(h, w)} not divisible by pool size {k}")
    out = x.data.reshape(bs, c, h // k, k, w // k, k).mean(axis=(3, 5))

    def backward(g):
        up = np.broadcast_to(
            g[:, :, :, None, :, None] / (k * k), (bs, c, h // k, k, w // k, k)
        )
        return (up.reshape(bs, c, h, w).astype(x.data.dtype, copy=False),)

    return _node(out, (x,), backward)


def bce_with_logits(logits, targets: np.ndarray) -> Tensor:
    """Mean sigmoid binary cross-entropy, in the overflow-safe form.

    Per element: max(z, 0) - z*y + log(1 + exp(-|z|)).
    """
    logits = as_tensor(logits)
    z = logits.data
    y = np.asarray(targets, dtype=z.dtype)
    if y.shape != z.shape:
        raise ValueError(f"target shape {y.shape} != logits shape {z.shape}")
    loss = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))

    def backward(g):
        return (g * (_sigmoid(z) - y) / z.size,)

    return _node(loss.mean(), (logits,), backward)
