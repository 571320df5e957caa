"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for the label-graph pathway, lateral connections, and
the toy backbone: broadcast-aware elementwise ops, batched matmul,
reshape/axis swap, the tanh and LeakyReLU activations, reductions, the
backbone's one convolution (3x3 kernels, stride 1, zero padding 1, a bias),
2x2 average pooling of the LeakyReLU of its input, and a numerically stable
binary cross-entropy head.  Ops are functions of Tensors, never of plain
arrays or numbers; ``Tensor`` has no arithmetic operators.  Gradients flow
back from a scalar: ``backward()`` takes no upstream gradient.  The sigmoid
is not an op: :func:`_sigmoid` is a plain-array helper for the loss gradient
and for ``metrics.decide``.

Arrays stay in whatever float dtype they arrive in (float64 for gradient
checks, float32 allowed for training), gradients included; all ops are
deterministic.  Feature maps are channels-last, (B, H, W, C), the one
layout of the convolution and the pooling: a copy of a window tap or a
pooled slice then moves runs of C (or W*C) floats rather than rows W floats
long, so its cost follows the bytes, not the row count.  Kernels stay
(O, C, 3, 3).  The convolution is im2col followed by GEMM in sample blocks;
its backward is one GEMM for the weight gradient and a GEMM followed by
col2im for the input gradient, rebuilding the column matrix from the padded
input it retains.  A map with fewer positions than the kernel has taps is
instead one dense GEMM against a matrix of the taps (see :func:`conv2d`).
The backbone's LeakyReLU runs inside the pooling pass, block by block, so
its full-size activation is never made (see :func:`avg_pool2d`).  Every
LeakyReLU slope lies in (0, 1]; another is rejected with ``ValueError``.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient broadcast over leading axes back down to `shape`.

    The program broadcasts over leading axes only: a (C,) bias over
    (..., S, C) and a (C, N) weight over a batch.
    """
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    return grad.reshape(shape)


class Tensor:
    """A float32 or float64 array, its gradient, and the op that made it.

    ``Tensor(data)`` keeps ``np.asarray(data)`` as it is: callers pass
    float32 or float64.  ``backward()`` runs from a scalar tensor only.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
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

    def backward(self):
        """Accumulate the gradients of this scalar-valued tensor into the graph's leaves.

        The gradient of a non-scalar output ``out`` for an upstream ``g`` is
        that of ``tsum(mul(out, Tensor(g)))``.
        """
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar")
        grad = np.ones_like(self.data)

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


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(a.data * b.data, (a, b), backward)


def mul_scalar(a: Tensor, s: float) -> Tensor:
    def backward(g):
        return (g * s,)

    return _node(a.data * s, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")

    def backward(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _node(np.matmul(a.data, b.data), (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        return (g.reshape(a.shape),)

    return _node(a.data.reshape(shape), (a,), backward)


def swap_last(a: Tensor) -> Tensor:
    """Transpose the last two axes."""

    def backward(g):
        return (np.swapaxes(g, -1, -2),)

    return _node(np.swapaxes(a.data, -1, -2), (a,), backward)


def _leaky_relu_into(x: np.ndarray, slope: float, out: np.ndarray) -> np.ndarray:
    """Write ``np.where(x >= 0, x, slope * x)`` into ``out``, bit for bit.

    ``slope`` must lie in (0, 1], else ``ValueError``.  Such a slope keeps
    the sign of ``x``, zeros included, and does not grow it, so the result
    is the larger of ``x`` and ``slope * x``.
    """
    if not 0 < slope <= 1:
        raise ValueError(f"LeakyReLU slope must lie in (0, 1], got {slope}")
    np.multiply(x, slope, out=out)
    return np.maximum(x, out, out=out)


def _leaky_relu_slopes(x: np.ndarray, slope: float, dtype, out=None, mask=None) -> np.ndarray:
    """The derivative of ``leaky_relu`` at ``x``, 1 or ``slope``, in ``dtype``.

    Looked up from a two-entry table of ``dtype`` by the ``x >= 0`` mask, so
    float32 gradients stay float32.  ``out`` and ``mask`` are optional
    buffers of x's shape for the result and the bool mask.
    """
    table = np.array([slope, 1], dtype=dtype)
    mask = np.asarray(np.greater_equal(x, 0, out=mask))
    return np.take(table, mask.view(np.uint8), out=out, mode="clip")


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    """``x`` where ``x >= 0``, else ``slope * x``, for a ``slope`` in (0, 1].

    Bit for bit ``np.where(x >= 0, x, slope * x)``, signed zeros,
    infinities and NaNs included, written into one array (see
    :func:`_leaky_relu_into`).  Backward builds the ``x >= 0`` mask from
    the retained input, so a forward that is never differentiated builds
    none, and multiplies ``g`` by ``slope`` or 1.  The backbone applies the
    activation inside :func:`avg_pool2d`; this op serves the GCN.
    """
    x = a.data
    out = _leaky_relu_into(x, slope, np.empty_like(x))

    def backward(g):
        return (g * _leaky_relu_slopes(x, slope, g.dtype),)

    return _node(out, (a,), backward)


def tanh(a: Tensor) -> Tensor:
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


def tsum(a: Tensor, axis=None) -> Tensor:
    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=False),)

    return _node(a.data.sum(axis=axis), (a,), backward)


def tmean(a: Tensor) -> Tensor:
    """The mean of a channels-last (B, H, W, C) map over its two spatial axes: (B, C)."""
    return mul_scalar(tsum(a, axis=(1, 2)), 1.0 / (a.shape[1] * a.shape[2]))


# The side of every convolution kernel; the zero padding is 1 on each side, so
# the output keeps the input's height and width.
_K = 3
# Rows (samples x output positions) per im2col block of the conv forward.
_CONV_BLOCK_ROWS = 1024


def _windows(xp: np.ndarray) -> np.ndarray:
    """The 3x3 windows of a padded (B, H+2, W+2, C) input, as a (B, H, W, 3, 3, C) view.

    Reshaped to (B*H*W, 9*C) it is the im2col matrix: a row lists its
    window tap by tap, (u, v) row-major, so every copied run is C floats long.
    """
    win = np.lib.stride_tricks.sliding_window_view(xp, (_K, _K), axis=(1, 2))
    return win.transpose(0, 1, 2, 4, 5, 3)


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The backbone convolution: channels-last (B, H, W, C) input, (O, C, 3, 3) kernels, bias (O,).

    Stride 1 and zero padding 1, so the output keeps the input's height and
    width: a C-contiguous (B, H, W, O) array in the input dtype.  A kernel
    that is not 3x3, a bias that is not (O,) or a channel count that
    differs from the kernel's raises ``ValueError``.  A map with at least 9
    positions is convolved as im2col then GEMM (:func:`_conv_im2col`); a
    smaller one, such as the 2x2 last stage, as one dense GEMM
    (:func:`_conv_dense`), which needs (H*W)**2 * C * O multiply-adds
    against im2col's H*W * 9 * C * O.  The two sum the products in
    different orders, so they agree to rounding, not bit for bit.
    Gradients nobody needs (the input of the first layer) are not computed.
    """
    o, c, kh, kw = w.shape
    if (kh, kw) != (_K, _K):
        raise ValueError(f"kernel {kh}x{kw} is not {_K}x{_K}")
    if x.shape[3] != c:
        raise ValueError(f"channel mismatch: input {x.shape[3]}, kernel {c}")
    if b.shape != (o,):
        raise ValueError(f"bias shape {b.shape} != ({o},)")
    _, h, wd, _ = x.shape
    conv = _conv_dense if h * wd < _K * _K else _conv_im2col
    out, input_grad, weight_grad = conv(x.data, w.data, b.data)

    def backward(g):
        gx = input_grad(g) if x.requires_grad else None
        gw = weight_grad(g) if w.requires_grad else None
        return gx, gw, g.reshape(-1, o).sum(axis=0)

    return _node(out, (x, w, b), backward)


def _conv_im2col(x, w, bias):
    """Forward of :func:`conv2d` as im2col then GEMM, and its two gradient functions.

    The forward runs over blocks of whole samples holding at most
    ``_CONV_BLOCK_ROWS`` output positions (at least one sample): each
    block's (rows, 9*C) window matrix times ``w`` as (9*C, O) is
    written, bias added, straight into its slice of the preallocated
    output, so no transpose follows.  The blocks are there for memory:
    unblocked, tall GEMMs such as the (65536 x 27) @ (27 x 16) stage 0 of a
    256-image ``predict`` chunk make two-thread OpenBLAS touch about 18 MB
    more work buffer (+19% peak RSS on the toy trainer); in 1024-row blocks
    it is about 1 MB, and the blocked forward is no slower.

    It retains the padded input, not the columns.  The weight gradient
    rebuilds them (one GEMM); the input gradient is one batched GEMM into
    9 tap-major (B*H*W, C) slabs that are added into a zeroed padded
    buffer (col2im: contiguous runs W*C long), then cropped.  Neither is
    blocked: backward runs on training minibatches only.
    """
    bs, h, wd, c = x.shape
    o = w.shape[0]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    wmat = w.transpose(2, 3, 1, 0).reshape(_K * _K * c, o)
    win = _windows(xp)
    out = np.empty((bs, h, wd, o), dtype=np.result_type(xp, wmat))
    step = max(1, _CONV_BLOCK_ROWS // (h * wd))
    for lo in range(0, bs, step):
        block = out[lo:lo + step].reshape(-1, o)
        np.matmul(win[lo:lo + step].reshape(-1, _K * _K * c), wmat, out=block)
        block += bias

    def input_grad(g):
        taps = np.matmul(g.reshape(-1, o), wmat.reshape(_K * _K, c, o).transpose(0, 2, 1))
        gxp = np.zeros(xp.shape, dtype=taps.dtype)
        for u in range(_K):
            for v in range(_K):
                gxp[:, u:u + h, v:v + wd] += taps[u * _K + v].reshape(bs, h, wd, c)
        return gxp[:, 1:1 + h, 1:1 + wd]

    def weight_grad(g):
        gmat = win.reshape(-1, _K * _K * c).T @ g.reshape(-1, o)
        return gmat.reshape(_K, _K, c, o).transpose(3, 2, 0, 1)

    return out, input_grad, weight_grad


def _conv_dense(x, w, bias):
    """Forward of :func:`conv2d` as one dense GEMM, and its two gradient functions.

    For maps with fewer than 9 positions.  ``x`` as a (B, H*W*C) matrix is
    multiplied by the (H*W*C, H*W*O) matrix ``t`` that holds, at each
    (input position, output position) pair within reach of each other, the
    (C, O) kernel tap that joins them, and zeros elsewhere: no padding and
    no window copy.  The input gradient is ``g @ t.T``; the weight gradient
    folds the blocks of ``x.T @ g`` back onto their taps.  A zero of ``t``
    times an infinite input is NaN, where im2col would add nothing, so a
    non-finite input reaches outputs out of its reach.
    """
    bs, h, wd, c = x.shape
    o = w.shape[0]
    pairs = [(i, j, p, q, i - p + 1, j - q + 1)
             for i, j, p, q in np.ndindex(h, wd, h, wd)
             if 0 <= i - p + 1 < _K and 0 <= j - q + 1 < _K]
    taps = w.transpose(2, 3, 1, 0)  # (3, 3, C, O)
    t = np.zeros((h, wd, c, h, wd, o), dtype=taps.dtype)
    for i, j, p, q, u, v in pairs:
        t[i, j, :, p, q] = taps[u, v]
    t = t.reshape(h * wd * c, h * wd * o)
    xmat = x.reshape(bs, h * wd * c)
    out = (xmat @ t).reshape(bs, h, wd, o)
    out += bias

    def input_grad(g):
        return (g.reshape(bs, -1) @ t.T).reshape(x.shape)

    def weight_grad(g):
        full = (xmat.T @ g.reshape(bs, -1)).reshape(h, wd, c, h, wd, o)
        gtaps = np.zeros((_K, _K, c, o), dtype=full.dtype)
        for i, j, p, q, u, v in pairs:
            gtaps[u, v] += full[i, j, :, p, q]
        return gtaps.transpose(3, 2, 0, 1)

    return out, input_grad, weight_grad


# Elements of x per block of ``avg_pool2d``: a block of x and the buffers
# made from it (512 KiB each in float32) stay in a 2 MiB L2.  Swept on a
# 2-core host, float32, the four backbone stages summed: the 256-sample
# forward took 4.7 / 4.1 / 3.6 / 4.2 / 6.2 ms at 2**15 / 16 / 17 / 18 / 20,
# and the 50-sample forward plus backward was also fastest at 2**17.
_POOL_BLOCK_ELEMS = 2 ** 17


def avg_pool2d(x: Tensor, slope: float) -> Tensor:
    """Non-overlapping 2x2 average pooling of ``leaky_relu(x, slope)``, channels-last.

    Bit for bit the mean over each 2x2 window of ``leaky_relu(x, slope)``
    forward and backward, without the full-size activation: the backbone's
    activate-and-pool is one pass.  ``slope`` must lie in (0, 1], else
    ``ValueError``; ``slope = 1`` pools ``x`` itself.

    H and W must be even.  The forward runs over blocks of whole samples
    holding at most ``_POOL_BLOCK_ELEMS`` elements (at least one sample).
    Each block is activated into one reused block buffer, and its four
    strided slices ``a[:, u::2, v::2]`` (contiguous runs of C) are summed
    into the block's slice of the output and divided by 4 there.  The
    backward writes ``g / 4`` into each 2x2 window of the one gradient
    array, block by block, and multiplies each block by the activation's
    slope (1 or ``slope``), made in two block buffers from the retained
    input while that block is in cache.
    """
    bs, h, w, c = x.shape
    k = 2
    if h % k or w % k:
        raise ValueError(f"spatial dims {(h, w)} not divisible by pool size {k}")
    xd = x.data
    step = max(1, _POOL_BLOCK_ELEMS // max(1, h * w * c))
    out = np.empty((bs, h // k, w // k, c), dtype=xd.dtype)
    act = np.empty((min(step, bs), h, w, c), dtype=xd.dtype)
    for lo in range(0, bs, step):
        xb = xd[lo:lo + step]
        a = _leaky_relu_into(xb, slope, act[:len(xb)])
        o = out[lo:lo + step]
        np.copyto(o, a[:, ::k, ::k])
        for u in range(k):
            for v in range(k):
                if u or v:
                    o += a[:, u::k, v::k]
        o /= k * k

    def backward(g):
        gx = np.empty(xd.shape, dtype=g.dtype)
        windows = gx.reshape(bs, h // k, k, w // k, k, c)
        spread = (g / (k * k))[:, :, None, :, None, :]
        slopes = np.empty((min(step, bs), h, w, c), dtype=g.dtype)
        mask = np.empty(slopes.shape, dtype=bool)
        for lo in range(0, bs, step):
            np.copyto(windows[lo:lo + step], spread[lo:lo + step])
            xb = xd[lo:lo + step]
            gx[lo:lo + step] *= _leaky_relu_slopes(xb, slope, g.dtype, out=slopes[:len(xb)],
                                                   mask=mask[:len(xb)])
        return (gx,)

    return _node(out, (x,), backward)


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean sigmoid binary cross-entropy, in the overflow-safe form.

    Per element: max(z, 0) - z*y + log(1 + exp(-|z|)).
    """
    z = logits.data
    y = np.asarray(targets, dtype=z.dtype)
    if y.shape != z.shape:
        raise ValueError(f"target shape {y.shape} != logits shape {z.shape}")
    loss = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))

    def backward(g):
        return (g * (_sigmoid(z) - y) / z.size,)

    return _node(loss.mean(), (logits,), backward)
