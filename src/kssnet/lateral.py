"""Lateral connection: inject label embeddings into backbone feature maps.

The operation cross-correlates every spatial feature vector with the
tanh-activated label embeddings, maps the resulting per-label correlation
map back to feature channels with a pointwise (1x1) convolution, and adds
the input back; per position, with ``x`` the C-vector there,

    y = W tanh(E) x + b + x

Features are channels-last, (H, W, C), with their positions flattened to
(S, C); the model's batched (B, S, C) form runs through the same core.
"""

from __future__ import annotations

from . import autodiff as ad


def lc_core(xf: ad.Tensor, e: ad.Tensor, w: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Lateral connection on position-flattened features ``xf`` of shape (..., S, C).

    ``e`` is (N, C), ``w`` the (C, N) pointwise-convolution weight and ``b``
    its (C,) bias; returns ``W tanh(E) x + b + x`` per position, a tensor of
    the same shape as ``xf``.
    """
    s = ad.tanh(ad.swap_last(e))  # (C, N)
    m = ad.matmul(xf, s)  # (..., S, N)
    g_out = ad.add(ad.matmul(m, ad.swap_last(w)), b)  # (..., S, C)
    return ad.add(g_out, xf)
