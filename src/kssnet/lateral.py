"""Lateral connection: inject label embeddings into backbone feature maps.

The operation cross-correlates every spatial feature vector with the
activated label embeddings, maps the resulting per-label correlation map
back to feature channels with a pointwise (1x1 or 1x1x1) convolution, and
adds the input back:

    y = g(reshape(reshape(x) @ sigma(E^T))) + x

Both the 2D (C, H, W) and 3D (C, T, H, W) variants flatten all spatial
(and temporal) positions, so a single core handles both, plus the batched
form used inside the model.
"""

from __future__ import annotations

from . import autodiff as ad


def lc_core(xf: ad.Tensor, e: ad.Tensor, w: ad.Tensor, b: ad.Tensor, activation: str) -> ad.Tensor:
    """Lateral connection on channel-flattened features ``xf`` of shape (..., C, S).

    ``e`` is (N, C), ``w`` the (C, N) pointwise-convolution weight and ``b``
    its (C,) bias; returns a tensor of the same shape as ``xf``.
    """
    s = ad.activate(ad.swap_last(e), activation)  # (C, N)
    m = ad.matmul(ad.swap_last(xf), s)  # (..., S, N)
    g_out = ad.matmul(w, ad.swap_last(m))  # (..., C, S)
    g_out = ad.add(g_out, ad.reshape(b, (b.shape[0], 1)))
    return ad.add(g_out, xf)
