"""Seeded gradient-check computations for every differentiable component.

Each builder returns ``(tensors, loss)``: the float64 Tensors to perturb and
a function of no arguments that builds a deterministic scalar loss from
them.  :func:`grad_check` runs ``loss().backward()`` once, at the base
point, and compares that gradient against central finite differences, for
which it writes each perturbed entry into the Tensors' ``data`` in place
and runs only the forward.  Inputs are drawn so that activation pre-images
stay away from the LeakyReLU kink.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .graph import identity_mix, normalize
from .lateral import lc_core
from .model import KssModel

GRADCHECK_TOLERANCES = {
    "gcn_layer": 1e-5,
    "lc": 1e-5,
    "full_model": 1e-4,
}

_KINK_MARGIN = 1e-3
# The central-difference step of :func:`grad_check`.
_STEP = 1e-6


def grad_check(tensors: list[ad.Tensor], loss) -> float:
    """Compare the reverse-mode gradient of ``loss()`` against central differences.

    ``tensors`` are the float64 leaves to check; ``loss()`` builds a scalar
    Tensor from their current ``data``.  Each entry is perturbed in place
    and put back, so the Tensors hold the base point on return.  Returns
    ``max_i |g_ad - g_fd| / max(1, |g_ad|, |g_fd|)`` over every entry;
    raises on non-finite values.  The computation should be smooth at the
    base point (keep activation inputs away from kinks).
    """
    for t in tensors:
        t.grad = None
    base = loss()
    base.backward()
    g_ad = np.concatenate([t.grad.ravel() for t in tensors])
    if not (np.isfinite(base.data) and np.all(np.isfinite(g_ad))):
        raise ValueError("non-finite value or gradient")
    g_fd = []
    for t in tensors:
        for i in np.ndindex(t.shape):
            x = t.data[i]
            try:
                t.data[i] = x + _STEP
                hi = float(loss().data)
                t.data[i] = x - _STEP
                lo = float(loss().data)
            finally:
                t.data[i] = x
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise ValueError("non-finite value during finite differencing")
            g_fd.append((hi - lo) / (2.0 * _STEP))
    g_fd = np.array(g_fd)
    denom = np.maximum(1.0, np.maximum(np.abs(g_ad), np.abs(g_fd)))
    return float(np.max(np.abs(g_ad - g_fd) / denom))


def _random_adjacency(rng: np.random.Generator) -> np.ndarray:
    """A normalized random symmetric adjacency over the four labels of every check."""
    a = rng.random((4, 4))
    a = (a + a.T) / 2
    return normalize(identity_mix(a, 0.6))


def _leaves(*arrays) -> list[ad.Tensor]:
    return [ad.Tensor(a, requires_grad=True) for a in arrays]


def gcn_layer_check(seed: int):
    """Loss = sum(leaky_relu(adj @ E @ W)); the Tensors are E (4 labels x 3) and W (3 x 2)."""
    rng = np.random.default_rng(seed)
    adj = ad.Tensor(_random_adjacency(rng))
    for _ in range(100):
        e0 = rng.normal(0.0, 1.0, size=(4, 3))
        w0 = rng.normal(0.0, 1.0, size=(3, 2))
        pre = (adj.data @ e0) @ w0
        if np.min(np.abs(pre)) > _KINK_MARGIN:
            break
    e, w = tensors = _leaves(e0, w0)
    return tensors, lambda: ad.tsum(ad.leaky_relu(ad.matmul(ad.matmul(adj, e), w)))


def lc_check(seed: int):
    """Squared-norm loss of a lateral connection of 3 channels and 4 labels over 30 positions.

    All four inputs are Tensors to check: the (30, 3) features, the (4, 3)
    embeddings, the (3, 4) pointwise weight and its (3,) bias.
    """
    rng = np.random.default_rng(seed)
    x0 = rng.normal(0.0, 1.0, size=(30, 3))
    e0 = rng.normal(0.0, 1.0, size=(4, 3))
    w0 = rng.normal(0.0, 1.0, size=(3, 4))
    b0 = rng.normal(0.0, 1.0, size=(3,))
    tensors = _leaves(x0, e0, w0, b0)

    def loss():
        out = lc_core(*tensors)
        return ad.tsum(ad.mul(out, out))

    return tensors, loss


def _kink_margin(model: KssModel, x: np.ndarray, e0: np.ndarray) -> float:
    """Smallest |pre-activation| feeding a LeakyReLU anywhere in the model."""
    pres = []
    model.forward(x, e0, on_preactivation=pres.append)
    return min(float(np.min(np.abs(pre))) for pre in pres)


def full_model_check(seed: int):
    """BCE loss of a tiny two-stage model; the Tensors are every model parameter.

    Four labels, two 8x8 images of two channels.  Inputs are resampled until
    every LeakyReLU pre-activation clears the kink by a safe margin, keeping
    central differences meaningful.
    """
    rng = np.random.default_rng(seed)
    adj = _random_adjacency(rng)
    model = KssModel(
        adjacency=adj,
        n_labels=4,
        embed_dim=3,
        stage_channels=(4, 6),
        gcn_depth=2,
        in_channels=2,
        dropout_rate=0.0,
        seed=seed,
        dtype="float64",
    )
    for _ in range(200):
        x = rng.normal(0.0, 1.0, size=(2, 2, 8, 8))
        e0 = rng.normal(0.0, 1.0, size=(4, 3))
        if _kink_margin(model, x, e0) > _KINK_MARGIN:
            break
    y = (rng.random((2, 4)) < 0.5).astype(np.float64)
    tensors = [p for _, p in model.named_parameters()]
    return tensors, lambda: ad.bce_with_logits(model.forward(x, e0), y)


def run_standard_checks(seed: int) -> dict[str, float]:
    """Gradient-check every component once; returns component -> max relative error."""
    builders = {
        "gcn_layer": gcn_layer_check,
        "lc": lc_check,
        "full_model": full_model_check,
    }
    return {name: grad_check(*builder(seed)) for name, builder in builders.items()}
