"""Seeded gradient-check computations for every differentiable component.

Each builder returns ``(fn, params0)`` where ``fn(params) -> (value, grad)``
evaluates a deterministic scalar loss and its reverse-mode gradient at a
flattened parameter vector; :func:`grad_check` compares that gradient
against central finite differences.  Inputs are drawn so that
activation pre-images stay away from the LeakyReLU kink.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .graph import identity_mix, normalize
from .lateral import lc_core
from .model import KssModel

GRADCHECK_TOLERANCES = {
    "gcn_layer": 1e-5,
    "lc_2d": 1e-5,
    "lc_3d": 1e-5,
    "full_model": 1e-4,
}

_KINK_MARGIN = 1e-3
# The central-difference step of :func:`grad_check`.
_STEP = 1e-6


def grad_check(fn, params: np.ndarray) -> float:
    """Compare a computation's reverse-mode gradient against central differences.

    ``fn(params) -> (value, grad)`` evaluates a deterministic scalar and its
    reverse-mode gradient at a flattened parameter vector.  Returns
    ``max_i |g_ad - g_fd| / max(1, |g_ad|, |g_fd|)``; raises on non-finite
    values.  The computation should be smooth at the evaluation point (keep
    activation inputs away from kinks).
    """
    params = np.asarray(params, dtype=np.float64)
    value, g_ad = fn(params)
    g_ad = np.asarray(g_ad, dtype=np.float64)
    if g_ad.shape != params.shape:
        raise ValueError(f"gradient shape {g_ad.shape} != params shape {params.shape}")
    if not (np.isfinite(value) and np.all(np.isfinite(g_ad))):
        raise ValueError("non-finite value or gradient")
    g_fd = np.empty_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + _STEP
        hi = fn(bumped)[0]
        bumped[i] = params[i] - _STEP
        lo = fn(bumped)[0]
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("non-finite value during finite differencing")
        g_fd[i] = (hi - lo) / (2.0 * _STEP)
    denom = np.maximum(1.0, np.maximum(np.abs(g_ad), np.abs(g_fd)))
    return float(np.max(np.abs(g_ad - g_fd) / denom))


def _random_adjacency(rng: np.random.Generator) -> np.ndarray:
    """A normalized random symmetric adjacency over the four labels of every check."""
    a = rng.random((4, 4))
    a = (a + a.T) / 2
    return normalize(identity_mix(a, 0.6))


def _pack(arrays) -> np.ndarray:
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def _unpack(params: np.ndarray, shapes) -> list[np.ndarray]:
    out = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(params[offset:offset + size].reshape(shape))
        offset += size
    return out


def gcn_layer_check(seed: int):
    """Loss = sum(leaky_relu(adj @ E @ W)); parameters are E (4 labels x 3) and W (3 x 2)."""
    rng = np.random.default_rng(seed)
    adj = ad.Tensor(_random_adjacency(rng))
    shapes = [(4, 3), (3, 2)]
    for _ in range(100):
        e0 = rng.normal(0.0, 1.0, size=shapes[0])
        w0 = rng.normal(0.0, 1.0, size=shapes[1])
        pre = (adj.data @ e0) @ w0
        if np.min(np.abs(pre)) > _KINK_MARGIN:
            break

    def fn(params):
        e_arr, w_arr = _unpack(params, shapes)
        e = ad.Tensor(e_arr, requires_grad=True)
        w = ad.Tensor(w_arr, requires_grad=True)
        out = ad.leaky_relu(ad.matmul(ad.matmul(adj, e), w), 0.2)
        loss = ad.tsum(out)
        loss.backward()
        return float(loss.data), _pack([e.grad, w.grad])

    return fn, _pack([e0, w0])


def _lc_check(seed: int, spatial: tuple[int, ...]):
    """A lateral connection of 3 channels and 4 labels over ``spatial`` positions."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(spatial))
    c = 3
    shapes = [(*spatial, c), (4, c), (c, 4), (c,)]
    x0 = rng.normal(0.0, 1.0, size=shapes[0])
    e0 = rng.normal(0.0, 1.0, size=shapes[1])
    w0 = rng.normal(0.0, 1.0, size=shapes[2])
    b0 = rng.normal(0.0, 1.0, size=shapes[3])

    def fn(params):
        x_arr, e_arr, w_arr, b_arr = _unpack(params, shapes)
        x = ad.Tensor(x_arr.reshape(size, c), requires_grad=True)
        e = ad.Tensor(e_arr, requires_grad=True)
        w = ad.Tensor(w_arr, requires_grad=True)
        b = ad.Tensor(b_arr, requires_grad=True)
        out = lc_core(x, e, w, b)
        loss = ad.tsum(ad.mul(out, out))
        loss.backward()
        return float(loss.data), _pack([x.grad, e.grad, w.grad, b.grad])

    return fn, _pack([x0, e0, w0, b0])


def lc_2d_check(seed: int):
    """Squared-norm loss of a 2D lateral connection; all four inputs are parameters."""
    return _lc_check(seed, spatial=(5, 6))


def lc_3d_check(seed: int):
    """Squared-norm loss of a 3D lateral connection; all four inputs are parameters."""
    return _lc_check(seed, spatial=(2, 4, 5))


def _kink_margin(model: KssModel, x: np.ndarray, e0: np.ndarray) -> float:
    """Smallest |pre-activation| feeding a LeakyReLU anywhere in the model."""
    pres = []
    model.forward(x, e0, on_preactivation=pres.append)
    return min(float(np.min(np.abs(pre))) for pre in pres)


def full_model_check(seed: int):
    """BCE loss of a tiny two-stage model w.r.t. every model parameter.

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
    names = [name for name, _ in model.named_parameters()]
    shapes = [model.param(name).data.shape for name in names]

    def fn(params):
        for name, arr in zip(names, _unpack(params, shapes)):
            model.param(name).data[...] = arr
        model.zero_grad()
        loss = ad.bce_with_logits(model.forward(x, e0), y)
        loss.backward()
        return float(loss.data), _pack([model.param(name).grad for name in names])

    return fn, _pack([model.param(name).data for name in names])


def run_standard_checks(seed: int) -> dict[str, float]:
    """Gradient-check every component once; returns component -> max relative error."""
    builders = {
        "gcn_layer": gcn_layer_check,
        "lc_2d": lc_2d_check,
        "lc_3d": lc_3d_check,
        "full_model": full_model_check,
    }
    results = {}
    for name, builder in builders.items():
        fn, params = builder(seed)
        results[name] = grad_check(fn, params)
    return results
