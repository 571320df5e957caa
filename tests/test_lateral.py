import numpy as np
import numpy.testing as npt
import pytest

import kssnet.autodiff as ad
from kssnet import lateral
from kssnet.checks import grad_check, lc_2d_check, lc_3d_check

import oracles


def lc(x, e, w, b):
    """Lateral connection on one (C, ...) feature map through ``lc_core`` on its (S, C) positions."""
    xf = ad.Tensor(x.reshape(x.shape[0], -1).T)
    out = lateral.lc_core(xf, ad.Tensor(e), ad.Tensor(w), ad.Tensor(b))
    return out.data.T.reshape(x.shape)


def lc_grads(x, e, w, b, upstream):
    """Reverse-mode gradients ``(grad_x, grad_e, grad_w, grad_b)`` for an upstream gradient."""
    xt = ad.Tensor(x.reshape(x.shape[0], -1).T, requires_grad=True)
    et, wt, bt = (ad.Tensor(a, requires_grad=True) for a in (e, w, b))
    out = lateral.lc_core(xt, et, wt, bt)
    ad.tsum(ad.mul(out, ad.Tensor(upstream.reshape(x.shape[0], -1).T))).backward()
    return xt.grad.T.reshape(x.shape), et.grad, wt.grad, bt.grad


def random_weight(c, n, rng):
    return rng.normal(0.0, np.sqrt(2.0 / n), size=(c, n))


class TestForward3d:
    def test_zero_embedding_zero_bias_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 2, 4, 5))
        y = lc(x, np.zeros((7, 3)), random_weight(3, 7, rng), np.zeros(3))
        npt.assert_array_equal(y, x)

    def test_shape_preserved_on_video_sized_map(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(64, 8, 14, 14))
        e = rng.normal(size=(157, 64))
        assert lc(x, e, random_weight(64, 157, rng), np.zeros(64)).shape == (64, 8, 14, 14)

    def test_scalar_hand_case(self):
        y = lc(np.array([[[[2.0]]]]), np.array([[0.0]]), np.array([[3.0]]), np.array([0.5]))
        npt.assert_allclose(y, [[[[2.5]]]], rtol=0, atol=1e-15)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lc(np.zeros((4, 2, 3, 3)), np.zeros((6, 3)), np.zeros((4, 6)), np.zeros(4))

    def test_linear_in_x_structure(self):
        # with fixed sigma(E), the map x -> y is (W sigma(E) + I) x + b per location
        rng = np.random.default_rng(2)
        c, n = 3, 5
        x = rng.normal(size=(c, 1, 2, 2))
        e = rng.normal(size=(n, c))
        w = rng.normal(size=(c, n))
        b = rng.normal(size=c)
        y = lc(x, e, w, b)
        op = w @ np.tanh(e) + np.eye(c)
        expected = np.einsum("cd,dthw->cthw", op, x) + b[:, None, None, None]
        npt.assert_allclose(y, expected, rtol=0, atol=1e-12)


class TestForward2d:
    def test_zero_embedding_zero_bias_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 6, 4))
        npt.assert_array_equal(lc(x, np.zeros((3, 5)), random_weight(5, 3, rng), np.zeros(5)), x)

    def test_image_sized_map_shape(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(256, 56, 56))
        e = rng.normal(size=(80, 256))
        assert lc(x, e, random_weight(256, 80, rng), np.zeros(256)).shape == (256, 56, 56)

    def test_2d_equals_3d_with_singleton_time(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 6, 5))
        e = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        y2 = lc(x, e, w, b)
        y3 = lc(x[:, None], e, w, b)
        npt.assert_array_equal(y3[:, 0], y2)

    def test_spatial_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        c, h, w = 3, 4, 5
        x = rng.normal(size=(c, h, w))
        e = rng.normal(size=(6, c))
        wt = rng.normal(size=(c, 6))
        b = rng.normal(size=c)
        y = lc(x, e, wt, b)
        perm = rng.permutation(h * w)
        x_perm = x.reshape(c, -1)[:, perm].reshape(c, h, w)
        y_perm = lc(x_perm, e, wt, b)
        npt.assert_array_equal(y_perm.reshape(c, -1), y.reshape(c, -1)[:, perm])

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(7)
        c, n = 3, 5
        x = rng.normal(size=(c, 4, 4))
        e = rng.normal(size=(n, c))
        w = rng.normal(size=(c, n))
        perm = rng.permutation(n)
        y = lc(x, e, w, np.zeros(c))
        y_perm = lc(x, e[perm], w[:, perm], np.zeros(c))
        npt.assert_allclose(y_perm, y, rtol=0, atol=1e-12)

    def test_label_permutation_invariance_exact(self):
        # with at most one nonzero conv weight per row the label-dimension
        # contraction never rounds, so invariance must hold bitwise
        rng = np.random.default_rng(7)
        c, n = 3, 5
        x = oracles.dyadic(rng, (c, 4, 4))
        e = oracles.dyadic(rng, (n, c))
        w = np.zeros((c, n))
        for row in range(c):
            w[row, rng.integers(0, n)] = oracles.dyadic(rng, ())
        perm = rng.permutation(n)
        y = lc(x, e, w, np.zeros(c))
        y_perm = lc(x, e[perm], w[:, perm], np.zeros(c))
        npt.assert_array_equal(y_perm, y)


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 4, 4))
        e = rng.normal(size=(5, 3))
        grads = lc_grads(x, e, rng.normal(size=(3, 5)), rng.normal(size=3), np.zeros_like(x))
        for g in grads:
            npt.assert_array_equal(g, np.zeros_like(g))

    def test_residual_branch_passes_upstream(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 2, 2))
        e = rng.normal(size=(4, 3))
        upstream = rng.normal(size=x.shape)
        grads = lc_grads(x, e, np.zeros((3, 4)), np.zeros(3), upstream)
        npt.assert_array_equal(grads[0], upstream)

    def test_matches_finite_differences_2d(self):
        fn, params = lc_2d_check(seed=1)
        assert grad_check(fn, params) <= 1e-5

    def test_matches_finite_differences_3d(self):
        fn, params = lc_3d_check(seed=1)
        assert grad_check(fn, params) <= 1e-5

    def test_backward_against_hand_formulas(self):
        # y[:, p] = (W s + I) x[:, p] + b with s = tanh(E), so the four
        # gradients have closed forms; compare against the engine path.
        rng = np.random.default_rng(10)
        c, n, h, w = 3, 4, 2, 3
        x = rng.normal(size=(c, h, w))
        e = rng.normal(size=(n, c))
        wt = rng.normal(size=(c, n))
        b = rng.normal(size=c)
        up = rng.normal(size=(c, h, w))
        gx, ge, gw, gb = lc_grads(x, e, wt, b, up)

        xf = x.reshape(c, -1)
        uf = up.reshape(c, -1)
        s = np.tanh(e)  # (n, c)
        m = xf.T @ s.T  # (hw, n)
        npt.assert_allclose(gx, ((wt @ s + np.eye(c)).T @ uf).reshape(x.shape),
                            rtol=0, atol=1e-12)
        npt.assert_allclose(gw, uf @ m, rtol=0, atol=1e-12)
        npt.assert_allclose(gb, uf.sum(axis=1), rtol=0, atol=1e-12)
        npt.assert_allclose(ge, ((wt.T @ uf) @ xf.T) * (1 - s * s), rtol=0, atol=1e-12)


class TestParams:
    def test_bias_shape_checked(self):
        with pytest.raises(ValueError):
            lc(np.zeros((2, 3, 3)), np.zeros((3, 2)), np.zeros((2, 3)), np.zeros(3))
