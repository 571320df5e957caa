import numpy as np
import numpy.testing as npt
import pytest

import kssnet.autodiff as ad
from kssnet.checks import grad_check


def scalar_handle(build):
    """Wrap an engine computation into a grad_check handle over one array."""
    def make(shape):
        def fn(params):
            t = ad.Tensor(params.reshape(shape), requires_grad=True)
            loss = build(t)
            loss.backward()
            return float(loss.data), t.grad.reshape(-1)
        return fn
    return make


class TestForward:
    def test_add_mul_broadcasting(self):
        a = ad.Tensor(np.arange(6.0).reshape(2, 3))
        b = ad.Tensor(np.array([1.0, 2.0, 3.0]))
        npt.assert_array_equal(ad.add(a, b).data, a.data + b.data)
        npt.assert_array_equal(ad.mul(a, b).data, a.data * b.data)

    def test_matmul_batched(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 3, 5)), rng.normal(size=(5, 2))
        npt.assert_array_equal(ad.matmul(ad.Tensor(a), ad.Tensor(b)).data, a @ b)

    def test_activations_match_numpy(self):
        x = np.linspace(-3, 3, 13)
        t = ad.Tensor(x)
        npt.assert_array_equal(ad.tanh(t).data, np.tanh(x))
        npt.assert_allclose(ad.sigmoid(t).data, 1 / (1 + np.exp(-x)), rtol=0, atol=1e-15)
        npt.assert_array_equal(ad.leaky_relu(t, 0.2).data, np.where(x >= 0, x, 0.2 * x))
        # the sigmoid is exactly the two-sided form, in both dtypes, at the extremes too
        for dtype in (np.float32, np.float64):
            z = np.array([0.0, -0.0, 1e-30, -1e-30, 0.5, -0.5, 3.0, -3.0,
                          100.0, -100.0, 800.0, -800.0], dtype=dtype)
            pos = z >= 0
            ref = np.empty_like(z)
            ref[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ref[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
            out = ad.sigmoid(ad.Tensor(z)).data
            assert out.dtype == dtype
            npt.assert_array_equal(out.view(np.uint8), ref.view(np.uint8))

    def test_avg_pool(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = ad.avg_pool2d(ad.Tensor(x), 2).data
        npt.assert_array_equal(out, [[[[2.5, 4.5], [10.5, 12.5]]]])

    def test_conv2d_matches_direct_loops(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 5, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), padding=1).data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected = np.zeros_like(out)
        for bi in range(2):
            for o in range(4):
                for i in range(5):
                    for j in range(5):
                        patch = xp[bi, :, i:i + 3, j:j + 3]
                        expected[bi, o, i, j] = np.sum(patch * w[o]) + b[o]
        npt.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_bce_saturation_is_finite(self):
        logits = ad.Tensor(np.array([[1000.0, -1000.0]]))
        loss = ad.bce_with_logits(logits, np.array([[1.0, 0.0]]))
        assert np.isfinite(loss.data) and loss.data == 0.0

    def test_bce_at_zero_logits(self):
        loss = ad.bce_with_logits(ad.Tensor(np.zeros((3, 4))), np.zeros((3, 4)))
        npt.assert_allclose(loss.data, np.log(2.0), rtol=0, atol=1e-15)


class TestGradients:
    @pytest.mark.parametrize("build,shape", [
        (lambda t: ad.tsum(ad.mul(t, t)), (3, 4)),
        (lambda t: ad.tsum(ad.tanh(t)), (5,)),
        (lambda t: ad.tsum(ad.sigmoid(t)), (4, 2)),
        (lambda t: ad.tsum(ad.mul(ad.reshape(t, (2, 6)), ad.reshape(t, (2, 6)))), (3, 4)),
        (lambda t: ad.tmean(ad.mul(t, t), axis=(0, 1)), (2, 5)),
        (lambda t: ad.tsum(ad.swap_last(t)), (2, 3)),
    ])
    def test_elementwise_ops(self, build, shape):
        rng = np.random.default_rng(2)
        fn = scalar_handle(build)(shape)
        params = rng.normal(size=int(np.prod(shape)))
        assert grad_check(fn, params) < 1e-8

    def test_leaky_relu_away_from_kink(self):
        rng = np.random.default_rng(3)
        params = rng.normal(size=12)
        params[np.abs(params) < 0.1] += 0.3
        fn = scalar_handle(lambda t: ad.tsum(ad.leaky_relu(t, 0.2)))((12,))
        assert grad_check(fn, params) < 1e-8

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(4)
        b_const = ad.Tensor(rng.normal(size=(4, 3)))

        def fn(params):
            a = ad.Tensor(params.reshape(2, 4), requires_grad=True)
            loss = ad.tsum(ad.mul(ad.matmul(a, b_const), ad.matmul(a, b_const)))
            loss.backward()
            return float(loss.data), a.grad.reshape(-1)

        assert grad_check(fn, rng.normal(size=8)) < 1e-8

    def test_matmul_broadcast_batch_gradient(self):
        rng = np.random.default_rng(5)
        a_const = ad.Tensor(rng.normal(size=(3, 2, 4)))

        def fn(params):
            b = ad.Tensor(params.reshape(4, 2), requires_grad=True)
            out = ad.matmul(a_const, b)
            loss = ad.tsum(ad.mul(out, out))
            loss.backward()
            return float(loss.data), b.grad.reshape(-1)

        assert grad_check(fn, rng.normal(size=8)) < 1e-8

    def test_conv_and_pool_gradients(self):
        rng = np.random.default_rng(6)
        x_const = rng.normal(size=(2, 2, 4, 4))

        def fn(params):
            w = ad.Tensor(params[:36].reshape(2, 2, 3, 3), requires_grad=True)
            b = ad.Tensor(params[36:].reshape(2), requires_grad=True)
            out = ad.avg_pool2d(ad.conv2d(ad.Tensor(x_const), w, b, padding=1), 2)
            loss = ad.tsum(ad.mul(out, out))
            loss.backward()
            return float(loss.data), np.concatenate([w.grad.ravel(), b.grad.ravel()])

        assert grad_check(fn, rng.normal(size=38)) < 1e-7

    def test_conv_input_gradient(self):
        rng = np.random.default_rng(7)
        w_const = ad.Tensor(rng.normal(size=(3, 2, 3, 3)))

        def fn(params):
            x = ad.Tensor(params.reshape(1, 2, 4, 4), requires_grad=True)
            out = ad.conv2d(x, w_const, None, padding=1)
            loss = ad.tsum(ad.mul(out, out))
            loss.backward()
            return float(loss.data), x.grad.reshape(-1)

        assert grad_check(fn, rng.normal(size=32)) < 1e-7

    def test_bce_gradient(self):
        rng = np.random.default_rng(8)
        y = (rng.random((3, 4)) < 0.5).astype(float)

        def fn(params):
            z = ad.Tensor(params.reshape(3, 4), requires_grad=True)
            loss = ad.bce_with_logits(z, y)
            loss.backward()
            return float(loss.data), z.grad.reshape(-1)

        assert grad_check(fn, rng.normal(size=12)) < 1e-9

    def test_gradient_accumulates_over_reuse(self):
        t = ad.Tensor(np.array([2.0, 3.0]), requires_grad=True)
        loss = ad.tsum(ad.add(ad.mul(t, t), t))  # d/dt (t^2 + t) = 2t + 1
        loss.backward()
        npt.assert_allclose(t.grad, [5.0, 7.0], rtol=0, atol=1e-15)

    def test_backward_with_explicit_upstream(self):
        t = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        out = ad.mul_scalar(t, 3.0)
        upstream = np.array([[1.0, 2.0], [3.0, 4.0]])
        out.backward(upstream)
        npt.assert_array_equal(t.grad, 3.0 * upstream)

    def test_backward_requires_scalar_without_upstream(self):
        t = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.mul_scalar(t, 2.0).backward()

    def test_constants_get_no_gradient(self):
        c = ad.Tensor(np.ones(3))
        t = ad.Tensor(np.ones(3), requires_grad=True)
        ad.tsum(ad.mul(c, t)).backward()
        assert c.grad is None and t.grad is not None


class TestDeterminism:
    def test_forward_bit_identical(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))

        def run():
            out = ad.avg_pool2d(ad.leaky_relu(ad.conv2d(ad.Tensor(x), ad.Tensor(w))), 2)
            return out.data

        npt.assert_array_equal(run(), run())

    def test_float32_dtype_preserved(self):
        x = ad.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        out = ad.tsum(ad.mul(x, x))
        assert out.data.dtype == np.float32
        out.backward()
        assert x.grad.dtype == np.float32
