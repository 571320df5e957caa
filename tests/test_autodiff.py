from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import kssnet.autodiff as ad
from kssnet.checks import grad_check


def leaf(a):
    return ad.Tensor(a, requires_grad=True)


def squared_norm(out):
    return ad.tsum(ad.mul(out, out))


# (B, C, H, W, O) of 3x3 convolutions on maps with at least 9 positions
# (the im2col path): square and H != W maps, one channel, one sample.
CONV_SHAPES = [
    (2, 3, 5, 5, 4),
    (2, 2, 4, 6, 3),
    (1, 1, 5, 3, 2),
    (2, 3, 3, 3, 2),
    (1, 2, 3, 4, 3),
    (2, 1, 6, 5, 2),
]


def conv_inputs(rng, shape):
    bs, c, h, w, o = shape
    return rng.normal(size=(bs, c, h, w)), rng.normal(size=(o, c, 3, 3)), rng.normal(size=o)


def channels_last(a):
    """(B, C, H, W) -> the (B, H, W, C) layout of ``conv2d`` and ``avg_pool2d``."""
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


# (H, W) of maps with fewer positions than a 3x3 kernel has taps, which
# ``conv2d`` runs through its dense path.
DENSE_CASES = [(1, 1), (1, 2), (2, 2), (2, 3)]


def pool_of_leaky_relu(x, slope, g):
    """The 2x2 average pool of ``leaky_relu(x, slope)`` and its input gradient for
    upstream ``g``, each computed on whole arrays, in the order of operations
    ``autodiff`` uses."""
    a = np.where(x >= 0, x, x * slope)
    out = a[:, ::2, ::2].copy()
    for u, v in np.ndindex(2, 2):
        if u or v:
            out += a[:, u::2, v::2]
    out /= 4
    spread = np.repeat(np.repeat(g / 4, 2, axis=2), 2, axis=1)
    return out, spread * np.where(x >= 0, x.dtype.type(1), x.dtype.type(slope))


def conv_loops(x, w, b):
    """3x3, stride-1, padding-1 convolution by its definition, one output element at a time."""
    bs, _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((bs, w.shape[0], h, wd))
    for bi, oi, i, j in np.ndindex(*out.shape):
        out[bi, oi, i, j] = np.sum(xp[bi, :, i:i + 3, j:j + 3] * w[oi]) + b[oi]
    return out


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
        npt.assert_allclose(ad._sigmoid(x), 1 / (1 + np.exp(-x)), rtol=0, atol=1e-15)
        npt.assert_array_equal(ad.leaky_relu(t).data, np.where(x >= 0, x, ad._SLOPE * x))
        # the sigmoid is exactly the two-sided form, in both dtypes, at the extremes too
        for dtype in (np.float32, np.float64):
            z = np.array([0.0, -0.0, 1e-30, -1e-30, 0.5, -0.5, 3.0, -3.0,
                          100.0, -100.0, 800.0, -800.0], dtype=dtype)
            pos = z >= 0
            ref = np.empty_like(z)
            ref[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ref[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
            out = ad._sigmoid(z)
            assert out.dtype == dtype
            npt.assert_array_equal(out.view(np.uint8), ref.view(np.uint8))

    def test_avg_pool(self, monkeypatch):
        # slope 1 makes the activation the identity
        monkeypatch.setattr(ad, "_SLOPE", 1.0)
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = ad.avg_pool2d(ad.Tensor(channels_last(x))).data
        npt.assert_array_equal(out, channels_last(np.array([[[[2.5, 4.5], [10.5, 12.5]]]])))
        # a non-square input, against the window means
        x = np.random.default_rng(11).normal(size=(2, 3, 6, 8))
        out = ad.avg_pool2d(ad.Tensor(channels_last(x))).data
        expected = np.zeros((2, 3, 3, 4))
        for i, j in np.ndindex(3, 4):
            expected[:, :, i, j] = x[:, :, 2 * i:2 * i + 2, 2 * j:2 * j + 2].mean(axis=(2, 3))
        npt.assert_allclose(out, channels_last(expected), rtol=0, atol=1e-14)

    def test_conv2d_matches_direct_loops(self):
        rng = np.random.default_rng(1)
        for shape in CONV_SHAPES:
            x, w, b = conv_inputs(rng, shape)
            out = ad.conv2d(ad.Tensor(channels_last(x)), ad.Tensor(w), ad.Tensor(b)).data
            npt.assert_allclose(out, channels_last(conv_loops(x, w, b)), rtol=0,
                                atol=1e-12, err_msg=f"(B, C, H, W, O) = {shape}")

    @pytest.mark.parametrize("rows", [1, 30])
    def test_conv2d_blocks_match_direct_loops(self, rows, monkeypatch):
        # blocks of 1 sample, and of 1, 2 or 3 samples depending on H * W, so
        # the forward crosses block boundaries and ends on a short block
        monkeypatch.setattr(ad, "_CONV_BLOCK_ROWS", rows)
        rng = np.random.default_rng(16)
        for shape in CONV_SHAPES:
            x, w, b = conv_inputs(rng, (5, *shape[1:]))
            out = ad.conv2d(ad.Tensor(channels_last(x)), ad.Tensor(w), ad.Tensor(b)).data
            npt.assert_allclose(out, channels_last(conv_loops(x, w, b)), rtol=0,
                                atol=1e-12, err_msg=f"(B, C, H, W, O) = {shape}")

    @pytest.mark.parametrize("h,w", DENSE_CASES)
    def test_conv2d_dense_path_matches_direct_loops(self, h, w, monkeypatch):
        def no_im2col(*args):
            raise AssertionError("a map smaller than the kernel took the im2col path")

        monkeypatch.setattr(ad, "_conv_im2col", no_im2col)
        x, wt, b = conv_inputs(np.random.default_rng(17), (3, 2, h, w, 4))
        out = ad.conv2d(ad.Tensor(channels_last(x)), ad.Tensor(wt), ad.Tensor(b)).data
        assert out.flags.c_contiguous
        npt.assert_allclose(out, channels_last(conv_loops(x, wt, b)), rtol=0, atol=1e-12)

    def test_conv2d_rejects_what_it_cannot_compute(self):
        x, w = ad.Tensor(channels_last(np.ones((1, 2, 3, 3)))), ad.Tensor(np.ones((4, 2, 3, 3)))
        b = ad.Tensor(np.ones(4))
        with pytest.raises(ValueError, match="bias shape"):
            ad.conv2d(x, w, ad.Tensor(np.ones(1)))
        for kernel in [(5, 5), (1, 1), (3, 1)]:
            with pytest.raises(ValueError, match="is not 3x3"):
                ad.conv2d(x, ad.Tensor(np.ones((4, 2, *kernel))), b)
        with pytest.raises(ValueError, match="channel mismatch"):
            ad.conv2d(x, ad.Tensor(np.ones((4, 3, 3, 3))), b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv2d_output_is_contiguous_in_input_dtype(self, dtype):
        rng = np.random.default_rng(10)
        for shape in CONV_SHAPES:
            x, w, b = conv_inputs(rng, shape)
            x, w, b = (ad.Tensor(a.astype(dtype), requires_grad=True)
                       for a in (channels_last(x), w, b))
            out = ad.conv2d(x, w, b)
            assert out.data.dtype == dtype and out.data.flags.c_contiguous
            ad.tsum(out).backward()
            for t in (x, w, b):
                assert t.grad.dtype == dtype and t.grad.shape == t.shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.2, 1.0, 0.25, 1e-3])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_leaky_relu_bitwise_equals_where(self, monkeypatch, slope, dtype):
        monkeypatch.setattr(ad, "_SLOPE", slope)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-30, -1e-30, 2.5, -2.5]
        x = np.concatenate([special, np.random.default_rng(12).normal(size=100), special])
        x = x.astype(dtype)
        t = ad.Tensor(x, requires_grad=True)
        out = ad.leaky_relu(t)
        ref = np.where(x >= 0, x, slope * x)
        assert out.data.dtype == dtype
        npt.assert_array_equal(out.data.view(np.uint8), ref.view(np.uint8))
        g = np.random.default_rng(13).normal(size=x.shape).astype(dtype)
        ad.tsum(ad.mul(out, ad.Tensor(g))).backward()  # seeds the gradient g at out
        ref_grad = g * np.where(x >= 0, dtype(1), dtype(slope))
        assert t.grad.dtype == dtype
        npt.assert_array_equal(t.grad.view(np.uint8), ref_grad.view(np.uint8))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_slope_factor_bits_equal_where_across_the_unit_interval(self, monkeypatch, dtype):
        # every slope in (0, 1], subnormal, rounding to 0 or to 1 in float32,
        # and one just below 1 included
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-30, -1e-30, 2.5, -2.5]
        x = np.concatenate([special, np.random.default_rng(14).normal(size=50)]).astype(dtype)
        tiny = float(np.finfo(dtype).smallest_subnormal)
        slopes = [tiny, 1e-300, 1e-45, 1e-3, 0.2, 0.25, np.nextafter(1.0, 0.0), 1.0,
                  *np.random.default_rng(15).uniform(0, 1, size=20)]
        with np.errstate(invalid="ignore"):
            for slope in slopes:
                monkeypatch.setattr(ad, "_SLOPE", slope)
                factor = ad._leaky_relu_slopes(x, np.empty_like(x))
                ref = np.where(x >= 0, dtype(1), dtype(slope))
                assert factor.dtype == dtype
                npt.assert_array_equal(factor.view(np.uint8), ref.view(np.uint8))

    def test_slope_lies_in_unit_interval(self):
        # the bit tricks of _leaky_relu_into and _leaky_relu_slopes need it
        assert 0 < ad._SLOPE <= 1

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_pool_of_leaky_relu_bitwise_equals_the_oracle(self, data):
        k = 2
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        slope = data.draw(st.sampled_from([0.2, 1.0, 0.25, 1e-3]))
        shape = (data.draw(st.integers(1, 5)), k * data.draw(st.integers(1, 3)),
                 k * data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
        size = int(np.prod(shape))
        values = st.one_of(st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf]),
                           st.floats(-10, 10))
        x = np.array(data.draw(st.lists(values, min_size=size, max_size=size)),
                     dtype=dtype).reshape(shape)
        pooled = (shape[0], shape[1] // k, shape[2] // k, shape[3])
        g = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=int(np.prod(pooled)),
                                        max_size=int(np.prod(pooled)))),
                     dtype=dtype).reshape(pooled)
        # blocks of one to three samples, the last one short or not
        per_sample = size // shape[0]
        budget = data.draw(st.integers(1, 4 * per_sample - 1))

        with np.errstate(all="ignore"), mock.patch.object(ad, "_POOL_BLOCK_ELEMS", budget), \
                mock.patch.object(ad, "_SLOPE", slope):
            t = ad.Tensor(x, requires_grad=True)
            out = ad.avg_pool2d(t)
            ad.tsum(ad.mul(out, ad.Tensor(g))).backward()
            out, grad = out.data, t.grad
            ref_out, ref_grad = pool_of_leaky_relu(x, slope, g)
        assert out.dtype == grad.dtype == dtype
        # Against whole arrays, a NaN may carry another sign: which NaN the
        # sum of a NaN and a NaN of the other sign is depends on numpy's loop.
        nan = np.isnan(ref_out)
        npt.assert_array_equal(np.isnan(out), nan)
        npt.assert_array_equal(out[~nan].view(np.uint8), ref_out[~nan].view(np.uint8))
        npt.assert_array_equal(grad.view(np.uint8), ref_grad.view(np.uint8))

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
        (lambda t: ad.tsum(ad.mul(ad.reshape(t, (2, 6)), ad.reshape(t, (2, 6)))), (3, 4)),
        (lambda t: ad.tsum(ad.tmean(ad.mul(t, t))), (2, 2, 3, 2)),
        (lambda t: ad.tsum(ad.swap_last(t)), (2, 3)),
    ])
    def test_elementwise_ops(self, build, shape):
        rng = np.random.default_rng(2)
        t = leaf(rng.normal(size=shape))
        assert grad_check([t], lambda: build(t)) < 1e-8

    def test_leaky_relu_away_from_kink(self):
        rng = np.random.default_rng(3)
        params = rng.normal(size=12)
        params[np.abs(params) < 0.1] += 0.3
        t = leaf(params)
        assert grad_check([t], lambda: ad.tsum(ad.leaky_relu(t))) < 1e-8

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(4)
        b_const = ad.Tensor(rng.normal(size=(4, 3)))
        a = leaf(rng.normal(size=(2, 4)))
        assert grad_check([a], lambda: ad.tsum(ad.mul(ad.matmul(a, b_const),
                                                     ad.matmul(a, b_const)))) < 1e-8

    def test_matmul_broadcast_batch_gradient(self):
        rng = np.random.default_rng(5)
        a_const = ad.Tensor(rng.normal(size=(3, 2, 4)))
        b = leaf(rng.normal(size=(4, 2)))
        assert grad_check([b], lambda: squared_norm(ad.matmul(a_const, b))) < 1e-8

    def test_conv_and_pool_gradients(self, monkeypatch):
        monkeypatch.setattr(ad, "_SLOPE", 1.0)  # no kink for the central differences
        rng = np.random.default_rng(6)
        x_const = ad.Tensor(channels_last(rng.normal(size=(2, 2, 4, 4))))
        params = rng.normal(size=38)
        w, b = leaf(params[:36].reshape(2, 2, 3, 3)), leaf(params[36:])
        assert grad_check([w, b], lambda: squared_norm(
            ad.avg_pool2d(ad.conv2d(x_const, w, b)))) < 1e-7

    def test_conv_input_gradient(self):
        rng = np.random.default_rng(7)
        w_const = ad.Tensor(rng.normal(size=(3, 2, 3, 3)))
        b_const = ad.Tensor(rng.normal(size=3))
        x = leaf(rng.normal(size=(1, 4, 4, 2)))
        assert grad_check([x], lambda: squared_norm(ad.conv2d(x, w_const, b_const))) < 1e-7

    @pytest.mark.parametrize("h,w", [(2, 2), (2, 3), (1, 2)])
    def test_conv_dense_path_gradients(self, h, w):
        rng = np.random.default_rng(18)
        x0, w0, b0 = conv_inputs(rng, (2, 3, h, w, 2))
        x0, b = channels_last(x0), ad.Tensor(b0)
        x, w_const = leaf(x0), ad.Tensor(w0)
        assert grad_check([x], lambda: squared_norm(ad.conv2d(x, w_const, b))) < 1e-7
        x_const, wt = ad.Tensor(x0), leaf(w0)
        assert grad_check([wt], lambda: squared_norm(ad.conv2d(x_const, wt, b))) < 1e-7

    def test_bce_gradient(self):
        rng = np.random.default_rng(8)
        y = (rng.random((3, 4)) < 0.5).astype(float)
        z = leaf(rng.normal(size=(3, 4)))
        assert grad_check([z], lambda: ad.bce_with_logits(z, y)) < 1e-9

    def test_gradient_accumulates_over_reuse(self):
        t = ad.Tensor(np.array([2.0, 3.0]), requires_grad=True)
        loss = ad.tsum(ad.add(ad.mul(t, t), t))  # d/dt (t^2 + t) = 2t + 1
        loss.backward()
        npt.assert_allclose(t.grad, [5.0, 7.0], rtol=0, atol=1e-15)

    def test_backward_with_explicit_upstream(self):
        # an upstream gradient g at a non-scalar output is seeded by tsum(mul(out, g))
        t = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        out = ad.mul_scalar(t, 3.0)
        upstream = np.array([[1.0, 2.0], [3.0, 4.0]])
        ad.tsum(ad.mul(out, ad.Tensor(upstream))).backward()
        npt.assert_array_equal(out.grad, upstream)
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
        x = channels_last(rng.normal(size=(2, 3, 8, 8)))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)

        def run():
            out = ad.avg_pool2d(ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)))
            return out.data

        npt.assert_array_equal(run(), run())

    def test_float32_backbone_gradients_stay_float32(self):
        rng = np.random.default_rng(15)
        x, w, b = conv_inputs(rng, (2, 3, 8, 8, 4))
        x, w, b = (ad.Tensor(a.astype(np.float32), requires_grad=True)
                   for a in (channels_last(x), w, b))
        out = ad.avg_pool2d(ad.conv2d(x, w, b))
        ad.tsum(ad.mul(out, out)).backward()
        for t in (x, w, b):
            assert t.grad.dtype == np.float32

    def test_float32_dtype_preserved(self):
        x = ad.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        out = ad.tsum(ad.mul(x, x))
        assert out.data.dtype == np.float32
        out.backward()
        assert x.grad.dtype == np.float32
