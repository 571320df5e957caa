import re
import struct
import zlib
from unittest import mock

import mpmath
import numpy as np
import numpy.testing as npt
import pytest

import kssnet.autodiff as ad
from kssnet import graph, model as km, storage
from kssnet.checks import full_model_check, grad_check
from kssnet.synthetic import LabeledImages, make_dataset

import oracles
from test_autodiff import channels_last, conv_loops


def tiny_adjacency(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    a = (a + a.T) / 2
    return graph.normalize(graph.identity_mix(a, 0.6))


def v2_checkpoint(config: bytes, body: bytes) -> bytes:
    """A version-2 checkpoint, built by hand: ``config``, then ``body`` from the
    tensor count on, then the CRC of both and the header."""
    blob = b"KSNTCKPT" + struct.pack("<II", 2, len(config)) + config + body
    return blob + struct.pack("<I", zlib.crc32(blob))


def param(m, name):
    return dict(m.named_parameters())[name]


def tiny_model(n_labels=8, seed=0, **kwargs):
    defaults = dict(
        adjacency=tiny_adjacency(n_labels, seed),
        n_labels=n_labels,
        embed_dim=4,
        stage_channels=(4, 8),
        gcn_depth=2,
        in_channels=3,
        dropout_rate=0.0,
        seed=seed,
        dtype="float64",
    )
    defaults.update(kwargs)
    return km.KssModel(**defaults)


class TestForward:
    def test_logits_shape(self):
        m = tiny_model()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 8, 8))
        e0 = rng.normal(size=(8, 4))
        assert km.predict(m, x, e0).shape == (2, 8)

    def test_dropout_applies_when_a_generator_is_given(self):
        rng = np.random.default_rng(3)
        x, e0 = rng.normal(size=(4, 3, 8, 8)), rng.normal(size=(8, 4))
        for rate in (0.0, 0.5):
            m = tiny_model(seed=6, dropout_rate=rate)
            plain = m.forward(x, e0).data
            npt.assert_array_equal(plain, km.predict(m, x, e0))
            dropped = m.forward(x, e0, rng=np.random.default_rng(0)).data
            assert np.array_equal(dropped, plain) == (rate == 0.0)

    def test_zero_lc_matches_lc_free_baseline_bitwise(self):
        rng = np.random.default_rng(2)
        with_lc = tiny_model(seed=5)
        without_lc = tiny_model(seed=5, lc_stages=())
        for name, p in with_lc.named_parameters():
            if name.startswith("lc."):
                p.data = np.zeros_like(p.data)
            else:
                npt.assert_array_equal(p.data, param(without_lc, name).data)
        for _ in range(3):
            x = rng.normal(size=(2, 3, 8, 8))
            e0 = rng.normal(size=(8, 4))
            npt.assert_array_equal(
                km.predict(with_lc, x, e0), km.predict(without_lc, x, e0)
            )

    def test_zero_final_embeddings_zero_logits(self):
        m = tiny_model()
        param(m, "gcn.layer1.W").data = np.zeros_like(param(m, "gcn.layer1.W").data)
        rng = np.random.default_rng(3)
        logits = km.predict(m, rng.normal(size=(2, 3, 8, 8)), rng.normal(size=(8, 4)))
        npt.assert_array_equal(logits, np.zeros((2, 8)))

    def test_input_shape_validated(self):
        m = tiny_model()
        with pytest.raises(ValueError, match="expected"):
            m.forward(np.zeros((2, 1, 8, 8)), np.zeros((8, 4)))

    def test_predict_builds_no_graph_and_matches_forward(self):
        m = tiny_model()
        param(m, "lc.0.g.bias").requires_grad = False  # predict must restore a False flag too
        rng = np.random.default_rng(5)
        x, e0 = rng.normal(size=(5, 3, 8, 8)), rng.normal(size=(8, 4))
        with_graph = [m.forward(x[i:i + 2], e0) for i in range(0, 5, 2)]
        assert all(out._parents for out in with_graph)  # a plain forward records the graph
        outputs = []
        forward = m.forward

        def recording_forward(*args, **kwargs):
            outputs.append(forward(*args, **kwargs))
            return outputs[-1]

        with mock.patch.object(m, "forward", recording_forward):
            logits = km.predict(m, x, e0, batch_size=2)
        assert len(outputs) == 3
        assert all(out._parents == () and out._backward is None for out in outputs)
        npt.assert_array_equal(logits, np.concatenate([out.data for out in with_graph]))
        assert {name: p.requires_grad for name, p in m.named_parameters()} == \
            {name: not name.endswith("g.bias") for name, _ in m.named_parameters()}

    def test_predict_restores_requires_grad_after_error(self):
        m = tiny_model()
        flags = {name: p.requires_grad for name, p in m.named_parameters()}
        seen = []

        def failing_forward(*args, **kwargs):
            seen.append([p.requires_grad for _, p in m.named_parameters()])
            raise RuntimeError("boom")

        with mock.patch.object(m, "forward", failing_forward):
            with pytest.raises(RuntimeError, match="boom"):
                km.predict(m, np.zeros((2, 3, 8, 8)), np.zeros((8, 4)))
        assert seen == [[False] * len(flags)]
        assert {name: p.requires_grad for name, p in m.named_parameters()} == flags

    def test_label_permutation_commutes(self):
        rng = np.random.default_rng(4)
        n = 6
        adj = tiny_adjacency(n, seed=7)
        base = tiny_model(n_labels=n, adjacency=adj, seed=9)
        perm = rng.permutation(n)
        permuted = tiny_model(n_labels=n, adjacency=adj[np.ix_(perm, perm)], seed=9)
        state = base.state_dict()
        for name in state:
            if name.startswith("lc.") and name.endswith("weight"):
                state[name] = state[name][:, perm]
        permuted.load_state_dict(state)
        x = rng.normal(size=(3, 3, 8, 8))
        e0 = rng.normal(size=(n, 4))
        logits = km.predict(base, x, e0)
        logits_perm = km.predict(permuted, x, e0[perm])
        npt.assert_allclose(logits_perm[:, np.argsort(perm)], logits, rtol=0, atol=1e-12)

    def test_label_permutation_commutes_exact_on_dyadic_model(self, monkeypatch):
        # dyadic inputs, slope 1/4, and one-nonzero-per-row lateral weights keep
        # every label-dimension contraction rounding-free, so the permutation
        # identity holds bitwise
        monkeypatch.setattr(ad, "_SLOPE", 0.25)
        rng = np.random.default_rng(5)
        n = 6
        adj = oracles.dyadic_nonneg(rng, (n, n), scale=1)
        adj = (adj + adj.T) / 2
        perm = rng.permutation(n)
        base = tiny_model(n_labels=n, adjacency=adj, seed=11)
        permuted = tiny_model(n_labels=n, adjacency=adj[np.ix_(perm, perm)], seed=11)
        state = base.state_dict()
        for name in state:
            if name.startswith("lc.") and name.endswith("weight"):
                w = np.zeros_like(state[name])
                for row in range(w.shape[0]):
                    w[row, rng.integers(0, n)] = oracles.dyadic(rng, ())
                state[name] = w
            else:
                state[name] = oracles.dyadic(rng, state[name].shape, scale=1)
        permuted_state = {
            name: (arr[:, perm] if name.startswith("lc.") and name.endswith("weight") else arr)
            for name, arr in state.items()
        }
        base.load_state_dict(state)
        permuted.load_state_dict(permuted_state)
        x = oracles.dyadic(rng, (2, 3, 8, 8), scale=1)
        e0 = oracles.dyadic(rng, (n, 4), scale=1)
        logits = km.predict(base, x, e0)
        logits_perm = km.predict(permuted, x, e0[perm])
        npt.assert_array_equal(logits_perm[:, np.argsort(perm)], logits)

    def test_full_model_gradient_check(self):
        assert grad_check(*full_model_check(seed=0)) <= 1e-4

    def test_forward_matches_reference_on_the_weight_layout(self):
        # the model is a fixed function of its (O, C, 3, 3) conv weights and
        # (C, N) lateral weights, whatever layout the backbone computes in
        n = 5
        m = tiny_model(n_labels=n, stage_channels=(4, 6, 8), gcn_depth=3, seed=3)
        rng = np.random.default_rng(17)
        for _, p in m.named_parameters():
            p.data = rng.normal(0.0, 0.5, size=p.data.shape)
        assert m.lc_stages == (0, 1)
        x, e0 = rng.normal(size=(2, 3, 8, 8)), rng.normal(size=(n, 4))
        seen, expected = [], []
        logits = m.forward(x, e0, on_preactivation=seen.append).data
        npt.assert_allclose(logits, reference_forward(m, x, e0, expected.append),
                            rtol=0, atol=1e-12)
        # every GCN and backbone activation input, in forward order, the
        # backbone's channels-last
        assert len(seen) == len(expected) == 3 + 3
        for got, want in zip(seen, expected):
            want = channels_last(want) if want.ndim == 4 else want
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)


def reference_forward(m, x, e0, on_preactivation):
    """Logits of a float64 ``KssModel`` on (B, C, H, W) images, position by position."""
    def leaky(a):
        on_preactivation(a)
        return np.where(a >= 0, a, 0.2 * a)

    embeds, e = [], e0
    for layer in range(m.gcn_depth):
        e = leaky(m.adjacency.data @ e @ param(m, f"gcn.layer{layer}.W").data)
        embeds.append(e)
    h = x
    for s in range(len(m.stage_channels)):
        h = leaky(conv_loops(h, param(m, f"backbone.stage{s}.conv.weight").data,
                             param(m, f"backbone.stage{s}.conv.bias").data))
        bs, c, hh, ww = h.shape
        pooled = np.empty((bs, c, hh // 2, ww // 2))
        for i, j in np.ndindex(hh // 2, ww // 2):
            pooled[:, :, i, j] = h[:, :, 2 * i:2 * i + 2, 2 * j:2 * j + 2].mean(axis=(2, 3))
        h = pooled
        if s in m.lc_stages:
            sig = np.tanh(embeds[s - m.stage_offset])  # (N, C)
            w, b = param(m, f"lc.{s}.g.weight").data, param(m, f"lc.{s}.g.bias").data
            out = np.empty_like(h)
            for bi, i, j in np.ndindex(bs, hh // 2, ww // 2):
                v = h[bi, :, i, j]
                out[bi, :, i, j] = w @ (sig @ v) + b + v
            h = out
    return h.mean(axis=(2, 3)) @ embeds[-1].T


def bce_loss(logits, targets):
    return float(ad.bce_with_logits(ad.Tensor(logits), targets).data)


class TestBceLoss:
    def test_zero_logits(self):
        assert bce_loss(np.zeros((2, 3)), np.ones((2, 3))) == pytest.approx(np.log(2.0))

    def test_saturated_logits_finite(self):
        loss = bce_loss(np.array([[1000.0]]), np.array([[1.0]]))
        assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            bce_loss(np.zeros((1, 2)), np.zeros((2, 1)))

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(6)
        z = rng.normal(scale=3.0, size=(2, 3))
        y = (rng.random((2, 3)) < 0.5).astype(float)
        with mpmath.workdps(50):
            total = mpmath.mpf(0)
            for zi, yi in zip(z.ravel(), y.ravel()):
                s = 1 / (1 + mpmath.e ** (-mpmath.mpf(zi)))
                total += -(mpmath.mpf(yi) * mpmath.log(s) + (1 - mpmath.mpf(yi)) * mpmath.log(1 - s))
            expected = float(total / 6)
        assert bce_loss(z, y) == pytest.approx(expected, abs=1e-12)


def small_data(n=120, seed=0):
    data = make_dataset(n_train=n, n_val=40, n_labels=8, size=16, embed_dim=8, seed=seed)
    return data


def small_train_model(data, seed=0, dtype="float32"):
    _, adj = graph.build_ks_graph(data.annotations, data.knowledge_edges,
                                  graph.GraphPipelineConfig())
    return km.KssModel(
        adjacency=adj,
        n_labels=data.n_labels,
        embed_dim=8,
        stage_channels=(8, 16),
        gcn_depth=2,
        dropout_rate=0.25,
        seed=seed,
        dtype=dtype,
    )


class TestTraining:
    def test_zero_epochs_is_noop(self):
        data = small_data()
        m = small_train_model(data)
        before = m.state_dict()
        history = km.train_toy(m, data.train, km.TrainConfig(epochs=0, seed=0))
        assert history == []
        for name, arr in m.state_dict().items():
            npt.assert_array_equal(arr, before[name])

    def test_seeded_determinism_bit_identical(self):
        data = small_data()
        cfg = km.TrainConfig(epochs=2, batch_size=32, seed=3)
        runs = []
        for _ in range(2):
            m = small_train_model(data, seed=3)
            km.train_toy(m, data.train, cfg)
            runs.append(m.state_dict())
        for name in runs[0]:
            npt.assert_array_equal(runs[0][name], runs[1][name])

    def test_loss_decreases_over_first_epochs(self):
        data = small_data(n=240)
        m = small_train_model(data)
        history = km.train_toy(m, data.train, km.TrainConfig(epochs=5, batch_size=32, seed=0))
        losses = [rec["loss"] for rec in history]
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b >= a)
        assert violations <= 1, f"losses not trending down: {losses}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        data = small_data()
        m = small_train_model(data, dtype="float32")
        cfg = km.TrainConfig(epochs=50, batch_size=64, lr=1e12, gcn_lr=1e12, seed=0)
        with pytest.raises(km.TrainingDiverged, match="epoch"):
            km.train_toy(m, data.train, cfg)

    def test_history_records_val_map(self):
        data = small_data()
        m = small_train_model(data)
        history = km.train_toy(m, data.train, km.TrainConfig(epochs=1, batch_size=32, seed=0),
                               val=data.val)
        assert set(history[0]) == {"epoch", "loss", "train_map", "val_map"}

    def test_stop_at_train_map(self):
        data = small_data()
        m = small_train_model(data)
        cfg = km.TrainConfig(epochs=50, batch_size=32, seed=0, stop_at_train_map=0.0)
        history = km.train_toy(m, data.train, cfg)
        assert len(history) == 1  # any mAP >= 0.0 stops after the first epoch

    def test_config_validation(self):
        with pytest.raises(ValueError):
            km.TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            km.TrainConfig(lr=0.0)
        for stop in (float("nan"), float("inf"), -0.1, 1.5):
            with pytest.raises(ValueError, match="stop_at_train_map"):
                km.TrainConfig(stop_at_train_map=stop)
        # dropout and dtype are model settings, validated where they are read
        with pytest.raises(ValueError, match="dropout_rate"):
            tiny_model(dropout_rate=1.0)
        with pytest.raises(ValueError, match="dtype"):
            tiny_model(dtype="float16")
        with pytest.raises(ValueError, match="stage_channels"):
            tiny_model(stage_channels=(4, 0))


def adam_reference_step(cfg, t, name, p, g, m, v):
    """The textbook Adam update with decoupled weight decay, one temporary per operation.

    beta1 = 0.9, beta2 = 0.999 and eps = 1e-8, the constants of ``model``."""
    bc1 = 1.0 - 0.9 ** t
    bc2 = 1.0 - 0.999 ** t
    g = np.asarray(g, dtype=np.float64)
    m = 0.9 * m + (1.0 - 0.9) * g
    v = 0.999 * v + (1.0 - 0.999) * g * g
    update = (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
    lr = cfg.gcn_lr if name.startswith("gcn.") else cfg.lr
    if cfg.weight_decay and not name.endswith(".bias"):
        update = update + cfg.weight_decay * p
    return (p - lr * update).astype(p.dtype), m, v


class TestAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_step_is_bitwise_the_textbook_formula(self, dtype):
        rng = np.random.default_rng(0)
        cfg = km.TrainConfig(lr=0.01, gcn_lr=0.003, weight_decay=1e-3)
        shapes = {"backbone.stage0.conv.weight": (4, 3, 3, 3),
                  "backbone.stage0.conv.bias": (4,), "gcn.layer0.W": (5, 4)}
        params = {n: ad.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                  for n, s in shapes.items()}
        ref = {n: [p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)]
               for n, p in params.items()}
        opt = km.Adam(list(params.items()), cfg)
        for t in range(1, 6):
            for name, p in params.items():
                p.grad = rng.normal(size=p.shape).astype(dtype)
                ref[name] = adam_reference_step(cfg, t, name, ref[name][0], p.grad, *ref[name][1:])
            opt.step()
            for name, p in params.items():
                assert p.data.dtype == dtype
                npt.assert_array_equal(p.data, ref[name][0])
                npt.assert_array_equal(opt.m[name], ref[name][1])
                npt.assert_array_equal(opt.v[name], ref[name][2])

    def test_model_step_is_bitwise_the_textbook_formula(self):
        # a float32 model with lateral connections, whose lc.*.g.bias join
        # the bias group beside the backbone biases
        rng = np.random.default_rng(1)
        m = tiny_model(stage_channels=(4, 8, 12), gcn_depth=3, dtype="float32")
        params = dict(m.named_parameters())
        assert {"lc.0.g.bias", "lc.1.g.bias", "gcn.layer2.W"} <= set(params)
        cfg = km.TrainConfig(lr=0.01, gcn_lr=0.003, weight_decay=1e-3)
        ref = {n: [p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)]
               for n, p in params.items()}
        opt = km.Adam(m.named_parameters(), cfg)
        for t in range(1, 4):
            for name, p in params.items():
                p.grad = rng.normal(size=p.shape).astype(np.float32)
                ref[name] = adam_reference_step(cfg, t, name, ref[name][0], p.grad, *ref[name][1:])
            opt.step()
            for name, p in params.items():
                assert p.data.dtype == np.float32
                npt.assert_array_equal(p.data, ref[name][0])
                npt.assert_array_equal(opt.m[name], ref[name][1])
                npt.assert_array_equal(opt.v[name], ref[name][2])

    def test_float32_train_step_gradients_stay_float32(self):
        data = small_data(n=32)
        m = small_train_model(data, dtype="float32")
        logits = m.forward(data.train.x[:8], data.train.e0, rng=np.random.default_rng(0))
        ad.bce_with_logits(logits, data.train.y[:8].astype(np.float32)).backward()
        for name, p in m.named_parameters():
            assert p.grad is not None and p.grad.dtype == np.float32, name


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        m = tiny_model(seed=13)
        path = tmp_path / "model.ckpt"
        storage.save_checkpoint(path, {}, m.state_dict())
        other = tiny_model(seed=14)
        other.load_state_dict(storage.load_checkpoint(path)[1])
        for name, arr in m.state_dict().items():
            npt.assert_array_equal(other.state_dict()[name], arr)

    def test_tensor_names_follow_convention(self):
        m = km.KssModel(
            adjacency=tiny_adjacency(8),
            n_labels=8, embed_dim=4, stage_channels=(4, 8, 12), gcn_depth=3, seed=0,
        )
        names = set(m.state_dict())
        assert "gcn.layer0.W" in names and "gcn.layer2.W" in names
        assert "lc.0.g.weight" in names and "lc.1.g.bias" in names
        assert "backbone.stage0.conv.weight" in names

    def test_shape_mismatch_rejected(self, tmp_path):
        m = tiny_model()
        path = tmp_path / "model.ckpt"
        storage.save_checkpoint(path, {}, m.state_dict())
        other = tiny_model(stage_channels=(4, 12))
        with pytest.raises(ValueError, match=re.escape("backbone.stage1.conv.weight: shape")):
            other.load_state_dict(storage.load_checkpoint(path)[1])

    def test_bad_last_shape_rejected_before_any_write(self):
        m = tiny_model(seed=13)
        before = m.state_dict()
        state = tiny_model(seed=14).state_dict()
        last = list(state)[-1]
        state[last] = np.zeros(state[last].shape + (1,))
        with pytest.raises(ValueError, match=f"{re.escape(last)}: shape"):
            m.load_state_dict(state)
        after = m.state_dict()
        assert list(after) == list(before)
        for name, arr in before.items():
            npt.assert_array_equal(after[name], arr)

    def test_load_writes_into_the_arrays_adam_steps(self):
        m = tiny_model(seed=13)
        opt = km.Adam(m.named_parameters(), km.TrainConfig())
        state = tiny_model(seed=14).state_dict()
        m.load_state_dict(state)
        for _, p in m.named_parameters():
            p.grad = np.ones(p.shape)
        opt.step()
        for name, arr in m.state_dict().items():
            assert not np.array_equal(arr, state[name]), name

    def test_missing_tensor_rejected(self, tmp_path):
        m = tiny_model()
        state = m.state_dict()
        state.pop("gcn.layer0.W")
        path = tmp_path / "partial.ckpt"
        storage.save_checkpoint(path, {}, state)
        with pytest.raises(ValueError, match=re.escape("missing ['gcn.layer0.W']")):
            m.load_state_dict(storage.load_checkpoint(path)[1])


class TestStorage:
    CONFIG = {"epochs": "3", "stage_channels": "4,8", "name": "café"}

    @classmethod
    def small_checkpoint(cls, path):
        tensors = {"scale": np.array(2.5), "w": np.arange(6.0).reshape(2, 3)}
        storage.save_checkpoint(path, cls.CONFIG, tensors)
        return tensors

    def test_named_tensors_round_trip(self, tmp_path):
        path = tmp_path / "t.ckpt"
        tensors = self.small_checkpoint(path)
        config, loaded = storage.load_checkpoint(path)
        assert config == self.CONFIG and list(config) == list(self.CONFIG)
        assert list(loaded) == list(tensors)
        for name, arr in tensors.items():
            npt.assert_array_equal(loaded[name], arr)
            assert loaded[name].shape == arr.shape

    def test_every_truncation_is_a_value_error_naming_the_file(self, tmp_path):
        full = tmp_path / "full.ckpt"
        self.small_checkpoint(full)
        blob = full.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            with pytest.raises(ValueError, match=str(cut)):
                storage.load_checkpoint(cut)

    def test_repeated_name_rejected(self, tmp_path):
        # the writer takes a dict, so a file with two tensors named "a" is built by hand
        def scalar_a(value):
            return struct.pack("<H", 1) + b"a" + struct.pack("<Bd", 0, value)

        path = tmp_path / "t.ckpt"
        path.write_bytes(v2_checkpoint(b"", struct.pack("<I", 2) + scalar_a(1.0) + scalar_a(2.0)))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: repeated tensor name 'a'"):
            storage.load_checkpoint(path)

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        self.small_checkpoint(path)
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x00")  # the last four bytes are no longer the CRC
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: CRC mismatch"):
            storage.load_checkpoint(path)
        body = blob[:-4] + b"\x00"  # a byte after the last tensor, under a valid CRC
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: 1 trailing bytes"):
            storage.load_checkpoint(path)

    def test_every_byte_change_is_a_value_error_naming_the_file(self, tmp_path):
        full = tmp_path / "full.ckpt"
        self.small_checkpoint(full)
        blob = full.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob)
        loaded = []
        with open(bad, "r+b", buffering=0) as fh:  # rewrites one byte in place per case
            for pos in range(len(blob)):
                for value in range(256):
                    fh.seek(pos)
                    fh.write(bytes([value]))
                    try:
                        storage.load_checkpoint(bad)
                        loaded.append((pos, value))
                    except ValueError as exc:
                        assert str(exc).startswith(f"{bad}: "), exc
                fh.seek(pos)
                fh.write(blob[pos:pos + 1])
        assert loaded == [(pos, byte) for pos, byte in enumerate(blob)]

    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "m.txt"
        for a in (rng.normal(size=(5, 7)), np.zeros((0, 3)), np.zeros((2, 0))):
            storage.save_matrix_text(a, path)
            npt.assert_array_equal(storage.load_matrix_text(path), a, strict=True)

    @pytest.mark.parametrize("header", ["0 -1", "-1 0", "-2 3"])
    def test_negative_matrix_header_rejected(self, tmp_path, header):
        path = tmp_path / "m.txt"
        path.write_text(f"{header}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: bad header {header!r}")):
            storage.load_matrix_text(path)

    def test_config_round_trip(self, tmp_path):
        cfg = {"epochs": "12", "lr": "0.01", "graph": "ks"}
        path = tmp_path / "c.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in cfg.items()))
        assert storage.load_config(path) == cfg

    def test_config_comments_and_errors(self):
        parsed = storage.parse_config_text("a = 1\n# comment\nb = two # trailing\n")
        assert parsed == {"a": "1", "b": "two"}
        with pytest.raises(ValueError, match="duplicate"):
            storage.parse_config_text("a = 1\na = 2\n")
        with pytest.raises(ValueError, match="key = value"):
            storage.parse_config_text("nonsense\n")
