import numpy as np
import numpy.testing as npt
import pytest

import kssnet.autodiff as ad
from kssnet import graph
from kssnet.checks import gcn_layer_check, grad_check, lc_check
from kssnet.model import KssModel

import oracles


def random_normalized_adj(rng, n):
    a = rng.random((n, n))
    a = (a + a.T) / 2
    return graph.normalize(graph.identity_mix(a, 0.6))


def gcn_model(adj, weights):
    """A lateral-connection-free model whose GCN layers carry ``weights``.

    The model needs at least two layers, so a single weight is followed by an
    identity layer whose output the callers ignore.
    """
    weights = [np.asarray(w, dtype=np.float64) for w in weights]
    if len(weights) == 1:
        weights.append(np.eye(weights[0].shape[1]))
    m = KssModel(
        adjacency=adj,
        n_labels=adj.shape[0],
        embed_dim=weights[0].shape[0],
        stage_channels=tuple(w.shape[1] for w in weights),
        gcn_depth=len(weights),
        lc_stages=(),
        dtype="float64",
    )
    params = dict(m.named_parameters())
    for layer, w in enumerate(weights):
        params[f"gcn.layer{layer}.W"].data = w
    return m


def gcn_forward(adj, e, weights):
    """Every GCN layer's output of ``KssModel.embeddings`` as plain arrays."""
    outs = gcn_model(adj, weights).embeddings(e)
    return [o.data for o in outs[:len(weights)]]


def leaky_relu(x):
    return ad.leaky_relu(ad.Tensor(x)).data


class TestLeakyRelu:
    def test_positive_branch(self):
        assert leaky_relu(1.0) == 1.0

    def test_negative_branch(self):
        assert leaky_relu(-1.0) == pytest.approx(-0.2)

    def test_zero_fixed_point(self):
        assert leaky_relu(0.0) == 0.0

    def test_array_input(self):
        npt.assert_allclose(leaky_relu(np.array([-2.0, 3.0])), [-0.4, 3.0])


class TestLayerForward:
    def test_zero_embeddings_propagate_zero(self):
        (out,) = gcn_forward(np.eye(4), np.zeros((4, 3)), [np.ones((3, 2))])
        npt.assert_array_equal(out, np.zeros((4, 2)))

    def test_identity_composition(self):
        rng = np.random.default_rng(0)
        e = np.abs(rng.normal(size=(5, 3)))
        (out,) = gcn_forward(np.eye(5), e, [np.eye(3)])
        npt.assert_array_equal(out, e)

    def test_hand_case(self):
        adj = np.array([[0.6, 0.4], [0.4, 0.6]])
        (out,) = gcn_forward(adj, np.array([[1.0], [0.0]]), [np.array([[1.0]])])
        npt.assert_allclose(out, [[0.6], [0.4]], rtol=0, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        m = gcn_model(np.eye(4), [np.ones((3, 2))])
        with pytest.raises(ValueError):
            m.embeddings(np.zeros((4, 2)))  # embedding width != layer input width
        with pytest.raises(ValueError, match="adjacency shape"):
            KssModel(adjacency=np.eye(3), n_labels=4, embed_dim=3, stage_channels=(2, 2),
                     gcn_depth=2)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            adj = random_normalized_adj(rng, n)
            e = rng.normal(size=(n, 4))
            w = rng.normal(size=(4, 3))
            perm = rng.permutation(n)
            (base,) = gcn_forward(adj, e, [w])
            (permuted,) = gcn_forward(adj[np.ix_(perm, perm)], e[perm], [w])
            npt.assert_allclose(permuted, base[perm], rtol=0, atol=1e-12)


class TestStackForward:
    def test_empty_stack(self):
        # the GCN pathway needs a hidden layer feeding a lateral connection and
        # a classifier layer, so a model without GCN layers is rejected
        for depth in (0, 1):
            with pytest.raises(ValueError, match="gcn_depth"):
                KssModel(adjacency=np.eye(3), n_labels=3, embed_dim=5,
                         stage_channels=(4, 4), gcn_depth=depth)

    def test_wide_channel_schedule(self):
        # the paper's 256..2048 schedule divided by 4 keeps the backbone small
        rng = np.random.default_rng(2)
        adj = random_normalized_adj(rng, 80)
        m = KssModel(adjacency=adj, n_labels=80, embed_dim=300,
                     stage_channels=(64, 128, 256, 512), gcn_depth=4, seed=2)
        outs = m.embeddings(rng.normal(size=(80, 300)))
        assert [o.shape for o in outs] == [(80, 64), (80, 128), (80, 256), (80, 512)]

    def test_two_layer_composition_matches_manual(self):
        rng = np.random.default_rng(3)
        adj = np.array([[0.6, 0.4], [0.4, 0.6]])
        w1 = rng.normal(size=(3, 4))
        w2 = rng.normal(size=(4, 2))
        e0 = rng.normal(size=(2, 3))
        outs = gcn_forward(adj, e0, [w1, w2])
        h1 = (adj @ e0) @ w1
        e1 = np.where(h1 >= 0, h1, 0.2 * h1)
        h2 = (adj @ e1) @ w2
        e2 = np.where(h2 >= 0, h2, 0.2 * h2)
        npt.assert_array_equal(outs[0], e1)
        npt.assert_array_equal(outs[1], e2)

    def test_chain_mismatch_rejected(self):
        m = gcn_model(np.eye(2), [np.ones((3, 4)), np.ones((4, 2))])
        state = m.state_dict()
        state["gcn.layer1.W"] = np.ones((5, 2))
        with pytest.raises(ValueError, match="shape"):
            m.load_state_dict(state)

    def test_identity_adjacency_decouples_nodes(self):
        rng = np.random.default_rng(4)
        weights = [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]
        e0 = rng.normal(size=(5, 3))
        base = gcn_forward(np.eye(5), e0, weights)[-1]
        bumped = e0.copy()
        bumped[3] += 10.0  # only node 3 changes
        out = gcn_forward(np.eye(5), bumped, weights)[-1]
        npt.assert_array_equal(np.delete(out, 3, axis=0), np.delete(base, 3, axis=0))
        assert not np.array_equal(out[3], base[3])

    def test_forward_deterministic(self):
        rng = np.random.default_rng(5)
        adj = random_normalized_adj(rng, 6)
        m = gcn_model(adj, [rng.normal(size=(4, 8)), rng.normal(size=(8, 3))])
        e0 = rng.normal(size=(6, 4))
        a = m.embeddings(e0)
        b = m.embeddings(e0)
        for x, y in zip(a, b):
            npt.assert_array_equal(x.data, y.data)


class TestGradCheck:
    def test_quadratic(self):
        w = ad.Tensor(np.array([3.0]), requires_grad=True)
        assert grad_check([w], lambda: ad.tsum(ad.mul(w, w))) <= 1e-8

    def test_gcn_layer_gradients(self):
        assert grad_check(*gcn_layer_check(seed=0)) <= 1e-5

    def test_lateral_gradients(self):
        assert grad_check(*lc_check(seed=0)) <= 1e-5

    def test_detects_wrong_gradient(self):
        # w * w with a backward of 2w + 0.5
        w = ad.Tensor(np.array([3.0]), requires_grad=True)

        def loss():
            square = ad._node(w.data * w.data, (w,), lambda g: (g * (2.0 * w.data + 0.5),))
            return ad.tsum(square)

        assert grad_check([w], loss) > 1e-2

    def test_non_finite_rejected(self):
        w = ad.Tensor(np.array([1.0]), requires_grad=True)
        nan = ad.Tensor(np.array([np.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            grad_check([w], lambda: ad.tsum(ad.mul(w, nan)))

    def test_base_point_is_left_in_place(self):
        tensors, loss = gcn_layer_check(seed=0)
        before = [t.data.copy() for t in tensors]
        grad_check(tensors, loss)
        for t, b in zip(tensors, before):
            npt.assert_array_equal(t.data, b)


class TestValidation:
    def test_oracle_agreement_on_random_layers(self):
        # the composed matrix product against a plain triple loop, then the
        # LeakyReLU by its definition
        rng = np.random.default_rng(6)
        adj = oracles.dyadic_nonneg(rng, (4, 4))
        e = oracles.dyadic(rng, (4, 3))
        w = oracles.dyadic(rng, (3, 2))
        (mine,) = gcn_forward(adj, e, [w])
        ae = [[sum(adj[i][k] * e[k][j] for k in range(4)) for j in range(3)] for i in range(4)]
        ref = [[sum(ae[i][k] * w[k][j] for k in range(3)) for j in range(2)] for i in range(4)]
        ref = [[v if v >= 0 else 0.2 * v for v in row] for row in ref]
        npt.assert_allclose(mine, ref, rtol=0, atol=1e-12)
