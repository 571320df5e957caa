import numpy as np
import numpy.testing as npt
import pytest

from kssnet import graph, storage, synthetic
from kssnet.ingest import KnowledgeEdgeList

import oracles
from test_ingest import annotation_set


class TestCooccurrence:
    def test_two_samples(self):
        m, counts = graph.cooccurrence_counts(annotation_set(2, [("a", {0, 1}), ("b", {0})]))
        npt.assert_array_equal(m, [[0, 1], [1, 0]])
        npt.assert_array_equal(counts, [2, 1])

    def test_empty_annotation_set(self):
        m, counts = graph.cooccurrence_counts(annotation_set(3, []))
        npt.assert_array_equal(m, np.zeros((3, 3)))
        npt.assert_array_equal(counts, np.zeros(3))

    def test_repeated_pair(self):
        ann = annotation_set(2, [(f"s{i}", {0, 1}) for i in range(3)])
        m, counts = graph.cooccurrence_counts(ann)
        assert m[0, 1] == 3 and m[1, 0] == 3
        npt.assert_array_equal(counts, [3, 3])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            samples = oracles.random_annotation_samples(rng, n, int(rng.integers(0, 20)))
            ann = annotation_set(n, samples)
            m, counts = graph.cooccurrence_counts(ann)
            m_ref, counts_ref = oracles.cooccurrence_oracle(samples, n)
            npt.assert_array_equal(m, m_ref)
            npt.assert_array_equal(counts, counts_ref)
            npt.assert_array_equal(m, m.T)
            assert np.all(np.diag(m) == 0)

    def test_matches_brute_force_across_block_boundaries(self):
        # two full GEMM blocks and a short third, with empty label sets
        rng = np.random.default_rng(1)
        n_samples = 2 * graph._COOC_BLOCK_ROWS + 3
        samples = oracles.random_annotation_samples(rng, 6, n_samples)
        assert any(not labels for _, labels in samples)
        m, counts = graph.cooccurrence_counts(annotation_set(6, samples))
        m_ref, counts_ref = oracles.cooccurrence_oracle(samples, 6)
        assert m.dtype == np.int64 and counts.dtype == np.int64
        npt.assert_array_equal(m, m_ref)
        npt.assert_array_equal(counts, counts_ref)


class TestStatisticalAdjacency:
    def test_hand_case(self):
        m = np.array([[0, 1], [1, 0]])
        a = graph.statistical_adjacency(m, np.array([1, 2]), t=0.4)
        # P(1|0) = 1.0, P(0|1) = 0.5, both >= 0.4
        npt.assert_array_equal(a, [[0, 1], [1, 0]])

    def test_all_zero_counts(self):
        a = graph.statistical_adjacency(np.zeros((2, 2)), np.zeros(2), t=0.4)
        npt.assert_array_equal(a, np.zeros((2, 2)))

    def test_boundary_kept(self):
        m = np.array([[0, 2], [2, 0]])
        a = graph.statistical_adjacency(m, np.array([5, 8]), t=0.4)
        assert a[0, 1] == 1.0  # P = 0.4 exactly, kept by the >= rule
        assert a[1, 0] == 0.0  # P = 0.25

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            samples = oracles.random_annotation_samples(rng, n, int(rng.integers(0, 20)))
            m, counts = oracles.cooccurrence_oracle(samples, n)
            t = float(rng.random())
            mine = graph.statistical_adjacency(m, counts, t)
            npt.assert_array_equal(mine, oracles.statistical_oracle(m, counts, t))

    @pytest.mark.parametrize("n_labels", [8, 16])
    @pytest.mark.parametrize("t", [0.4, 0.88])
    def test_large_sample_matches_true_conditionals(self, n_labels, t):
        # every label occurs in over 70k of 200k samples, so each empirical
        # conditional has a standard error below 0.002: entries 0.02 or more
        # from t must binarise as the planted ones do
        rng = np.random.default_rng(20)
        y = synthetic.sample_label_matrix(200_000, n_labels, rng)
        m, counts = graph.cooccurrence_counts(synthetic.make_annotations(y, n_labels))
        a = graph.statistical_adjacency(m, counts, t)
        truth = synthetic.true_conditionals(n_labels)
        clear = ~np.eye(n_labels, dtype=bool) & (np.abs(truth - t) >= 0.02)
        assert clear.sum() >= n_labels * (n_labels - 1) // 2
        npt.assert_array_equal(a[clear], (truth >= t)[clear])


class TestKnowledgeAdjacency:
    def test_max_over_relations(self):
        edges = KnowledgeEdgeList(2, ((0, 1, "used for", 0.5), (0, 1, "is a", 1.0)))
        a = graph.knowledge_adjacency(edges)
        assert a[0, 1] == 1.0

    def test_absent_pair_is_zero(self):
        a = graph.knowledge_adjacency(KnowledgeEdgeList(2, ()))
        npt.assert_array_equal(a, np.zeros((2, 2)))

    def test_singleton(self):
        a = graph.knowledge_adjacency(KnowledgeEdgeList(2, ((0, 1, "r", 0.7),)))
        assert a[0, 1] == 0.7

    def test_symmetric_by_default(self):
        a = graph.knowledge_adjacency(KnowledgeEdgeList(2, ((0, 1, "r", 0.7),)))
        assert a[1, 0] == 0.7
        npt.assert_array_equal(a, a.T)


class TestNormalize:
    def test_identity_fixed_point(self):
        npt.assert_array_equal(graph.normalize(np.eye(2)), np.eye(2))

    def test_hand_case(self):
        npt.assert_array_equal(
            graph.normalize(np.array([[0.0, 2.0], [2.0, 0.0]])),
            [[0.0, 1.0], [1.0, 0.0]],
        )

    def test_zero_row_stays_zero(self):
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        out = graph.normalize(a)
        npt.assert_array_equal(out[2], np.zeros(3))
        npt.assert_array_equal(out[:, 2], np.zeros(3))

    def test_zero_column_of_asymmetric_input(self):
        out = graph.normalize(np.array([[0.0, 1.0], [0.0, 0.0]]))
        npt.assert_array_equal(out, np.zeros((2, 2)))

    def test_eigenvalues_within_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            a = rng.random((n, n))
            a = (a + a.T) / 2
            vals = np.linalg.eigvalsh(graph.normalize(a))
            assert vals.min() >= -1 - 1e-9 and vals.max() <= 1 + 1e-9

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(3)
        a = rng.random((6, 6))
        a = a + a.T
        out = graph.normalize(a)
        npt.assert_array_equal(out, out.T)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            graph.normalize(np.array([[0.0, -1.0], [1.0, 0.0]]))


class TestSuperimpose:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(4)
        a, b = rng.random((5, 5)), rng.random((5, 5))
        npt.assert_array_equal(graph.superimpose(a, b, 1.0), a)
        npt.assert_array_equal(graph.superimpose(a, b, 0.0), b)

    def test_hand_case(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([[0.0, 0.5], [0.5, 0.0]])
        npt.assert_allclose(graph.superimpose(a, b, 0.4), [[0.0, 0.7], [0.7, 0.0]],
                            rtol=0, atol=1e-15)

    def test_convexity_bounds(self):
        rng = np.random.default_rng(5)
        a, b = rng.random((6, 6)), rng.random((6, 6))
        for lam in (0.1, 0.5, 0.9):
            out = graph.superimpose(a, b, lam)
            assert np.all(out >= np.minimum(a, b) - 1e-15)
            assert np.all(out <= np.maximum(a, b) + 1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            graph.superimpose(np.zeros((2, 2)), np.zeros((3, 3)), 0.5)

    def test_lambda_range_checked(self):
        with pytest.raises(ValueError, match="lam"):
            graph.superimpose(np.zeros((2, 2)), np.zeros((2, 2)), 1.5)


class TestThresholdFilter:
    def test_tau_zero_is_identity(self):
        rng = np.random.default_rng(6)
        a = rng.random((4, 4))
        npt.assert_array_equal(graph.threshold_filter(a, 0.0), a)

    def test_below_threshold_cleared(self):
        a = np.array([[0.15, 0.3], [0.2, 0.05]])
        out = graph.threshold_filter(a, 0.2)
        npt.assert_array_equal(out, [[0.0, 0.3], [0.2, 0.0]])

    def test_boundary_kept(self):
        assert graph.threshold_filter(np.array([[0.2]]), 0.2)[0, 0] == 0.2

    def test_idempotent_and_monotone_nnz(self):
        rng = np.random.default_rng(7)
        a = rng.random((8, 8))
        taus = np.sort(rng.random(5))
        prev_nnz = np.inf
        for tau in taus:
            once = graph.threshold_filter(a, tau)
            npt.assert_array_equal(graph.threshold_filter(once, tau), once)
            nnz = np.count_nonzero(once)
            assert nnz <= prev_nnz
            prev_nnz = nnz


class TestIdentityMix:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(8)
        a = rng.random((4, 4))
        npt.assert_array_equal(graph.identity_mix(a, 1.0), a)
        npt.assert_array_equal(graph.identity_mix(a, 0.0), np.eye(4))

    def test_hand_case(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        npt.assert_allclose(graph.identity_mix(a, 0.4), [[0.6, 0.4], [0.4, 0.6]],
                            rtol=0, atol=1e-15)

    def test_diagonal_and_offdiagonal_structure(self):
        rng = np.random.default_rng(9)
        a = rng.random((5, 5))
        eta = 0.3
        out = graph.identity_mix(a, eta)
        npt.assert_allclose(np.diag(out), eta * np.diag(a) + (1 - eta), rtol=0, atol=1e-15)
        off = ~np.eye(5, dtype=bool)
        npt.assert_array_equal(out[off], eta * a[off])


class TestPipeline:
    def _inputs(self, seed=11, n=5):
        rng = np.random.default_rng(seed)
        samples = oracles.random_annotation_samples(rng, n, 30)
        triples = oracles.random_triples(rng, n, 12)
        return annotation_set(n, samples), KnowledgeEdgeList(n, triples)

    def test_pure_statistical_endpoint(self):
        ann, edges = self._inputs()
        cfg = graph.GraphPipelineConfig(lam=1.0, tau=0.0, eta=1.0)
        a_ks, _ = graph.build_ks_graph(ann, edges, cfg)
        m, counts = graph.cooccurrence_counts(ann)
        expected = graph.normalize(graph.statistical_adjacency(m, counts, 0.4))
        npt.assert_array_equal(a_ks, expected)

    def test_identity_endpoint(self):
        # eta = 0 is how a toy config asks for no graph, whatever the other knobs
        ann, edges = self._inputs()
        eye = np.eye(ann.n_labels)
        for lam, tau, binarize in [(0.0, 0.0, 0.4), (1.0, 0.02, 0.0), (0.4, 0.5, 1.0),
                                   (0.7, 10.0, 0.2)]:
            cfg = graph.GraphPipelineConfig(lam=lam, tau=tau, eta=0.0,
                                            binarize_threshold=binarize)
            a_ks, a_norm = graph.build_ks_graph(ann, edges, cfg)
            npt.assert_array_equal(a_ks, eye, strict=True)
            npt.assert_array_equal(a_norm, eye, strict=True)

    def test_five_label_pipeline_matches_oracle(self):
        ann, edges = self._inputs()
        cfg = graph.GraphPipelineConfig(lam=0.4, tau=0.02, eta=0.4)
        a_ks, a_norm = graph.build_ks_graph(ann, edges, cfg)
        ref_ks, ref_norm = oracles.pipeline_oracle(
            ann.samples, edges.triples, 5, 0.4, 0.02, 0.4, 0.4
        )
        npt.assert_allclose(a_ks, ref_ks, rtol=0, atol=1e-12)
        npt.assert_allclose(a_norm, ref_norm, rtol=0, atol=1e-12)

    def test_vocabulary_size_mismatch_rejected(self):
        ann, _ = self._inputs(n=5)
        edges = KnowledgeEdgeList(4, ())
        with pytest.raises(ValueError, match="mismatch"):
            graph.build_ks_graph(ann, edges)

    def test_permutation_conjugation(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            samples = oracles.random_annotation_samples(rng, n, 25)
            triples = oracles.random_triples(rng, n, 10)
            perm = rng.permutation(n)
            cfg = graph.GraphPipelineConfig(lam=0.4, tau=0.02, eta=0.4)

            base_ks, base_norm = graph.build_ks_graph(
                annotation_set(n, samples), KnowledgeEdgeList(n, triples), cfg
            )
            perm_samples = tuple(
                (sid, frozenset(int(perm[i]) for i in labels)) for sid, labels in samples
            )
            perm_triples = tuple(
                (int(perm[h]), int(perm[t]), r, w) for h, t, r, w in triples
            )
            perm_ks, perm_norm = graph.build_ks_graph(
                annotation_set(n, perm_samples), KnowledgeEdgeList(n, perm_triples), cfg
            )
            p = np.eye(n)[perm]  # row i of P is e_{perm[i]}... see assertion below
            # pipeline(P . data)[perm[i], perm[j]] == pipeline(data)[i, j]
            npt.assert_allclose(perm_ks[np.ix_(perm, perm)], base_ks, rtol=0, atol=1e-12)
            npt.assert_allclose(perm_norm[np.ix_(perm, perm)], base_norm, rtol=0, atol=1e-12)
            assert p.shape == (n, n)

    def test_permutation_conjugation_exact_on_dyadic_counts(self):
        # integer counts and dyadic weights make every pipeline stage exact,
        # so conjugation must hold bitwise
        rng = np.random.default_rng(13)
        n = 6
        samples = oracles.random_annotation_samples(rng, n, 16)
        triples = tuple(
            (h, t, r, float(w)) for (h, t, r, _), w in zip(
                oracles.random_triples(rng, n, 8), oracles.dyadic_nonneg(rng, 8, scale=1)
            )
        )
        cfg = graph.GraphPipelineConfig(lam=0.5, tau=0.0625, eta=0.5)
        base_ks, _ = graph.build_ks_graph(
            annotation_set(n, samples), KnowledgeEdgeList(n, triples), cfg
        )
        perm = rng.permutation(n)
        perm_samples = tuple(
            (sid, frozenset(int(perm[i]) for i in labels)) for sid, labels in samples
        )
        perm_triples = tuple((int(perm[h]), int(perm[t]), r, w) for h, t, r, w in triples)
        perm_ks, _ = graph.build_ks_graph(
            annotation_set(n, perm_samples), KnowledgeEdgeList(n, perm_triples), cfg
        )
        npt.assert_array_equal(perm_ks[np.ix_(perm, perm)], base_ks)

    def test_symmetry_preservation_through_pipeline(self):
        rng = np.random.default_rng(14)
        a = rng.random((6, 6))
        a = a + a.T
        c = rng.random((6, 6))
        b = c + c.T  # second symmetric operand for superimpose
        for op in (
            lambda x: graph.normalize(x),
            lambda x: graph.threshold_filter(x, 0.3),
            lambda x: graph.identity_mix(x, 0.4),
            lambda x: graph.superimpose(x, b, 0.3),
        ):
            out = op(a)
            npt.assert_array_equal(out, out.T)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"lam": -0.1}, {"lam": 1.1}, {"eta": 2.0}, {"tau": -1.0},
        {"binarize_threshold": 1.5},
    ])
    def test_range_validation(self, kwargs):
        with pytest.raises(ValueError):
            graph.GraphPipelineConfig(**kwargs)


class TestSerialization:
    # adjacencies are stored as storage text matrices or as a checkpoint's
    # tensor, and checked on load
    def test_text_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        a = rng.random((7, 7))
        path = tmp_path / "a.txt"
        storage.save_matrix_text(a, path)
        npt.assert_array_equal(graph.check_adjacency(storage.load_matrix_text(path)), a)

    def test_binary_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(16)
        a = rng.random((9, 9))
        path = tmp_path / "a.bin"
        storage.save_checkpoint(path, {}, {"adjacency": a})
        npt.assert_array_equal(storage.load_checkpoint(path)[1]["adjacency"], a)

    def test_binary_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            storage.load_checkpoint(path)

    def test_text_rejects_ragged(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("2 2\n1 0\n1\n")
        with pytest.raises(ValueError, match="expected"):
            storage.load_matrix_text(path)
