import dataclasses
import gc

import numpy as np
import numpy.testing as npt
import pytest

from kssnet import ingest


@pytest.fixture
def vocab():
    return ingest.LabelVocabulary(("dog", "cat"))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestVocabulary:
    def test_order_defines_indices(self, tmp_path):
        path = write(tmp_path, "v.txt", "dog\ncat\n")
        vocab = ingest.load_vocabulary(path)
        assert len(vocab) == 2
        assert vocab.index == {"dog": 0, "cat": 1}

    def test_duplicate_label_rejected(self, tmp_path):
        path = write(tmp_path, "v.txt", "dog\ndog\n")
        with pytest.raises(ingest.FormatError, match="duplicate"):
            ingest.load_vocabulary(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "v.txt", "")
        with pytest.raises(ingest.FormatError):
            ingest.load_vocabulary(path)

    def test_eighty_label_file(self, tmp_path):
        names = [f"label {i}" for i in range(80)]
        path = write(tmp_path, "v.txt", "".join(f"{n}\n" for n in names))
        vocab = ingest.load_vocabulary(path)
        assert len(vocab) == 80
        assert vocab.names == tuple(names)

    def test_round_trip(self, tmp_path):
        vocab = ingest.LabelVocabulary(("sports ball", "tennis racket", "dog"))
        path = write(tmp_path, "v.txt", "sports ball\ntennis racket\ndog\n")
        assert ingest.load_vocabulary(path) == vocab


class TestAnnotations:
    def test_direct_mapping(self, tmp_path, vocab):
        path = write(tmp_path, "a.txt", "img1 dog cat\n")
        ann = ingest.load_annotations(path, vocab)
        assert ann.samples == (("img1", frozenset({0, 1})),)

    def test_unknown_label_lists_offenders(self, tmp_path, vocab):
        path = write(tmp_path, "a.txt", "img1 horse\nimg2 mouse\n")
        with pytest.raises(ingest.FormatError) as excinfo:
            ingest.load_annotations(path, vocab)
        assert "horse" in str(excinfo.value) and "mouse" in str(excinfo.value)

    def test_empty_label_set_flagged_not_rejected(self, tmp_path, vocab):
        path = write(tmp_path, "a.txt", "img1 dog\nimg2\n")
        ann = ingest.load_annotations(path, vocab)
        assert len(ann) == 2
        assert ann.samples[1] == ("img2", frozenset())

    def test_duplicate_sample_id_rejected(self, tmp_path, vocab):
        path = write(tmp_path, "a.txt", "img1 dog\nimg1 cat\n")
        with pytest.raises(ingest.FormatError, match="duplicate sample_id"):
            ingest.load_annotations(path, vocab)

    def test_multiword_names_use_underscores(self, tmp_path):
        vocab = ingest.LabelVocabulary(("sports ball", "dog"))
        path = write(tmp_path, "a.txt", "img1 sports_ball dog\n")
        ann = ingest.load_annotations(path, vocab)
        assert ann.samples[0][1] == frozenset({0, 1})

    def test_round_trip(self, tmp_path):
        vocab = ingest.LabelVocabulary(("sports ball", "dog", "cat"))
        ann = ingest.AnnotationSet(3, (
            ("img1", frozenset({0, 2})),
            ("img2", frozenset()),
            ("img3", frozenset({1})),
        ))
        path = write(tmp_path, "a.txt", "img1 sports_ball cat\nimg2\nimg3 dog\n")
        assert ingest.load_annotations(path, vocab) == ann

    def test_csr_rows_are_sorted_without_repeats(self, tmp_path, vocab):
        path = write(tmp_path, "a.txt", "img1 cat dog cat\nimg2\n\nimg3 dog\n")
        ann = ingest.load_annotations(path, vocab)
        assert ann.sample_ids == ("img1", "img2", "img3")
        npt.assert_array_equal(ann.indptr, [0, 2, 2, 3])
        npt.assert_array_equal(ann.indices, [0, 1, 0])
        assert ann.indptr.dtype == np.intp and ann.indices.dtype == np.intp
        assert ann.samples == (("img1", frozenset({0, 1})), ("img2", frozenset()),
                               ("img3", frozenset({0})))

    def test_from_rows_equals_sample_constructor(self):
        samples = (("a", frozenset({2, 0})), ("b", frozenset()), ("c", frozenset({1})))
        ann = ingest.AnnotationSet(3, samples)
        # labels in any order, repeats allowed
        rows = ingest.AnnotationSet.from_rows(3, ["a", "b", "c"], [4, 0, 2], [2, 0, 2, 2, 1, 1])
        assert rows == ann and hash(rows) == hash(ann)
        assert rows.samples == samples
        assert rows != ingest.AnnotationSet(4, samples)
        assert rows != ingest.AnnotationSet(3, samples[:2] + (("c", frozenset({2})),))

    def test_immutable(self):
        ann = ingest.AnnotationSet(2, (("a", frozenset({1})),))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ann.n_labels = 3
        for array in (ann.indptr, ann.indices):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_invalid_sets_rejected_in_sample_order(self):
        with pytest.raises(ingest.FormatError, match="n_labels must be >= 1"):
            ingest.AnnotationSet(0, ())
        with pytest.raises(ingest.FormatError, match=r"duplicate sample_id 'a'"):
            ingest.AnnotationSet(2, (("a", frozenset()), ("b", frozenset()), ("a", {1})))
        for bad in (2, -1):
            for later_duplicate in ((), (("a", {1}),)):
                with pytest.raises(ingest.FormatError,
                                   match=rf"sample 'b': label index {bad} outside \[0, 2\)"):
                    ingest.AnnotationSet(2, (("a", {0}), ("b", {1, bad})) + later_duplicate)
        with pytest.raises(ingest.FormatError, match="duplicate sample_id 'a'"):
            ingest.AnnotationSet(2, (("a", {0}), ("a", {0}), ("b", {5})))
        with pytest.raises(ValueError, match="lengths"):
            ingest.AnnotationSet.from_rows(2, ["a"], [2], [0])

    def test_large_load_needs_no_full_collection(self, tmp_path):
        # one container kept alive per sample would make a 50k-line load run
        # the cyclic collector over the whole heap
        vocab = ingest.LabelVocabulary(tuple(f"label {i}" for i in range(80)))
        y = np.random.default_rng(0).random((50_000, 80)) < 0.04
        ann = ingest.AnnotationSet.from_rows(80, [f"img{i:06d}" for i in range(len(y))],
                                             y.sum(axis=1), np.nonzero(y)[1])
        path = write(tmp_path, "a.txt", "".join(
            " ".join([f"img{i:06d}", *(f"label_{j}" for j in np.flatnonzero(row))]) + "\n"
            for i, row in enumerate(y)))
        generations = []

        def record(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.collect()
        gc.callbacks.append(record)
        try:
            loaded = ingest.load_annotations(path, vocab)
        finally:
            gc.callbacks.remove(record)
        assert 2 not in generations
        assert loaded == ann


class TestKnowledgeEdges:
    def test_direct_mapping(self, tmp_path):
        vocab = ingest.LabelVocabulary(("ball", "tennis"))
        path = write(tmp_path, "k.tsv", "ball\tused for\ttennis\t0.8\n")
        edges = ingest.load_knowledge_edges(path, vocab)
        assert edges.triples == ((0, 1, "used for", 0.8),)
        assert edges.dropped == 0

    def test_unknown_endpoint_dropped_with_count(self, tmp_path, vocab):
        text = "dog\tis a\tcat\t1.0\ndog\tused for\thunting\t0.5\n"
        path = write(tmp_path, "k.tsv", text)
        edges = ingest.load_knowledge_edges(path, vocab)
        assert len(edges) == 1
        assert edges.dropped == 1

    def test_negative_weight_rejected(self, tmp_path, vocab):
        path = write(tmp_path, "k.tsv", "dog\tis a\tcat\t-1\n")
        with pytest.raises(ingest.FormatError, match="weight"):
            ingest.load_knowledge_edges(path, vocab)

    def test_malformed_record_rejected(self, tmp_path, vocab):
        path = write(tmp_path, "k.tsv", "dog\tis a\tcat\n")
        with pytest.raises(ingest.FormatError, match="4 tab-separated"):
            ingest.load_knowledge_edges(path, vocab)

    def test_multiple_triples_per_pair_kept(self, tmp_path, vocab):
        text = "dog\tis a\tcat\t1.0\ndog\trelated to\tcat\t0.5\n"
        path = write(tmp_path, "k.tsv", text)
        edges = ingest.load_knowledge_edges(path, vocab)
        assert len(edges) == 2

    def test_round_trip(self, tmp_path):
        vocab = ingest.LabelVocabulary(("sports ball", "tennis racket"))
        edges = ingest.KnowledgeEdgeList(2, ((0, 1, "used for", 0.8125), (1, 0, "is a", 1.0)))
        path = write(tmp_path, "k.tsv", "sports ball\tused for\ttennis racket\t0.8125\n"
                                        "tennis racket\tis a\tsports ball\t1.0\n")
        assert ingest.load_knowledge_edges(path, vocab) == edges


class TestEmbeddings:
    def test_single_word_identity(self):
        table = ingest.EmbeddingTable(2, {"dog": np.array([1.0, 2.0])})
        vocab = ingest.LabelVocabulary(("dog",))
        npt.assert_array_equal(ingest.build_initial_embeddings(table, vocab), [[1.0, 2.0]])

    def test_multiword_mean(self):
        table = ingest.EmbeddingTable(2, {
            "sports": np.array([2.0, 0.0]), "ball": np.array([0.0, 2.0]),
        })
        vocab = ingest.LabelVocabulary(("sports ball",))
        npt.assert_array_equal(ingest.build_initial_embeddings(table, vocab), [[1.0, 1.0]])

    def test_word_order_invariance(self):
        rng = np.random.default_rng(3)
        table = ingest.EmbeddingTable(4, {
            "red": rng.normal(size=4), "fire": rng.normal(size=4),
        })
        a = ingest.build_initial_embeddings(table, ingest.LabelVocabulary(("red fire",)))
        b = ingest.build_initial_embeddings(table, ingest.LabelVocabulary(("fire red",)))
        npt.assert_array_equal(a, b)

    def test_row_depends_only_on_own_words(self):
        rng = np.random.default_rng(4)
        rows = {w: rng.normal(size=3) for w in ("dog", "cat", "bird")}
        vocab = ingest.LabelVocabulary(("dog", "cat"))
        before = ingest.build_initial_embeddings(ingest.EmbeddingTable(3, rows), vocab)
        perturbed = dict(rows, bird=rows["bird"] + 100.0, cat=rows["cat"] - 1.0)
        after = ingest.build_initial_embeddings(ingest.EmbeddingTable(3, perturbed), vocab)
        npt.assert_array_equal(before[0], after[0])
        assert not np.array_equal(before[1], after[1])

    def test_hyphen_and_case_tokenization(self):
        assert ingest.tokenize_label("Tennis-Racket") == ["tennis", "racket"]
        table = ingest.EmbeddingTable(1, {
            "tennis": np.array([2.0]), "racket": np.array([4.0]),
        })
        vocab = ingest.LabelVocabulary(("Tennis-Racket",))
        npt.assert_array_equal(ingest.build_initial_embeddings(table, vocab), [[3.0]])

    def test_partially_resolvable_label_uses_found_words(self):
        table = ingest.EmbeddingTable(1, {"ball": np.array([2.0])})
        vocab = ingest.LabelVocabulary(("weird ball",))
        npt.assert_array_equal(ingest.build_initial_embeddings(table, vocab), [[2.0]])

    def test_unresolved_label_rejected(self):
        table = ingest.EmbeddingTable(1, {"dog": np.array([1.0])})
        vocab = ingest.LabelVocabulary(("cat",))
        with pytest.raises(ingest.UnresolvedLabelError, match="cat"):
            ingest.build_initial_embeddings(table, vocab)

    def test_shape_for_wide_table(self):
        rng = np.random.default_rng(5)
        names = tuple(f"label{i}" for i in range(80))
        table = ingest.EmbeddingTable(300, {f"label{i}": rng.normal(size=300) for i in range(80)})
        e0 = ingest.build_initial_embeddings(table, ingest.LabelVocabulary(names))
        assert e0.shape == (80, 300)

    def test_table_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        table = ingest.EmbeddingTable(5, {
            "dog": rng.normal(size=5), "cat": rng.normal(size=5),
        })
        path = write(tmp_path, "emb.txt", "".join(
            " ".join([token, *map(repr, vec.tolist())]) + "\n"
            for token, vec in table.rows.items()))
        loaded = ingest.load_embedding_table(path)
        assert loaded.dim == table.dim
        assert set(loaded.rows) == set(table.rows)
        for token in table.rows:
            npt.assert_array_equal(loaded.rows[token], table.rows[token])

    def test_ragged_table_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("dog 1.0 2.0\ncat 1.0\n", encoding="utf-8")
        with pytest.raises(ingest.FormatError, match="expected 2"):
            ingest.load_embedding_table(path)
