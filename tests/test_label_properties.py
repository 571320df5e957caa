"""Property tests: the vectorised label pipeline equals the brute-force oracles.

Shapes stay small and scores come from a handful of values, so ties are the
common case.  The block sizes of the vectorised code are shrunk to a few rows
or columns, so that small inputs still cross block boundaries.
"""

from unittest import mock

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings, strategies as st

from kssnet import graph, metrics
from kssnet.ingest import AnnotationSet

import oracles
from test_metrics import top_k_reference

SETTINGS = settings(max_examples=200, deadline=None, database=None)
TIED_VALUES = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0])


@st.composite
def annotation_sets(draw):
    n = draw(st.integers(1, 6))
    label_sets = draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=12))
    samples = tuple((f"s{i}", labels) for i, labels in enumerate(label_sets))
    return AnnotationSet(n, samples), n + draw(st.integers(0, 2))


@st.composite
def ranked_columns(draw):
    n = draw(st.integers(1, 25))
    scores = draw(st.lists(TIED_VALUES, min_size=n, max_size=n))
    targets = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if not any(targets):
        targets[draw(st.integers(0, n - 1))] = 1
    return scores, targets


@st.composite
def score_matrices(draw):
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(1, 7))
    values = draw(st.lists(TIED_VALUES, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=np.float64).reshape(rows, cols)


@SETTINGS
@given(annotation_sets(), st.integers(1, 4))
def test_cooccurrence_counts_match_oracle(case, block_rows):
    ann, n = case
    with mock.patch.object(graph, "_COOC_BLOCK_ROWS", block_rows):
        m, counts = graph.cooccurrence_counts(ann, n)
    m_ref, counts_ref = oracles.cooccurrence_oracle(ann.samples, n)
    npt.assert_array_equal(m, m_ref)
    npt.assert_array_equal(counts, counts_ref)


@SETTINGS
@given(ranked_columns())
def test_average_precision_equals_oracle_bitwise(case):
    scores, targets = case
    assert metrics.average_precision(scores, targets) == oracles.ap_oracle(scores, targets)


@SETTINGS
@given(score_matrices(), st.integers(1, 3))
def test_per_class_ap_equals_oracle_bitwise(scores, block_cols):
    targets = (scores > 0.5).astype(int)
    with mock.patch.object(metrics, "_AP_BLOCK_COLS", block_cols):
        aps = metrics.per_class_ap(scores, targets)
    for c in range(scores.shape[1]):
        if targets[:, c].any():
            assert aps[c] == oracles.ap_oracle(scores[:, c].tolist(), targets[:, c].tolist())
        else:
            assert np.isnan(aps[c])


@SETTINGS
@given(score_matrices(), st.integers(0, 9), st.integers(1, 4))
def test_top_k_equals_stable_sort(scores, k, block_rows):
    with mock.patch.object(metrics, "_TOP_K_BLOCK_ROWS", block_rows):
        pred = metrics.decide(scores, ("top_k", k))
    npt.assert_array_equal(pred, top_k_reference(scores, k))
