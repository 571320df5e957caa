"""Property tests of the graph pipeline's invariants on drawn adjacencies.

Entries mix exact values, so thresholds land on them, with arbitrary
non-negative floats; ``test_graph.py`` has a worked example of each.
"""

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings, strategies as st

from kssnet import graph

SETTINGS = settings(max_examples=200, deadline=None, database=None)
ENTRIES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1e6))


@st.composite
def adjacencies(draw, n=None, symmetric=False):
    n = draw(st.integers(1, 6)) if n is None else n
    a = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    if symmetric:
        a = np.triu(a) + np.triu(a, 1).T
    return a


@SETTINGS
@given(adjacencies(symmetric=True))
def test_normalize_keeps_symmetry(a):
    out = graph.normalize(a)
    npt.assert_array_equal(out, out.T)


@SETTINGS
@given(adjacencies(), ENTRIES, ENTRIES)
def test_raising_tau_only_removes_edges(a, tau1, tau2):
    low, high = sorted((tau1, tau2))
    kept_low = graph.threshold_filter(a, low) != 0
    out = graph.threshold_filter(a, high)
    kept_high = out != 0
    assert np.all(kept_low | ~kept_high)
    npt.assert_array_equal(out[kept_high], a[kept_high])


@SETTINGS
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(adjacencies(n), adjacencies(n))))
def test_mixing_endpoints_are_exact(pair):
    a_s, a_k = pair
    npt.assert_array_equal(graph.superimpose(a_s, a_k, 1.0), a_s)
    npt.assert_array_equal(graph.superimpose(a_s, a_k, 0.0), a_k)
    npt.assert_array_equal(graph.identity_mix(a_s, 1.0), a_s)
    npt.assert_array_equal(graph.identity_mix(a_s, 0.0), np.eye(len(a_s)))
