"""KS label-graph construction: co-occurrence statistics, knowledge priors, superimposing.

The pipeline runs:

    annotations -> co-occurrence counts -> conditional probabilities,
        binarized at ``binarize_threshold``          (statistical adjacency)
    relation triples -> max relation weight per pair (knowledge adjacency)
    both normalized by D^{-1/2} A D^{-1/2}, convex-combined with ``lam``,
    thresholded at ``tau``, identity-mixed with ``eta``, and the result
    normalized once more for graph convolution.

Matrices are dense float64 throughout; label counts here are at most a few
hundred, so sparsity machinery would buy nothing.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import workers
from .ingest import AnnotationSet, KnowledgeEdgeList

# Rows of the 0/1 indicator block behind each co-occurrence GEMM.  The block
# is float32, whose integers are exact up to 2**24; a block's counts are at
# most its row count, so this must stay below 2**24.
_COOC_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class GraphPipelineConfig:
    """Knobs of the graph pipeline.

    ``lam`` weighs the statistical graph against the knowledge graph,
    ``tau`` prunes weak superimposed edges, ``eta`` mixes the pruned graph
    with the identity, and ``binarize_threshold`` is the conditional
    probability cut used when building the statistical adjacency.

    The superimposed graph is normalized once, after identity mixing, so
    ``tau`` acts on the scale of the convex combination.
    """

    lam: float = 0.4
    tau: float = 0.02
    eta: float = 0.4
    binarize_threshold: float = 0.4

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if not self.tau >= 0.0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if not 0.0 <= self.binarize_threshold <= 1.0:
            raise ValueError(
                f"binarize_threshold must lie in [0, 1], got {self.binarize_threshold}"
            )


def check_adjacency(a: np.ndarray, name: str = "adjacency") -> np.ndarray:
    """Return ``a`` as float64 if it is square, finite and non-negative; else raise.

    ``name`` (for a loaded file, its path) leads every error message.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    if np.any(a < 0):
        raise ValueError(f"{name} has negative entries")
    return a


def cooccurrence_counts(ann: AnnotationSet):
    """Count pairwise label co-occurrences over an annotation set.

    Returns ``(M, counts)`` where ``M[i, j]`` is the number of samples
    containing both labels i and j (zero diagonal, symmetric) and
    ``counts[i]`` is the number of samples containing label i.

    Both come from a blocked exact GEMM: ``Y.T @ Y`` for the 0/1
    sample-by-label indicator ``Y`` holds the pair counts off its diagonal
    and the label counts on it.  It is summed in float64 over blocks of at
    most ``_COOC_BLOCK_ROWS`` samples, each scattered straight from the
    annotation set's CSR arrays into a reused float32 buffer, so the
    product runs in BLAS and ``Y`` is never in memory whole.  The blocks
    are dealt out across the workers (:mod:`kssnet.workers`): each share
    fills its own float32 buffer and sums its blocks into its own float64
    (n, n) partial, both allocated by the caller, and the caller adds the
    partials in share order.  Every partial sum of a block's float32
    product is an integer of at most ``_COOC_BLOCK_ROWS`` < 2**24, and every
    partial sum in float64 one far below 2**53, so the result is exact and
    the same with any worker count.

    An input of more than one block builds the worker pool, which sets
    OpenBLAS to one thread for the rest of the process, so a label-only run
    such as the benchmark's ``coco-labels`` now runs its GEMMs on one BLAS
    thread each.  That costs nothing here: on the 82k x 80 ``coco-labels``
    annotations (2 cores), the unsplit counts took a median 11.7 ms back to
    back at two OpenBLAS threads and 10.7 ms at one, and 6.0 ms split.
    """
    n = ann.n_labels

    def share(first, last, buffers):  # blocks first to last
        block, partial = buffers
        for lo in range(first * _COOC_BLOCK_ROWS, min(last * _COOC_BLOCK_ROWS, len(ann)),
                        _COOC_BLOCK_ROWS):
            bounds = ann.indptr[lo:lo + _COOC_BLOCK_ROWS + 1]
            y = block[:bounds.size - 1]
            y.fill(0.0)
            rows = np.repeat(np.arange(y.shape[0]), np.diff(bounds))
            y[rows, ann.indices[bounds[0]:bounds[-1]]] = 1.0
            partial += y.T @ y

    partials = workers._deal(share, -(-len(ann) // _COOC_BLOCK_ROWS),
                             lambda: (np.empty((min(_COOC_BLOCK_ROWS, len(ann)), n),
                                               dtype=np.float32), np.zeros((n, n))))
    m = sum(partial for _, partial in partials).astype(np.int64)
    counts = np.diag(m).copy()
    np.fill_diagonal(m, 0)
    return m, counts


def statistical_adjacency(m: np.ndarray, counts: np.ndarray, t: float) -> np.ndarray:
    """Binarize conditional co-occurrence probabilities into an adjacency.

    ``P[i, j] = M[i, j] / counts[i]`` (zero when label i never occurs);
    edges with ``P >= t`` survive, the diagonal is cleared.  The result is
    generally asymmetric: conditioning direction is row-wise.
    """
    m = np.asarray(m, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    p = np.divide(m, counts[:, None], out=np.zeros_like(m), where=counts[:, None] > 0)
    a = (p >= t).astype(np.float64)
    np.fill_diagonal(a, 0.0)
    return a


def knowledge_adjacency(edges: KnowledgeEdgeList) -> np.ndarray:
    """Adjacency whose (i, j) entry is the maximum relation weight between i and j.

    Pairs with no relation get 0.  Relation triples are undirected: a
    relation between i and j belongs to both entry pairs, so the result is
    symmetric.
    """
    a = np.zeros((edges.n_labels, edges.n_labels), dtype=np.float64)
    for head, tail, _, weight in edges.triples:
        a[head, tail] = max(a[head, tail], weight)
        a[tail, head] = max(a[tail, head], weight)
    return a


def normalize(a: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization D^{-1/2} A D^{-1/2}.

    Degrees are row sums.  Zero-degree nodes map to zero rows and columns
    (D_ii^{-1/2} is defined as 0 there); they regain a self-connection later
    through identity mixing.  On a directed graph such as the statistical
    one, where row i holds P(j|i), a label with no out-edge has degree 0, so
    every edge into it is zeroed too, not only the edges of isolated labels.
    """
    a = check_adjacency(a)
    deg = a.sum(axis=1)
    denom = np.sqrt(np.outer(deg, deg))
    return np.divide(a, denom, out=np.zeros_like(a), where=denom > 0)


def superimpose(a_s: np.ndarray, a_k: np.ndarray, lam: float) -> np.ndarray:
    """Elementwise convex combination ``lam * a_s + (1 - lam) * a_k``."""
    a_s = np.asarray(a_s, dtype=np.float64)
    a_k = np.asarray(a_k, dtype=np.float64)
    if a_s.shape != a_k.shape:
        raise ValueError(f"shape mismatch: {a_s.shape} vs {a_k.shape}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    return lam * a_s + (1.0 - lam) * a_k


def threshold_filter(a: np.ndarray, tau: float) -> np.ndarray:
    """Zero out entries strictly below ``tau``; entries >= tau pass unchanged."""
    if not tau >= 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    a = np.asarray(a, dtype=np.float64)
    return np.where(a < tau, 0.0, a)


def identity_mix(a_tau: np.ndarray, eta: float) -> np.ndarray:
    """Blend with the identity: ``eta * a_tau + (1 - eta) * I``."""
    a_tau = np.asarray(a_tau, dtype=np.float64)
    if a_tau.ndim != 2 or a_tau.shape[0] != a_tau.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a_tau.shape}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    return eta * a_tau + (1.0 - eta) * np.eye(a_tau.shape[0])


def build_ks_graph(
    ann: AnnotationSet,
    edges: KnowledgeEdgeList,
    config: GraphPipelineConfig = GraphPipelineConfig(),
):
    """Run the full pipeline; returns ``(a_ks, a_ks_norm)``.

    ``a_ks`` is the superimposed, thresholded, identity-mixed adjacency;
    ``a_ks_norm`` is its normalized form as consumed by graph convolution.
    """
    if ann.n_labels != edges.n_labels:
        raise ValueError(
            f"vocabulary size mismatch: annotations {ann.n_labels}, edges {edges.n_labels}"
        )
    m, counts = cooccurrence_counts(ann)
    a_s = statistical_adjacency(m, counts, config.binarize_threshold)
    a_k = knowledge_adjacency(edges)
    a = superimpose(normalize(a_s), normalize(a_k), config.lam)
    a_ks = identity_mix(threshold_filter(a, config.tau), config.eta)
    return a_ks, normalize(a_ks)


def graph_summary(a: np.ndarray) -> dict:
    """Degree statistics and structural flags used by the CLI summaries."""
    a = np.asarray(a, dtype=np.float64)
    deg = a.sum(axis=1)
    return {
        "n": int(a.shape[0]),
        "nnz": int(np.count_nonzero(a)),
        "symmetric": bool(np.array_equal(a, a.T)),
        "degree_min": float(deg.min()),
        "degree_mean": float(deg.mean()),
        "degree_max": float(deg.max()),
    }
