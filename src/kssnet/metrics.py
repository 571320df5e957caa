"""Multi-label evaluation: ranking AP/mAP and thresholded precision/recall/F1.

Average precision is the non-interpolated form: precision accumulated at
every positive hit in descending score order, ties broken by stable original
order.  It is computed by counting, not by walking a full argsort: each
positive's rank is the number of higher scores (from one sort of the column,
one sort of the positives' scores and one ``searchsorted``) plus, when its
score is tied, the number of equal scores at lower indices; its hit count is
its place among the positives alone.  A score is tied when its sorted
neighbour equals it, and only a column with a tied positive orders its
positives by index.  Every precision term is thus the same ratio of two
integers as in the walk, and ``math.fsum`` sums the terms exactly, so the AP
is bitwise that of the walk.

``per_class_ap`` copies the score matrix into rows 8 columns at a time, so
each class's scores are one contiguous array.  It fills that copy in tiles
of ``_AP_TILE_ROWS`` rows: a tile's source rows stay in cache while every
column of the block is read from them, where one whole-column pass would
fetch each cache line once per column.

``per_class_ap`` deals its blocks of 8 columns out across the process's
workers (:mod:`kssnet.workers`), each worker with its own block buffers, and
``decide`` deals out its blocks of ``_DECIDE_BLOCK_ROWS`` rows.  Each
class's AP and each row's decision is computed whole by one worker, so the
results are bit for bit the same with any worker count.  A matrix of one
block, such as the toy model's 8 labels, runs whole on the caller.

Per-class (CP/CR/CF1) and overall (OP/OR/OF1) statistics follow the
convention of computing CF1/OF1 from the averaged precision and recall, not
from per-class F1 scores.  Their decisions cost what the output needs: the
sigmoid rule compares scores with the logit of its threshold and evaluates
the sigmoid only in a narrow band around it, and the top-k rule breaks ties
at the k-th score only in rows that have them.  Both are bitwise the plain
rule; ``decide`` gives the argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import workers

# Rows per block of ``decide``, to keep its temporaries small.
_DECIDE_BLOCK_ROWS = 4096
# Columns per contiguous block copied by ``per_class_ap``: 8 float64 are one
# 64-byte cache line of each row.
_AP_BLOCK_COLS = 8
# Rows per tile of that copy: 256 rows of one cache line are 16 KiB, which
# stay in L1 while the block's columns are read out of them.
_AP_TILE_ROWS = 256


def _checked(scores, targets) -> tuple[np.ndarray, np.ndarray]:
    """Scores as float64 and targets as given, once both are valid matching 2-D arrays."""
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets)
    if scores.shape != targets.shape or scores.ndim != 2:
        raise ValueError(f"expected matching 2-D arrays, got {scores.shape} and "
                         f"{targets.shape}")
    binary = targets == 0
    binary |= targets == 1
    if not binary.all():
        raise ValueError("targets must be 0 or 1")
    return scores, targets


def _average_precision(scores: np.ndarray, targets: np.ndarray) -> float:
    """AP of one class from checked, finite scores and 0/1 targets with a positive.

    The ranks of the positives are counted as the module docstring says: in
    descending stable order, sample i sits at rank ``#{s_j > s_i} + #{j < i :
    s_j == s_i} + 1``, and the second count is taken only in a column with
    a tied positive.  Each term ``hits / rank`` is the quotient of the same
    two integers as in the rank walk, and ``math.fsum`` makes the sum
    independent of the order of the terms, so the result is bitwise that of
    the walk.
    """
    hit_idx = np.flatnonzero(targets == 1)
    n_pos = hit_idx.size
    ascending = np.sort(scores)
    # positives in ascending score order (searchsorted runs fastest on sorted
    # queries); the k-th from the end has hit count k
    hit_scores = np.sort(scores[hit_idx])
    right = np.searchsorted(ascending, hit_scores, side="right")
    ranks = scores.size - right + 1
    # a score is tied if the one sorted just below its last copy equals it
    # (a lone sample compares with itself, which costs time, not correctness)
    tied = ascending[right - 2] == hit_scores
    if np.any(tied):
        # equal scores by descending index: the reverse of their stable
        # descending order, in which the k-th positive has hit count k
        hit_idx = hit_idx[np.argsort(-scores[hit_idx], kind="stable")[::-1]]
        ranks[tied] += _equal_before(scores, hit_idx[tied])
    hits = np.arange(n_pos, 0, -1)
    # fsum is exactly rounded, so the result is independent of term order
    return math.fsum(hits / ranks) / n_pos


def _equal_before(scores: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """For each index i in ``idx``, the number of j < i with ``scores[j] == scores[i]``."""
    values = np.unique(scores[idx])
    slot = np.minimum(np.searchsorted(values, scores), values.size - 1)
    group = np.flatnonzero(values[slot] == scores)  # every sample sharing a queried value
    order = np.argsort(scores[group], kind="stable")  # by value, then by index
    grouped = scores[group][order]
    before = np.empty(group.size, dtype=np.int64)
    before[order] = np.arange(group.size) - np.searchsorted(grouped, grouped, side="left")
    return before[np.searchsorted(group, idx)]


def per_class_ap(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-class AP column by column; classes without positives get NaN.

    Shapes, finite scores and 0/1 targets are checked once for the matrix.
    Columns are taken ``_AP_BLOCK_COLS`` at a time into a reused row-major
    buffer, filled in tiles of ``_AP_TILE_ROWS`` rows so that each tile's
    cache lines are read once for all the block's columns.  Each worker
    has one buffer of a block's size, not the matrix's: a transposed copy
    of the whole matrix would add its full size to the peak memory.
    """
    scores, targets = _checked(scores, targets)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    n, n_classes = scores.shape
    aps = np.full(n_classes, np.nan)

    def share(first, last, buffers):  # blocks first to last
        score_buf, target_buf = buffers
        for lo in range(first * _AP_BLOCK_COLS, min(last * _AP_BLOCK_COLS, n_classes),
                        _AP_BLOCK_COLS):
            cols = slice(lo, lo + _AP_BLOCK_COLS)
            width = min(_AP_BLOCK_COLS, n_classes - lo)
            score_rows, target_rows = score_buf[:width], target_buf[:width]
            for r in range(0, n, _AP_TILE_ROWS):
                rows = slice(r, r + _AP_TILE_ROWS)
                score_rows[:, rows] = scores[rows, cols].T
                target_rows[:, rows] = targets[rows, cols].T
            for j, (s, t) in enumerate(zip(score_rows, target_rows)):
                if np.any(t == 1):
                    aps[lo + j] = _average_precision(s, t)

    workers.run(share, -(-n_classes // _AP_BLOCK_COLS),
                scratch=lambda: (np.empty((_AP_BLOCK_COLS, n), dtype=np.float64),
                                 np.empty((_AP_BLOCK_COLS, n), dtype=targets.dtype)))
    return aps


def map_score(scores: np.ndarray, targets: np.ndarray) -> float:
    """Unweighted mean of per-class AP; positive-free classes are excluded.

    The exclusion is silent: a caller that wants it known says so, as the
    command line does.
    """
    aps = per_class_ap(scores, targets)
    if np.all(np.isnan(aps)):
        raise ValueError("every class lacks positive targets; mAP is undefined")
    included = aps[~np.isnan(aps)]
    return math.fsum(included) / included.size


def decide(scores: np.ndarray, decision=("sigmoid", 0.5)) -> np.ndarray:
    """Turn a score matrix into a bool prediction matrix.

    Rules: ``("sigmoid", t)`` predicts sigmoid(score) >= t, ``("score", t)``
    predicts score >= t, ``("top_k", k)`` predicts the k highest-scoring
    labels per sample (ties by original order).  Scores must be finite.

    Every rule runs over blocks of ``_DECIDE_BLOCK_ROWS`` rows written into
    the bool result, so no other array is the size of the score matrix.
    The blocks are dealt out across the workers; a row's decision never
    depends on another row.

    The sigmoid rule is decided on the scores, not on their sigmoid.  With
    ``z = log(t) - log1p(-t)`` and ``delta = 1e-6 * max(1, |z|)`` it
    predicts True at and above ``z + delta``, False below ``z - delta``, and
    evaluates ``autodiff._sigmoid(s) >= t`` only for the scores in
    ``[z - delta, z + delta)``.  That is bitwise the plain rule: sigmoid is
    increasing with slope ``t (1 - t)`` at the true logit of t, so a score
    outside the band has ``|sigmoid(s) - t| >= t (1 - t) delta``, at least
    about 9e-13 for ``2**-20 <= t <= 1 - 2**-20``.  That is about 1000 times
    the few-ulp absolute error of ``_sigmoid`` near t, and ``z`` itself is
    off the true logit by a few ulp of 14 at most, far inside ``delta``; so
    the computed sigmoid lies on the same side of t as the true one.  For t
    outside that range, or NaN, the band is ``(-inf, inf)`` and the same
    code evaluates every score.

    ``top_k`` finds each row's k-th largest score with ``np.partition`` and
    predicts every label at or above it.  A row with more than k such labels
    has ties at the k-th score; only those rows are redone, predicting the
    labels above it and, among the labels equal to it, the first
    ``k - #above`` by index.  That is the first k of a stable descending
    sort, without sorting.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    kind, arg = decision
    if kind == "sigmoid":
        t = float(arg)
        z_lo, z_hi = -math.inf, math.inf
        if 2.0 ** -20 <= t <= 1.0 - 2.0 ** -20:  # False for NaN too
            z = math.log(t) - math.log1p(-t)
            delta = 1e-6 * max(1.0, abs(z))
            z_lo, z_hi = z - delta, z + delta

        def rule(block, out):
            np.greater_equal(block, z_hi, out=out)
            near = np.flatnonzero((block >= z_lo) ^ out)  # z_lo <= score < z_hi
            np.put(out, near, ad._sigmoid(block.take(near)) >= t)
    elif kind == "score":
        def rule(block, out):
            np.greater_equal(block, arg, out=out)
    elif kind == "top_k":
        k = int(arg)
        if k < 0:
            raise ValueError(f"top_k must be >= 0, got {k}")
        n_labels = scores.shape[1]
        if k == 0:
            return np.zeros(scores.shape, dtype=bool)
        if k >= n_labels:
            return np.ones(scores.shape, dtype=bool)

        def rule(block, out):
            kth = np.partition(block, n_labels - k, axis=1)[:, n_labels - k, None]
            np.greater_equal(block, kth, out=out)
            tied = np.flatnonzero(np.count_nonzero(out, axis=1) > k)
            block, kth = block[tied], kth[tied]
            above = block > kth
            equal = block == kth
            first_equal = np.cumsum(equal, axis=1) <= k - above.sum(axis=1, keepdims=True)
            out[tied] = above | (equal & first_equal)
    else:
        raise ValueError(f"unknown decision rule {kind!r}")
    pred = np.empty(scores.shape, dtype=bool)

    def share(first, last, _):  # blocks first to last
        for r in range(first * _DECIDE_BLOCK_ROWS, min(last * _DECIDE_BLOCK_ROWS, len(scores)),
                       _DECIDE_BLOCK_ROWS):
            rows = slice(r, r + _DECIDE_BLOCK_ROWS)
            rule(scores[rows], pred[rows])

    workers.run(share, -(-len(scores) // _DECIDE_BLOCK_ROWS))
    return pred


@dataclass(frozen=True)
class PrfResult:
    """Averaged per-class and pooled precision/recall/F1."""

    cp: float
    cr: float
    cf1: float
    op: float
    or_: float
    of1: float

    def as_tuple(self):
        return (self.cp, self.cr, self.cf1, self.op, self.or_, self.of1)


def _f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def _column_counts(mask: np.ndarray) -> np.ndarray:
    """The True cells of each column of a bool matrix, as float64.

    The bytes are summed as integers, which runs faster than a bool sum.
    """
    return np.add.reduce(mask.view(np.uint8), axis=0, dtype=np.int32).astype(np.float64)


def prf_suite(scores: np.ndarray, targets: np.ndarray, decision=("sigmoid", 0.5)) -> PrfResult:
    """Per-class and pooled precision/recall/F1 under a fixed decision rule.

    Per-class precision/recall are averaged over classes that have at least
    one positive target; pooled statistics use TP/FP/FN summed over all
    classes.  Empty denominators contribute 0.  Targets must be 0 or 1.
    """
    scores, targets = _checked(scores, targets)
    pred = decide(scores, decision)
    pos = targets == 1
    tp, n_pred, n_pos = (_column_counts(x) for x in (pred & pos, pred, pos))

    included = n_pos > 0
    if not included.any():
        raise ValueError("every class lacks positive targets")
    prec = np.zeros_like(tp)
    np.divide(tp, n_pred, out=prec, where=n_pred > 0)
    rec = np.zeros_like(tp)
    np.divide(tp, n_pos, out=rec, where=n_pos > 0)

    n_included = int(np.sum(included))
    cp = math.fsum(prec[included]) / n_included
    cr = math.fsum(rec[included]) / n_included
    op = float(tp.sum() / n_pred.sum()) if n_pred.sum() > 0 else 0.0
    or_ = float(tp.sum() / n_pos.sum()) if n_pos.sum() > 0 else 0.0
    return PrfResult(cp=cp, cr=cr, cf1=_f1(cp, cr), op=op, or_=or_, of1=_f1(op, or_))


def format_metric_table(map_value: float, prf: PrfResult) -> str:
    """Fixed-order table, one decimal percent per column."""
    names = ("mAP", "CP", "CR", "CF1", "OP", "OR", "OF1")
    values = (map_value, *prf.as_tuple())
    header = "  ".join(f"{n:>5s}" for n in names)
    row = "  ".join(f"{100.0 * v:5.1f}" for v in values)
    return header + "\n" + row
