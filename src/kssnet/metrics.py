"""Multi-label evaluation: ranking AP/mAP and thresholded precision/recall/F1.

Average precision is the non-interpolated form: precision accumulated at
every positive hit in descending score order, ties broken by stable original
order.  Per-class (CP/CR/CF1) and overall (OP/OR/OF1) statistics follow the
convention of computing CF1/OF1 from the averaged precision and recall, not
from per-class F1 scores.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


def average_precision(scores: np.ndarray, targets: np.ndarray) -> float:
    """AP of one class from per-sample scores and binary targets.

    Undefined (raises) when there is no positive target; callers that tolerate
    positive-free classes should skip them, as ``map_score`` does.
    """
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets)
    if scores.shape != targets.shape or scores.ndim != 1:
        raise ValueError(f"expected matching 1-D arrays, got {scores.shape} and {targets.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    n_pos = int(np.sum(targets == 1))
    if n_pos == 0:
        raise ValueError("average precision is undefined without positive targets")
    order = np.argsort(-scores, kind="stable")
    hits = np.asarray(targets, dtype=bool)[order]
    cum_hits = np.cumsum(hits)
    ranks = np.arange(1, scores.size + 1)
    # fsum is exactly rounded, so the result is independent of term order
    return math.fsum(cum_hits[hits] / ranks[hits]) / n_pos


def per_class_ap(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-class AP column by column; classes without positives get NaN."""
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets)
    if scores.shape != targets.shape or scores.ndim != 2:
        raise ValueError(f"expected matching 2-D arrays, got {scores.shape} and {targets.shape}")
    aps = np.full(scores.shape[1], np.nan)
    for c in range(scores.shape[1]):
        if np.any(targets[:, c] == 1):
            aps[c] = average_precision(scores[:, c], targets[:, c])
    return aps


def map_score(scores: np.ndarray, targets: np.ndarray) -> float:
    """Unweighted mean of per-class AP; positive-free classes are excluded."""
    aps = per_class_ap(scores, targets)
    excluded = int(np.sum(np.isnan(aps)))
    if excluded == aps.size:
        raise ValueError("every class lacks positive targets; mAP is undefined")
    if excluded:
        warnings.warn(f"{excluded} class(es) without positives excluded from mAP")
    included = aps[~np.isnan(aps)]
    return math.fsum(included) / included.size


def decide(scores: np.ndarray, decision=("sigmoid", 0.5)) -> np.ndarray:
    """Turn a score matrix into binary predictions.

    Rules: ``("sigmoid", t)`` predicts sigmoid(score) >= t, ``("score", t)``
    predicts score >= t, ``("top_k", k)`` predicts the k highest-scoring
    labels per sample (ties by original order).
    """
    scores = np.asarray(scores, dtype=np.float64)
    kind, arg = decision
    if kind == "sigmoid":
        return (ad._sigmoid(scores) >= arg).astype(np.int64)
    if kind == "score":
        return (scores >= arg).astype(np.int64)
    if kind == "top_k":
        k = int(arg)
        if k < 0:
            raise ValueError(f"top_k must be >= 0, got {k}")
        pred = np.zeros_like(scores, dtype=np.int64)
        k = min(k, scores.shape[1])
        for i in range(scores.shape[0]):
            order = np.argsort(-scores[i], kind="stable")
            pred[i, order[:k]] = 1
        return pred
    raise ValueError(f"unknown decision rule {kind!r}")


@dataclass(frozen=True)
class PrfResult:
    """Averaged per-class and pooled precision/recall/F1.

    ``n_excluded_classes`` counts positive-free classes left out of the
    per-class averages; ``n_empty_precision`` counts included classes whose
    precision denominator was empty and therefore contributed 0.
    """

    cp: float
    cr: float
    cf1: float
    op: float
    or_: float
    of1: float
    n_excluded_classes: int = 0
    n_empty_precision: int = 0

    def as_tuple(self):
        return (self.cp, self.cr, self.cf1, self.op, self.or_, self.of1)


def _f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def prf_suite(scores: np.ndarray, targets: np.ndarray, decision=("sigmoid", 0.5)) -> PrfResult:
    """Per-class and pooled precision/recall/F1 under a fixed decision rule.

    Per-class precision/recall are averaged over classes that have at least
    one positive target; pooled statistics use TP/FP/FN summed over all
    classes.  Empty denominators contribute 0 and are flagged.
    """
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets)
    if scores.shape != targets.shape or scores.ndim != 2:
        raise ValueError(f"expected matching 2-D arrays, got {scores.shape} and {targets.shape}")
    pred = decide(scores, decision)
    pos = targets == 1
    tp = np.sum(pred.astype(bool) & pos, axis=0).astype(np.float64)
    n_pred = pred.sum(axis=0).astype(np.float64)
    n_pos = pos.sum(axis=0).astype(np.float64)

    included = n_pos > 0
    n_excluded = int(np.sum(~included))
    if n_excluded == scores.shape[1]:
        raise ValueError("every class lacks positive targets")
    empty_prec = included & (n_pred == 0)
    prec = np.zeros_like(tp)
    np.divide(tp, n_pred, out=prec, where=n_pred > 0)
    rec = np.zeros_like(tp)
    np.divide(tp, n_pos, out=rec, where=n_pos > 0)

    n_included = int(np.sum(included))
    cp = math.fsum(prec[included]) / n_included
    cr = math.fsum(rec[included]) / n_included
    op = float(tp.sum() / n_pred.sum()) if n_pred.sum() > 0 else 0.0
    or_ = float(tp.sum() / n_pos.sum()) if n_pos.sum() > 0 else 0.0
    return PrfResult(
        cp=cp, cr=cr, cf1=_f1(cp, cr), op=op, or_=or_, of1=_f1(op, or_),
        n_excluded_classes=n_excluded, n_empty_precision=int(np.sum(empty_prec)),
    )


def format_metric_table(map_value: float, prf: PrfResult) -> str:
    """Fixed-order table, one decimal percent per column."""
    names = ("mAP", "CP", "CR", "CF1", "OP", "OR", "OF1")
    values = (map_value, *prf.as_tuple())
    header = "  ".join(f"{n:>5s}" for n in names)
    row = "  ".join(f"{100.0 * v:5.1f}" for v in values)
    return header + "\n" + row
