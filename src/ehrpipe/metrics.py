"""Threshold-free ranking metrics: AU-ROC, AU-PR and Recall@Prec80.

AU-ROC is the tie-aware concordance probability (equal scores count 1/2),
identical to the trapezoidal area with tied scores grouped into single
threshold steps. AU-PR uses step-wise summation over descending unique
score thresholds, with no interpolation between points. Each scored set is
checked and sorted once, into its cumulative (tp, fp) counts at those
thresholds, and each metric is a formula over them. Micro averaging pools
all (sample, category) cells before computing the scalar metrics;
micro_average returns its report as the plain dict that save_report writes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError, NumericError
from .tables import save_json


def _curve(scores, truths) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (tp, fp) after each descending unique score threshold,
    from one check and one sort of the input; the last entries are the
    numbers of positives and negatives."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    truths = np.asarray(truths).ravel().astype(bool)
    if scores.shape != truths.shape:
        raise DataError(
            f"scores {scores.shape} vs truths {truths.shape}"
        )
    if scores.size == 0:
        raise DataError("empty input")
    if not np.isfinite(scores).all():
        raise NumericError("scores contain NaN or Inf")
    order = np.argsort(-scores, kind="mergesort")
    sorted_truth = truths[order].astype(np.int64)
    sorted_scores = scores[order]
    tp = np.cumsum(sorted_truth)
    fp = np.cumsum(1 - sorted_truth)
    # keep only the last index of each tied block
    last = np.flatnonzero(np.diff(sorted_scores, append=np.nan) != 0)
    return tp[last], fp[last]


def _roc(tp: np.ndarray, fp: np.ndarray) -> float:
    n_pos, n_neg = int(tp[-1]), int(fp[-1])
    if n_pos == 0 or n_neg == 0:
        raise DataError("need at least one positive and one negative")
    tp = np.concatenate([[0], tp])
    twice_area = int((np.diff(fp, prepend=0) * (tp[1:] + tp[:-1])).sum())
    return twice_area / (2 * n_pos * n_neg)


def _precision_recall(tp: np.ndarray,
                      fp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_pos = int(tp[-1])
    if n_pos == 0:
        raise DataError("need at least one positive")
    return tp / (tp + fp), tp / n_pos


def _pr(tp: np.ndarray, fp: np.ndarray) -> float:
    precision, recall = _precision_recall(tp, fp)
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev_recall) * precision).sum())


def _recall_at(tp: np.ndarray, fp: np.ndarray, target: float) -> float:
    precision, recall = _precision_recall(tp, fp)
    feasible = recall[precision >= target]
    return float(feasible.max()) if feasible.size else 0.0


def roc_auc(scores, truths) -> float:
    """Trapezoidal area under ROC over the tied-score threshold steps.

    The trapezoids are summed doubled, in integers, and divided once, so the
    result equals the Mann-Whitney statistic from tie-averaged ranks bit for
    bit.
    """
    return _roc(*_curve(scores, truths))


def pr_auc(scores, truths) -> float:
    """Step-wise area under the precision-recall curve."""
    return _pr(*_curve(scores, truths))


def recall_at_precision(scores, truths, target: float = 0.8) -> float:
    """Maximum recall over thresholds achieving precision >= target.

    0.0 when no threshold reaches the target.
    """
    return _recall_at(*_curve(scores, truths), target)


def micro_average(scores, truths, target: float = 0.8) -> dict:
    """Micro metrics over pooled cells plus per-category breakdown, as the
    report *_metrics.json holds: micro (auroc, aupr, recall_at_prec<P> at
    P = 100 * target), positive_ratio, per_category (support and those three
    per category index text) and unsupported_categories.

    Categories without a positive in the evaluated data are reported as
    unsupported (their cells still count toward the micro pool). AU-ROC of
    a category without negatives is None.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths).astype(bool)
    if scores.shape != truths.shape or scores.ndim != 2:
        raise DataError(
            f"scores {scores.shape} vs truths {truths.shape}"
        )
    pool = _curve(scores, truths)
    recall = f"recall_at_prec{100 * target:g}"
    report = {
        "micro": {"auroc": _roc(*pool), "aupr": _pr(*pool),
                  recall: _recall_at(*pool, target)},
        "positive_ratio": float(truths.mean()),
        "per_category": {},
        "unsupported_categories": [],
    }
    for c, support in enumerate(truths.sum(axis=0).tolist()):
        if support == 0:
            report["unsupported_categories"].append(c)
            continue
        tp, fp = _curve(scores[:, c], truths[:, c])
        report["per_category"][str(c)] = {
            "support": support,
            "auroc": _roc(tp, fp) if fp[-1] else None,
            "aupr": _pr(tp, fp),
            recall: _recall_at(tp, fp, target),
        }
    return report


def save_report(path, report: dict) -> Path:
    return save_json(path, report, indent=1)
