"""Threshold-free ranking metrics: AU-ROC, AU-PR and Recall@Prec80.

AU-ROC is the tie-aware concordance probability (equal scores count 1/2),
identical to the trapezoidal area with tied scores grouped into single
threshold steps. AU-PR uses step-wise summation over descending unique
score thresholds, with no interpolation between points. Micro averaging
pools all (sample, category) cells before computing the scalar metrics;
micro_average returns its report as the plain dict that save_report writes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DegenerateLabels, NonFiniteValue, ShapeMismatch
from .tables import save_json


def _validate(scores: np.ndarray, truths: np.ndarray) -> tuple[np.ndarray,
                                                               np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64).ravel()
    truths = np.asarray(truths).ravel().astype(bool)
    if scores.shape != truths.shape:
        raise ShapeMismatch(
            f"scores {scores.shape} vs truths {truths.shape}"
        )
    if scores.size == 0:
        raise DegenerateLabels("empty input")
    if not np.isfinite(scores).all():
        raise NonFiniteValue("scores contain NaN or Inf")
    return scores, truths


def _threshold_counts(scores: np.ndarray,
                      truths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (tp, fp) after each descending unique score threshold."""
    order = np.argsort(-scores, kind="mergesort")
    sorted_truth = truths[order].astype(np.int64)
    sorted_scores = scores[order]
    tp = np.cumsum(sorted_truth)
    fp = np.cumsum(1 - sorted_truth)
    # keep only the last index of each tied block
    last = np.flatnonzero(np.diff(sorted_scores, append=np.nan) != 0)
    return tp[last], fp[last]


def roc_auc(scores, truths) -> float:
    """Trapezoidal area under ROC over the tied-score threshold steps.

    The trapezoids are summed doubled, in integers, and divided once, so the
    result equals the Mann-Whitney statistic from tie-averaged ranks bit for
    bit.
    """
    scores, truths = _validate(scores, truths)
    n_pos = int(truths.sum())
    n_neg = truths.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("need at least one positive and one negative")
    tp, fp = _threshold_counts(scores, truths)
    tp = np.concatenate([[0], tp])
    twice_area = int((np.diff(fp, prepend=0) * (tp[1:] + tp[:-1])).sum())
    return twice_area / (2 * n_pos * n_neg)


def pr_auc(scores, truths) -> float:
    """Step-wise area under the precision-recall curve."""
    scores, truths = _validate(scores, truths)
    n_pos = int(truths.sum())
    if n_pos == 0:
        raise DegenerateLabels("need at least one positive")
    tp, fp = _threshold_counts(scores, truths)
    precision = tp / (tp + fp)
    recall = tp / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev_recall) * precision).sum())


def recall_at_precision(scores, truths, target: float = 0.8) -> float:
    """Maximum recall over thresholds achieving precision >= target.

    0.0 when no threshold reaches the target.
    """
    scores, truths = _validate(scores, truths)
    n_pos = int(truths.sum())
    if n_pos == 0:
        raise DegenerateLabels("need at least one positive")
    tp, fp = _threshold_counts(scores, truths)
    precision = tp / (tp + fp)
    recall = tp / n_pos
    feasible = recall[precision >= target]
    return float(feasible.max()) if feasible.size else 0.0


def micro_average(scores, truths, target: float = 0.8) -> dict:
    """Micro metrics over pooled cells plus per-category breakdown, as the
    report *_metrics.json holds: micro (auroc, aupr, recall_at_prec80),
    positive_ratio, per_category (support, auroc, aupr and
    recall_at_prec80 per category index text) and unsupported_categories.

    Categories without a positive in the evaluated data are reported as
    unsupported (their cells still count toward the micro pool). AU-ROC of
    a category without negatives is None.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths).astype(bool)
    if scores.shape != truths.shape or scores.ndim != 2:
        raise ShapeMismatch(
            f"scores {scores.shape} vs truths {truths.shape}"
        )
    report = {
        "micro": {
            "auroc": roc_auc(scores.ravel(), truths.ravel()),
            "aupr": pr_auc(scores.ravel(), truths.ravel()),
            "recall_at_prec80": recall_at_precision(
                scores.ravel(), truths.ravel(), target),
        },
        "positive_ratio": float(truths.mean()),
        "per_category": {},
        "unsupported_categories": [],
    }
    for c in range(scores.shape[1]):
        col_scores = scores[:, c]
        col_truths = truths[:, c]
        support = int(col_truths.sum())
        if support == 0:
            report["unsupported_categories"].append(c)
            continue
        report["per_category"][str(c)] = {
            "support": support,
            "auroc": (roc_auc(col_scores, col_truths)
                      if support < col_truths.size else None),
            "aupr": pr_auc(col_scores, col_truths),
            "recall_at_prec80": recall_at_precision(col_scores, col_truths,
                                                    target),
        }
    return report


def save_report(path, report: dict) -> Path:
    return save_json(path, report, indent=1)
