"""Ranking metrics against hand enumerations and brute-force oracles."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehrpipe.errors import DataError, NumericError
from ehrpipe.metrics import (
    micro_average,
    pr_auc,
    recall_at_precision,
    roc_auc,
    save_report,
)

SCORES = np.array([0.9, 0.8, 0.3, 0.2])
TRUTHS = np.array([True, False, True, False])


def concordance_oracle(scores, truths):
    """Pairwise positive-vs-negative comparison; ties count one half."""
    pos = scores[np.asarray(truths, dtype=bool)]
    neg = scores[~np.asarray(truths, dtype=bool)]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def rank_auroc(scores, truths):
    """Mann-Whitney statistic from tie-averaged 1-based ranks."""
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths, dtype=bool)
    n_pos = int(truths.sum())
    n_neg = truths.size - n_pos
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos_rank_sum = float(ranks[truths].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def pr_oracle(scores, truths):
    """Step-wise AU-PR by explicit threshold enumeration."""
    truths = np.asarray(truths, dtype=bool)
    n_pos = truths.sum()
    area, prev_recall = 0.0, 0.0
    for t in sorted(set(scores), reverse=True):
        keep = scores >= t
        tp = int((truths & keep).sum())
        precision = tp / keep.sum()
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


class TestRocAuc:
    def test_hand_example(self):
        assert roc_auc(SCORES, TRUTHS) == pytest.approx(0.75, abs=1e-12)
        assert concordance_oracle(SCORES, TRUTHS) == pytest.approx(0.75)

    def test_perfect_ranking(self):
        assert roc_auc([0.8, 0.7, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_tied_is_half(self):
        assert roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == pytest.approx(0.5)

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(4, 200))
            scores = rng.choice([0.1, 0.25, 0.5, 0.7, 0.9], size=n)
            truths = rng.random(n) < 0.4
            if truths.all() or not truths.any():
                continue
            assert roc_auc(scores, truths) == pytest.approx(
                concordance_oracle(scores, truths), abs=1e-12
            )

    @settings(max_examples=500, deadline=None, database=None)
    @given(st.lists(st.tuples(st.integers(0, 12), st.booleans()),
                    min_size=2, max_size=300),
           st.integers(1, 7))
    def test_bitwise_equal_to_tie_averaged_ranks(self, cells, divisor):
        # Few distinct scores, so most cases are heavy with ties.
        scores = np.array([score / divisor for score, _ in cells])
        truths = np.array([truth for _, truth in cells])
        assume(truths.any() and not truths.all())
        assert roc_auc(scores, truths).hex() == \
            rank_auroc(scores, truths).hex()

    def test_degenerate(self):
        with pytest.raises(DataError,
                           match="at least one positive and one negative"):
            roc_auc([0.1, 0.2], [1, 1])

    def test_nan_scores_fault(self):
        with pytest.raises(NumericError, match="scores contain NaN or Inf"):
            roc_auc([0.1, float("nan")], [1, 0])


class TestPrAuc:
    def test_hand_example(self):
        # thresholds: recall .5 @ precision 1.0, recall 1.0 @ precision 2/3
        assert pr_auc(SCORES, TRUTHS) == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert pr_oracle(SCORES, TRUTHS) == pytest.approx(5.0 / 6.0)

    def test_perfect_ranking(self):
        assert pr_auc([0.8, 0.7, 0.2], [1, 1, 0]) == 1.0

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(3, 120))
            scores = rng.choice([0.2, 0.4, 0.6, 0.8], size=n)
            truths = rng.random(n) < 0.3
            if not truths.any():
                continue
            assert pr_auc(scores, truths) == pytest.approx(
                pr_oracle(scores, truths), abs=1e-12
            )

    def test_random_scores_near_positive_ratio(self):
        rng = np.random.default_rng(23)
        values = []
        ratio = 0.1
        for _ in range(60):
            truths = rng.random(800) < ratio
            if not truths.any():
                continue
            values.append(pr_auc(rng.random(800), truths))
        assert abs(np.mean(values) - ratio) < 0.02

    def test_degenerate(self):
        with pytest.raises(DataError, match="need at least one positive$"):
            pr_auc([0.5, 0.6], [0, 0])


class TestRecallAtPrecision:
    def test_perfect(self):
        assert recall_at_precision([0.9, 0.1], [1, 0], 0.8) == 1.0

    def test_unreachable_target_is_zero(self):
        # best achievable precision is 0.5
        assert recall_at_precision([0.9, 0.9], [1, 0], 0.8) == 0.0

    def test_hand_example(self):
        assert recall_at_precision(SCORES, TRUTHS, 0.8) == \
            pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_target(self):
        rng = np.random.default_rng(24)
        scores = rng.random(300)
        truths = rng.random(300) < 0.25
        targets = np.linspace(0.05, 1.0, 25)
        values = [recall_at_precision(scores, truths, t) for t in targets]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestRankInvariance:
    def test_monotone_transform_preserves_metrics(self):
        rng = np.random.default_rng(25)
        scores = rng.random(150)
        truths = rng.random(150) < 0.3
        transformed = np.exp(3.0 * scores) + 7.0
        assert roc_auc(scores, truths) == pytest.approx(
            roc_auc(transformed, truths), abs=1e-12
        )
        assert pr_auc(scores, truths) == pytest.approx(
            pr_auc(transformed, truths), abs=1e-12
        )
        assert recall_at_precision(scores, truths) == pytest.approx(
            recall_at_precision(transformed, truths), abs=1e-12
        )


class TestMicroAverage:
    def test_single_category_equals_scalar_metrics(self):
        report = micro_average(SCORES[:, None], TRUTHS[:, None])
        micro = report["micro"]
        assert micro["auroc"] == pytest.approx(0.75, abs=1e-12)
        assert micro["aupr"] == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert report["per_category"]["0"]["aupr"] == micro["aupr"]

    def test_duplicated_columns_leave_micro_unchanged(self):
        single = micro_average(SCORES[:, None], TRUTHS[:, None])
        doubled = micro_average(
            np.repeat(SCORES[:, None], 2, axis=1),
            np.repeat(TRUTHS[:, None], 2, axis=1),
        )
        assert doubled["micro"]["auroc"] == pytest.approx(
            single["micro"]["auroc"])
        assert doubled["micro"]["aupr"] == pytest.approx(
            single["micro"]["aupr"])

    def test_positive_ratio_and_unsupported(self):
        scores = np.array([[0.9, 0.4], [0.1, 0.6], [0.8, 0.2]])
        truths = np.array([[True, False], [False, False], [True, False]])
        report = micro_average(scores, truths)
        assert report["positive_ratio"] == pytest.approx(2 / 6)
        assert report["unsupported_categories"] == [1]
        assert list(report["per_category"]) == ["0"]
        assert report["per_category"]["0"]["support"] == 2

    def test_shape_mismatch(self):
        with pytest.raises(DataError,
                           match=r"scores \(2, 2\) vs truths \(3, 2\)"):
            micro_average(np.zeros((2, 2)), np.zeros((3, 2), dtype=bool))

    def test_figures_are_the_scalar_metrics(self):
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 6, size=(40, 5)) / 5.0  # many ties
        truths = rng.random((40, 5)) < 0.3
        truths[:, 3] = True  # no negatives: AU-ROC is None
        truths[:, 4] = False  # unsupported
        report = micro_average(scores, truths, target=0.6)
        assert report["micro"] == {
            "auroc": roc_auc(scores, truths),
            "aupr": pr_auc(scores, truths),
            "recall_at_prec60": recall_at_precision(scores, truths, 0.6),
        }
        for c in range(4):
            col = scores[:, c], truths[:, c]
            assert report["per_category"][str(c)] == {
                "support": int(truths[:, c].sum()),
                "auroc": roc_auc(*col) if c != 3 else None,
                "aupr": pr_auc(*col),
                "recall_at_prec60": recall_at_precision(*col, 0.6),
            }
        assert report["unsupported_categories"] == [4]

    def test_each_scored_set_is_sorted_once(self, monkeypatch):
        """One sort for the pool and one per supported category."""
        calls, argsort = [], np.argsort

        def counting_argsort(*args, **kwargs):
            calls.append(args[0].shape)
            return argsort(*args, **kwargs)

        scores = np.random.default_rng(6).random((30, 4))
        truths = scores > 0.5
        truths[:, 2] = False
        monkeypatch.setattr(np, "argsort", counting_argsort)
        micro_average(scores, truths)
        assert calls == [(120,), (30,), (30,), (30,)]

    def test_report_serializes(self, tmp_path):
        report = micro_average(SCORES[:, None], TRUTHS[:, None])
        payload = json.loads(save_report(tmp_path / "report.json",
                                         report).read_text())
        assert payload == report
        assert payload["micro"]["aupr"] == pytest.approx(5.0 / 6.0)
        assert "0" in payload["per_category"]
