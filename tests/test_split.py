"""Iterative stratified splitting: exactness, determinism, distribution."""

import numpy as np
import pytest

from ehrpipe.errors import ConfigError
from ehrpipe.labels import LabelMatrix
from ehrpipe.split import (
    iterative_stratified_split,
    load_split,
    PARTITIONS,
    save_split,
    SplitSpec,
    verify_distribution,
)


def _vectors(bit_rows):
    bits = np.asarray(bit_rows, dtype=bool)
    return LabelMatrix(np.array([f"a{i}" for i in range(len(bits))]), bits,
                       np.arange(bits.shape[1]))


def _largest_remainder_oracle(total, ratios):
    """Independent proportional-allocation reference."""
    raw = [total * r for r in ratios]
    counts = [int(x) for x in raw]
    rema = sorted(range(len(ratios)),
                  key=lambda i: (-(raw[i] - counts[i]), i))
    for i in rema[: total - sum(counts)]:
        counts[i] += 1
    return counts


def partition_sizes(assignment):
    """Admissions per partition, in PARTITIONS order."""
    tags = list(assignment.values())
    return [tags.count(t) for t in PARTITIONS]


def partition_positives(assignment, vectors, label=0):
    """Positives of one label per partition, in PARTITIONS order."""
    tags = np.array([assignment[adm]
                     for adm in vectors.admission_ids.tolist()])
    return [int(vectors.bits[tags == t, label].sum()) for t in PARTITIONS]


def make_structured_labels(rng, n, n_labels, second_rate=0.3):
    """Multi-label matrix with a weighted primary label per sample and a
    uniformly chosen second label on a fraction of samples."""
    weights = rng.uniform(0.5, 2.0, n_labels)
    weights /= weights.sum()
    bits = np.zeros((n, n_labels), dtype=bool)
    primary = rng.choice(n_labels, size=n, p=weights)
    bits[np.arange(n), primary] = True
    extra = rng.random(n) < second_rate
    second = rng.choice(n_labels, size=n)
    bits[np.flatnonzero(extra), second[extra]] = True
    return bits


class TestSpecValidation:
    def test_bad_ratios(self):
        with pytest.raises(ConfigError, match="ratios must sum to 1"):
            SplitSpec(ratios=(0.5, 0.5, 0.2))
        with pytest.raises(ConfigError,
                           match=r"each ratio must be in \(0,1\)"):
            SplitSpec(ratios=(1.0, 0.0, 0.0))

    def test_too_few_samples(self):
        with pytest.raises(ConfigError, match="need at least 3 samples"):
            iterative_stratified_split(_vectors([[1], [0]]), SplitSpec())

    def test_no_labels(self):
        with pytest.raises(ConfigError,
                           match="need at least one label present"):
            iterative_stratified_split(
                _vectors([[0], [0], [0], [0]]), SplitSpec()
            )


class TestSmallExamples:
    def test_twenty_samples_one_label(self):
        # 10 positives over 20 samples at 0.8/0.1/0.1: the oracle demands
        # sizes 16/2/2 and positives 8/1/1 regardless of tie-break seed.
        bits = [[1]] * 10 + [[0]] * 10
        assignment = iterative_stratified_split(_vectors(bits),
                                                SplitSpec(seed=0))
        assert partition_sizes(assignment) == \
            _largest_remainder_oracle(20, (0.8, 0.1, 0.1))
        assert partition_positives(assignment, _vectors(bits)) == \
            _largest_remainder_oracle(10, (0.8, 0.1, 0.1))

    def test_identical_label_sets_split_by_ratio(self):
        bits = [[1, 1]] * 30
        assignment = iterative_stratified_split(_vectors(bits),
                                                SplitSpec(seed=1))
        assert partition_sizes(assignment) == [24, 3, 3]
        report = verify_distribution(
            iterative_stratified_split(_vectors(bits), SplitSpec(seed=1)),
            _vectors(bits), tolerance=1e-9,
        )
        assert not report["flagged"]  # every partition fraction equals 1.0

    def test_single_sample_label_goes_to_train(self):
        bits = [[1, 0]] + [[0, 1]] * 9
        assignment = iterative_stratified_split(_vectors(bits),
                                                SplitSpec(seed=2))
        assert assignment["a0"] == "train"

    def test_exhaustive_and_disjoint(self):
        rng = np.random.default_rng(3)
        bits = rng.random((50, 4)) < 0.3
        vectors = _vectors(bits)
        assignment = iterative_stratified_split(vectors, SplitSpec(seed=3))
        assert set(assignment) == set(vectors.admission_ids.tolist())
        assert sum(partition_sizes(assignment)) == 50

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        bits = rng.random((40, 5)) < 0.25
        vectors = _vectors(bits)
        first = iterative_stratified_split(vectors, SplitSpec(seed=9))
        second = iterative_stratified_split(vectors, SplitSpec(seed=9))
        assert first == second

    def test_single_label_matches_proportional_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            n = int(rng.integers(20, 80))
            n_pos = int(rng.integers(3, n - 3))
            bits = [[1]] * n_pos + [[0]] * (n - n_pos)
            assignment = iterative_stratified_split(
                _vectors(bits), SplitSpec(seed=trial)
            )
            expected_pos = _largest_remainder_oracle(n_pos, (0.8, 0.1, 0.1))
            assert partition_positives(assignment, _vectors(bits)) == \
                expected_pos
            assert partition_sizes(assignment) == \
                _largest_remainder_oracle(n, (0.8, 0.1, 0.1))


class TestVerifyDistribution:
    def test_perfect_split_zero_deviation(self):
        bits = [[1]] * 10 + [[0]] * 10
        vectors = _vectors(bits)
        assignment = iterative_stratified_split(vectors, SplitSpec(seed=0))
        report = verify_distribution(assignment, vectors, tolerance=1e-6)
        assert report["labels"][0]["max_deviation"] < 1e-9

    def test_pathological_split_flagged(self):
        bits = [[1]] * 4 + [[0]] * 16
        vectors = _vectors(bits)
        # hand-build a bad assignment: all positives in train
        assignment = {f"a{i}": "train" for i in range(4)}
        for i in range(4, 20):
            assignment[f"a{i}"] = ("train", "val", "test")[i % 3]
        report = verify_distribution(assignment, vectors, tolerance=0.05)
        assert 0 in report["flagged"]
        # val/test have zero positives: their deviation is the global rate
        entry = report["labels"][0]
        assert entry["partitions"]["val"] == 0.0
        assert abs(entry["partitions"]["val"] - entry["global"]) == \
            pytest.approx(0.2, abs=1e-12)
        assert abs(entry["partitions"]["test"] - entry["global"]) == \
            pytest.approx(0.2, abs=1e-12)

    def test_synthetic_multilabel_distribution(self):
        # one weighted primary label per sample plus an occasional second
        # label, the co-occurrence structure the greedy handles well
        bits = make_structured_labels(np.random.default_rng(6), 1000, 20)
        vectors = _vectors(bits)
        assignment = iterative_stratified_split(vectors, SplitSpec(seed=7))
        report = verify_distribution(assignment, vectors, tolerance=0.02,
                                     min_support=50)
        flagged_supported = [
            lab for lab in report["flagged"]
            if report["labels"][lab]["support"] >= 50
        ]
        assert not flagged_supported


def test_split_persistence_roundtrip(tmp_path):
    bits = [[1]] * 5 + [[0]] * 15
    vectors = _vectors(bits)
    assignment = iterative_stratified_split(vectors, SplitSpec(seed=0))
    path = tmp_path / "split.json"
    save_split(path, assignment)
    assert load_split(path) == assignment
