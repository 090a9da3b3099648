"""Iterative stratified train/validation/test splitting for multi-label data.

Greedy algorithm: repeatedly take the label with the fewest unassigned
positive samples, and place each of its remaining samples into the partition
with the greatest remaining desired count for that label. Ties fall back to
the greatest remaining overall capacity, then to a seeded random choice.
Samples without any label are distributed last by remaining capacity.
Desired sample and per-label counts use largest-remainder rounding so the
totals are exact. A split is its assignment, {admission id: partition}: what
split.json holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .labels import LabelMatrix
from .tables import load_json, save_json

PARTITIONS = ("train", "val", "test")


@dataclass(frozen=True)
class SplitSpec:
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.ratios) != len(PARTITIONS):
            raise ConfigError("need one ratio per partition")
        if any(not 0.0 < r < 1.0 for r in self.ratios):
            raise ConfigError("each ratio must be in (0,1)")
        if abs(sum(self.ratios) - 1.0) > 1e-12:
            raise ConfigError("ratios must sum to 1")


def _largest_remainder(total: int, ratios) -> list[int]:
    """Integer allocation of `total` by ratios, exact by construction."""
    raw = [total * r for r in ratios]
    counts = [int(x) for x in raw]
    leftovers = total - sum(counts)
    order = sorted(
        range(len(ratios)), key=lambda i: (-(raw[i] - counts[i]), i)
    )
    for i in order[:leftovers]:
        counts[i] += 1
    return counts


def iterative_stratified_split(
    labels: LabelMatrix, spec: SplitSpec
) -> dict[str, str]:
    """{admission id: partition} for every admission of labels."""
    bits = labels.bits
    n, n_labels = bits.shape
    if n < 3:
        raise ConfigError("need at least 3 samples")
    if not bits.any():
        raise ConfigError("need at least one label present")

    rng = random.Random(spec.seed)
    capacity = _largest_remainder(n, spec.ratios)

    label_totals = bits.sum(axis=0)
    # desired[p][l]: how many positives of label l partition p still wants
    desired = np.zeros((len(PARTITIONS), n_labels), dtype=np.int64)
    for lab in range(n_labels):
        desired[:, lab] = _largest_remainder(int(label_totals[lab]), spec.ratios)

    unassigned = set(range(n))
    remaining_by_label: list[set[int]] = [
        set(np.flatnonzero(bits[:, lab])) for lab in range(n_labels)
    ]
    assignment_index = np.full(n, -1, dtype=np.int64)

    def _place(sample: int, partition: int) -> None:
        assignment_index[sample] = partition
        unassigned.discard(sample)
        capacity[partition] -= 1
        for lab in np.flatnonzero(bits[sample]):
            desired[partition, lab] -= 1
            remaining_by_label[lab].discard(sample)

    def _pick_partition(scores) -> int:
        best = max(scores)
        tied = [p for p, s in enumerate(scores) if s == best]
        if len(tied) == 1:
            return tied[0]
        cap_best = max(capacity[p] for p in tied)
        tied = [p for p in tied if capacity[p] == cap_best]
        return tied[0] if len(tied) == 1 else rng.choice(tied)

    while True:
        candidates = [
            (len(remaining_by_label[lab]), lab)
            for lab in range(n_labels)
            if remaining_by_label[lab]
        ]
        if not candidates:
            break
        _, label = min(candidates)
        for sample in sorted(remaining_by_label[label]):
            _place(sample, _pick_partition(list(desired[:, label])))

    for sample in sorted(unassigned):
        _place(sample, _pick_partition(capacity))

    return {
        adm: PARTITIONS[p]
        for adm, p in zip(labels.admission_ids.tolist(), assignment_index)
    }


def verify_distribution(
    assignment: dict[str, str],
    labels: LabelMatrix,
    tolerance: float,
    min_support: int = 1,
) -> dict:
    """Compare per-partition positive fractions against the global fraction.

    Labels with fewer than min_support global positives are skipped. Entries
    whose worst deviation exceeds the tolerance are flagged.
    """
    bits = labels.bits
    n, n_labels = bits.shape
    tags = [assignment[adm] for adm in labels.admission_ids.tolist()]
    members = {tag: [i for i, t in enumerate(tags) if t == tag]
               for tag in PARTITIONS}
    report: dict = {"tolerance": tolerance, "labels": {}, "flagged": []}
    for lab in range(n_labels):
        support = int(bits[:, lab].sum())
        if support < min_support:
            continue
        global_frac = support / n
        entry = {"support": support, "global": global_frac, "partitions": {}}
        worst = 0.0
        for tag in PARTITIONS:
            if not members[tag]:
                continue
            frac = float(bits[members[tag], lab].mean())
            entry["partitions"][tag] = frac
            worst = max(worst, abs(frac - global_frac))
        entry["max_deviation"] = worst
        report["labels"][lab] = entry
        if worst > tolerance:
            report["flagged"].append(lab)
    return report


def save_split(path, assignment: dict[str, str]) -> Path:
    return save_json(path, assignment, indent=0, sort_keys=True)


def load_split(path) -> dict[str, str]:
    """split.json's {admission id: partition}, each one of PARTITIONS."""
    assignment = load_json(path)
    for adm, tag in assignment.items():
        if tag not in PARTITIONS:
            raise DataError(f"{path}: admission {adm!r} is in {tag!r}, not"
                            f" one of {', '.join(PARTITIONS)}")
    return assignment
