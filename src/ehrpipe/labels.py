"""ICD-9-CM to CCS crosswalk loading and multi-label target encoding.

The crosswalk loader accepts the public single-level CCS CSV layout: quoted,
whitespace-padded code and category columns, preceded by arbitrary header
lines (any row whose category column is not an integer is skipped). The
category count C is data-driven: distinct categories present in the file,
indexed densely in ascending id order.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    CategoryOutOfRange,
    DegenerateClassBalance,
    DuplicateIcdCode,
    MalformedCrosswalk,
)
from .tables import iter_csv_rows, open_text_auto, reading, save_npz


@dataclass
class CcsCrosswalk:
    code_to_category: dict[str, int]
    categories: list[int]  # distinct ids, ascending
    index_by_category: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index_by_category:
            self.index_by_category = {
                c: i for i, c in enumerate(self.categories)
            }

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    def category_index(self, icd_code: str) -> int | None:
        cat = self.code_to_category.get(_normalize_code(icd_code))
        return None if cat is None else self.index_by_category[cat]


@dataclass
class LabelVector:
    admission_id: str
    bits: np.ndarray  # bool (C,)


def _normalize_code(raw: str) -> str:
    return raw.strip().strip("'\"").strip()


def load_crosswalk(path) -> CcsCrosswalk:
    """Parse a single-level crosswalk CSV into a validated code->category map."""
    mapping: dict[str, int] = {}
    with reading(path), open_text_auto(path, newline="") as handle:
        for row in csv.reader(handle):
            if len(row) < 2:
                continue
            code = _normalize_code(row[0])
            cat_text = _normalize_code(row[1])
            if not code:
                continue
            try:
                category = int(cat_text)
            except ValueError:
                continue  # header or descriptive line
            seen = mapping.get(code)
            if seen is not None and seen != category:
                raise DuplicateIcdCode(
                    f"code {code!r} maps to both {seen} and {category}"
                )
            mapping[code] = category
    if not mapping:
        raise MalformedCrosswalk(f"{path}: no code/category rows found")
    categories = sorted(set(mapping.values()))
    return CcsCrosswalk(code_to_category=mapping, categories=categories)


def read_diagnoses(path) -> dict[str, list[str]]:
    """hadm_id -> ICD code list from a diagnoses_icd CSV, in file order."""
    out: dict[str, list[str]] = {}
    for row in iter_csv_rows(path, ("hadm_id", "icd9_code")):
        adm = row["hadm_id"].strip()
        code = _normalize_code(row["icd9_code"])
        if not adm or not code:
            continue
        out.setdefault(adm, []).append(code)
    return out


def encode_labels(
    diagnoses: Mapping[str, Iterable[str]], xwalk: CcsCrosswalk
) -> tuple[list[LabelVector], dict[str, int]]:
    """One boolean vector per admission plus a summary of unknown codes.

    Bit c is set when the admission has at least one ICD code in category c;
    codes absent from the crosswalk are counted, never fatal.
    """
    unknown: dict[str, int] = {}
    vectors: list[LabelVector] = []
    for adm, codes in diagnoses.items():
        bits = np.zeros(xwalk.n_categories, dtype=bool)
        for code in codes:
            idx = xwalk.category_index(code)
            if idx is None:
                key = _normalize_code(code)
                unknown[key] = unknown.get(key, 0) + 1
            else:
                bits[idx] = True
        vectors.append(LabelVector(admission_id=str(adm), bits=bits))
    return vectors, unknown


def binary_labels(
    vectors: list[LabelVector], category: int
) -> list[tuple[str, bool]]:
    """Project one category column as (admission_id, flag) pairs."""
    if vectors and not 0 <= category < vectors[0].bits.shape[0]:
        raise CategoryOutOfRange(
            f"category {category} not in 0..{vectors[0].bits.shape[0] - 1}"
        )
    return [(v.admission_id, bool(v.bits[category])) for v in vectors]


def undersample(
    pairs: list[tuple[str, bool]], seed: int
) -> list[tuple[str, bool]]:
    """Balance a binary label set by dropping majority samples at random.

    Every minority sample is retained; majority samples are kept uniformly
    at random (without replacement) under the seed. Output preserves the
    input's relative order.
    """
    positives = [i for i, (_, flag) in enumerate(pairs) if flag]
    negatives = [i for i, (_, flag) in enumerate(pairs) if not flag]
    if not positives or not negatives:
        raise DegenerateClassBalance("need at least one sample of each class")
    minority, majority = (
        (positives, negatives)
        if len(positives) <= len(negatives)
        else (negatives, positives)
    )
    rng = random.Random(seed)
    kept_majority = rng.sample(majority, len(minority))
    kept = sorted(minority + kept_majority)
    return [pairs[i] for i in kept]


# --- persistence -----------------------------------------------------------

def save_labels(path, vectors: list[LabelVector],
                categories: list[int]) -> Path:
    ids = np.array([v.admission_id for v in vectors])
    bits = (
        np.stack([v.bits for v in vectors])
        if vectors
        else np.zeros((0, len(categories)), dtype=bool)
    )
    return save_npz(path, {
        "admission_ids": ids,
        "bits": bits,
        "categories": np.asarray(categories, dtype=np.int64),
    })


def load_labels(path) -> tuple[list[LabelVector], list[int]]:
    with reading(path), np.load(path, allow_pickle=False) as data:
        ids = [str(x) for x in data["admission_ids"]]
        bits = data["bits"]
        categories = [int(x) for x in data["categories"]]
    vectors = [
        LabelVector(admission_id=i, bits=bits[k]) for k, i in enumerate(ids)
    ]
    return vectors, categories
