"""ICD-9-CM to CCS crosswalk loading and multi-label target encoding.

The crosswalk loader accepts the public single-level CCS CSV layout: quoted,
whitespace-padded code and category columns, preceded by arbitrary header
lines (any row whose category column is not an integer is skipped). The
category count C is data-driven: distinct categories present in the file,
indexed densely in ascending id order by encode_labels. LabelMatrix holds N
admissions' label bits (N, C), as the arrays labels.npz stores.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError
from .tables import (
    iter_csv_rows,
    load_admission_npz,
    open_text_auto,
    reading,
    save_npz,
)


@dataclass
class LabelMatrix:
    admission_ids: np.ndarray  # str (N,)
    bits: np.ndarray  # bool (N, C)
    categories: np.ndarray  # int64 (C,): CCS category ids, ascending

    def __len__(self) -> int:
        return len(self.admission_ids)


def _normalize_code(raw: str) -> str:
    return raw.strip().strip("'\"").strip()


def load_crosswalk(path) -> dict[str, int]:
    """Parse a single-level crosswalk CSV into a validated {code: CCS id}
    map; codes are normalized as read_diagnoses normalizes them."""
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
                raise DataError(
                    f"code {code!r} maps to both {seen} and {category}"
                )
            mapping[code] = category
    if not mapping:
        raise DataError(f"{path}: no code/category rows found")
    return mapping


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
    diagnoses: Mapping[str, Iterable[str]], crosswalk: Mapping[str, int]
) -> tuple[LabelMatrix, dict[str, int]]:
    """One row of bits per admission plus a summary of unknown codes.

    The columns are the crosswalk's distinct CCS ids, ascending. Bit c is
    set when the admission has at least one ICD code in category c, the
    code normalized as load_crosswalk normalizes its codes; codes absent
    from the crosswalk are counted, never fatal.
    """
    categories = sorted(set(crosswalk.values()))
    column = {category: i for i, category in enumerate(categories)}
    unknown: dict[str, int] = {}
    bits = np.zeros((len(diagnoses), len(categories)), dtype=bool)
    for row, codes in enumerate(diagnoses.values()):
        for code in map(_normalize_code, codes):
            category = crosswalk.get(code)
            if category is None:
                unknown[code] = unknown.get(code, 0) + 1
            else:
                bits[row, column[category]] = True
    ids = np.array([str(adm) for adm in diagnoses], dtype=str)
    return (LabelMatrix(ids, bits, np.asarray(categories, dtype=np.int64)),
            unknown)


# --- persistence -----------------------------------------------------------

def save_labels(path, labels: LabelMatrix) -> Path:
    return save_npz(path, vars(labels))


def load_labels(path) -> LabelMatrix:
    """labels.npz, checked to hold one bits column per category."""
    arrays = load_admission_npz(path, {"bits": "b"}, {"categories": "iu"})
    if arrays["bits"].shape[1:] != arrays["categories"].shape:
        raise DataError(f"{path}: bits of shape {arrays['bits'].shape} do not"
                        f" have one column per category of"
                        f" {arrays['categories'].shape}")
    return LabelMatrix(**arrays)
