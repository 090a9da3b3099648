"""Crosswalk loading, label encoding and label persistence."""

import random

import numpy as np
import pytest

from ehrpipe.errors import DataError
from ehrpipe.labels import (
    encode_labels,
    LabelMatrix,
    load_crosswalk,
    load_labels,
    save_labels,
)

# Layout mirrors the public single-level CCS file: leading description
# lines, a quoted header row, then quoted whitespace-padded values.
AHRQ_STYLE = """\
Single-Level CCS categories (diagnosis)

'ICD-9-CM CODE','CCS CATEGORY','CCS CATEGORY DESCRIPTION','ICD-9-CM CODE DESCRIPTION'
'0010  ','1   ','Tuberculosis','CHOLERA D/T VIB CHOLERAE'
'0011  ','1   ','Tuberculosis','CHOLERA D/T VIB EL TOR'
'4019  ','98  ','Essential hypertension','HYPERTENSION NOS'
'4011  ','98  ','Essential hypertension','BENIGN HYPERTENSION'
'25000 ','49  ','Diabetes without complication','DMII WO CMP NT ST UNCNTR'
"""


@pytest.fixture
def ahrq_file(tmp_path):
    path = tmp_path / "ccs.csv"
    path.write_text(AHRQ_STYLE, encoding="utf-8")
    return path


class TestCrosswalk:
    def test_counts_distinct_categories(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("'a1 ','1 '\n'a2 ','2 '\n'a3 ','1 '\n")
        xwalk = load_crosswalk(path)
        assert xwalk == {"a1": 1, "a2": 2, "a3": 1}
        labels, _ = encode_labels({}, xwalk)
        assert labels.categories.tolist() == [1, 2]

    def test_hypertension_code_maps_to_category_98(self, ahrq_file):
        xwalk = load_crosswalk(ahrq_file)
        assert xwalk["4019"] == 98
        # dense index: categories sorted ascending -> 1, 49, 98
        labels, unknown = encode_labels({"A": ["4019"], "B": [" '4019' "]},
                                        xwalk)
        assert labels.categories.tolist() == [1, 49, 98]
        assert np.flatnonzero(labels.bits[0]).tolist() == [2]
        assert np.flatnonzero(labels.bits[1]).tolist() == [2]  # unquoted
        assert not unknown

    def test_duplicate_conflicting_code(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("'a1','1'\n'a1','2'\n")
        with pytest.raises(DataError, match="code 'a1' maps to both 1 and 2"):
            load_crosswalk(path)

    def test_duplicate_identical_rows_tolerated(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("'a1','1'\n'a1','1'\n")
        assert load_crosswalk(path) == {"a1": 1}

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("no data rows here\njust text\n")
        with pytest.raises(DataError,
                           match="x.csv: no code/category rows found"):
            load_crosswalk(path)


class TestEncodeLabels:
    def test_two_codes_same_category_set_one_bit(self, ahrq_file):
        xwalk = load_crosswalk(ahrq_file)
        labels, unknown = encode_labels({"A": ["4019", "4011"]}, xwalk)
        assert labels.bits[0].sum() == 1
        assert not unknown

    def test_no_codes_all_false(self, ahrq_file):
        xwalk = load_crosswalk(ahrq_file)
        labels, _ = encode_labels({"A": []}, xwalk)
        assert not labels.bits[0].any()

    def test_mapping_example(self, ahrq_file):
        xwalk = load_crosswalk(ahrq_file)
        labels, _ = encode_labels(
            {"A": ["0010"], "B": ["0010", "25000"]}, xwalk
        )
        a, b = labels.bits
        assert set(np.flatnonzero(a)) == {0}
        assert set(np.flatnonzero(b)) == {0, 1}

    def test_unknown_codes_counted_not_fatal(self, ahrq_file):
        xwalk = load_crosswalk(ahrq_file)
        labels, unknown = encode_labels(
            {"A": ["9999", "4019", "9999"]}, xwalk
        )
        assert unknown == {"9999": 2}
        assert labels.bits[0].sum() == 1

    def test_code_order_irrelevant(self, ahrq_file):
        xwalk = load_crosswalk(ahrq_file)
        first, _ = encode_labels({"A": ["4019", "0010", "25000"]}, xwalk)
        second, _ = encode_labels({"A": ["25000", "4019", "0010"]}, xwalk)
        np.testing.assert_array_equal(first.bits[0], second.bits[0])

    def test_positive_counts_match_brute_force(self, ahrq_file):
        xwalk = load_crosswalk(ahrq_file)
        rng = random.Random(17)
        codes = list(xwalk)
        diagnoses = {
            f"adm{i}": [codes[rng.randrange(len(codes))]
                        for _ in range(rng.randrange(0, 5))]
            for i in range(80)
        }
        labels, _ = encode_labels(diagnoses, xwalk)
        counts = labels.bits.sum(axis=0)
        categories = sorted(set(xwalk.values()))
        assert labels.categories.tolist() == categories
        for idx, cat in enumerate(categories):
            brute = sum(
                1 for codes_ in diagnoses.values()
                if any(xwalk[c] == cat for c in codes_)
            )
            assert counts[idx] == brute


def test_label_persistence_roundtrip(tmp_path):
    labels = LabelMatrix(
        np.array(["a1", "a2"]),
        np.array([[True, False, True], [False, False, False]]),
        np.array([1, 49, 98]),
    )
    path = tmp_path / "labels.npz"
    save_labels(path, labels)
    loaded = load_labels(path)
    assert loaded.categories.tolist() == [1, 49, 98]
    for a, b in zip(labels.admission_ids, loaded.admission_ids):
        assert a == b
    np.testing.assert_array_equal(labels.bits, loaded.bits)
