"""Determinism, referential integrity and signal planting of the
generator, and its bytes against the row-at-a-time reference."""

import hashlib
import tempfile
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synth_reference as reference
from ehrpipe.errors import ConfigError
from ehrpipe.labels import load_crosswalk, read_diagnoses
from ehrpipe.synth import _BLOCK_ADMISSIONS, SynthConfig, _fmt_time, generate
from ehrpipe.tables import TableKind, iter_csv_rows, parse_timestamp


def _category_columns(crosswalk_path) -> dict[str, int]:
    """{code: label column}: the crosswalk's CCS ids indexed densely in
    ascending order, as encode_labels orders its columns."""
    xwalk = load_crosswalk(crosswalk_path)
    column = {cat: i for i, cat in enumerate(sorted(set(xwalk.values())))}
    return {code: column[cat] for code, cat in xwalk.items()}


def _hashes(manifest):
    out = {}
    for kind, path, _ in manifest.tables:
        out[kind.value] = hashlib.sha256(path.read_bytes()).hexdigest()
    out["crosswalk"] = hashlib.sha256(
        manifest.crosswalk_path.read_bytes()
    ).hexdigest()
    return out


@pytest.mark.parametrize("ts", [
    datetime(2130, 1, 1),
    datetime(2130, 1, 31, 23, 59, 59, 999999),
    datetime(2130, 2, 28, 23, 59, 59, 500000),
    datetime(2132, 2, 29, 12, 0, 0, 1),
    datetime(2130, 12, 31, 23, 59, 59, 999999),
    datetime(2131, 1, 1, 0, 0, 0, 1),
    datetime(2070, 6, 15, 7, 5, 3),
    datetime(1000, 1, 1),
    datetime(9999, 12, 31, 23, 59, 59, 999999),
])
def test_fmt_time_matches_strftime(ts):
    # Microseconds are cut, not rounded, by both forms.
    assert _fmt_time(ts) == ts.strftime("%Y-%m-%d %H:%M:%S")


def test_determinism(tmp_path):
    config = SynthConfig(seed=7, n_patients=10, n_admissions=12,
                         n_observation_types=6, n_ccs_categories=5,
                         events_min=5, events_max=10)
    first = generate(config, tmp_path / "a")
    second = generate(config, tmp_path / "b")
    assert _hashes(first) == _hashes(second)


def test_different_seeds_differ(tmp_path):
    base = dict(n_patients=10, n_admissions=12, n_observation_types=6,
                n_ccs_categories=5, events_min=5, events_max=10)
    first = generate(SynthConfig(seed=7, **base), tmp_path / "a")
    second = generate(SynthConfig(seed=8, **base), tmp_path / "b")
    assert _hashes(first) != _hashes(second)


def test_referential_integrity(small_dataset):
    paths = {kind: path for kind, path, _ in small_dataset.tables}
    subjects = {row["subject_id"] for row in
                iter_csv_rows(paths[TableKind.PATIENTS])}
    admissions = {row["hadm_id"] for row in
                  iter_csv_rows(paths[TableKind.ADMISSIONS])}
    for row in iter_csv_rows(paths[TableKind.ADMISSIONS]):
        assert row["subject_id"] in subjects
    for kind in (TableKind.CHARTEVENTS, TableKind.NOTEEVENTS,
                 TableKind.DIAGNOSES_ICD):
        for row in iter_csv_rows(paths[kind]):
            assert row["hadm_id"] in admissions


def test_events_do_not_outlive_admission(small_dataset):
    paths = {kind: path for kind, path, _ in small_dataset.tables}
    discharge = {
        row["hadm_id"]: parse_timestamp(row["dischtime"])
        for row in iter_csv_rows(paths[TableKind.ADMISSIONS])
    }
    for row in iter_csv_rows(paths[TableKind.CHARTEVENTS]):
        when = parse_timestamp(row["charttime"])
        assert when <= discharge[row["hadm_id"]]


def test_positive_rate_tracks_target(tmp_path):
    # 500 admissions x 10 categories = 5000 admission-category pairs
    config = SynthConfig(seed=3, n_patients=200, n_admissions=500,
                         n_observation_types=4, n_ccs_categories=10,
                         positive_rate_target=0.043, n_planted=1,
                         events_min=1, events_max=2)
    manifest = generate(config, tmp_path / "rate")
    paths = {kind: path for kind, path, _ in manifest.tables}
    columns = _category_columns(manifest.crosswalk_path)
    diagnoses = read_diagnoses(paths[TableKind.DIAGNOSES_ICD])
    positive_bits = 0
    for codes in diagnoses.values():
        cats = {columns.get(c) for c in codes}
        positive_bits += len(cats)
    ratio = positive_bits / (500 * 10)
    assert abs(ratio - 0.043) < 0.01


def test_zero_signal_is_uncorrelated(tmp_path):
    config = SynthConfig(seed=5, n_patients=150, n_admissions=400,
                         n_observation_types=8, n_ccs_categories=6,
                         positive_rate_target=0.2, signal_strength=0.0,
                         n_planted=1, events_min=8, events_max=12)
    manifest = generate(config, tmp_path / "zero")
    paths = {kind: path for kind, path, _ in manifest.tables}
    signal = manifest.planted[0]
    target_item = str(signal.observation_type_index + 1)

    columns = _category_columns(manifest.crosswalk_path)
    diagnoses = read_diagnoses(paths[TableKind.DIAGNOSES_ICD])
    per_adm_mean: dict[str, list[float]] = {}
    for row in iter_csv_rows(paths[TableKind.CHARTEVENTS]):
        if row["itemid"] == target_item and row["valuenum"]:
            per_adm_mean.setdefault(row["hadm_id"], []).append(
                float(row["valuenum"])
            )
    means, flags = [], []
    for row in iter_csv_rows(paths[TableKind.ADMISSIONS]):
        adm = row["hadm_id"]
        if adm not in per_adm_mean:
            continue
        cats = {columns.get(c) for c in diagnoses.get(adm, [])}
        means.append(np.mean(per_adm_mean[adm]))
        flags.append(signal.category_index in cats)
    means = np.asarray(means)
    flags = np.asarray(flags, dtype=float)
    assert flags.sum() >= 10
    corr = np.corrcoef(means, flags)[0, 1]
    assert abs(corr) < 0.15  # ~3 standard errors at n=400


def test_marker_tokens_follow_labels(small_dataset):
    paths = {kind: path for kind, path, _ in small_dataset.tables}
    columns = _category_columns(small_dataset.crosswalk_path)
    diagnoses = read_diagnoses(paths[TableKind.DIAGNOSES_ICD])
    signal = small_dataset.planted[0]
    for row in iter_csv_rows(paths[TableKind.NOTEEVENTS]):
        adm = row["hadm_id"]
        cats = {columns.get(c) for c in diagnoses.get(adm, [])}
        has_marker = signal.marker_token in row["text"]
        assert has_marker == (signal.category_index in cats)


def test_shifted_values_with_strong_signal(small_dataset):
    paths = {kind: path for kind, path, _ in small_dataset.tables}
    columns = _category_columns(small_dataset.crosswalk_path)
    diagnoses = read_diagnoses(paths[TableKind.DIAGNOSES_ICD])
    signal = small_dataset.planted[0]
    target_item = str(signal.observation_type_index + 1)
    pos_vals, neg_vals = [], []
    for row in iter_csv_rows(paths[TableKind.CHARTEVENTS]):
        if row["itemid"] != target_item or not row["valuenum"]:
            continue
        cats = {columns.get(c)
                for c in diagnoses.get(row["hadm_id"], [])}
        (pos_vals if signal.category_index in cats else neg_vals).append(
            float(row["valuenum"])
        )
    assert pos_vals and neg_vals
    # signal_strength is 3 type-sigmas; means should separate clearly
    assert np.mean(pos_vals) - np.mean(neg_vals) > signal.mean_shift / 2


def test_crosswalk_covers_all_emitted_codes(small_dataset):
    paths = {kind: path for kind, path, _ in small_dataset.tables}
    columns = _category_columns(small_dataset.crosswalk_path)
    diagnoses = read_diagnoses(paths[TableKind.DIAGNOSES_ICD])
    for codes in diagnoses.values():
        for code in codes:
            assert columns.get(code) is not None


_RATE = r"positive_rate_target must be in \(0,1\)"
_SIGNAL = "signal_strength must be non-negative and keep"
_INVALID_SYNTH = [
    (dict(n_patients=10, n_admissions=5),
     "need n_admissions >= n_patients >= 1"),
    (dict(positive_rate_target=0.0), _RATE),
    (dict(positive_rate_target=1.0), _RATE),
    (dict(signal_strength=-1.0), _SIGNAL),
    (dict(notes_min=0, notes_max=2), "need 1 <= notes_min <= notes_max"),
    (dict(notes_min=3, notes_max=2), "need 1 <= notes_min <= notes_max"),
    (dict(vocabulary_size=3), "vocabulary_size must be >= 10"),
    (dict(n_planted=100), "n_planted exceeds available categories/types"),
    (dict(events_min=0, events_max=5), "need 1 <= events_min <= events_max"),
    (dict(signal_strength=float("inf")), _SIGNAL),
    (dict(signal_strength=1e308), _SIGNAL),
]


@pytest.mark.parametrize(
    "bad,message", _INVALID_SYNTH,
    ids=[f"bad{i}" for i in range(len(_INVALID_SYNTH))])
def test_invalid_configs(bad, message):
    with pytest.raises(ConfigError, match=message):
        SynthConfig(**{**dict(n_observation_types=8, n_ccs_categories=6),
                       **bad})


# --- the same bytes as the row-at-a-time generator ------------------------------

SYNTH_FILES = ("patients.csv", "admissions.csv", "diagnoses_icd.csv",
               "chartevents.csv", "noteevents.csv", "ccs_crosswalk.csv",
               "manifest.json")


@st.composite
def synth_configs(draw):
    n_patients = draw(st.integers(1, 40))
    n_admissions = draw(st.one_of(
        st.just(n_patients),
        st.integers(n_patients, n_patients + 2 * _BLOCK_ADMISSIONS + 5)))
    # 1,000 types and more give item ids of four digits and more.
    n_types = draw(st.one_of(st.integers(1, 30), st.integers(1000, 1100)))
    n_categories = draw(st.integers(1, 12))
    most_planted = min(n_types, n_categories)
    events_min = draw(st.integers(1, 6))
    notes_min = draw(st.integers(1, 3))
    return SynthConfig(
        seed=draw(st.integers(0, 2**32)),
        n_patients=n_patients,
        n_admissions=n_admissions,
        n_observation_types=n_types,
        n_ccs_categories=n_categories,
        positive_rate_target=draw(st.floats(0.01, 0.6)),
        signal_strength=draw(st.one_of(st.just(0.0), st.floats(0.0, 50.0))),
        notes_min=notes_min,
        notes_max=draw(st.integers(notes_min, 4)),
        vocabulary_size=draw(st.one_of(st.just(10), st.integers(10, 300))),
        n_planted=draw(st.one_of(st.just(0), st.just(most_planted),
                                 st.integers(0, most_planted))),
        events_min=events_min,
        events_max=draw(st.integers(events_min, 12)),
    )


@settings(max_examples=40, deadline=None, database=None)
@given(config=synth_configs())
@example(config=SynthConfig(
    seed=1, n_patients=7, n_admissions=7, n_observation_types=3,
    n_ccs_categories=2, positive_rate_target=0.5, signal_strength=0.0,
    notes_min=2, notes_max=2, vocabulary_size=10, n_planted=0,
    events_min=1, events_max=1))
@example(config=SynthConfig(
    seed=2, n_patients=20, n_admissions=2 * _BLOCK_ADMISSIONS + 3,
    n_observation_types=1200, n_ccs_categories=5, positive_rate_target=0.3,
    signal_strength=3.0, notes_min=1, notes_max=3, vocabulary_size=40,
    n_planted=5, events_min=2, events_max=9))
def test_writes_the_reference_bytes(config):
    with tempfile.TemporaryDirectory() as tmp:
        new = generate(config, Path(tmp) / "new")
        old = reference.generate(config, Path(tmp) / "old")
        for name in SYNTH_FILES:
            assert (Path(tmp) / "new" / name).read_bytes() == (
                Path(tmp) / "old" / name).read_bytes(), name
        assert [(kind, path.name, count) for kind, path, count in new.tables] \
            == [(kind, path.name, count) for kind, path, count in old.tables]
        assert new.planted == old.planted
