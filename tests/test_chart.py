"""Binning, aggregation and normalization of chart events."""

import gzip
import json
import math
import random
import tracemalloc
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chart_reference as reference
from conftest import epoch_seconds, matrix_blocks, seconds_by_id, write_csv
from fhir_reference import read_collection
from ehrpipe import chart
from ehrpipe.chart import (
    bin_events,
    ChartTensors,
    load_tensors,
    preprocess_admissions,
    read_chart_events,
    read_chart_events_from_collection,
    save_stats,
    save_tensors,
)
from ehrpipe.errors import DataError
from ehrpipe.fhir_etl import transform
from ehrpipe.tables import (
    TABLE_COLUMNS,
    TableKind,
    parse_timestamp,
    read_admission_times,
)

DISCHARGE = datetime(2130, 1, 10, 12, 0, 0)
COLUMNS = list(TABLE_COLUMNS[TableKind.CHARTEVENTS])


def _ev(type_id, before, value, adm="A"):
    """A chartevents row: type_id measured value, before (hours or a
    timedelta) ahead of DISCHARGE, in admission adm."""
    if not isinstance(before, timedelta):
        before = timedelta(hours=before)
    cells = dict.fromkeys(COLUMNS, "")
    cells.update(row_id="1", subject_id="1", hadm_id=adm, itemid=type_id,
                 charttime=f"{DISCHARGE - before:%Y-%m-%d %H:%M:%S}",
                 valuenum=str(value))
    return list(cells.values())


@pytest.fixture
def binned(tmp_path):
    """bin_events over a chartevents CSV of _ev rows; admission A (or
    every admission of discharge) is discharged at DISCHARGE."""
    def run(rows, discharge=None, numeric_fraction=0.9):
        path = write_csv(tmp_path / "chartevents.csv", COLUMNS, rows)
        return bin_events(read_chart_events(path), seconds_by_id(
            {"A": DISCHARGE} if discharge is None else discharge),
            numeric_fraction)

    return run


def _bins(binned, offsets):
    """The bin of one event per offset before DISCHARGE, each in its own
    admission; None where the event reaches no cell."""
    names = [str(i) for i in range(len(offsets))]
    raw, _ = binned([_ev("1", off, 1.0, adm) for off, adm
                     in zip(offsets, names)],
                    dict.fromkeys(names, DISCHARGE))
    bins = {adm: int(np.flatnonzero(mask[0])[0])
            for adm, mask in zip(raw.admission_ids.tolist(), raw.mask)}
    return [bins.get(adm) for adm in names]


def _bin_of(binned, offset):
    return _bins(binned, [offset])[0]


class TestAssignBin:
    """Bin assignment, at its call site in bin_events."""

    def test_five_hours_before_is_last_bin(self, binned):
        assert _bin_of(binned, timedelta(hours=5)) == 3

    def test_thirty_hours_before_is_first_bin(self, binned):
        assert _bin_of(binned, timedelta(hours=30)) == 0

    def test_exactly_eight_hours_lands_in_earlier_bin(self, binned):
        assert _bin_of(binned, timedelta(hours=8)) == 2

    def test_boundaries(self, binned):
        assert _bins(binned, [timedelta(0), timedelta(hours=16),
                              timedelta(hours=24)]) == [3, 1, 0]

    def test_after_discharge_rejected(self, binned):
        assert _bin_of(binned, timedelta(minutes=-1)) is None

    def test_dense_grid_partition(self, binned):
        # every minute of discharge-40h .. discharge maps to exactly one bin
        minutes = range(0, 40 * 60 + 1)
        got = _bins(binned, [timedelta(minutes=m) for m in minutes])
        seen = set()
        for minute, b in zip(minutes, got):
            offset_h = minute / 60.0
            if offset_h >= 24:
                expected = 0
            elif offset_h >= 16:
                expected = 1
            elif offset_h >= 8:
                expected = 2
            else:
                expected = 3
            assert b == expected
            seen.add(b)
        assert seen == {0, 1, 2, 3}


def _each_own_admission(rows):
    """rows moved into admissions "1", "2", ... so that each event has a
    cell of its own, with all of them discharged at DISCHARGE."""
    names = [str(i) for i in range(1, len(rows) + 1)]
    for row, adm in zip(rows, names):
        row[COLUMNS.index("hadm_id")] = adm
    return rows, dict.fromkeys(names, DISCHARGE)


class TestFilterNumeric:
    """The numeric-type filter, at its call site in bin_events; each event
    has a cell of its own, so cells count the retained events."""

    def test_mixed_types(self, binned):
        events = [
            _ev("1", 1, "3.5"), _ev("1", 2, "4.5"),
            _ev("2", 1, "7"),
            _ev("3", 1, "sinus rhythm"), _ev("3", 2, "paced"),
        ]
        raw, catalog = binned(*_each_own_admission(events))
        assert catalog == ["1", "2"]
        assert raw.values.dtype == np.float64
        assert raw.mask.sum() == 3

    def test_all_numeric_is_identity(self, binned):
        events = [_ev("1", i, str(i)) for i in range(1, 5)]
        raw, catalog = binned(*_each_own_admission(events))
        assert catalog == ["1"]
        assert raw.values[raw.mask].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_numeric_fraction_threshold(self, binned):
        # 10-row fixture: type kept at 9/10 numeric, dropped at 8/10
        mostly = [_ev("5", i, str(i)) for i in range(9)] + \
            [_ev("5", 9, "error")]
        noisy = [_ev("6", i, str(i)) for i in range(8)] + \
            [_ev("6", 8, "a"), _ev("6", 9, "b")]
        raw, catalog = binned(*_each_own_admission(mostly + noisy))
        assert catalog == ["5"]
        assert raw.mask.sum() == 9  # the one non-parsing row is dropped

    def test_catalog_sorted_numerically(self, binned):
        events = [_ev(t, 1, "1") for t in ("10", "2", "1")]
        _, catalog = binned(events)
        assert catalog == ["1", "2", "10"]


class TestAggregate:
    """Cell means, at their call site in bin_events."""

    def test_same_cell_mean(self, binned):
        raw, _ = binned([_ev("1", 2, 4.0), _ev("1", 3, 6.0)])
        values, mask = raw.values[0], raw.mask[0]
        assert values[0, 3] == 5.0
        assert mask[0, 3]

    def test_single_value(self, binned):
        raw, _ = binned([_ev("1", 2, 7.5)])
        assert raw.values[0][0, 3] == 7.5

    def test_empty_cell_masked(self, binned):
        raw, _ = binned([_ev("1", 2, 7.5)])
        assert not raw.mask[0][0, 0]

    def test_mean_idempotence_is_exact(self, binned):
        # 0.1 repeated: naive sum/3 would give 0.10000000000000002
        raw, _ = binned([_ev("1", 2, 0.1) for _ in range(3)])
        assert raw.values[0][0, 3] == 0.1

    def test_permutation_invariance(self, binned):
        rng = random.Random(4)
        events = [
            _ev(str(rng.randrange(1, 4)), rng.uniform(0, 48),
                rng.uniform(-5, 5))
            for _ in range(60)
        ]
        base, catalog = binned(events)
        assert catalog == ["1", "2", "3"]
        shuffled = events[:]
        rng.shuffle(shuffled)
        other, _ = binned(shuffled)
        np.testing.assert_array_equal(base.values[0], other.values[0])
        np.testing.assert_array_equal(base.mask[0], other.mask[0])

    def test_event_after_discharge_dropped_at_ingest(self, binned):
        raw, _ = binned([_ev("1", -1, 3.0), _ev("1", 2, 5.0)])
        values, mask = raw.values[0], raw.mask[0]
        assert mask.sum() == 1
        assert values[0, 3] == 5.0

    def test_long_cells_sum_left_to_right(self, binned):
        # cells of 1, 2, 3 and 40 values, summed in sorted order
        rng = random.Random(9)
        cells = {(adm, hours): [rng.uniform(-5, 5) for _ in range(n)]
                 for adm, hours, n in (("A", 1, 1), ("A", 30, 40),
                                       ("B", 9, 2), ("B", 17, 3))}
        events = [_ev("1", hours, value, adm)
                  for (adm, hours), cell in cells.items() for value in cell]
        raw, _ = binned(events, dict.fromkeys("AB", DISCHARGE))
        got = dict(zip(raw.admission_ids.tolist(), raw.values[:, 0]))
        for (adm, hours), cell in cells.items():
            total = 0.0
            for value in sorted(cell):
                total += value
            expected = total / len(cell) if len(cell) > 1 else cell[0]
            b = 3 - (hours >= 8) - (hours >= 16) - (hours >= 24)
            assert got[adm][b] == expected


def _normalized(values, mask, fit_ids=None):
    """preprocess_admissions over one event per masked cell of the
    (admissions, types, 4) arrays: the tensors and the statistics."""
    tensors, _, stats = preprocess_admissions(*matrix_blocks(values, mask),
                                              fit_ids)
    return tensors, stats


def _hand_computed():
    """One type with the values 1, 2 and 3 in bins 0-2 of one admission."""
    values = np.zeros((1, 1, 4))
    mask = np.zeros((1, 1, 4), dtype=bool)
    values[0, 0, :3] = [1.0, 2.0, 3.0]
    mask[0, 0, :3] = True
    return values, mask


class TestNormalization:
    """Normalization, at its call site in preprocess_admissions."""

    def test_hand_computed_stats(self):
        _, stats = _normalized(*_hand_computed())
        assert stats["mean"][0] == pytest.approx(2.0, abs=1e-12)
        assert stats["stddev"][0] == pytest.approx(math.sqrt(2.0 / 3.0),
                                                   abs=1e-12)

    def test_constant_and_single_cells(self):
        values = np.array([[[5.0, 5.0, 0.0, 0.0], [7.0, 0.0, 0.0, 0.0]]])
        mask = np.array([[[True, True, False, False],
                          [True, False, False, False]]])
        _, stats = _normalized(values, mask)
        assert stats["mean"] == [5.0, 7.0]
        assert stats["stddev"] == [0.0, 0.0]

    def test_empty_type_rejected(self):
        # type 1's only cell is in admission 2, which is not fitted on
        values = np.zeros((2, 2, 4))
        mask = np.zeros((2, 2, 4), dtype=bool)
        mask[0, 0, 0] = mask[1, 1, 0] = True
        with pytest.raises(DataError,
                           match=r"contributing cells for type\(s\) \['1'\]"):
            _normalized(values, mask, fit_ids={"1"})

    def test_apply_hand_computed(self):
        tensors, _ = _normalized(*_hand_computed())
        z = tensors.values[0]
        assert z[0, 2] == pytest.approx(
            math.sqrt(3.0 / 2.0), abs=1e-12
        )  # (3-2)/sqrt(2/3)
        assert z[0, 1] == 0.0  # x equals the mean
        assert z[0, 3] == 0.0  # unmasked fill

    def test_zero_stddev_maps_to_zero(self):
        tensors, _ = _normalized(np.full((1, 1, 4), 5.0),
                                 np.ones((1, 1, 4), dtype=bool))
        assert np.all(tensors.values == 0.0)

    def test_stats_span_the_catalog(self, tmp_path):
        # type 3 is not numeric, so neither the tensors nor the stats hold it
        rows = [_ev("10", 1, 4.0), _ev("1", 2, 1.0), _ev("1", 10, 3.0),
                _ev("3", 1, "sinus rhythm")]
        path = write_csv(tmp_path / "chartevents.csv", COLUMNS, rows)
        tensors, catalog, stats = preprocess_admissions(
            read_chart_events(path), seconds_by_id({"A": DISCHARGE}))
        assert catalog == stats["type_ids"] == ["1", "10"]
        assert tensors.values.shape == (1, 2, 4)
        assert stats["mean"] == [2.0, 4.0]
        assert stats["count"] == [2, 1]

    def test_normalization_law_on_fit_set(self):
        rng = np.random.default_rng(11)
        matrices = []
        for _ in range(30):
            values = rng.normal(10.0, 4.0, size=(3, 4))
            mask = rng.random((3, 4)) < 0.7
            mask[:, 0] = True  # keep every type populated
            matrices.append((values, mask))
        mask = np.stack([m for _, m in matrices])
        tensors, _ = _normalized(np.stack([v for v, _ in matrices]), mask)
        z = tensors.values
        for t in range(3):
            cells = np.concatenate(
                [z[i, t][mask[i, t]] for i in range(len(matrices))]
            )
            assert abs(cells.mean()) < 1e-9
            assert abs(cells.var() - 1.0) < 1e-9

    def test_normalizes_in_place(self):
        """The traced peak stays under twice the bytes of the values and
        mask returned, at 300 admissions of 450 types and some 60 events
        each: no full-size copy of the values is made."""
        rng = np.random.default_rng(5)
        n, n_types = 300, 450
        mask = rng.random((n, n_types, 4)) < 60 / (n_types * 4)
        mask[np.arange(n_types) % n, np.arange(n_types), 0] = True
        blocks, discharge = matrix_blocks(rng.normal(size=mask.shape), mask)
        tracemalloc.start()
        try:
            tensors, _, _ = preprocess_admissions(blocks, discharge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (tensors.values.nbytes + tensors.mask.nbytes)


class TestPersistenceAndReaders:
    def test_tensor_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        tensors = ChartTensors(np.array([str(i) for i in range(4)]),
                               rng.normal(size=(4, 3, 4)),
                               rng.random((4, 3, 4)) < 0.5)
        path = tmp_path / "tensors.npz"
        save_tensors(path, tensors, ["1", "2", "3"])
        loaded, catalog = load_tensors(path)
        assert catalog == ["1", "2", "3"]
        for a, b in zip(tensors.admission_ids, loaded.admission_ids):
            assert a == b
        np.testing.assert_array_equal(tensors.values, loaded.values)
        np.testing.assert_array_equal(tensors.mask, loaded.mask)

    def test_stats_roundtrip(self, tmp_path):
        _, stats = _normalized(*_hand_computed())
        path = tmp_path / "stats.json"
        save_stats(path, stats)
        loaded = reference.load_stats(path)
        assert loaded.type_ids == stats["type_ids"]
        np.testing.assert_allclose(loaded.mean, stats["mean"])
        np.testing.assert_allclose(loaded.stddev, stats["stddev"])

    def test_csv_and_collection_readers_agree(self, small_dataset, tmp_path):
        paths = {kind: path for kind, path, _ in small_dataset.tables}
        collection_path = tmp_path / "chartevents.json.gz"
        transform(paths[TableKind.CHARTEVENTS], collection_path,
                  TableKind.CHARTEVENTS)
        from_csv = _events(read_chart_events(paths[TableKind.CHARTEVENTS]))
        from_col = _events(read_chart_events_from_collection(collection_path))
        assert len(from_csv["value"]) == len(from_col["value"])
        for column in ("admission", "type", "charttime"):
            assert from_csv[column] == from_col[column]

    def test_readers_agree_on_a_blank_valuenum(self, csv_writer, tmp_path):
        columns = list(TABLE_COLUMNS[TableKind.CHARTEVENTS])
        cells = dict.fromkeys(columns, "")
        cells.update(row_id="1", subject_id="1", hadm_id="7", itemid="42",
                     charttime="2130-01-10 08:00:00", value="7.5",
                     valuenum="  ")
        path = csv_writer("chartevents.csv", columns, [list(cells.values())])
        collection_path = tmp_path / "chartevents.json"
        transform(path, collection_path, TableKind.CHARTEVENTS)
        from_csv = _events(read_chart_events(path))["value"]
        from_col = _events(
            read_chart_events_from_collection(collection_path))["value"]
        assert from_csv == from_col == [7.5]

    def test_non_finite_valuenum_stays_a_string(self, csv_writer, tmp_path):
        columns = list(TABLE_COLUMNS[TableKind.CHARTEVENTS])
        raws = ["nan", "inf", "1e400", "-Infinity", "2.5", "4"]
        rows = []
        for hour, raw in enumerate(raws):
            cells = dict.fromkeys(columns, "")
            cells.update(row_id=str(hour), subject_id="1", hadm_id="7",
                         itemid="42", charttime=f"2130-01-10 0{hour}:00:00",
                         valuenum=raw)
            rows.append(list(cells.values()))
        path = csv_writer("chartevents.csv", columns, rows)
        collection_path = tmp_path / "chartevents.json"
        transform(path, collection_path, TableKind.CHARTEVENTS)

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        records = json.loads(collection_path.read_text(encoding="utf-8"),
                             parse_constant=reject)
        assert [r["valueQuantity"] for r in records] == [
            "nan", "inf", "1e400", "-Infinity", 2.5, 4.0]
        from_csv = _events(read_chart_events(path))["value"]
        from_col = _events(
            read_chart_events_from_collection(collection_path))["value"]
        # A value that is not a finite number is NaN in an event block.
        assert all(math.isnan(v) for v in from_csv[:4])
        assert all(math.isnan(v) for v in from_col[:4])
        discharge = seconds_by_id({"7": datetime(2130, 1, 10, 12)})
        kept_csv, _ = bin_events(read_chart_events(path), discharge, 0.3)
        kept_col, _ = bin_events(
            read_chart_events_from_collection(collection_path), discharge, 0.3)
        _assert_same(kept_csv, kept_col)
        assert kept_col.values[kept_col.mask].tolist() == [2.5, 4.0]

    def test_preprocess_excludes_admissions_without_events(
            self, small_dataset):
        paths = {kind: path for kind, path, _ in small_dataset.tables}
        times = read_admission_times(paths[TableKind.ADMISSIONS])
        discharge = {adm: t[1] for adm, t in times.items()}
        tensors, catalog, stats = preprocess_admissions(
            read_chart_events(paths[TableKind.CHARTEVENTS]), discharge
        )
        assert len(catalog) == small_dataset.config.n_observation_types
        assert len(tensors) <= small_dataset.config.n_admissions
        for mask in tensors.mask:
            assert mask.any()


def _events(blocks) -> dict[str, list]:
    """Each column of the event blocks, ids as their texts."""
    out = {"admission": [], "type": [], "value": [], "charttime": []}
    for hadm_id, itemid, value, charttime in blocks:
        out["admission"] += map(chart._text, hadm_id)
        out["type"] += map(chart._text, itemid)
        out["value"] += value.tolist()
        out["charttime"] += charttime.tolist()
    return out


def _assert_same(a: ChartTensors, b: ChartTensors):
    """Equal ids, and values and masks equal to the bit."""
    assert a.admission_ids.tolist() == b.admission_ids.tolist()
    assert a.values.dtype == b.values.dtype == np.float64
    assert a.values.tobytes() == b.values.tobytes()
    assert a.mask.tobytes() == b.mask.tobytes()


def _tensor_bytes(tmp_path, result) -> tuple[bytes, bytes]:
    """tensors.npz and chart_stats.json, as preprocess writes them."""
    tensors, catalog, stats = result
    save_tensors(tmp_path / "tensors.npz", tensors, catalog)
    save_stats(tmp_path / "chart_stats.json", stats)
    return ((tmp_path / "tensors.npz").read_bytes(),
            (tmp_path / "chart_stats.json").read_bytes())


class TestSignedZero:
    def test_order_of_signed_zeros_does_not_change_bytes(self, binned,
                                                         tmp_path):
        # Type 1 has mean 0 and one cell holding both zeros.
        def preprocessed(first, second):
            rows, discharge = [_ev("1", 2, first), _ev("1", 3, second),
                               _ev("1", 2, 1.0, "B"), _ev("1", 2, -1.0, "C")
                               ], dict.fromkeys("ABC", DISCHARGE)
            path = write_csv(tmp_path / "chartevents.csv", COLUMNS, rows)
            return _tensor_bytes(tmp_path, preprocess_admissions(
                read_chart_events(path), seconds_by_id(discharge)))

        assert preprocessed(-0.0, 0.0) == preprocessed(0.0, -0.0)
        raw, _ = binned([_ev("1", 2, -0.0), _ev("1", 3, -0.0)])
        assert math.copysign(1.0, raw.values[0][0, 3]) == 1.0


# --- bit identity with the per-event reference ----------------------------

HOUR = timedelta(hours=1)
# Admissions with a discharge time; "9" has none. " 2 " strips to "2".
KNOWN = {"1": DISCHARGE, "2": DISCHARGE - 30 * HOUR, "10": DISCHARGE}
_ids = st.sampled_from(["1", "2", " 2 ", "10", "9", "", 1, 2, 10, 9, True])
_type_ids = st.sampled_from(["5", "6", "06", "7", " 7", "x", 5, 6, 7, True])
_offsets = st.one_of(
    st.sampled_from([0 * HOUR, 8 * HOUR, 16 * HOUR, 24 * HOUR,
                     -timedelta(seconds=1), -HOUR, 8 * HOUR - timedelta(
                         seconds=1), 24 * HOUR + timedelta(seconds=1)]),
    st.integers(-3600, 40 * 3600).map(lambda s: timedelta(seconds=s)))
_stamp_forms = st.sampled_from([
    "%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%dt%H:%M:%S",
    "%Y-%m-%d", " %Y-%m-%d %H:%M:%S ", "%Y-%-m-%-d %-H:%M:%S"])
_odd_stamps = st.sampled_from([
    "2130-1-1 00:00:00", "2130-02-30 00:00:00", "2130-01-09 24:00:00",
    "2130-01-09 23:60:00", "2130-01-09 23:00:60", "0000-01-01 00:00:00",
    "2128-02-29 10:00:00", "2129-02-29 10:00:00", "x", "", "  ",
    "2130-01-10\t08:00:00", "２１３０-01-10 08:00:00", None, 5])
_numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, -1.5, 1e150, 5e-324]),
    st.floats(-100, 100).map(lambda v: round(v, 2)),
    st.integers(-5, 5))
_raw_values = st.one_of(
    _numbers, _numbers.map(str),
    st.sampled_from(["nan", "inf", "-Infinity", "1e400", " 7.5 ", "abc",
                     "", "  ", "1_000", None, True]))


@st.composite
def _rows(draw):
    """(hadm_id, itemid, charttime, valuenum, value) cells, JSON-typed."""
    when = draw(st.one_of(
        st.tuples(_offsets, _stamp_forms).map(
            lambda p: _strftime(DISCHARGE - p[0], p[1])),
        _odd_stamps))
    return (draw(_ids), draw(_type_ids), when, draw(_raw_values),
            draw(_raw_values))


def _strftime(when: datetime, form: str) -> str:
    # %-m and %-d, single-digit fields, are not portable; spell them out.
    return (when.strftime(form.replace("%-m", "{m}").replace("%-d", "{d}")
                          .replace("%-H", "{H}"))
            .format(m=when.month, d=when.day, H=when.hour))


def _write_both(tmp_path, rows):
    """The rows as a chartevents CSV and as a collection in the writer's
    layout; the CSV holds every cell as text."""
    def text(cell):
        return "" if cell is None else str(cell)

    csv_rows = []
    records = []
    for hadm_id, itemid, charttime, valuenum, value in rows:
        cells = dict.fromkeys(COLUMNS, "")
        cells.update(hadm_id=text(hadm_id), itemid=text(itemid),
                     charttime=text(charttime), valuenum=text(valuenum),
                     value=text(value))
        csv_rows.append(list(cells.values()))
        records.append({"resource_type": "observation",
                        "mimic_source_table": "chartevents",
                        "encounter": hadm_id, "code": itemid,
                        "effectiveDateTime": charttime,
                        "valueQuantity": valuenum, "valueString": value})
    csv_path = write_csv(tmp_path / "chartevents.csv", COLUMNS, csv_rows)
    collection = tmp_path / "chartevents.json"
    lines = ",\n ".join(json.dumps(r, ensure_ascii=False) for r in records)
    collection.write_text(f"[\n {lines}\n]\n" if records else "[]\n",
                          encoding="utf-8")
    return csv_path, collection


def _outcome(run):
    try:
        return run()
    except DataError as exc:
        return ("DataError", str(exc))


def _assert_same_outcome(got, want):
    if isinstance(want, tuple) and want[0] == "DataError":
        assert got == want
        return
    (tensors, catalog, stats), (tensors_ref, catalog_ref, stats_ref) = (
        got, want)
    _assert_same(tensors, tensors_ref)
    assert catalog == catalog_ref
    assert stats["type_ids"] == stats_ref.type_ids
    assert np.array(stats["mean"]).tobytes() == stats_ref.mean.tobytes()
    assert np.array(stats["stddev"]).tobytes() == stats_ref.stddev.tobytes()
    assert stats["count"] == stats_ref.count.tolist()


class TestBitIdentityWithReference:
    @settings(max_examples=300, deadline=None, database=None)
    @given(rows=st.lists(_rows(), max_size=40),
           numeric_fraction=st.sampled_from([0.0, 0.5, 0.75, 0.9, 1.0]),
           fit=st.sampled_from([None, {"1"}, {"1", "2", "10"}]),
           seed=st.integers(0, 3))
    def test_columnar_core_matches_per_event_path(
            self, tmp_path_factory, rows, numeric_fraction, fit, seed):
        tmp_path = tmp_path_factory.mktemp("bits")
        random.Random(seed).shuffle(rows)
        csv_path, collection = _write_both(tmp_path, rows)
        for new, old in ((read_chart_events, reference.read_chart_events),
                         (read_chart_events_from_collection,
                          reference.read_chart_events_from_collection)):
            path = csv_path if new is read_chart_events else collection
            got = _outcome(lambda: preprocess_admissions(
                new(path), seconds_by_id(KNOWN), fit, numeric_fraction))
            want = _outcome(lambda: reference.preprocess_admissions(
                old(path), KNOWN, fit, numeric_fraction))
            _assert_same_outcome(got, want)

    @pytest.mark.parametrize("numeric_fraction", [0.5, 0.9])
    def test_types_at_the_threshold(self, tmp_path, numeric_fraction):
        # type 5: 9 of 10 values numeric; type 6: 1 of 2; type 7: 8 of 10
        rows = [("1", "5", f"2130-01-10 0{i}:00:00", str(i), None)
                for i in range(9)]
        rows += [("1", "5", "2130-01-10 09:00:00", "error", None),
                 ("10", "6", "2130-01-10 01:00:00", "3", None),
                 ("10", "6", "2130-01-10 02:00:00", "a", None)]
        rows += [("1", "7", f"2130-01-10 0{i}:00:00",
                  str(i) if i < 8 else "b", None) for i in range(10)]
        csv_path, collection = _write_both(tmp_path, rows)
        for path, new, old in (
                (csv_path, read_chart_events, reference.read_chart_events),
                (collection, read_chart_events_from_collection,
                 reference.read_chart_events_from_collection)):
            got = preprocess_admissions(new(path), seconds_by_id(KNOWN),
                                        numeric_fraction=numeric_fraction)
            want = reference.preprocess_admissions(
                old(path), KNOWN, numeric_fraction=numeric_fraction)
            _assert_same_outcome(got, want)
            assert got[1] == (["5", "6", "7"] if numeric_fraction == 0.5
                              else ["5"])

    def test_empty_input(self, tmp_path):
        csv_path, collection = _write_both(tmp_path, [])
        for path, new in ((csv_path, read_chart_events),
                          (collection, read_chart_events_from_collection)):
            tensors, catalog, stats = preprocess_admissions(
                new(path), seconds_by_id(KNOWN))
            assert catalog == [] and len(tensors) == 0
            assert tensors.values.shape == (0, 0, 4)


_canonical = st.tuples(
    st.integers(1, 9999), st.integers(0, 13), st.integers(0, 32),
    st.integers(0, 25), st.integers(0, 61), st.integers(0, 61),
    st.sampled_from(" Tt_"),
).map(lambda f: f"{f[0]:04}-{f[1]:02}-{f[2]:02}{f[6]}{f[3]:02}:{f[4]:02}:"
      f"{f[5]:02}")


def _assert_charttimes(tmp_path, stamps):
    """The CSV reader's charttime column is parse_timestamp in seconds."""
    rows = [("1", "5", stamp, "1", None) for stamp in stamps]
    csv_path, _ = _write_both(tmp_path, rows)
    got = _events(read_chart_events(csv_path))["charttime"]
    want = [epoch_seconds(when) for when in map(parse_timestamp, stamps)
            if when is not None]
    assert got == want


class TestTimestamps:
    @pytest.mark.parametrize("stamp", [
        "2000-02-29 00:00:00", "2100-02-29 00:00:00", "1900-02-29T00:00:00",
        "2104-02-29 12:00:00", "2130-04-31 00:00:00", "2130-12-31 23:59:59",
        "0001-01-01 00:00:00", "9999-12-31 23:59:59", "1969-12-31 23:59:59",
        "2130-00-10 00:00:00", "2130-13-10 00:00:00", "2130-01-00 00:00:00",
    ])
    def test_calendar_edges(self, tmp_path, stamp):
        _assert_charttimes(tmp_path, [stamp])

    @settings(max_examples=400, deadline=None, database=None)
    @given(st.lists(st.one_of(_canonical, st.text(
        alphabet="0123456789-: Tt\x00", max_size=21)), min_size=1,
        max_size=30))
    def test_charttime_is_parse_timestamp_in_seconds(self, tmp_path_factory,
                                                     stamps):
        _assert_charttimes(tmp_path_factory.mktemp("t"), stamps)


# --- collection layouts -----------------------------------------------------

class TestCollectionLayouts:
    def test_other_layouts_give_the_same_tensors(self, small_dataset,
                                                 tmp_path, monkeypatch):
        from ehrpipe import tables

        monkeypatch.setattr(tables, "_JSON_BLOCK_CHARS", 4096)
        paths = {kind: path for kind, path, _ in small_dataset.tables}
        times = read_admission_times(paths[TableKind.ADMISSIONS])
        discharge = {adm: t[1] for adm, t in times.items()}
        written = tmp_path / "chartevents.json.gz"
        transform(paths[TableKind.CHARTEVENTS], written,
                  TableKind.CHARTEVENTS)
        records = read_collection(written)
        one_line = tmp_path / "one_line.json"
        one_line.write_text(json.dumps(records), encoding="utf-8")
        indented = tmp_path / "indented.json.gz"
        indented.write_bytes(gzip.compress(
            json.dumps(records, indent=2).encode("utf-8")))
        outcomes = [
            _tensor_bytes(tmp_path, preprocess_admissions(
                read_chart_events_from_collection(path), discharge))
            for path in (written, one_line, indented)]
        csv = _tensor_bytes(tmp_path, preprocess_admissions(
            read_chart_events(paths[TableKind.CHARTEVENTS]), discharge))
        assert outcomes == [csv] * 3
