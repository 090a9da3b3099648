"""Binning, aggregation and normalization of chart events."""

import json
import math
import random
from datetime import datetime, timedelta

import numpy as np
import pytest

from ehrpipe.chart import (
    aggregate_bins,
    apply_normalization,
    assign_bin,
    ChartTensors,
    filter_numeric,
    fit_normalization,
    load_stats,
    load_tensors,
    ObservationEvent,
    preprocess_admissions,
    read_chart_events,
    read_chart_events_from_collection,
    save_stats,
    save_tensors,
)
from ehrpipe.errors import (
    CatalogMismatch,
    EmptyType,
    EventAfterDischarge,
)
from ehrpipe.fhir_etl import transform
from ehrpipe.tables import TABLE_COLUMNS, TableKind, read_admission_times

DISCHARGE = datetime(2130, 1, 10, 12, 0, 0)


def _ev(type_id, hours_before, value, adm="A"):
    return ObservationEvent(
        admission_id=adm,
        observation_type_id=type_id,
        value=value,
        charttime=DISCHARGE - timedelta(hours=hours_before),
    )


class TestAssignBin:
    def test_five_hours_before_is_last_bin(self):
        assert assign_bin(DISCHARGE - timedelta(hours=5), DISCHARGE) == 3

    def test_thirty_hours_before_is_first_bin(self):
        assert assign_bin(DISCHARGE - timedelta(hours=30), DISCHARGE) == 0

    def test_exactly_eight_hours_lands_in_earlier_bin(self):
        assert assign_bin(DISCHARGE - timedelta(hours=8), DISCHARGE) == 2

    def test_boundaries(self):
        assert assign_bin(DISCHARGE, DISCHARGE) == 3
        assert assign_bin(DISCHARGE - timedelta(hours=16), DISCHARGE) == 1
        assert assign_bin(DISCHARGE - timedelta(hours=24), DISCHARGE) == 0

    def test_after_discharge_rejected(self):
        with pytest.raises(EventAfterDischarge):
            assign_bin(DISCHARGE + timedelta(minutes=1), DISCHARGE)

    def test_dense_grid_partition(self):
        # every minute of discharge-40h .. discharge maps to exactly one bin
        seen = set()
        for minute in range(0, 40 * 60 + 1):
            offset_h = minute / 60.0
            b = assign_bin(DISCHARGE - timedelta(minutes=minute), DISCHARGE)
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


class TestFilterNumeric:
    def test_mixed_types(self):
        events = [
            _ev("1", 1, "3.5"), _ev("1", 2, "4.5"),
            _ev("2", 1, "7"),
            _ev("3", 1, "sinus rhythm"), _ev("3", 2, "paced"),
        ]
        retained, catalog = filter_numeric(events)
        assert catalog == ["1", "2"]
        assert all(isinstance(e.value, float) for e in retained)
        assert len(retained) == 3

    def test_all_numeric_is_identity(self):
        events = [_ev("1", i, str(i)) for i in range(1, 5)]
        retained, catalog = filter_numeric(events)
        assert catalog == ["1"]
        assert [e.value for e in retained] == [1.0, 2.0, 3.0, 4.0]

    def test_numeric_fraction_threshold(self):
        # 10-row fixture: type kept at 9/10 numeric, dropped at 8/10
        mostly = [_ev("5", i, str(i)) for i in range(9)] + \
            [_ev("5", 9, "error")]
        noisy = [_ev("6", i, str(i)) for i in range(8)] + \
            [_ev("6", 8, "a"), _ev("6", 9, "b")]
        retained, catalog = filter_numeric(mostly + noisy)
        assert catalog == ["5"]
        assert len(retained) == 9  # the one non-parsing row is dropped

    def test_catalog_sorted_numerically(self):
        events = [_ev(t, 1, "1") for t in ("10", "2", "1")]
        _, catalog = filter_numeric(events)
        assert catalog == ["1", "2", "10"]


class TestAggregate:
    def test_same_cell_mean(self):
        events = [_ev("1", 2, 4.0), _ev("1", 3, 6.0)]
        out = aggregate_bins(events, ["1"], {"A": DISCHARGE})
        values, mask = out["A"]
        assert values[0, 3] == 5.0
        assert mask[0, 3]

    def test_single_value(self):
        out = aggregate_bins([_ev("1", 2, 7.5)], ["1"], {"A": DISCHARGE})
        values, mask = out["A"]
        assert values[0, 3] == 7.5

    def test_empty_cell_masked(self):
        out = aggregate_bins([_ev("1", 2, 7.5)], ["1"], {"A": DISCHARGE})
        _, mask = out["A"]
        assert not mask[0, 0]

    def test_mean_idempotence_is_exact(self):
        # 0.1 repeated: naive sum/3 would give 0.10000000000000002
        events = [_ev("1", 2, 0.1) for _ in range(3)]
        out = aggregate_bins(events, ["1"], {"A": DISCHARGE})
        assert out["A"][0][0, 3] == 0.1

    def test_permutation_invariance(self):
        rng = random.Random(4)
        events = [
            _ev(str(rng.randrange(1, 4)), rng.uniform(0, 48),
                rng.uniform(-5, 5))
            for _ in range(60)
        ]
        catalog = ["1", "2", "3"]
        base = aggregate_bins(events, catalog, {"A": DISCHARGE})
        shuffled = events[:]
        rng.shuffle(shuffled)
        other = aggregate_bins(shuffled, catalog, {"A": DISCHARGE})
        np.testing.assert_array_equal(base["A"][0], other["A"][0])
        np.testing.assert_array_equal(base["A"][1], other["A"][1])

    def test_event_after_discharge_dropped_at_ingest(self):
        late = ObservationEvent("A", "1", 3.0,
                                DISCHARGE + timedelta(hours=1))
        out = aggregate_bins([late, _ev("1", 2, 5.0)], ["1"],
                             {"A": DISCHARGE})
        values, mask = out["A"]
        assert mask.sum() == 1
        assert values[0, 3] == 5.0


class TestNormalization:
    def test_hand_computed_stats(self):
        values = np.zeros((1, 4))
        mask = np.zeros((1, 4), dtype=bool)
        values[0, :3] = [1.0, 2.0, 3.0]
        mask[0, :3] = True
        stats = fit_normalization([(values, mask)], ["1"])
        assert stats.mean[0] == pytest.approx(2.0, abs=1e-12)
        assert stats.stddev[0] == pytest.approx(math.sqrt(2.0 / 3.0),
                                                abs=1e-12)

    def test_constant_and_single_cells(self):
        values = np.array([[5.0, 5.0, 0.0, 0.0], [7.0, 0.0, 0.0, 0.0]])
        mask = np.array([[True, True, False, False],
                         [True, False, False, False]])
        stats = fit_normalization([(values, mask)], ["1", "2"])
        assert stats.mean.tolist() == [5.0, 7.0]
        assert stats.stddev.tolist() == [0.0, 0.0]

    def test_empty_type_rejected(self):
        values = np.zeros((2, 4))
        mask = np.zeros((2, 4), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(EmptyType):
            fit_normalization([(values, mask)], ["1", "2"])

    def test_apply_hand_computed(self):
        values = np.zeros((1, 4))
        mask = np.zeros((1, 4), dtype=bool)
        values[0, :3] = [1.0, 2.0, 3.0]
        mask[0, :3] = True
        stats = fit_normalization([(values, mask)], ["1"])
        z = apply_normalization(values, mask, stats)
        assert z[0, 2] == pytest.approx(
            math.sqrt(3.0 / 2.0), abs=1e-12
        )  # (3-2)/sqrt(2/3)
        assert z[0, 1] == 0.0  # x equals the mean
        assert z[0, 3] == 0.0  # unmasked fill

    def test_zero_stddev_maps_to_zero(self):
        values = np.full((1, 4), 5.0)
        mask = np.ones((1, 4), dtype=bool)
        stats = fit_normalization([(values, mask)], ["1"])
        z = apply_normalization(values, mask, stats)
        assert np.all(z == 0.0)

    def test_catalog_mismatch(self):
        values = np.zeros((2, 4))
        mask = np.ones((2, 4), dtype=bool)
        stats = fit_normalization([(values, mask)], ["1", "2"])
        with pytest.raises(CatalogMismatch):
            apply_normalization(np.zeros((3, 4)),
                                np.ones((3, 4), dtype=bool), stats)

    def test_normalization_law_on_fit_set(self):
        rng = np.random.default_rng(11)
        matrices = []
        for _ in range(30):
            values = rng.normal(10.0, 4.0, size=(3, 4))
            mask = rng.random((3, 4)) < 0.7
            mask[:, 0] = True  # keep every type populated
            matrices.append((values, mask))
        catalog = ["1", "2", "3"]
        stats = fit_normalization(matrices, catalog)
        mask = np.stack([m for _, m in matrices])
        z = apply_normalization(np.stack([v for v, _ in matrices]), mask,
                                stats)
        for t in range(3):
            cells = np.concatenate(
                [z[i, t][mask[i, t]] for i in range(len(matrices))]
            )
            assert abs(cells.mean()) < 1e-9
            assert abs(cells.var() - 1.0) < 1e-9


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
        values = np.array([[1.0, 2.0, 3.0, 0.0]])
        mask = np.array([[True, True, True, False]])
        stats = fit_normalization([(values, mask)], ["1"])
        path = tmp_path / "stats.json"
        save_stats(path, stats)
        loaded = load_stats(path)
        assert loaded.type_ids == stats.type_ids
        np.testing.assert_allclose(loaded.mean, stats.mean)
        np.testing.assert_allclose(loaded.stddev, stats.stddev)

    def test_csv_and_collection_readers_agree(self, small_dataset, tmp_path):
        paths = {kind: path for kind, path, _ in small_dataset.tables}
        collection_path = tmp_path / "chartevents.json.gz"
        transform(paths[TableKind.CHARTEVENTS], collection_path,
                  TableKind.CHARTEVENTS)
        from_csv = list(read_chart_events(paths[TableKind.CHARTEVENTS]))
        from_col = list(read_chart_events_from_collection(collection_path))
        assert len(from_csv) == len(from_col)
        for a, b in zip(from_csv, from_col):
            assert a.admission_id == b.admission_id
            assert a.observation_type_id == b.observation_type_id
            assert a.charttime == b.charttime

    def test_readers_agree_on_a_blank_valuenum(self, csv_writer, tmp_path):
        columns = list(TABLE_COLUMNS[TableKind.CHARTEVENTS])
        cells = dict.fromkeys(columns, "")
        cells.update(row_id="1", subject_id="1", hadm_id="7", itemid="42",
                     charttime="2130-01-10 08:00:00", value="7.5",
                     valuenum="  ")
        path = csv_writer("chartevents.csv", columns, [list(cells.values())])
        collection_path = tmp_path / "chartevents.json"
        transform(path, collection_path, TableKind.CHARTEVENTS)
        from_csv = [e.value for e in read_chart_events(path)]
        from_col = [e.value
                    for e in read_chart_events_from_collection(collection_path)]
        assert from_csv == from_col == ["7.5"]

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
        from_csv = list(read_chart_events(path))
        from_col = list(read_chart_events_from_collection(collection_path))
        assert [e.value for e in from_csv[:4]] == raws[:4]
        assert [e.value for e in from_col[:4]] == raws[:4]
        kept_csv, _ = filter_numeric(from_csv, numeric_fraction=0.3)
        kept_col, _ = filter_numeric(from_col, numeric_fraction=0.3)
        assert kept_csv == kept_col
        assert [e.value for e in kept_col] == [2.5, 4.0]

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
