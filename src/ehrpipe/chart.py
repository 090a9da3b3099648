"""Chart-event binning and normalization into admission tensors.

Every admission becomes a (types x 4) matrix: the last three columns are the
consecutive 8h windows before discharge, column 0 pools everything earlier.
Interval convention (half-open toward the past): bin 3 = (disch-8h, disch],
bin 2 = (disch-16h, disch-8h], bin 1 = (disch-24h, disch-16h], bin 0 =
(-inf, disch-24h]. An event stamped exactly on a boundary therefore lands in
the earlier (lower-index) bin. Cell values are means of the contributing
measurements, z-normalized per type with statistics fitted on the training
partition; empty cells are 0 (the per-type mean in z-space). ChartTensors
holds N admissions' matrices stacked, as the arrays tensors.npz stores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from . import fhir_etl
from .errors import (
    CatalogMismatch,
    EmptyType,
    EventAfterDischarge,
    IoFailure,
    SchemaMismatch,
)
from .tables import (
    TableKind,
    attribute_name,
    iter_csv_rows,
    load_admission_npz,
    load_json,
    parse_timestamp,
    reading,
    save_json,
    save_npz,
)

N_BINS = 4
_BIN_EDGE_HOURS = (24.0, 16.0, 8.0)  # offsets before discharge

#: Fraction of a type's values that must parse as numbers for the type to
#: be kept; rows of a retained type that still fail to parse are dropped.
DEFAULT_NUMERIC_FRACTION = 0.9

# Source columns the chart readers use; a collection names them by the
# attribute names the transform gave them.
_CHART_COLUMNS = ("hadm_id", "itemid", "charttime", "valuenum", "value")
_COLLECTION_NAME = partial(attribute_name, TableKind.CHARTEVENTS)
_COLLECTION_ATTRIBUTES = frozenset(map(_COLLECTION_NAME, _CHART_COLUMNS))


@dataclass
class ObservationEvent:
    admission_id: str
    observation_type_id: str
    value: object  # raw string before filtering, float afterwards
    charttime: datetime


@dataclass
class ChartTensors:
    admission_ids: np.ndarray  # str (N,)
    values: np.ndarray  # float64 (N, n_types, 4)
    mask: np.ndarray  # bool (N, n_types, 4)

    def __len__(self) -> int:
        return len(self.admission_ids)


@dataclass
class NormalizationStats:
    type_ids: list[str]
    mean: np.ndarray  # float64 (n_types,)
    stddev: np.ndarray  # float64 (n_types,)
    count: np.ndarray  # int64 (n_types,)


def _parse_number(raw) -> Optional[float]:
    if isinstance(raw, (int, float)):
        value = float(raw)
        return value if math.isfinite(value) else None
    try:
        value = float(str(raw).strip())
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def _catalog_sort_key(type_id: str):
    text = str(type_id)
    return (0, int(text), "") if text.isdigit() else (1, 0, text)


def filter_numeric(
    events: Iterable[ObservationEvent],
    numeric_fraction: float = DEFAULT_NUMERIC_FRACTION,
) -> tuple[list[ObservationEvent], list[str]]:
    """Keep only events of numeric observation types.

    A type is numeric when at least numeric_fraction of its values parse as
    finite numbers. Returns the retained events (values as floats) and the
    catalog of retained type ids in stable sorted order.
    """
    events = list(events)
    values = [_parse_number(ev.value) for ev in events]
    numeric_counts: dict[str, int] = {}
    total_counts: dict[str, int] = {}
    for ev, value in zip(events, values):
        tid = str(ev.observation_type_id)
        total_counts[tid] = total_counts.get(tid, 0) + 1
        if value is not None:
            numeric_counts[tid] = numeric_counts.get(tid, 0) + 1
    catalog = sorted(
        (
            tid
            for tid, total in total_counts.items()
            if numeric_counts.get(tid, 0) >= numeric_fraction * total
            and numeric_counts.get(tid, 0) > 0
        ),
        key=_catalog_sort_key,
    )
    keep = set(catalog)
    retained = []
    for ev, value in zip(events, values):
        tid = str(ev.observation_type_id)
        if tid not in keep or value is None:
            continue
        retained.append(
            ObservationEvent(
                admission_id=str(ev.admission_id),
                observation_type_id=tid,
                value=value,
                charttime=ev.charttime,
            )
        )
    return retained, catalog


def assign_bin(charttime: datetime, discharge_time: datetime) -> int:
    """Time bin of an observation relative to discharge (see module doc)."""
    if charttime > discharge_time:
        raise EventAfterDischarge(
            f"event at {charttime} is after discharge {discharge_time}"
        )
    offset_hours = (discharge_time - charttime).total_seconds() / 3600.0
    if offset_hours >= _BIN_EDGE_HOURS[0]:
        return 0
    if offset_hours >= _BIN_EDGE_HOURS[1]:
        return 1
    if offset_hours >= _BIN_EDGE_HOURS[2]:
        return 2
    return 3


def aggregate_bins(
    events: Iterable[ObservationEvent],
    catalog: list[str],
    discharge_times: dict[str, datetime],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-admission raw (types x 4) mean matrix plus contribution mask.

    Events of admissions without a discharge time or stamped after discharge
    are dropped (rejection at ingest). Cell contributions are sorted before
    summation, so event order never affects the result, not even in the last
    float bit.
    """
    index = {tid: i for i, tid in enumerate(catalog)}
    cells: dict[str, dict[tuple[int, int], list[float]]] = {}
    for ev in events:
        tid = str(ev.observation_type_id)
        pos = index.get(tid)
        if pos is None:
            continue
        adm = str(ev.admission_id)
        disch = discharge_times.get(adm)
        if disch is None or ev.charttime > disch:
            continue
        b = assign_bin(ev.charttime, disch)
        cells.setdefault(adm, {}).setdefault((pos, b), []).append(
            float(ev.value)
        )
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for adm, adm_cells in cells.items():
        values = np.zeros((len(catalog), N_BINS))
        mask = np.zeros((len(catalog), N_BINS), dtype=bool)
        for (pos, b), contributions in adm_cells.items():
            contributions.sort()
            if contributions[0] == contributions[-1]:
                values[pos, b] = contributions[0]  # exact mean idempotence
            else:
                values[pos, b] = sum(contributions) / len(contributions)
            mask[pos, b] = True
        out[adm] = (values, mask)
    return out


def fit_normalization(
    matrices: Iterable[tuple[np.ndarray, np.ndarray]],
    catalog: list[str],
) -> NormalizationStats:
    """Per-type mean and population stddev over all masked cells.

    Two-pass computation for numerical stability. Raises EmptyType when a
    catalog type contributes no cells anywhere in the fit set.
    """
    matrices = list(matrices)
    n_types = len(catalog)
    total = np.zeros(n_types)
    count = np.zeros(n_types, dtype=np.int64)
    for values, mask in matrices:
        if values.shape != (n_types, N_BINS):
            raise CatalogMismatch(
                f"matrix shape {values.shape} != ({n_types}, {N_BINS})"
            )
        total += np.where(mask, values, 0.0).sum(axis=1)
        count += mask.sum(axis=1)
    empty = np.flatnonzero(count == 0)
    if empty.size:
        raise EmptyType(
            f"no contributing cells for type(s) {[catalog[i] for i in empty]}"
        )
    mean = total / count
    sq = np.zeros(n_types)
    for values, mask in matrices:
        delta = values - mean[:, None]
        sq += np.where(mask, delta * delta, 0.0).sum(axis=1)
    stddev = np.sqrt(sq / count)
    return NormalizationStats(
        type_ids=list(catalog), mean=mean, stddev=stddev, count=count
    )


def apply_normalization(
    values: np.ndarray,
    mask: np.ndarray,
    stats: NormalizationStats,
) -> np.ndarray:
    """Z-normalize raw (..., types, 4) matrices; zero-variance types and
    empty cells -> 0."""
    n_types = len(stats.type_ids)
    if values.shape[-2:] != (n_types, N_BINS) or mask.shape != values.shape:
        raise CatalogMismatch(
            f"matrix shape {values.shape} does not match {n_types} types"
        )
    safe_std = np.where(stats.stddev > 0, stats.stddev, 1.0)
    z = (values - stats.mean[:, None]) / safe_std[:, None]
    return np.where(mask & (stats.stddev[:, None] > 0), z, 0.0)


def _text(cell) -> str:
    return "" if cell is None else str(cell).strip()


def _chart_events(rows, name) -> Iterator[ObservationEvent]:
    """Events out of chartevents rows; each cell is row.get(name(column)).

    valuenum is preferred when it is neither null nor blank; otherwise the
    raw value is kept for the numeric-type filter to judge. Rows without a
    parseable charttime are dropped.
    """
    hadm_id, itemid, charttime, valuenum, value = map(name, _CHART_COLUMNS)
    for row in rows:
        when = parse_timestamp(_text(row.get(charttime)))
        if when is None:
            continue
        raw = row.get(valuenum)
        yield ObservationEvent(
            admission_id=_text(row.get(hadm_id)),
            observation_type_id=_text(row.get(itemid)),
            value=raw if _text(raw) else row.get(value),
            charttime=when,
        )


def read_chart_events(path) -> Iterator[ObservationEvent]:
    """Stream chart events from a chartevents CSV (plain or gzip)."""
    yield from _chart_events(iter_csv_rows(path, _CHART_COLUMNS), str)


def read_chart_events_from_collection(path) -> Iterator[ObservationEvent]:
    """Chart events out of a chartevents collection file, read whole.

    Every record must carry the attributes the events are built from, null
    or not; any other kind of collection raises SchemaMismatch.
    """
    records = fhir_etl.read_collection(path)
    for index, record in enumerate(records):
        if not record.keys() >= _COLLECTION_ATTRIBUTES:
            missing = sorted(_COLLECTION_ATTRIBUTES - record.keys())
            raise SchemaMismatch(f"{path}: record {index} lacks {missing}")
    yield from _chart_events(records, _COLLECTION_NAME)


# --- persistence -----------------------------------------------------------

def save_tensors(path, tensors: ChartTensors, catalog: list[str]) -> Path:
    return save_npz(path, {**vars(tensors), "catalog": np.array(catalog)})


def load_tensors(path) -> tuple[ChartTensors, list[str]]:
    arrays = load_admission_npz(path, ("values", "mask"), ("catalog",))
    catalog = [str(x) for x in arrays.pop("catalog")]
    if arrays["mask"].shape != arrays["values"].shape:
        raise IoFailure(f"{path}: mask and values differ in shape")
    return ChartTensors(**arrays), catalog


def save_stats(path, stats: NormalizationStats) -> Path:
    payload = {
        "type_ids": stats.type_ids,
        "mean": [float(x) for x in stats.mean],
        "stddev": [float(x) for x in stats.stddev],
        "count": [int(x) for x in stats.count],
    }
    return save_json(path, payload, indent=1)


def load_stats(path) -> NormalizationStats:
    with reading(path):
        payload = load_json(path)
        return NormalizationStats(
            type_ids=[str(x) for x in payload["type_ids"]],
            mean=np.asarray(payload["mean"], dtype=np.float64),
            stddev=np.asarray(payload["stddev"], dtype=np.float64),
            count=np.asarray(payload["count"], dtype=np.int64),
        )


def preprocess_admissions(
    events: Iterable[ObservationEvent],
    discharge_times: dict[str, datetime],
    fit_ids: Optional[set[str]] = None,
    numeric_fraction: float = DEFAULT_NUMERIC_FRACTION,
) -> tuple[ChartTensors, list[str], NormalizationStats]:
    """Full preprocessing: filter, bin, fit stats (on fit_ids only when
    given), then normalize every admission with those statistics."""
    retained, catalog = filter_numeric(events, numeric_fraction)
    raw = aggregate_bins(retained, catalog, discharge_times)
    adm_ids = sorted(raw, key=_catalog_sort_key)
    fit_set = [a for a in adm_ids if fit_ids is None or a in fit_ids]
    stats = fit_normalization([raw[a] for a in fit_set], catalog)
    shape = (len(adm_ids), len(catalog), N_BINS)
    values, mask = np.zeros(shape), np.zeros(shape, dtype=bool)
    for row, adm in enumerate(adm_ids):
        values[row], mask[row] = raw.pop(adm)
    tensors = ChartTensors(np.array(adm_ids, dtype=str),
                           apply_normalization(values, mask, stats), mask)
    return tensors, catalog, stats
