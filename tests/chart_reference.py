"""A frozen copy of the per-event chart preprocessing that the columnar
core in ehrpipe.chart replaced: one ObservationEvent per row, a second copy
in filter_numeric and a Python list per cell in aggregate_bins.

The bit-identity tests in test_chart.py hold the columnar core to this
reference. fit_normalization and apply_normalization are the two-pass
normalization that preprocess_admissions used before it normalized in
place, kept verbatim with the NormalizationStats class they share, and
load_stats reads chart_stats.json back into one.

The reference departs from the old code in two ways: it leaves the
signed-zero fix to its callers (see preprocess_admissions below), and its
catalog and admission order breaks a tie of numeric value ("06" and "6")
by the id text, as ehrpipe.chart does, not by input order. Python's
sum adds strictly left to right up to 3.11, which is what the columnar core
does; 3.12 made sum compensated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Iterator, Optional

import numpy as np

from ehrpipe.chart import (
    ChartTensors,
    N_BINS,
    DEFAULT_NUMERIC_FRACTION,
)
from ehrpipe.errors import DataError
from ehrpipe.tables import (
    iter_csv_rows,
    load_json,
    parse_timestamp,
    reading,
)

_BIN_EDGE_HOURS = (24.0, 16.0, 8.0)  # offsets before discharge
_CHART_COLUMNS = ("hadm_id", "itemid", "charttime", "valuenum", "value")
_COLLECTION_COLUMNS = dict(zip(_CHART_COLUMNS, (
    "encounter", "code", "effectiveDateTime", "valueQuantity", "valueString")))


@dataclass
class ObservationEvent:
    admission_id: str
    observation_type_id: str
    value: object  # raw string before filtering, float afterwards
    charttime: datetime


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
    return (0, int(text), text) if text.isdecimal() else (1, 0, text)


def filter_numeric(
    events: Iterable[ObservationEvent],
    numeric_fraction: float = DEFAULT_NUMERIC_FRACTION,
) -> tuple[list[ObservationEvent], list[str]]:
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


def _text(cell) -> str:
    return "" if cell is None else str(cell).strip()


def _chart_events(rows, name) -> Iterator[ObservationEvent]:
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
    yield from _chart_events(iter_csv_rows(path, _CHART_COLUMNS), str)


def read_chart_events_from_collection(path) -> Iterator[ObservationEvent]:
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)
    yield from _chart_events(records, _COLLECTION_COLUMNS.__getitem__)


def fit_normalization(
    matrices: Iterable[tuple[np.ndarray, np.ndarray]],
    catalog: list[str],
) -> NormalizationStats:
    """Per-type mean and population stddev over all masked cells.

    Two-pass computation for numerical stability. Raises DataError when a
    catalog type contributes no cells anywhere in the fit set.
    """
    matrices = list(matrices)
    n_types = len(catalog)
    total = np.zeros(n_types)
    count = np.zeros(n_types, dtype=np.int64)
    for values, mask in matrices:
        if values.shape != (n_types, N_BINS):
            raise DataError(
                f"matrix shape {values.shape} != ({n_types}, {N_BINS})"
            )
        total += np.where(mask, values, 0.0).sum(axis=1)
        count += mask.sum(axis=1)
    empty = np.flatnonzero(count == 0)
    if empty.size:
        raise DataError(
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
        raise DataError(
            f"matrix shape {values.shape} does not match {n_types} types"
        )
    safe_std = np.where(stats.stddev > 0, stats.stddev, 1.0)
    z = (values - stats.mean[:, None]) / safe_std[:, None]
    return np.where(mask & (stats.stddev[:, None] > 0), z, 0.0)


def load_stats(path) -> NormalizationStats:
    """chart_stats.json, as save_stats writes it."""
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
) -> tuple[ChartTensors, list[str], object]:
    """The old preprocessing, except that parsed values are + 0.0 so that
    -0.0 counts as 0.0, as the columnar core does. Without that the old
    code gave -0.0 or 0.0 for a cell holding both, by event order."""
    retained, catalog = filter_numeric(events, numeric_fraction)
    for ev in retained:
        ev.value += 0.0
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
