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

The readers stream events as EventBlocks: a block of input rows at a time,
held as numpy columns of admission index, type index, value and charttime.
bin_events reduces those blocks with numpy. It keeps 16 bytes per event
that can reach a cell, so memory grows with the events, slowly, and not
with the size of the input text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from functools import partial
from itertools import compress, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from . import fhir_etl
from .errors import (
    CatalogMismatch,
    EmptyType,
    IoFailure,
    SchemaMismatch,
)
from .tables import (
    TableKind,
    attribute_name,
    iter_csv_blocks,
    load_admission_npz,
    load_json,
    parse_timestamp,
    reading,
    save_json,
    save_npz,
)

N_BINS = 4
_BIN_EDGE_SECONDS = (86400, 57600, 28800)  # 24, 16 and 8 h before discharge

#: Fraction of a type's values that must parse as numbers for the type to
#: be kept; rows of a retained type that still fail to parse are dropped.
DEFAULT_NUMERIC_FRACTION = 0.9

# Source columns the chart readers use; a collection names them by the
# attribute names the transform gave them.
_CHART_COLUMNS = ("hadm_id", "itemid", "charttime", "valuenum", "value")
_COLLECTION_NAME = partial(attribute_name, TableKind.CHARTEVENTS)
_COLLECTION_ATTRIBUTES = frozenset(map(_COLLECTION_NAME, _CHART_COLUMNS))

# CSV rows per EventBlock; a collection is cut into blocks by fhir_etl.
_BLOCK_ROWS = 1 << 12


@dataclass
class EventBlock:
    """Chart events of a block of input rows, as columns.

    admission and type index into admission_ids and type_ids, which map
    each id text to its index in order of first appearance. The blocks of
    one reader share those two dicts, and later blocks only add to them.
    """

    admission: np.ndarray  # int32 (n,)
    type: np.ndarray  # int32 (n,)
    value: np.ndarray  # float64 (n,): NaN where no finite number parses
    charttime: np.ndarray  # int64 (n,): whole seconds since 1970-01-01
    admission_ids: dict[str, int]
    type_ids: dict[str, int]


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


def _catalog_sort_key(type_id: str):
    """Numeric ids first, by value and then by text ("07" before "7"), then
    the rest by text. isdecimal is what int() accepts; isdigit is not."""
    text = str(type_id)
    return (0, int(text), text) if text.isdecimal() else (1, 0, text)


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


def _number(valuenum, value) -> float:
    """valuenum as a float, or value when valuenum is null or blank; NaN
    when that does not parse (the caller also maps inf to NaN)."""
    if type(valuenum) is float:
        return valuenum
    raw = valuenum if _text(valuenum) else value
    try:
        return float(raw)
    except (TypeError, ValueError, OverflowError):
        return math.nan


# Equal cells of these types have equal texts, which 1, 1.0 and True, or
# 0.0 and -0.0, do not.
_TEXT_KEYS = frozenset((str, int, type(None)))


def _codes(cells, index: dict[str, int]) -> np.ndarray:
    """index[_text(cell)] per cell, adding texts index does not hold yet in
    order of first appearance."""
    if _TEXT_KEYS.issuperset(map(type, cells)):
        code = {cell: index.setdefault(_text(cell), len(index))
                for cell in dict.fromkeys(cells)}
        codes = map(code.__getitem__, cells)
    else:
        codes = (index.setdefault(text, len(index))
                 for text in map(_text, cells))
    return np.fromiter(codes, dtype=np.int32, count=len(cells))


_NO_TIME = -(1 << 62)  # no parseable time; far below any event
_EPOCH_ORDINAL = 719163  # date(1970, 1, 1).toordinal()
_STAMP = "0000-00-00 00:00:00"  # the canonical shape, T or space at 10
_DIGITS = [i for i, char in enumerate(_STAMP) if char == "0"]
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _seconds(when: datetime) -> int:
    """Whole seconds from 1970-01-01 to when."""
    return ((when.toordinal() - _EPOCH_ORDINAL) * 86400 + when.hour * 3600
            + when.minute * 60 + when.second)


def _epoch_seconds(cells) -> np.ndarray:
    """_seconds(parse_timestamp(_text(cell))) per cell, _NO_TIME for None.

    Strings of the canonical shape YYYY-MM-DD[T ]HH:MM:SS in ASCII digits
    with fields in range, which parse_timestamp reads to the same time, are
    converted together: digit and separator checks on their characters,
    then days from the civil date. Every other cell takes parse_timestamp.
    """
    texts = [cell if type(cell) is str else "" for cell in cells]
    n = len(texts)
    chars = np.array(texts, dtype=f"U{len(_STAMP)}").view(np.uint32)
    chars = chars.reshape(n, len(_STAMP))
    digit = chars[:, _DIGITS].astype(np.int64) - ord("0")
    year = (digit[:, 0] * 1000 + digit[:, 1] * 100 + digit[:, 2] * 10
            + digit[:, 3])
    month, day, hour, minute, second = (digit[:, i] * 10 + digit[:, i + 1]
                                        for i in range(4, 14, 2))
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + (leap & (month == 2))
    canonical = (
        (np.fromiter(map(len, texts), dtype=np.int64, count=n) == len(_STAMP))
        & ((digit >= 0) & (digit <= 9)).all(axis=1)
        & (chars[:, 4] == ord("-")) & (chars[:, 7] == ord("-"))
        & ((chars[:, 10] == ord(" ")) | (chars[:, 10] == ord("T")))
        & (chars[:, 13] == ord(":")) & (chars[:, 16] == ord(":"))
        & (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
        & (day <= month_days) & (hour <= 23) & (minute <= 59)
        & (second <= 59))
    # Days from the civil date (proleptic Gregorian), counted from March so
    # that a leap day ends its year.
    y = year - (month <= 2)
    era, year_of_era = np.divmod(y, 400)
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = (era * 146097 + year_of_era * 365 + year_of_era // 4
            - year_of_era // 100 + day_of_year - 719468)
    seconds = days * 86400 + hour * 3600 + minute * 60 + second
    for i in np.flatnonzero(~canonical).tolist():
        when = parse_timestamp(_text(cells[i]))
        seconds[i] = _NO_TIME if when is None else _seconds(when)
    return seconds


def _event_blocks(row_blocks: Iterable[list[tuple]]) -> Iterator[EventBlock]:
    """EventBlocks out of lists of (hadm_id, itemid, charttime, valuenum,
    value) cells.

    valuenum is preferred when it is neither null nor blank; otherwise the
    raw value is judged. Rows without a parseable charttime are dropped.
    Values are canonicalized with + 0.0, so -0.0 counts as 0.0.
    """
    admission_ids: dict[str, int] = {}
    type_ids: dict[str, int] = {}
    for rows in row_blocks:
        if not rows:
            continue
        hadm_id, itemid, charttime, valuenum, value = zip(*rows)
        seconds = _epoch_seconds(charttime)
        timed = seconds != _NO_TIME
        if not timed.all():
            seconds = seconds[timed]
            hadm_id, itemid, valuenum, value = (
                list(compress(column, timed.tolist()))
                for column in (hadm_id, itemid, valuenum, value))
        number = np.fromiter(map(_number, valuenum, value),
                             dtype=np.float64, count=len(seconds))
        number[~np.isfinite(number)] = np.nan
        yield EventBlock(_codes(hadm_id, admission_ids),
                         _codes(itemid, type_ids), number + 0.0, seconds,
                         admission_ids, type_ids)


def read_chart_events(path) -> Iterator[EventBlock]:
    """EventBlocks out of a chartevents CSV (plain or gzip), streamed."""

    def row_blocks() -> Iterator[list[tuple]]:
        for keys, rows in iter_csv_blocks(path, _CHART_COLUMNS, _BLOCK_ROWS):
            last = {key: index for index, key in enumerate(keys)}
            yield list(map(itemgetter(*map(last.get, _CHART_COLUMNS)), rows))

    yield from _event_blocks(row_blocks())


def read_chart_events_from_collection(path) -> Iterator[EventBlock]:
    """EventBlocks out of a chartevents collection file, streamed a block of
    records at a time (fhir_etl.iter_collection_blocks).

    Every record must carry the attributes the events are built from, null
    or not; any other kind of collection raises SchemaMismatch.
    """
    cells = itemgetter(*map(_COLLECTION_NAME, _CHART_COLUMNS))

    def row_blocks() -> Iterator[list[tuple]]:
        start = 0
        for records in fhir_etl.iter_collection_blocks(path):
            try:
                rows = list(map(cells, records))
            except KeyError:
                index, missing = next(
                    (i, sorted(_COLLECTION_ATTRIBUTES - record.keys()))
                    for i, record in enumerate(records)
                    if not record.keys() >= _COLLECTION_ATTRIBUTES)
                raise SchemaMismatch(
                    f"{path}: record {start + index} lacks {missing}"
                ) from None
            start += len(records)
            yield rows

    yield from _event_blocks(row_blocks())


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


def _fill_cells(cell: np.ndarray, value: np.ndarray, values: np.ndarray,
                mask: np.ndarray) -> None:
    """values[c] = the mean of the values of cell c, and mask[c] = True, for
    each distinct c in cell (flat indices into values and mask).

    A cell's values are sorted and summed strictly left to right, so the
    order of the events never changes a bit; a cell whose values are all
    equal takes that value exactly (mean idempotence).
    """
    if not len(cell):
        return
    order = np.lexsort((value, cell))
    cell, value = cell[order], value[order]
    del order
    start = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
    count = np.diff(start, append=len(value))
    # Longest cells first, so that the cells longer than k lead.
    longest = np.argsort(-count, kind="stable")
    cell, start, count = cell[start[longest]], start[longest], count[longest]
    del longest
    fewer = -count
    total = value[start]
    for k in range(1, int(count[0])):
        m = np.searchsorted(fewer, -k)
        total[:m] += value[start[:m] + k]
    del fewer
    total /= count
    first = value[start]
    np.copyto(total, first, where=first == value[start + count - 1])
    values[cell] = total
    mask[cell] = True


def bin_events(
    blocks: Iterable[EventBlock],
    discharge_times: dict[str, datetime],
    numeric_fraction: float = DEFAULT_NUMERIC_FRACTION,
) -> tuple[ChartTensors, list[str]]:
    """Raw (types x 4) mean matrices of one reader's EventBlocks, per
    admission with at least one cell, and the catalog of their types.

    A type is numeric when at least numeric_fraction of its values parse
    as finite numbers; the catalog lists those types in stable sorted
    order. Events of admissions without a discharge time, stamped after
    discharge, of other types or without a number are dropped.
    """
    admission_ids: dict[str, int] = {}
    type_ids: dict[str, int] = {}
    total = numeric = np.zeros(0, dtype=np.int64)  # events per type index
    discharge = np.zeros(0, dtype=np.int64)  # per admission index
    # (admission, type * 4 + bin, value) of the events that can reach a cell
    kept = [(np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0))]
    for block in blocks:
        admission_ids, type_ids = block.admission_ids, block.type_ids
        n_types = len(type_ids)
        parsed = ~np.isnan(block.value)
        total = np.bincount(block.type, minlength=n_types) + np.pad(
            total, (0, n_types - len(total)))
        numeric = np.bincount(block.type[parsed], minlength=n_types) + np.pad(
            numeric, (0, n_types - len(numeric)))
        new = islice(admission_ids, len(discharge), None)
        discharge = np.concatenate([discharge, np.fromiter(
            (_seconds(discharge_times[a]) if a in discharge_times else _NO_TIME
             for a in new), dtype=np.int64)])
        offset = discharge[block.admission] - block.charttime
        keep = parsed & (offset >= 0)
        offset = offset[keep]
        time_bin = N_BINS - 1 - sum(offset >= edge
                                    for edge in _BIN_EDGE_SECONDS)
        kept.append((block.admission[keep],
                     (block.type[keep] * N_BINS + time_bin).astype(np.int32),
                     block.value[keep]))

    catalog = sorted(
        (tid for tid, n, all_n in zip(type_ids, numeric.tolist(),
                                      total.tolist())
         if n >= numeric_fraction * all_n and n > 0),
        key=_catalog_sort_key,
    )
    position = np.full(len(type_ids), -1, dtype=np.int64)
    position[[type_ids[tid] for tid in catalog]] = np.arange(len(catalog))
    admission, type_bin, value = map(np.concatenate, zip(*kept))
    del kept
    cell_type = position[type_bin >> 2]
    retained = cell_type >= 0
    admission, value = admission[retained], value[retained]
    cell_type = cell_type[retained] * N_BINS + (type_bin[retained] & 3)

    # Admissions with a retained event, in order of their first one, then
    # sorted (a stable sort, as the per-admission dict it replaces was).
    present, first = np.unique(admission, return_index=True)
    names = list(admission_ids)
    adm_index = sorted(present[np.argsort(first)].tolist(),
                       key=lambda i: _catalog_sort_key(names[i]))
    row = np.zeros(len(names), dtype=np.int64)
    row[adm_index] = np.arange(len(adm_index))
    shape = (len(adm_index), len(catalog), N_BINS)
    values, mask = np.zeros(shape), np.zeros(shape, dtype=bool)
    _fill_cells(row[admission] * (len(catalog) * N_BINS) + cell_type, value,
                values.reshape(-1), mask.reshape(-1))
    adm_ids = np.array([names[i] for i in adm_index], dtype=str)
    return ChartTensors(adm_ids, values, mask), catalog


def preprocess_admissions(
    blocks: Iterable[EventBlock],
    discharge_times: dict[str, datetime],
    fit_ids: Optional[set[str]] = None,
    numeric_fraction: float = DEFAULT_NUMERIC_FRACTION,
) -> tuple[ChartTensors, list[str], NormalizationStats]:
    """Full preprocessing: bin_events, fit stats (on fit_ids only when
    given), then normalize every admission with those statistics."""
    raw, catalog = bin_events(blocks, discharge_times, numeric_fraction)
    fit_set = [(values, mask) for adm, values, mask
               in zip(raw.admission_ids.tolist(), raw.values, raw.mask)
               if fit_ids is None or adm in fit_ids]
    stats = fit_normalization(fit_set, catalog)
    tensors = ChartTensors(raw.admission_ids,
                           apply_normalization(raw.values, raw.mask, stats),
                           raw.mask)
    return tensors, catalog, stats
