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
Both readers decode charttime with tables.time_seconds, the decoder that
also reads the admission times, so charttimes and discharge times are
int64 seconds since 1970-01-01. bin_events reduces those blocks with
numpy. It keeps 16 bytes per event that can reach a cell, so memory grows
with the events, slowly, and not with the size of the input text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    NO_TIME,
    TableKind,
    attribute_name,
    iter_csv_columns,
    load_admission_npz,
    load_json,
    reading,
    save_json,
    save_npz,
    time_seconds,
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


def _event_blocks(column_blocks: Iterable[list]) -> Iterator[EventBlock]:
    """EventBlocks out of blocks of the columns hadm_id, itemid, charttime,
    valuenum and value, each a sequence of cells.

    valuenum is preferred when it is neither null nor blank; otherwise the
    raw value is judged. Rows without a parseable charttime are dropped.
    Values are canonicalized with + 0.0, so -0.0 counts as 0.0.
    """
    admission_ids: dict[str, int] = {}
    type_ids: dict[str, int] = {}
    for hadm_id, itemid, charttime, valuenum, value in column_blocks:
        if not charttime:
            continue
        seconds = time_seconds(charttime)
        timed = seconds != NO_TIME
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
    yield from _event_blocks(
        iter_csv_columns(path, _CHART_COLUMNS, _BLOCK_ROWS))


def read_chart_events_from_collection(path) -> Iterator[EventBlock]:
    """EventBlocks out of a chartevents collection file, streamed a block of
    records at a time (fhir_etl.iter_collection_blocks).

    Every record must carry the attributes the events are built from, null
    or not; any other kind of collection raises SchemaMismatch.
    """
    def column_blocks() -> Iterator[list]:
        start = 0
        for records in fhir_etl.iter_collection_blocks(path):
            try:
                columns = [list(map(itemgetter(name), records))
                           for name in map(_COLLECTION_NAME, _CHART_COLUMNS)]
            except KeyError:
                index, missing = next(
                    (i, sorted(_COLLECTION_ATTRIBUTES - record.keys()))
                    for i, record in enumerate(records)
                    if not record.keys() >= _COLLECTION_ATTRIBUTES)
                raise SchemaMismatch(
                    f"{path}: record {start + index} lacks {missing}"
                ) from None
            start += len(records)
            yield columns

    yield from _event_blocks(column_blocks())


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
    discharge_times: dict[str, int],
    numeric_fraction: float = DEFAULT_NUMERIC_FRACTION,
) -> tuple[ChartTensors, list[str]]:
    """Raw (types x 4) mean matrices of one reader's EventBlocks, per
    admission with at least one cell, and the catalog of their types.

    A type is numeric when at least numeric_fraction of its values parse
    as finite numbers; the catalog lists those types in stable sorted
    order. discharge_times maps admission ids to discharge times in
    seconds (tables.read_admission_times). Events of admissions without a
    discharge time, stamped after discharge, of other types or without a
    number are dropped.
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
            (discharge_times.get(a, NO_TIME) for a in new), dtype=np.int64)])
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
    discharge_times: dict[str, int],
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
