"""Chart-event binning and normalization into admission tensors.

Every admission becomes a (types x 4) matrix: the last three columns are the
consecutive 8h windows before discharge, column 0 pools everything earlier.
Interval convention (half-open toward the past): bin 3 = (disch-8h, disch],
bin 2 = (disch-16h, disch-8h], bin 1 = (disch-24h, disch-16h], bin 0 =
(-inf, disch-24h]. An event stamped exactly on a boundary therefore lands in
the earlier (lower-index) bin. Cell values are means of the contributing
measurements, z-normalized per type with statistics fitted on the training
partition; empty cells are 0 (the per-type mean in z-space). Each
cell's values are sorted and summed left to right by one weighted bincount
over all cells, so event order never changes a bit. ChartTensors
holds N admissions' matrices stacked, as the arrays tensors.npz stores;
preprocess_admissions normalizes the binned values in those arrays in
place.

The readers stream events a block of input rows at a time, as the columns
(hadm_id cells, itemid cells, value, charttime): the id cells as the input
holds them, value and charttime as numpy arrays. Both readers decode
charttime with tables.time_seconds, the decoder that also reads the
admission times, so charttimes and discharge times are int64 seconds since
1970-01-01. bin_events turns each block's ids into indices as the block
arrives and reduces the blocks with numpy. It keeps 16 bytes per event that
can reach a cell, so memory grows with the events, slowly, and not with the
size of the input text.
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
from .errors import DataError
from .nn import N_BINS
from .tables import (
    NO_TIME,
    TableKind,
    attribute_name,
    id_sort_key,
    iter_csv_columns,
    load_admission_npz,
    save_json,
    save_npz,
    time_seconds,
)

_BIN_EDGE_SECONDS = (86400, 57600, 28800)  # 24, 16 and 8 h before discharge

#: Fraction of a type's values that must parse as numbers for the type to
#: be kept; rows of a retained type that still fail to parse are dropped.
DEFAULT_NUMERIC_FRACTION = 0.9

# Source columns the chart readers use; a collection names them by the
# attribute names the transform gave them.
_CHART_COLUMNS = ("hadm_id", "itemid", "charttime", "valuenum", "value")
_COLLECTION_NAME = partial(attribute_name, TableKind.CHARTEVENTS)
_COLLECTION_ATTRIBUTES = frozenset(map(_COLLECTION_NAME, _CHART_COLUMNS))


@dataclass
class ChartTensors:
    admission_ids: np.ndarray  # str (N,)
    values: np.ndarray  # float64 (N, n_types, 4)
    mask: np.ndarray  # bool (N, n_types, 4)

    def __len__(self) -> int:
        return len(self.admission_ids)


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


def _event_blocks(column_blocks: Iterable[list]) -> Iterator[tuple]:
    """(hadm_id cells, itemid cells, value, charttime) out of blocks of the
    columns hadm_id, itemid, charttime, valuenum and value, each a sequence
    of cells. value is float64, NaN where no finite number parses, and
    charttime int64 whole seconds since 1970-01-01.

    valuenum is preferred when it is neither null nor blank; otherwise the
    raw value is judged. Rows without a parseable charttime are dropped.
    Values are canonicalized with + 0.0, so -0.0 counts as 0.0.
    """
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
        yield hadm_id, itemid, number + 0.0, seconds


def read_chart_events(path) -> Iterator[tuple]:
    """Event blocks (_event_blocks) out of a chartevents CSV (plain or
    gzip), streamed."""
    yield from _event_blocks(iter_csv_columns(path, _CHART_COLUMNS))


def read_chart_events_from_collection(path) -> Iterator[tuple]:
    """Event blocks (_event_blocks) out of a chartevents collection file,
    streamed a block of records at a time (fhir_etl.iter_collection_blocks).

    Every record must carry the attributes the events are built from, null
    or not; any other kind of collection raises DataError.
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
                raise DataError(
                    f"{path}: record {start + index} lacks {missing}"
                ) from None
            start += len(records)
            yield columns

    yield from _event_blocks(column_blocks())


# --- persistence -----------------------------------------------------------

def save_tensors(path, tensors: ChartTensors, catalog: list[str]) -> Path:
    return save_npz(path, {**vars(tensors), "catalog": np.array(catalog)})


def load_tensors(path) -> tuple[ChartTensors, list[str]]:
    arrays = load_admission_npz(path, {"values": "f", "mask": "b"},
                                {"catalog": None})
    catalog = [str(x) for x in arrays.pop("catalog")]
    if arrays["mask"].shape != arrays["values"].shape:
        raise DataError(f"{path}: mask and values differ in shape")
    return ChartTensors(**arrays), catalog


def save_stats(path, stats: dict) -> Path:
    return save_json(path, stats, indent=1)


def _fill_cells(cell: np.ndarray, value: np.ndarray, values: np.ndarray,
                mask: np.ndarray) -> None:
    """values[c] = the mean of the values of cell c, and mask[c] = True, for
    each distinct c in cell (flat indices into values and mask).

    A cell's values are sorted and summed strictly left to right (one
    weighted bincount over the runs of equal cells, which adds in array
    order), so the order of the events never changes a bit; a cell whose
    values are all equal takes that value exactly (mean idempotence).
    """
    if not len(cell):
        return
    order = np.lexsort((value, cell))
    cell, value = cell[order], value[order]
    del order
    new = np.r_[True, cell[1:] != cell[:-1]]
    start = np.flatnonzero(new)
    cell = cell[start]
    count = np.diff(start, append=len(value))
    # cumsum numbers the cells' runs from 1, so bin 0 stays empty
    total = np.bincount(np.cumsum(new), weights=value)[1:]
    del new
    total /= count
    first = value[start]
    np.copyto(total, first, where=first == value[start + count - 1])
    values[cell] = total
    mask[cell] = True


def bin_events(
    blocks: Iterable[tuple],
    discharge_times: dict[str, int],
    numeric_fraction: float = DEFAULT_NUMERIC_FRACTION,
) -> tuple[ChartTensors, list[str]]:
    """Raw (types x 4) mean matrices of one reader's event blocks, per
    admission with at least one cell, and the catalog of their types.

    A type is numeric when at least numeric_fraction of its values parse
    as finite numbers; the catalog lists those types in stable sorted
    order. discharge_times maps admission ids to discharge times in
    seconds (tables.read_admission_times). Events of admissions without a
    discharge time, stamped after discharge, of other types or without a
    number are dropped.
    """
    # Each id text's index, in order of first appearance.
    admission_ids: dict[str, int] = {}
    type_ids: dict[str, int] = {}
    total = numeric = np.zeros(0, dtype=np.int64)  # events per type index
    discharge = np.zeros(0, dtype=np.int64)  # per admission index
    # (admission, type * N_BINS + bin, value) of the events that can reach
    # a cell
    kept = [(np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0))]
    for hadm_id, itemid, value, charttime in blocks:
        admission = _codes(hadm_id, admission_ids)
        type_ = _codes(itemid, type_ids)
        del hadm_id, itemid  # else the last block's cells outlive the loop
        n_types = len(type_ids)
        parsed = ~np.isnan(value)
        total = np.bincount(type_, minlength=n_types) + np.pad(
            total, (0, n_types - len(total)))
        numeric = np.bincount(type_[parsed], minlength=n_types) + np.pad(
            numeric, (0, n_types - len(numeric)))
        new = islice(admission_ids, len(discharge), None)
        discharge = np.concatenate([discharge, np.fromiter(
            (discharge_times.get(a, NO_TIME) for a in new), dtype=np.int64)])
        offset = discharge[admission] - charttime
        keep = parsed & (offset >= 0)
        offset = offset[keep]
        time_bin = N_BINS - 1 - sum(offset >= edge
                                    for edge in _BIN_EDGE_SECONDS)
        kept.append((admission[keep],
                     (type_[keep] * N_BINS + time_bin).astype(np.int32),
                     value[keep]))

    catalog = sorted(
        (tid for tid, n, all_n in zip(type_ids, numeric.tolist(),
                                      total.tolist())
         if n >= numeric_fraction * all_n and n > 0),
        key=id_sort_key,
    )
    position = np.full(len(type_ids), -1, dtype=np.int64)
    position[[type_ids[tid] for tid in catalog]] = np.arange(len(catalog))
    admission, type_bin, value = map(np.concatenate, zip(*kept))
    del kept
    cell_type = position[type_bin // N_BINS]
    retained = cell_type >= 0
    admission, value = admission[retained], value[retained]
    cell_type = cell_type[retained] * N_BINS + type_bin[retained] % N_BINS

    # Admissions with a retained event, in id_sort_key order. (np.unique
    # imports numpy.ma in numpy 2.4: half a MiB and 10 ms per process.)
    names = list(admission_ids)
    adm_index = sorted(np.flatnonzero(np.bincount(admission)).tolist(),
                       key=lambda i: id_sort_key(names[i]))
    row = np.zeros(len(names), dtype=np.int64)
    row[adm_index] = np.arange(len(adm_index))
    shape = (len(adm_index), len(catalog), N_BINS)
    values, mask = np.zeros(shape), np.zeros(shape, dtype=bool)
    _fill_cells(row[admission] * (len(catalog) * N_BINS) + cell_type, value,
                values.reshape(-1), mask.reshape(-1))
    adm_ids = np.array([names[i] for i in adm_index], dtype=str)
    return ChartTensors(adm_ids, values, mask), catalog


def preprocess_admissions(
    blocks: Iterable[tuple],
    discharge_times: dict[str, int],
    fit_ids: Optional[set[str]] = None,
    numeric_fraction: float = DEFAULT_NUMERIC_FRACTION,
) -> tuple[ChartTensors, list[str], dict]:
    """bin_events, then z-normalization of every admission, in place, and
    the statistics as chart_stats.json holds them: type_ids, mean, stddev
    and count, each a list in catalog order.

    Each type's mean and population stddev are fitted over the masked cells
    of the fit admissions (those in fit_ids, or all). Both sums add one
    admission after another in tensor order, which fixes the statistics'
    bits. A cell that is masked out, or of a type whose stddev is 0,
    becomes 0. Raises DataError when a catalog type has no cell in the fit
    admissions.
    """
    tensors, catalog = bin_events(blocks, discharge_times, numeric_fraction)
    values, mask = tensors.values, tensors.mask
    fit = [row for row, adm in enumerate(tensors.admission_ids.tolist())
           if fit_ids is None or adm in fit_ids]
    total = np.zeros(len(catalog))
    count = np.zeros(len(catalog), dtype=np.int64)
    for row in fit:  # a cell that is masked out holds 0.0
        total += values[row].sum(axis=1)
        count += mask[row].sum(axis=1)
    empty = np.flatnonzero(count == 0)
    if empty.size:
        raise DataError(
            f"no contributing cells for type(s) {[catalog[i] for i in empty]}"
        )
    mean = total / count
    values -= mean[:, None]
    square = np.zeros(len(catalog))
    for row in fit:
        square += np.where(mask[row], np.square(values[row]), 0.0).sum(axis=1)
    stddev = np.sqrt(square / count)
    values /= np.where(stddev > 0, stddev, 1.0)[:, None]
    np.copyto(values, 0.0, where=~mask)
    values[:, stddev == 0] = 0.0
    stats = {"type_ids": list(catalog), "mean": mean.tolist(),
             "stddev": stddev.tolist(), "count": count.tolist()}
    return tensors, catalog, stats
