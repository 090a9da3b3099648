"""A frozen copy of the record-at-a-time FHIR transform that the
block-columnar writer in ehrpipe.fhir_etl replaced: each cell becomes a
Python value, each row a dict, and each dict JSON text through
json.JSONEncoder.

The byte-identity tests in test_fhir_etl.py hold fhir_etl.transform to
write_collection below, and the roundtrip tests compare what
read_collection (fhir_etl.iter_collection_blocks gathered into one list)
reads back with iter_records. Run as a script, it writes the collection of
one table's CSV, so that a larger run can be compared too:

    PYTHONPATH=src python tests/fhir_reference.py TABLE CSV OUT
"""

from __future__ import annotations

import json
import math
import sys
from typing import Callable, Iterator

from ehrpipe.errors import DataError
from ehrpipe.fhir_etl import Record, Scalar, iter_collection_blocks
from ehrpipe.tables import (
    TABLE_COLUMNS,
    TableKind,
    attribute_name,
    iter_csv_rows,
    map_table_kind,
    open_atomic,
    parse_timestamp,
)

# json.dumps builds a new encoder per call unless every option is default.
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def _to_int(raw: str):
    if raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        return raw


def _to_float(raw: str):
    if raw == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        return raw
    return value if math.isfinite(value) else raw  # JSON has no NaN or inf


def _to_time(raw: str):
    if raw == "":
        return None
    ts = parse_timestamp(raw)
    return ts.isoformat(sep="T", timespec="seconds") if ts else raw


def _to_str(raw: str):
    return None if raw == "" else raw


_CONVERTERS = {"int": _to_int, "float": _to_float, "time": _to_time,
               "str": _to_str}


def cell_converter(kind: str) -> Callable[[str], Scalar]:
    """The cell conversion of a column kind.

    Empty cells become None. A cell that does not parse, or a number that
    is not finite, stays its raw string, so no input is ever lost.
    """
    return _CONVERTERS.get(kind, _to_str)


def iter_records(input_path, table: TableKind) -> Iterator[Record]:
    """Records from a CSV file, one source row at a time.

    Each record is the dict that is written: resource_type,
    mimic_source_table, then the attributes in header order. Every schema
    column must be in the header; extra columns are carried through as
    mimic_<name>. A repeated column keeps its first position and reads its
    last field, as dict(zip(keys, row)) does.
    """
    resource_type = map_table_kind(table)
    if resource_type is None:
        raise DataError(f"no FHIR resource type for table {table.value}")
    schema = TABLE_COLUMNS[table]
    for row in iter_csv_rows(input_path, schema):
        record: Record = {"resource_type": resource_type,
                          "mimic_source_table": table.value}
        for col, raw in row.items():
            record[attribute_name(table, col)] = cell_converter(
                schema.get(col, "str"))(raw)
        yield record


def write_collection(input_path, output_path, table: TableKind) -> int:
    """The records of iter_records to output_path, one per line, as
    fhir_etl.transform writes them; returns the record count."""
    count = 0
    with open_atomic(output_path) as handle:
        handle.write("[")
        for count, record in enumerate(iter_records(input_path, table), 1):
            handle.write(",\n " if count > 1 else "\n ")
            handle.write(_ENCODER.encode(record))
        handle.write("\n]\n" if count else "]\n")
    return count


def read_collection(path) -> list[Record]:
    """Read a collection file written by transform, whole, into memory.

    Returns the records as parsed, in file order. The top level must be an
    array and each record an object with a resource_type; no attribute,
    resource_type included, may be an object or an array (DataError
    otherwise). A flat record whose resource_type is not in RESOURCE_TYPES
    raises DataError.
    """
    return [record for records in iter_collection_blocks(path)
            for record in records]


if __name__ == "__main__":
    write_collection(sys.argv[2], sys.argv[3], TableKind(sys.argv[1]))
