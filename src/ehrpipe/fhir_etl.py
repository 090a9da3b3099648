"""Transform MIMIC-III-schema CSV tables into flat FHIR JSON collections.

A record is a flat dict: "resource_type", then "mimic_source_table" (so the
source table survives the many-to-one table->resource mapping and the files
stay lossless), then one scalar attribute per source column in header order
(string / integer / finite decimal / ISO timestamp / null). A collection
file is a JSON array of records, written one record per line; transform
streams it. iter_collection_blocks streams it back as the same dicts, a
block of lines at a time, and checks that every record is flat;
read_collection gathers those blocks into one list. A file in any other
valid JSON layout is read whole. Paths ending in ".gz" are read/written
gzip-compressed, at zlib's default level 6, and an output file appears only
once it is complete.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator

from .errors import MalformedJson, UnknownResourceType, UnmappedTable
from .tables import (
    RESOURCE_TYPES,
    TABLE_COLUMNS,
    TableKind,
    attribute_name,
    cell_converter,
    iter_csv_rows,
    map_table_kind,
    open_atomic,
    open_text_auto,
    reading,
)

Scalar = str | int | float | None
Record = dict[str, Scalar]

# The exact types json.load gives a scalar; type(True) is bool, not int.
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))

# Characters of collection text read at a time: some 600 synthetic
# chartevents records, of about 430 characters each. At 2^20 the 10x demo
# preprocess peaked 5 MiB higher and ran no faster.
_BLOCK_CHARS = 1 << 18

# Whitespace as JSON defines it; str.strip would take more.
_JSON_SPACE = " \t\n\r"

# json.dumps builds a new encoder per call unless every option is default.
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def _header_fields(
    table: TableKind, keys: list[str],
) -> list[tuple[str, int, Callable[[str], Scalar]]]:
    """(attribute, field index, converter) for each distinct header column.

    Columns keep header order; a repeated column keeps its first position
    and reads its last field, as dict(zip(keys, row)) would.
    """
    schema = TABLE_COLUMNS[table]
    last = {col: index for index, col in enumerate(keys)}
    return [
        (attribute_name(table, col), index, cell_converter(schema.get(col, "str")))
        for col, index in last.items()
    ]


def iter_records(input_path, table: TableKind) -> Iterator[Record]:
    """Stream records from a CSV file, one source row at a time.

    Each record is the dict that is written: resource_type,
    mimic_source_table, then the attributes in header order. Every schema
    column must be in the header; extra columns are carried through as
    mimic_<name>. Column names and converters are resolved once per file.
    """
    resource_type = map_table_kind(table)
    if resource_type is None:
        raise UnmappedTable(f"no FHIR resource type for table {table.value}")

    def row_builder(keys: list[str]) -> Callable[[list[str]], Record]:
        fields = _header_fields(table, keys)

        def record(row: list[str]) -> Record:
            rec: Record = {"resource_type": resource_type,
                           "mimic_source_table": table.value}
            for name, index, convert in fields:
                rec[name] = convert(row[index])
            return rec

        return record

    yield from iter_csv_rows(input_path, TABLE_COLUMNS[table], row_builder)


def transform(input_path, output_path, table: TableKind) -> int:
    """Convert one table CSV into a flat FHIR collection file.

    Streams records to output_path (gzip when the name ends in .gz), one
    per line in source-row order, without holding them in memory; returns
    the record count.
    """
    count = 0
    with open_atomic(output_path) as handle:
        handle.write("[")
        for count, record in enumerate(iter_records(input_path, table), 1):
            handle.write(",\n " if count > 1 else "\n ")
            handle.write(_ENCODER.encode(record))
        handle.write("\n]\n" if count else "]\n")
    return count


def _check_records(path, start: int, records: list) -> None:
    """read_collection's checks on records, which start at record start."""
    for index, record in enumerate(records, start):
        if type(record) is not dict or "resource_type" not in record:
            raise MalformedJson(f"{path}: record {index} is not a flat object")
        if not _SCALAR_TYPES.issuperset(map(type, record.values())):
            key = next(key for key, value in record.items()
                       if type(value) not in _SCALAR_TYPES)
            raise MalformedJson(
                f"{path}: record {index} attribute {key!r} is nested"
            )
        rtype = record["resource_type"]
        if rtype not in RESOURCE_TYPES:
            raise UnknownResourceType(
                f"{path}: record {index} has resource_type {rtype!r}"
            )


def _decoded_blocks(path, handle) -> Iterator[list]:
    """The elements of the JSON array in handle, a block at a time.

    The text is cut after each block's last ",\n", the end of a record line
    in the layout transform writes, and each block is decoded on its own.
    Blocks that decode on their own, each to at least one element, decode
    to the elements of the whole array. Otherwise the remaining elements
    come from decoding the whole text (json.load), so every other valid
    layout is read, and an invalid file raises MalformedJson.
    """
    text = handle.read(_BLOCK_CHARS).lstrip(_JSON_SPACE)
    if text.startswith("["):
        done, carry = 0, text[1:]
        while True:
            chunk = handle.read(_BLOCK_CHARS)
            text = carry + chunk
            if chunk:
                cut = text.rfind(",\n")
                if cut < 0:
                    carry = text
                    continue
                piece, carry = text[:cut], text[cut + 2:]
            else:
                piece = text.rstrip(_JSON_SPACE)
                if not piece.endswith("]"):
                    break
                piece = piece[:-1]
            try:
                records = json.loads(f"[{piece}]")
            except json.JSONDecodeError:
                break
            if not records:
                break
            yield records
            done += len(records)
            if not chunk:
                return
    else:
        done = 0
    handle.seek(0)
    try:
        records = json.load(handle)
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"{path}: {exc}") from exc
    if not isinstance(records, list):
        raise MalformedJson(f"{path}: top-level JSON value is not an array")
    yield records[done:]


def iter_collection_blocks(path) -> Iterator[list[Record]]:
    """Stream the records of a collection file, in file order, in blocks.

    A file in the layout transform writes is decoded a block of records at
    a time; any other valid JSON layout is read whole. Each block gets
    read_collection's checks, and their messages name the record by its
    index in the file.
    """
    with reading(path), open_text_auto(path) as handle:
        start = 0
        for records in _decoded_blocks(path, handle):
            _check_records(path, start, records)
            start += len(records)
            yield records


def read_collection(path) -> list[Record]:
    """Read a collection file written by transform, whole, into memory.

    Returns the records as parsed, in file order. The top level must be an
    array and each record an object with a resource_type; no attribute,
    resource_type included, may be an object or an array (MalformedJson
    otherwise). A flat record whose resource_type is not in RESOURCE_TYPES
    raises UnknownResourceType.
    """
    return [record for records in iter_collection_blocks(path)
            for record in records]
