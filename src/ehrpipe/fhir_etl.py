"""Transform MIMIC-III-schema CSV tables into flat FHIR JSON collections.

A record is a flat dict: "resource_type", then "mimic_source_table" (so the
source table survives the many-to-one table->resource mapping and the files
stay lossless), then one scalar attribute per source column in header order
(string / integer / finite decimal / ISO timestamp / null). A collection
file is a JSON array of records, written one record per line; transform
writes it a block of CSV rows at a time, turning each column of a block
straight into JSON text. iter_collection_blocks streams it back as the
same dicts, a block of lines at a time, and checks that every record is
flat. A file in any other valid JSON layout is read whole. Paths ending in
".gz" are read/written gzip-compressed, at zlib's default level 6, and an
output file appears only once it is complete.
"""

from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Iterator

from .errors import DataError
from .tables import (
    RESOURCE_TYPES,
    TABLE_COLUMNS,
    TableKind,
    attribute_name,
    canonical_stamps,
    iter_csv_blocks,
    iter_json_blocks,
    map_table_kind,
    open_atomic,
    open_text_auto,
    parse_timestamp,
    reading,
)

Scalar = str | int | float | None
Record = dict[str, Scalar]

# The exact types json.load gives a scalar; type(True) is bool, not int.
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))

# CSV rows that transform converts at a time.
_BLOCK_ROWS = 1 << 8


def _int_text(raw: str) -> str:
    try:
        return repr(int(raw))
    except ValueError:
        return encode_basestring(raw)


def _float_text(raw: str) -> str:
    try:
        value = float(raw)
    except ValueError:
        return encode_basestring(raw)
    return repr(value) if math.isfinite(value) else encode_basestring(raw)


def _time_text(raw: str) -> str:
    when = parse_timestamp(raw)
    if when is None:
        return encode_basestring(raw)
    return f'"{when.isoformat(sep="T", timespec="seconds")}"'


def _int_texts(cells) -> list[str]:
    try:
        return list(map(repr, map(int, cells)))
    except ValueError:
        return list(map(_int_text, cells))


def _float_texts(cells) -> list[str]:
    try:
        values = list(map(float, cells))
    except ValueError:
        return list(map(_float_text, cells))
    if all(map(math.isfinite, values)):
        return list(map(repr, values))
    return list(map(_float_text, cells))


def _time_texts(cells) -> list[str]:
    """A column of canonical stamps only gets its T put in; any other
    column takes parse_timestamp cell by cell."""
    if canonical_stamps(cells):
        text = "\n".join(cells).replace(" ", "T").replace("\n", '"\n"')
        return f'"{text}"'.split("\n")
    return list(map(_time_text, cells))


def _str_texts(cells) -> list[str]:
    return list(map(encode_basestring, cells))


# JSON text of a column of non-empty cells, by column kind.
_TEXTS = {"int": _int_texts, "float": _float_texts, "time": _time_texts,
          "str": _str_texts}


def _json_texts(kind: str, cells: tuple[str, ...]) -> list[str]:
    """The JSON text of each cell of a column: null when it is empty;
    otherwise the number or ISO timestamp it holds for a column of that
    kind, or else its raw string."""
    texts = _TEXTS.get(kind, _str_texts)
    if "" not in cells:
        return texts(cells)
    if not any(cells):
        return ["null"] * len(cells)
    filled = iter(texts([cell for cell in cells if cell]))
    return [next(filled) if cell else "null" for cell in cells]


def _record_template(table: TableKind, resource_type: str,
                     keys: list[str]) -> tuple[str, list[tuple[int, str]]]:
    """The % template of one record of a CSV with header keys, and the
    (field index, column kind) that fills each of its %s in turn.

    The record is the dict resource_type, mimic_source_table, then one
    attribute per distinct column in header order; as in a dict, a
    repeated column keeps its first position and reads its last field, and
    so does an attribute name that two columns map to.
    """
    schema = TABLE_COLUMNS[table]
    slots: dict[str, object] = {"resource_type": resource_type,
                                "mimic_source_table": table.value}
    last = {col: index for index, col in enumerate(keys)}
    for col, index in last.items():
        slots[attribute_name(table, col)] = (index, schema.get(col, "str"))
    parts, fields = [], []
    for name, slot in slots.items():
        if isinstance(slot, str):
            value = encode_basestring(slot).replace("%", "%%")
        else:
            value = "%s"
            fields.append(slot)
        parts.append(f"{encode_basestring(name).replace('%', '%%')}: {value}")
    return "{" + ", ".join(parts) + "}", fields


def transform(input_path, output_path, table: TableKind) -> int:
    """Convert one table CSV into a flat FHIR collection file.

    Every schema column must be in the header; extra columns are carried
    through as mimic_<name>. Reads the CSV a block of rows at a time and
    writes each block's records to output_path (gzip when the name ends in
    .gz), one per line in source-row order, converting a column of the
    block at a time straight to JSON text; returns the record count.
    """
    resource_type = map_table_kind(table)
    if resource_type is None:
        raise DataError(f"no FHIR resource type for table {table.value}")
    count = 0
    template = None
    with open_atomic(output_path) as handle:
        handle.write("[")
        for keys, rows in iter_csv_blocks(input_path, TABLE_COLUMNS[table],
                                          _BLOCK_ROWS):
            if template is None:
                template, fields = _record_template(table, resource_type,
                                                    keys)
            columns = list(zip(*rows))
            texts = [_json_texts(kind, columns[index])
                     for index, kind in fields]
            handle.write(",\n " if count else "\n ")
            handle.write(",\n ".join(map(template.__mod__, zip(*texts))))
            count += len(rows)
        handle.write("\n]\n" if count else "]\n")
    return count


def _check_records(path, start: int, records: list) -> None:
    """DataError unless every record is an object with a resource_type
    whose attributes are all scalars and that resource_type is in
    RESOURCE_TYPES; records start at record start.

    Three passes over the whole block check the types of the records, of
    every value and the resource types; only a block that fails one is
    walked record by record, to name the first bad record.
    """
    try:
        if (set(map(type, records)) <= {dict}
                and set(map(type, chain.from_iterable(
                    map(dict.values, records)))) <= _SCALAR_TYPES
                and RESOURCE_TYPES.issuperset(
                    map(itemgetter("resource_type"), records))):
            return
    except KeyError:
        pass  # a record without a resource_type
    for index, record in enumerate(records, start):
        if type(record) is not dict or "resource_type" not in record:
            raise DataError(f"{path}: record {index} is not a flat object")
        if not _SCALAR_TYPES.issuperset(map(type, record.values())):
            key = next(key for key, value in record.items()
                       if type(value) not in _SCALAR_TYPES)
            raise DataError(
                f"{path}: record {index} attribute {key!r} is nested"
            )
        rtype = record["resource_type"]
        if rtype not in RESOURCE_TYPES:
            raise DataError(
                f"{path}: record {index} has resource_type {rtype!r}"
            )


def iter_collection_blocks(path) -> Iterator[list[Record]]:
    """Stream the records of a collection file, in file order, in blocks.

    A file in the layout transform writes is decoded a block of records at
    a time; any other valid JSON layout is read whole. The top level must
    be an array. Each block gets _check_records' checks, and their messages
    name the record by its index in the file.
    """
    with reading(path), open_text_auto(path) as handle:
        start = 0
        for records in iter_json_blocks(path, handle, "["):
            _check_records(path, start, records)
            start += len(records)
            yield records
