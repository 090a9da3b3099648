"""Transform MIMIC-III-schema CSV tables into flat FHIR JSON collections.

Each output file is a JSON array of single-level objects: one "resource_type"
key plus scalar attributes (string / integer / decimal / ISO timestamp /
null). A "mimic_source_table" attribute is added to every record so the
source table survives the many-to-one table->resource mapping and the files
stay lossless. Paths ending in ".gz" are read/written gzip-compressed, and
an output file appears only once it is complete.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, TextIO

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

# json.dumps builds a new encoder per call unless every option is default.
_ENCODER = json.JSONEncoder(ensure_ascii=False)


@dataclass
class ResourceRecord:
    """One flat FHIR resource: a type plus an ordered attribute map."""

    resource_type: str
    attributes: dict[str, Scalar]


@dataclass
class ResourceCollection:
    """All records produced from one source table, in source-row order."""

    resource_type: Optional[str]
    source_table: Optional[TableKind]
    records: list[ResourceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


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


def iter_records(input_path, table: TableKind) -> Iterator[ResourceRecord]:
    """Stream records from a CSV file, one source row at a time.

    Every schema column must be in the header; extra columns are carried
    through as mimic_<name>. Column names and converters are resolved once
    per file.
    """
    resource_type = map_table_kind(table)
    if resource_type is None:
        raise UnmappedTable(f"no FHIR resource type for table {table.value}")

    def row_builder(keys: list[str]) -> Callable[[list[str]], dict]:
        fields = _header_fields(table, keys)

        def attributes(row: list[str]) -> dict[str, Scalar]:
            attrs: dict[str, Scalar] = {"mimic_source_table": table.value}
            for name, index, convert in fields:
                attrs[name] = convert(row[index])
            return attrs

        return attributes

    for attrs in iter_csv_rows(input_path, TABLE_COLUMNS[table], row_builder):
        yield ResourceRecord(resource_type=resource_type, attributes=attrs)


def _record_json(record: ResourceRecord) -> str:
    payload: dict[str, Scalar] = {"resource_type": record.resource_type}
    payload.update(record.attributes)
    return _ENCODER.encode(payload)


def _write_array(handle: TextIO, records: Iterator[ResourceRecord]) -> int:
    """Write records incrementally as a JSON array; returns the count."""
    handle.write("[")
    count = 0
    for record in records:
        handle.write(",\n " if count else "\n ")
        handle.write(_record_json(record))
        count += 1
    handle.write("\n]\n" if count else "]\n")
    return count


def transform(input_path, output_path, table: TableKind) -> ResourceCollection:
    """Convert one table CSV into a flat FHIR collection file.

    Persists the JSON array to output_path (gzip when the name ends in .gz)
    and returns the in-memory collection so the call can be chained into
    further processing. Record order equals source-row order.
    """
    collection = ResourceCollection(
        resource_type=map_table_kind(table), source_table=table
    )

    def _collect() -> Iterator[ResourceRecord]:
        for record in iter_records(input_path, table):
            collection.records.append(record)
            yield record

    with open_atomic(output_path) as handle:
        _write_array(handle, _collect())
    return collection


def transform_stream(input_path, output_path, table: TableKind) -> int:
    """Like transform, but never materializes records; returns the row count.

    This is the O(1)-memory path the CLI uses for very large tables.
    """
    with open_atomic(output_path) as handle:
        return _write_array(handle, iter_records(input_path, table))


def read_collection(path) -> ResourceCollection:
    """Read a collection file written by transform.

    Returns records in file order. resource_type/source_table are taken from
    the first record; an empty array yields an empty collection with both
    fields None.
    """
    with reading(path), open_text_auto(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise MalformedJson(f"{path}: {exc}") from exc

    if not isinstance(payload, list):
        raise MalformedJson(f"{path}: top-level JSON value is not an array")

    records: list[ResourceRecord] = []
    for index, obj in enumerate(payload):
        if not isinstance(obj, dict) or "resource_type" not in obj:
            raise MalformedJson(f"{path}: record {index} is not a flat object")
        rtype = obj["resource_type"]
        if rtype not in RESOURCE_TYPES:
            raise UnknownResourceType(
                f"{path}: record {index} has resource_type {rtype!r}"
            )
        attrs = {k: v for k, v in obj.items() if k != "resource_type"}
        for key, value in attrs.items():
            if isinstance(value, (dict, list)):
                raise MalformedJson(
                    f"{path}: record {index} attribute {key!r} is nested"
                )
        records.append(ResourceRecord(resource_type=rtype, attributes=attrs))

    resource_type = records[0].resource_type if records else None
    source_table: Optional[TableKind] = None
    if records:
        source = records[0].attributes.get("mimic_source_table")
        if isinstance(source, str):
            try:
                source_table = TableKind(source)
            except ValueError:
                source_table = None
    return ResourceCollection(
        resource_type=resource_type, source_table=source_table, records=records
    )
