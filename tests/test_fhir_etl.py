"""Table mapping, the block-columnar transform (held to the record-at-a-time
writer in fhir_reference.py) and collection roundtrips."""

import csv
import gzip
import json
import random
import re
import struct
import zlib
from datetime import datetime

import fhir_reference as reference
import pytest
from fhir_reference import read_collection
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrpipe import fhir_etl, tables
from ehrpipe.errors import DataError
from ehrpipe.fhir_etl import (
    iter_collection_blocks,
    transform,
)
from ehrpipe.tables import TABLE_COLUMNS, TableKind, map_table_kind

# Independent copy of the full table -> resource mapping; the test fails if
# the implementation ever drifts from this 21-row reference.
EXPECTED_MAPPING = {
    "patients": "patient",
    "admissions": "encounter",
    "diagnoses_icd": "encounter",
    "icustays": "encounter",
    "cptevents": "claim",
    "noteevents": "diagnosticReport",
    "inputevents_cv": "medicationDispense",
    "inputevents_mv": "medicationDispense",
    "prescriptions": "medicationRequest",
    "chartevents": "observation",
    "datetimeevents": "observation",
    "labevents": "observation",
    "caregivers": "practitioner",
    "procedures_icd": "procedure",
    "procedureevents_mv": "procedure",
    "microbiologyevents": "specimen",
    "outputevents": "specimen",
    "services": "serviceRequest",
    "callout": None,
    "transfers": None,
    "drgcodes": None,
}

ADMISSION_HEADER = list(TABLE_COLUMNS[TableKind.ADMISSIONS])


def _admission_row(row_id, subject, hadm):
    base = {
        "row_id": row_id,
        "subject_id": subject,
        "hadm_id": hadm,
        "admittime": "2101-05-01 10:00:00",
        "dischtime": "2101-05-05 09:30:00",
        "admission_type": "EMERGENCY",
        "diagnosis": "SEPSIS",
    }
    return [str(base.get(col, "")) for col in ADMISSION_HEADER]


class TestMapping:
    def test_all_21_rows(self):
        assert len(EXPECTED_MAPPING) == 21
        for table in TableKind:
            assert map_table_kind(table) == EXPECTED_MAPPING[table.value]

    def test_exactly_18_tables_map(self):
        mapped = [t for t in TableKind if map_table_kind(t) is not None]
        assert len(mapped) == 18

    def test_examples(self):
        assert map_table_kind(TableKind.PATIENTS) == "patient"
        assert map_table_kind(TableKind.CHARTEVENTS) == "observation"
        assert map_table_kind(TableKind.CALLOUT) is None


class TestTransform:
    def test_three_row_admissions(self, csv_writer, tmp_path):
        path = csv_writer(
            "admissions.csv", ADMISSION_HEADER,
            [_admission_row(i, i, 100 + i) for i in range(1, 4)],
        )
        out = tmp_path / "admissions.json"
        count = transform(path, out, TableKind.ADMISSIONS)
        records = list(reference.iter_records(path, TableKind.ADMISSIONS))
        assert all(r["resource_type"] == "encounter" for r in records)
        assert count == 3
        assert json.loads(out.read_text()) == records

    def test_header_only_gives_empty_array(self, csv_writer, tmp_path):
        path = csv_writer("patients.csv",
                          list(TABLE_COLUMNS[TableKind.PATIENTS]), [])
        out = tmp_path / "patients.json"
        count = transform(path, out, TableKind.PATIENTS)
        assert count == 0
        assert json.loads(out.read_text()) == []

    def test_unmapped_table(self, csv_writer, tmp_path):
        path = csv_writer("transfers.csv",
                          list(TABLE_COLUMNS[TableKind.TRANSFERS]), [])
        with pytest.raises(DataError,
                           match="no FHIR resource type for table transfers"):
            transform(path, tmp_path / "x.json", TableKind.TRANSFERS)

    def test_schema_mismatch(self, csv_writer, tmp_path):
        path = csv_writer("bad.csv", ["row_id", "subject_id"], [["1", "2"]])
        with pytest.raises(DataError,
                           match=r"bad.csv: header lacks column\(s\) \['dob'"):
            transform(path, tmp_path / "x.json", TableKind.PATIENTS)

    def test_malformed_row_reports_row_number(self, csv_writer, tmp_path):
        rows = [_admission_row(1, 1, 101), _admission_row(2, 2, 102)[:-3]]
        path = csv_writer("admissions.csv", ADMISSION_HEADER, rows)
        with pytest.raises(DataError, match="row 2"):
            transform(path, tmp_path / "x.json", TableKind.ADMISSIONS)

    def test_malformed_row_in_a_later_block_reports_its_number(
            self, csv_writer, tmp_path, monkeypatch):
        monkeypatch.setattr(fhir_etl, "_BLOCK_ROWS", 2)
        rows = [_admission_row(i, i, 100 + i) for i in range(1, 8)]
        rows[4] = rows[4][:-1]
        path = csv_writer("admissions.csv", ADMISSION_HEADER, rows)
        with pytest.raises(DataError, match="row 5 has"):
            transform(path, tmp_path / "x.json", TableKind.ADMISSIONS)
        assert not (tmp_path / "x.json").exists()

    def test_missing_input(self, tmp_path):
        with pytest.raises(DataError, match="nope.csv: FileNotFoundError"):
            transform(tmp_path / "nope.csv", tmp_path / "x.json",
                      TableKind.PATIENTS)

    def test_attribute_naming_and_nulls(self, csv_writer, tmp_path):
        path = csv_writer("admissions.csv", ADMISSION_HEADER,
                          [_admission_row(1, 7, 101)])
        transform(path, tmp_path / "a.json", TableKind.ADMISSIONS)
        attrs = read_collection(tmp_path / "a.json")[0]
        assert attrs["periodStart"] == "2101-05-01T10:00:00"
        assert attrs["periodEnd"] == "2101-05-05T09:30:00"
        assert attrs["subject"] == 7
        assert attrs["identifier"] == 101
        assert attrs["mimic_source_table"] == "admissions"
        assert attrs["mimic_deathtime"] is None  # empty cell

    def test_stream_variant_counts(self, csv_writer, tmp_path):
        path = csv_writer(
            "admissions.csv", ADMISSION_HEADER,
            [_admission_row(i, i, 100 + i) for i in range(1, 6)],
        )
        count = transform(path, tmp_path / "a.json", TableKind.ADMISSIONS)
        assert count == 5
        assert len(read_collection(tmp_path / "a.json")) == 5


class TestRoundtrip:
    def test_roundtrip_identity(self, csv_writer, tmp_path):
        path = csv_writer(
            "admissions.csv", ADMISSION_HEADER,
            [_admission_row(i, i, 100 + i) for i in range(1, 4)],
        )
        out = tmp_path / "a.json"
        written = transform(path, out, TableKind.ADMISSIONS)
        read = read_collection(out)
        assert written == 3
        assert read == list(reference.iter_records(path, TableKind.ADMISSIONS))
        for record in read:
            assert record["resource_type"] == "encounter"
            assert record["mimic_source_table"] == "admissions"

    def test_gzip_compression_transparency(self, csv_writer, tmp_path):
        path = csv_writer(
            "admissions.csv", ADMISSION_HEADER,
            [_admission_row(i, i, 100 + i) for i in range(1, 4)],
        )
        plain = tmp_path / "a.json"
        packed = tmp_path / "a.json.gz"
        transform(path, plain, TableKind.ADMISSIONS)
        transform(path, packed, TableKind.ADMISSIONS)
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
        assert read_collection(packed) == read_collection(plain)

    def test_gzip_input(self, tmp_path):
        raw = "\r\n".join(
            [",".join(ADMISSION_HEADER),
             ",".join(_admission_row(1, 1, 101))]
        )
        src = tmp_path / "a.csv.gz"
        src.write_bytes(gzip.compress(raw.encode()))
        assert transform(src, tmp_path / "a.json", TableKind.ADMISSIONS) == 1

    def test_truncated_gzip(self, csv_writer, tmp_path):
        path = csv_writer(
            "admissions.csv", ADMISSION_HEADER,
            [_admission_row(i, i, 100 + i) for i in range(1, 30)],
        )
        packed = tmp_path / "a.json.gz"
        transform(path, packed, TableKind.ADMISSIONS)
        packed.write_bytes(packed.read_bytes()[:40])
        # cut short while decompressing, or decoded to invalid JSON text
        name = re.escape(str(packed))
        with pytest.raises(DataError, match=rf"^cannot read {name}: "
                           rf"|^{name}: .* \(char \d+\)$"):
            read_collection(packed)

    def test_unknown_resource_type(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"resource_type": "foo", "id": 1}]))
        with pytest.raises(DataError,
                           match="record 0 has resource_type 'foo'"):
            read_collection(bad)

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DataError,
                           match="bad.json: Expecting property name"):
            read_collection(bad)

    @pytest.mark.parametrize("text", ["{}", "[1]", '[{"id": 1}]'])
    def test_not_an_array_of_typed_objects(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        message = ("top-level JSON value is not an array" if text == "{}"
                   else "record 0 is not a flat object")
        with pytest.raises(DataError, match=re.escape(f"{bad}: {message}")):
            read_collection(bad)

    def test_nested_record_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            [{"resource_type": "patient", "x": {"nested": 1}}]
        ))
        with pytest.raises(DataError,
                           match="record 0 attribute 'x' is nested"):
            read_collection(bad)

    def test_bool_and_null_attributes_accepted(self, tmp_path):
        records = [{"resource_type": "patient", "a": True, "b": False,
                    "c": None, "d": 1, "e": 1.5, "f": "x"}]
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(records))
        assert read_collection(path) == records

    @pytest.mark.parametrize("records,message", [
        ([{"resource_type": "patient", "id": 1},
          {"resource_type": "patient", "id": 2, "x": [1], "y": {"z": 1}}],
         "record 1 attribute 'x' is nested"),
        ([{"resource_type": ["observation"]}],
         "record 0 attribute 'resource_type' is nested"),
        ([{"resource_type": {"observation": 1}}],
         "record 0 attribute 'resource_type' is nested"),
    ], ids=["first-nested-key", "array-resource-type", "object-resource-type"])
    def test_error_names_the_record_and_first_nested_key(
            self, tmp_path, records, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(records))
        with pytest.raises(DataError, match=message):
            read_collection(bad)

    # The block-wide checks only find that a block is bad; the error must
    # still name the first bad record as the record-by-record walk does.
    @pytest.mark.parametrize("bad,message", [
        ([1], "record 4 is not a flat object"),
        ("patient", "record 4 is not a flat object"),
        (None, "record 4 is not a flat object"),
        ({"id": 1}, "record 4 is not a flat object"),
        ({"x": [1]}, "record 4 is not a flat object"),
        ({"resource_type": "patient", "id": 1, "x": {"y": 1}, "z": [1]},
         "record 4 attribute 'x' is nested"),
        ({"resource_type": [1], "id": 1},
         "record 4 attribute 'resource_type' is nested"),
        ({"resource_type": "foo", "x": [1]},
         "record 4 attribute 'x' is nested"),
        ({"resource_type": "foo"}, "record 4 has resource_type 'foo'"),
        ({"resource_type": None}, "record 4 has resource_type None"),
        ({"resource_type": 1.5}, "record 4 has resource_type 1.5"),
        ({"resource_type": True}, "record 4 has resource_type True"),
    ], ids=["array", "string", "null", "no-type", "no-type-nested",
            "first-nested-key", "nested-type", "unknown-type-nested",
            "unknown-type", "null-type", "number-type", "bool-type"])
    @pytest.mark.parametrize("block", [64, 1 << 20])
    def test_bad_record_kinds_keep_their_messages(
            self, tmp_path, monkeypatch, bad, message, block):
        monkeypatch.setattr(tables, "_JSON_BLOCK_CHARS", block)
        records = [{"resource_type": "patient", "id": i} for i in range(12)]
        records[4] = bad
        # a later record that is bad in another way is not the one named
        records[9] = {"resource_type": "foo", "x": [1]}
        path = tmp_path / "bad.json"
        path.write_text(_writer_layout(records))
        with pytest.raises(DataError, match=re.escape(message)) as caught:
            read_collection(path)
        assert str(caught.value) == f"{path}: {message}"


def _writer_layout(records) -> str:
    """The text transform writes for records."""
    if not records:
        return "[]\n"
    lines = ",\n ".join(json.dumps(r, ensure_ascii=False) for r in records)
    return f"[\n {lines}\n]\n"


_records = st.lists(st.fixed_dictionaries(
    {"resource_type": st.sampled_from(["observation", "patient"])},
    optional={"id": st.integers(), "x": st.text(max_size=30),
              "y": st.none() | st.booleans() | st.floats(allow_nan=False)}),
    max_size=40)


class TestBlockReader:
    """The collection reader decodes the writer's layout a block at a time
    and must read exactly what json.load reads, whatever the layout."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(records=_records, block=st.sampled_from([1, 7, 64, 1 << 20]),
           layout=st.sampled_from(["writer", "one-line", "indent",
                                   "crlf", "padded"]))
    def test_every_layout_reads_as_json_load(self, tmp_path_factory,
                                             records, block, layout):
        text = {"writer": _writer_layout(records),
                "one-line": json.dumps(records),
                "indent": json.dumps(records, indent=2),
                "crlf": _writer_layout(records).replace("\n", "\r\n"),
                "padded": "\n\t " + _writer_layout(records) + " \n\n",
                }[layout]
        path = tmp_path_factory.mktemp("blocks") / "c.json"
        path.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tables, "_JSON_BLOCK_CHARS", block)
            assert read_collection(path) == json.loads(text) == records

    def test_writer_layout_is_decoded_in_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tables, "_JSON_BLOCK_CHARS", 64)
        records = [{"resource_type": "patient", "id": i} for i in range(50)]
        path = tmp_path / "c.json"
        path.write_text(_writer_layout(records))
        blocks = list(iter_collection_blocks(path))
        assert len(blocks) > 10
        assert [r for block in blocks for r in block] == records

    @pytest.mark.parametrize("text", [
        '[\n {"resource_type": "patient"},\n]\n',  # trailing comma
        '[\n {"resource_type": "patient"},\n {"resource_type": "patient"}'
        ',\n]\n',
        '[\n {"resource_type": "patient"}\n {"resource_type": "patient"}'
        '\n]\n',  # no comma between records
        '[\n {"resource_type": "patient"},\n {"resource_type": "patient"}'
        '\n',  # no closing bracket
        '[\n {"resource_type": "patient"}\n]\n]\n',  # extra data
        '[\n {"resource_type": "patient"}\n]x\n',
        '[\n {"resource_type": "patient"},\n,\n {"resource_type": "a"}'
        '\n]\n',  # empty element
        '\x0c[\n {"resource_type": "patient"}\n]\n',  # not JSON space
    ], ids=["trailing-comma", "trailing-comma-2", "missing-comma",
            "unclosed", "extra-bracket", "extra-data", "empty-element",
            "form-feed"])
    @pytest.mark.parametrize("block", [1, 16, 1 << 20])
    def test_invalid_text_is_malformed(self, tmp_path, monkeypatch, text,
                                       block):
        monkeypatch.setattr(tables, "_JSON_BLOCK_CHARS", block)
        with pytest.raises(json.JSONDecodeError) as decoding:
            json.loads(text)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(DataError,
                           match=re.escape(f"{bad}: {decoding.value}")):
            read_collection(bad)

    def test_later_block_errors_name_the_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tables, "_JSON_BLOCK_CHARS", 64)
        records = [{"resource_type": "patient", "id": i} for i in range(50)]
        records[37]["id"] = {"nested": 1}
        bad = tmp_path / "bad.json"
        bad.write_text(_writer_layout(records))
        with pytest.raises(DataError,
                           match="record 37 attribute 'id' is nested"):
            read_collection(bad)


# Two admissions rows and the exact text transform writes for them: "[",
# then one record per line after one space, then "]"; each record is
# resource_type, mimic_source_table, then the attributes in header order.
# Non-ASCII text is written unescaped and an empty cell is null.
GOLDEN_ROWS = [
    {"row_id": "1", "subject_id": "7", "hadm_id": "101",
     "admittime": "2101-05-01 10:00:00", "dischtime": "2101-05-05 09:30:00",
     "admission_type": "EMERGENCY", "diagnosis": "FIÈVRE – SEPSIS"},
    {"row_id": "2", "subject_id": "8", "hadm_id": "102",
     "admittime": "2101-06-02", "dischtime": "2101-06-03T08:00:00",
     "deathtime": "2101-06-03 07:59:00", "admission_type": "ELECTIVE",
     "diagnosis": "肺炎", "hospital_expire_flag": "1"},
]
_GOLDEN_NULLS = (
    '"mimic_admission_location": null, "mimic_discharge_location": null, '
    '"mimic_insurance": null, "mimic_language": null, '
    '"mimic_religion": null, "mimic_marital_status": null, '
    '"mimic_ethnicity": null, "mimic_edregtime": null, '
    '"mimic_edouttime": null, '
)
GOLDEN_TEXT = (
    '[\n'
    ' {"resource_type": "encounter", "mimic_source_table": "admissions", '
    '"id": 1, "subject": 7, "identifier": 101, '
    '"periodStart": "2101-05-01T10:00:00", '
    '"periodEnd": "2101-05-05T09:30:00", "mimic_deathtime": null, '
    '"class": "EMERGENCY", ' + _GOLDEN_NULLS
    + '"reasonCode": "FIÈVRE – SEPSIS", '
    '"mimic_hospital_expire_flag": null, '
    '"mimic_has_chartevents_data": null},\n'
    ' {"resource_type": "encounter", "mimic_source_table": "admissions", '
    '"id": 2, "subject": 8, "identifier": 102, '
    '"periodStart": "2101-06-02T00:00:00", '
    '"periodEnd": "2101-06-03T08:00:00", '
    '"mimic_deathtime": "2101-06-03T07:59:00", '
    '"class": "ELECTIVE", ' + _GOLDEN_NULLS
    + '"reasonCode": "肺炎", "mimic_hospital_expire_flag": 1, '
    '"mimic_has_chartevents_data": null}\n'
    ']\n'
)


class TestGoldenBytes:
    def _golden_csv(self, csv_writer):
        return csv_writer(
            "admissions.csv", ADMISSION_HEADER,
            [[row.get(col, "") for col in ADMISSION_HEADER]
             for row in GOLDEN_ROWS],
        )

    def test_layout_and_key_order(self, csv_writer, tmp_path):
        out = tmp_path / "admissions.json"
        transform(self._golden_csv(csv_writer), out, TableKind.ADMISSIONS)
        assert out.read_bytes() == GOLDEN_TEXT.encode("utf-8")

    def test_header_only_is_an_empty_array_line(self, csv_writer, tmp_path):
        path = csv_writer("admissions.csv", ADMISSION_HEADER, [])
        out = tmp_path / "admissions.json"
        transform(path, out, TableKind.ADMISSIONS)
        assert out.read_bytes() == b"[]\n"

    def test_gzip_holds_the_same_bytes_with_a_fixed_header(
            self, csv_writer, tmp_path):
        packed = tmp_path / "admissions.json.gz"
        transform(self._golden_csv(csv_writer), packed, TableKind.ADMISSIONS)
        raw = packed.read_bytes()
        assert gzip.decompress(raw) == GOLDEN_TEXT.encode("utf-8")
        assert raw[:3] == b"\x1f\x8b\x08"  # gzip magic, deflate
        assert raw[3] & 0x08 == 0  # FLG.FNAME clear: no file name
        assert raw[4:8] == b"\0\0\0\0"  # MTIME 0

    def test_deflate_stream_holds_the_golden_text(self, csv_writer, tmp_path):
        packed = tmp_path / "admissions.json.gz"
        transform(self._golden_csv(csv_writer), packed, TableKind.ADMISSIONS)
        raw = packed.read_bytes()
        golden = GOLDEN_TEXT.encode("utf-8")
        assert raw[8] == 0  # XFL: neither level 9 nor level 1
        inflate = zlib.decompressobj(-zlib.MAX_WBITS)  # raw deflate
        assert inflate.decompress(raw[10:]) == golden  # no optional fields
        assert inflate.eof
        assert inflate.unused_data == struct.pack(
            "<II", zlib.crc32(golden), len(golden))


def _random_cell(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return ""
    if kind == 1:
        return str(rng.randrange(-1000, 1000))
    if kind == 2:
        return f"{rng.uniform(-50, 50):.3f}"
    if kind == 3:
        return "2104-07-12 08:15:00"
    if kind == 4:
        return "text, with comma\nand newline"
    return 'quoted "text"'


class TestRandomizedRoundtrips:
    def test_count_and_roundtrip_on_random_csvs(self, tmp_path):
        rng = random.Random(99)
        mapped = [t for t in TableKind if map_table_kind(t) is not None]
        for trial in range(40):
            table = mapped[rng.randrange(len(mapped))]
            header = list(TABLE_COLUMNS[table])
            n_rows = rng.randrange(0, 15)
            rows = [
                [_random_cell(rng) for _ in header] for _ in range(n_rows)
            ]
            src = tmp_path / f"t{trial}.csv"
            with open(src, "w", encoding="utf-8", newline="") as handle:
                import csv as _csv

                writer = _csv.writer(handle, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows)
            out = tmp_path / f"t{trial}.json"
            written = transform(src, out, table)
            assert written == n_rows  # count preservation
            read = read_collection(out)
            assert read == list(reference.iter_records(src, table))

    def test_flatness_of_serialized_records(self, csv_writer, tmp_path):
        path = csv_writer(
            "admissions.csv", ADMISSION_HEADER,
            [_admission_row(i, i, 100 + i) for i in range(1, 6)],
        )
        out = tmp_path / "a.json"
        transform(path, out, TableKind.ADMISSIONS)
        for record in json.loads(out.read_text()):
            for value in record.values():
                assert not isinstance(value, (dict, list))


# Cells for the writer test. Stamps: the canonical shape (leap days
# included), that shape with impossible fields, and shapes parse_timestamp
# reads another way or not at all.
_canonical_stamps = st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59),
).map(lambda when: when.isoformat(sep=" ", timespec="seconds"))
_stamps = st.one_of(
    _canonical_stamps,
    st.tuples(st.integers(0, 9999), *[st.integers(0, 99)] * 5).map(
        lambda fields: "%04d-%02d-%02d %02d:%02d:%02d" % fields),
    st.sampled_from([
        "2132-02-29 00:00:00", "2000-02-29 23:59:59", "2100-02-29 12:00:00",
        "2130-02-30 10:00:00", "2130-01-01 24:00:00", "2130-01-01 10:00:60",
        "2130-13-01 00:00:00", "0000-01-01 00:00:00", "2130-1-01 10:00:00",
        "2130-01-01 1:00:00", "2130-01-01t10:00:00", "2130-01-01T10:00:00",
        "2130-01-01", "2132-02-29", " 2130-01-01 10:00:00",
        "2130-01-01  10:00:00", "2130-01-01 10:00", "2130-01-01 10:00:00Z",
        "２１３０-01-01 10:00:00", "2130-01-01 ١٠:00:00", "21300101 100000",
    ]),
)
_numbers = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "1e400", "-Infinity", "-0", "-0.0",
                     " 5", "5 ", "1_000", "0123", "+7", "٣", "1.5e3", "5.",
                     ".5", "0x10", "1e-400"]),
)
_characters = st.characters(codec="utf-8", exclude_characters="\x00")
_texts = st.one_of(
    st.text(_characters, max_size=12),
    st.sampled_from(['"', "\\", "\x01\x1f", "%s", "100%", "é", "a\r\nb"]),
)
_cells = st.one_of(_stamps, _numbers, _texts)
# A column draws every cell from one of these, with or without blanks, so
# that whole columns of canonical stamps or of numbers occur.
_columns = st.sampled_from([_canonical_stamps, _stamps, _numbers,
                            st.integers().map(str), _cells])
# Extra header names: repeats of schema columns (in any case and spacing),
# a name that maps onto mimic_source_table, and % in a name.
_extra_names = st.one_of(
    st.sampled_from(["source_table", "100% o2", "%s", "note%", "%%d",
                     " Row_ID ", "Extra"]),
    st.text(_characters, max_size=6),
)
_MAPPED = [t for t in TableKind if map_table_kind(t) is not None]


class TestBlockWriter:
    """transform writes the bytes of the record-at-a-time reference."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(data=st.data(), table=st.sampled_from(_MAPPED),
           block=st.sampled_from([1, 2, 3, 1 << 8]))
    def test_writes_the_reference_bytes(self, tmp_path_factory, data, table,
                                        block):
        schema = list(TABLE_COLUMNS[table])
        extra = data.draw(st.lists(st.sampled_from(schema) | _extra_names,
                                   max_size=3))
        header = data.draw(st.permutations(schema + extra))
        n_rows = data.draw(st.integers(0, 7))
        columns = []
        for _ in header:
            cell = data.draw(_columns)
            cell = data.draw(st.sampled_from([cell, cell | st.just("")]))
            columns.append(data.draw(st.lists(cell, min_size=n_rows,
                                              max_size=n_rows)))
        work = tmp_path_factory.mktemp("writer")
        src = work / "table.csv"
        with open(src, "w", encoding="utf-8", newline="") as handle:
            # Every field quoted, so that a lone \r reads back as itself.
            writer = csv.writer(handle, lineterminator="\n",
                                quoting=csv.QUOTE_ALL)
            writer.writerow(header)
            writer.writerows(zip(*columns))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fhir_etl, "_BLOCK_ROWS", block)
            count = transform(src, work / "new.json", table)
        assert count == reference.write_collection(
            src, work / "old.json", table) == n_rows
        assert (work / "new.json").read_bytes() == (
            work / "old.json").read_bytes()

    def test_every_etl_table_in_blocks_of_three(self, small_dataset,
                                                tmp_path, monkeypatch):
        monkeypatch.setattr(fhir_etl, "_BLOCK_ROWS", 3)
        for kind, path, _ in small_dataset.tables:
            new, old = tmp_path / f"{kind}.new.json", tmp_path / f"{kind}.json"
            assert transform(path, new, kind) == reference.write_collection(
                path, old, kind)
            assert new.read_bytes() == old.read_bytes(), kind
