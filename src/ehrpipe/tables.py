"""MIMIC-III table registry: names, column schemas, FHIR resource mapping.

Attribute naming convention for the flat resources: a column is renamed to
the camelCase FHIR element name when an obvious element exists (admittime
-> periodStart, dob -> birthDate, ...); every other column keeps its
original name prefixed with "mimic_". row_id becomes "id" (the technical
resource id). The per-table rename maps below are the single source of
truth for that convention.

The module also holds the one write path and the one read-error mapping
that every artifact goes through (open_atomic, reading), the one reader of
admission-keyed .npz archives (load_admission_npz), the one reader of
CSV tables (iter_csv_blocks, and iter_csv_rows and iter_csv_columns on
top of it), the block-wise JSON reader that collections and chunk files
share (iter_json_blocks), and the order of ids (id_sort_key) that chart
catalogs and admissions and tied notes follow.

It also holds the one time decoder. time_seconds turns a column of cells
into int64 seconds since 1970-01-01, with NO_TIME where a cell holds no
time. A column of canonical stamps (canonical_stamps) is converted whole;
any other column goes through parse_timestamp cell by cell. Transform
(which only asks canonical_stamps), both chart readers, the admission
times and the notes all read times through it.
"""

from __future__ import annotations

import csv
import functools
import gzip
import io
import json
import os
import re
import zipfile
import zlib
from collections import Counter, deque
from contextlib import ExitStack, contextmanager
from datetime import datetime, timedelta
from enum import Enum
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import DataError


class TableKind(str, Enum):
    PATIENTS = "patients"
    ADMISSIONS = "admissions"
    DIAGNOSES_ICD = "diagnoses_icd"
    ICUSTAYS = "icustays"
    CPTEVENTS = "cptevents"
    NOTEEVENTS = "noteevents"
    INPUTEVENTS_CV = "inputevents_cv"
    INPUTEVENTS_MV = "inputevents_mv"
    PRESCRIPTIONS = "prescriptions"
    CHARTEVENTS = "chartevents"
    DATETIMEEVENTS = "datetimeevents"
    LABEVENTS = "labevents"
    CAREGIVERS = "caregivers"
    PROCEDURES_ICD = "procedures_icd"
    PROCEDUREEVENTS_MV = "procedureevents_mv"
    MICROBIOLOGYEVENTS = "microbiologyevents"
    OUTPUTEVENTS = "outputevents"
    SERVICES = "services"
    CALLOUT = "callout"
    TRANSFERS = "transfers"
    DRGCODES = "drgcodes"

    def __str__(self) -> str:
        return self.value


#: Target resource type per table; None means no corresponding FHIR resource.
FHIR_RESOURCE_BY_TABLE: dict[TableKind, Optional[str]] = {
    TableKind.PATIENTS: "patient",
    TableKind.ADMISSIONS: "encounter",
    TableKind.DIAGNOSES_ICD: "encounter",
    TableKind.ICUSTAYS: "encounter",
    TableKind.CPTEVENTS: "claim",
    TableKind.NOTEEVENTS: "diagnosticReport",
    TableKind.INPUTEVENTS_CV: "medicationDispense",
    TableKind.INPUTEVENTS_MV: "medicationDispense",
    TableKind.PRESCRIPTIONS: "medicationRequest",
    TableKind.CHARTEVENTS: "observation",
    TableKind.DATETIMEEVENTS: "observation",
    TableKind.LABEVENTS: "observation",
    TableKind.CAREGIVERS: "practitioner",
    TableKind.PROCEDURES_ICD: "procedure",
    TableKind.PROCEDUREEVENTS_MV: "procedure",
    TableKind.MICROBIOLOGYEVENTS: "specimen",
    TableKind.OUTPUTEVENTS: "specimen",
    TableKind.SERVICES: "serviceRequest",
    TableKind.CALLOUT: None,
    TableKind.TRANSFERS: None,
    TableKind.DRGCODES: None,
}

RESOURCE_TYPES = frozenset(
    v for v in FHIR_RESOURCE_BY_TABLE.values() if v is not None
)


def map_table_kind(table: TableKind) -> Optional[str]:
    """Resource type for a table, or None for the three unmapped tables."""
    return FHIR_RESOURCE_BY_TABLE[table]


# Column kinds drive scalar conversion: "int" and "float" parse numerically,
# "time" canonicalizes to ISO-8601 seconds precision, "str" passes through.
# Cells that fail to parse keep their raw string (lossless by design).

_ID = "int"
_F = "float"
_T = "time"
_S = "str"

TABLE_COLUMNS: dict[TableKind, dict[str, str]] = {
    TableKind.PATIENTS: {
        "row_id": _ID, "subject_id": _ID, "gender": _S, "dob": _T,
        "dod": _T, "dod_hosp": _T, "dod_ssn": _T, "expire_flag": _ID,
    },
    TableKind.ADMISSIONS: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "admittime": _T,
        "dischtime": _T, "deathtime": _T, "admission_type": _S,
        "admission_location": _S, "discharge_location": _S, "insurance": _S,
        "language": _S, "religion": _S, "marital_status": _S,
        "ethnicity": _S, "edregtime": _T, "edouttime": _T, "diagnosis": _S,
        "hospital_expire_flag": _ID, "has_chartevents_data": _ID,
    },
    TableKind.DIAGNOSES_ICD: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "seq_num": _ID,
        "icd9_code": _S,
    },
    TableKind.ICUSTAYS: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "icustay_id": _ID,
        "dbsource": _S, "first_careunit": _S, "last_careunit": _S,
        "first_wardid": _ID, "last_wardid": _ID, "intime": _T,
        "outtime": _T, "los": _F,
    },
    TableKind.CPTEVENTS: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "costcenter": _S,
        "chartdate": _T, "cpt_cd": _S, "cpt_number": _ID, "cpt_suffix": _S,
        "ticket_id_seq": _ID, "sectionheader": _S, "subsectionheader": _S,
        "description": _S,
    },
    TableKind.NOTEEVENTS: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "chartdate": _T,
        "charttime": _T, "storetime": _T, "category": _S, "description": _S,
        "cgid": _ID, "iserror": _ID, "text": _S,
    },
    TableKind.INPUTEVENTS_CV: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "icustay_id": _ID,
        "charttime": _T, "itemid": _ID, "amount": _F, "amountuom": _S,
        "rate": _F, "rateuom": _S, "storetime": _T, "cgid": _ID,
        "orderid": _ID, "linkorderid": _ID, "stopped": _S, "newbottle": _ID,
        "originalamount": _F, "originalamountuom": _S, "originalroute": _S,
        "originalrate": _F, "originalrateuom": _S, "originalsite": _S,
    },
    TableKind.INPUTEVENTS_MV: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "icustay_id": _ID,
        "starttime": _T, "endtime": _T, "itemid": _ID, "amount": _F,
        "amountuom": _S, "rate": _F, "rateuom": _S, "storetime": _T,
        "cgid": _ID, "orderid": _ID, "linkorderid": _ID,
        "ordercategoryname": _S, "secondaryordercategoryname": _S,
        "ordercomponenttypedescription": _S, "ordercategorydescription": _S,
        "patientweight": _F, "totalamount": _F, "totalamountuom": _S,
        "isopenbag": _ID, "continueinnextdept": _ID, "cancelreason": _ID,
        "statusdescription": _S, "comments_editedby": _S,
        "comments_canceledby": _S, "comments_date": _T,
        "originalamount": _F, "originalrate": _F,
    },
    TableKind.PRESCRIPTIONS: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "icustay_id": _ID,
        "startdate": _T, "enddate": _T, "drug_type": _S, "drug": _S,
        "drug_name_poe": _S, "drug_name_generic": _S,
        "formulary_drug_cd": _S, "gsn": _S, "ndc": _S, "prod_strength": _S,
        "dose_val_rx": _S, "dose_unit_rx": _S, "form_val_disp": _S,
        "form_unit_disp": _S, "route": _S,
    },
    TableKind.CHARTEVENTS: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "icustay_id": _ID,
        "itemid": _ID, "charttime": _T, "storetime": _T, "cgid": _ID,
        "value": _S, "valuenum": _F, "valueuom": _S, "warning": _ID,
        "error": _ID, "resultstatus": _S, "stopped": _S,
    },
    TableKind.DATETIMEEVENTS: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "icustay_id": _ID,
        "itemid": _ID, "charttime": _T, "storetime": _T, "cgid": _ID,
        "value": _T, "valueuom": _S, "warning": _ID, "error": _ID,
        "resultstatus": _S, "stopped": _S,
    },
    TableKind.LABEVENTS: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "itemid": _ID,
        "charttime": _T, "value": _S, "valuenum": _F, "valueuom": _S,
        "flag": _S,
    },
    TableKind.CAREGIVERS: {
        "row_id": _ID, "cgid": _ID, "label": _S, "description": _S,
    },
    TableKind.PROCEDURES_ICD: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "seq_num": _ID,
        "icd9_code": _S,
    },
    TableKind.PROCEDUREEVENTS_MV: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "icustay_id": _ID,
        "starttime": _T, "endtime": _T, "itemid": _ID, "value": _F,
        "valueuom": _S, "location": _S, "locationcategory": _S,
        "storetime": _T, "cgid": _ID, "orderid": _ID, "linkorderid": _ID,
        "ordercategoryname": _S, "secondaryordercategoryname": _S,
        "ordercategorydescription": _S, "isopenbag": _ID,
        "continueinnextdept": _ID, "cancelreason": _ID,
        "statusdescription": _S, "comments_editedby": _S,
        "comments_canceledby": _S, "comments_date": _T,
    },
    TableKind.MICROBIOLOGYEVENTS: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "chartdate": _T,
        "charttime": _T, "spec_itemid": _ID, "spec_type_desc": _S,
        "org_itemid": _ID, "org_name": _S, "isolate_num": _ID,
        "ab_itemid": _ID, "ab_name": _S, "dilution_text": _S,
        "dilution_comparison": _S, "dilution_value": _F,
        "interpretation": _S,
    },
    TableKind.OUTPUTEVENTS: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "icustay_id": _ID,
        "charttime": _T, "itemid": _ID, "value": _F, "valueuom": _S,
        "storetime": _T, "cgid": _ID, "stopped": _S, "newbottle": _S,
        "iserror": _ID,
    },
    TableKind.SERVICES: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID,
        "transfertime": _T, "prev_service": _S, "curr_service": _S,
    },
    TableKind.CALLOUT: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID,
        "submit_wardid": _ID, "submit_careunit": _S, "curr_wardid": _ID,
        "curr_careunit": _S, "callout_wardid": _ID, "callout_service": _S,
        "request_tele": _ID, "request_resp": _ID, "request_cdiff": _ID,
        "request_mrsa": _ID, "request_vre": _ID, "callout_status": _S,
        "callout_outcome": _S, "discharge_wardid": _ID,
        "acknowledge_status": _S, "createtime": _T, "updatetime": _T,
        "acknowledgetime": _T, "outcometime": _T, "firstreservationtime": _T,
        "currentreservationtime": _T,
    },
    TableKind.TRANSFERS: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "icustay_id": _ID,
        "dbsource": _S, "eventtype": _S, "prev_careunit": _S,
        "curr_careunit": _S, "prev_wardid": _ID, "curr_wardid": _ID,
        "intime": _T, "outtime": _T, "los": _F,
    },
    TableKind.DRGCODES: {
        "row_id": _ID, "subject_id": _ID, "hadm_id": _ID, "drg_type": _S,
        "drg_code": _ID, "description": _S, "drg_severity": _ID,
        "drg_mortality": _ID,
    },
}

# Columns with an obvious FHIR element; everything else gets mimic_<col>.
FHIR_ATTRIBUTE_BY_COLUMN: dict[TableKind, dict[str, str]] = {
    TableKind.PATIENTS: {
        "subject_id": "identifier", "gender": "gender", "dob": "birthDate",
        "dod": "deceasedDateTime",
    },
    TableKind.ADMISSIONS: {
        "hadm_id": "identifier", "subject_id": "subject",
        "admittime": "periodStart", "dischtime": "periodEnd",
        "admission_type": "class", "diagnosis": "reasonCode",
    },
    TableKind.DIAGNOSES_ICD: {
        "hadm_id": "identifier", "subject_id": "subject",
        "icd9_code": "reasonCode",
    },
    TableKind.ICUSTAYS: {
        "icustay_id": "identifier", "hadm_id": "partOf",
        "subject_id": "subject", "intime": "periodStart",
        "outtime": "periodEnd",
    },
    TableKind.CPTEVENTS: {
        "subject_id": "patient", "chartdate": "created",
    },
    TableKind.NOTEEVENTS: {
        "subject_id": "subject", "hadm_id": "encounter",
        "charttime": "effectiveDateTime", "category": "category",
    },
    TableKind.INPUTEVENTS_CV: {
        "subject_id": "subject", "hadm_id": "context",
        "amount": "quantity",
    },
    TableKind.INPUTEVENTS_MV: {
        "subject_id": "subject", "hadm_id": "context",
        "amount": "quantity",
    },
    TableKind.PRESCRIPTIONS: {
        "subject_id": "subject", "hadm_id": "encounter",
        "drug": "medication", "startdate": "authoredOn",
    },
    TableKind.CHARTEVENTS: {
        "subject_id": "subject", "hadm_id": "encounter", "itemid": "code",
        "charttime": "effectiveDateTime", "valuenum": "valueQuantity",
        "value": "valueString",
    },
    TableKind.DATETIMEEVENTS: {
        "subject_id": "subject", "hadm_id": "encounter", "itemid": "code",
        "charttime": "effectiveDateTime", "value": "valueDateTime",
    },
    TableKind.LABEVENTS: {
        "subject_id": "subject", "hadm_id": "encounter", "itemid": "code",
        "charttime": "effectiveDateTime", "valuenum": "valueQuantity",
        "value": "valueString",
    },
    TableKind.CAREGIVERS: {
        "cgid": "identifier",
    },
    TableKind.PROCEDURES_ICD: {
        "subject_id": "subject", "hadm_id": "encounter",
        "icd9_code": "code",
    },
    TableKind.PROCEDUREEVENTS_MV: {
        "subject_id": "subject", "hadm_id": "encounter", "itemid": "code",
    },
    TableKind.MICROBIOLOGYEVENTS: {
        "subject_id": "subject", "charttime": "collectedDateTime",
    },
    TableKind.OUTPUTEVENTS: {
        "subject_id": "subject", "charttime": "collectedDateTime",
    },
    TableKind.SERVICES: {
        "subject_id": "subject", "hadm_id": "encounter",
        "transfertime": "authoredOn",
    },
    TableKind.CALLOUT: {},
    TableKind.TRANSFERS: {},
    TableKind.DRGCODES: {},
}


def attribute_name(table: TableKind, column: str) -> str:
    """Flat-resource attribute name for a source column."""
    if column == "row_id":
        return "id"
    return FHIR_ATTRIBUTE_BY_COLUMN[table].get(column, f"mimic_{column}")


def id_sort_key(id_text: str):
    """Numeric ids first, by value and then by text ("07" before "7"), then
    the rest by text. isdecimal is what int() accepts; isdigit is not."""
    text = str(id_text)
    return (0, int(text), text) if text.isdecimal() else (1, 0, text)


_TIME_FORMATS = ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d")

# The common shape of _TIME_FORMATS in ASCII digits, which fromisoformat
# reads to the same datetime many times faster than strptime. Anything else
# (single-digit fields, a lower-case t, runs of spaces, non-ASCII digits,
# all of which strptime accepts) takes the strptime loop. The hour is held
# to 00-23, as strptime holds it, so that no fromisoformat reading of 24:00
# can differ.
_DATE = r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
_CLOCK = r"(?:[01][0-9]|2[0-3]):[0-9]{2}:[0-9]{2}"
_ISO_SHAPE = re.compile(rf"{_DATE}(?:[ T]{_CLOCK})?")

# A canonical stamp is that shape with its clock; a column of them is
# read whole.
_STAMP = rf"{_DATE}[ T]{_CLOCK}"
_STAMP_LINES = re.compile(rf"{_STAMP}(?:\n{_STAMP})*")

#: What time_seconds gives a cell without a time; far below any time.
NO_TIME = -(1 << 62)
_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)


def parse_timestamp(raw: str) -> Optional[datetime]:
    text = raw.strip()
    if _ISO_SHAPE.fullmatch(text):
        try:
            return datetime.fromisoformat(text)
        except ValueError:
            pass  # an impossible date such as 2130-02-30; strptime rejects it too
    for fmt in _TIME_FORMATS:
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    return None


def canonical_stamps(cells) -> bool:
    """Whether every cell is a string YYYY-MM-DD HH:MM:SS (a T or a space
    at 10) that fromisoformat reads, and so parse_timestamp reads the same;
    fromisoformat also rejects the year 0000."""
    try:
        text = "\n".join(cells)
    except TypeError:
        return False  # a null or a number among the cells
    # n stamps of 19 characters joined by n - 1 newlines: no cell holds a
    # newline of its own.
    if len(text) != 20 * len(cells) - 1 or not _STAMP_LINES.fullmatch(text):
        return False
    try:
        deque(map(datetime.fromisoformat, cells), 0)
    except ValueError:
        return False  # an impossible date such as 2130-02-30
    return True


def _seconds(cell) -> int:
    when = parse_timestamp(cell) if type(cell) is str else None
    return NO_TIME if when is None else (when - _EPOCH) // _SECOND


def time_seconds(cells) -> np.ndarray:
    """The time of each cell as int64 whole seconds since 1970-01-01:
    parse_timestamp's time for a string, NO_TIME where it reads none or the
    cell is not a string.

    A column of canonical_stamps is converted by numpy all at once; any
    other column takes parse_timestamp cell by cell.
    """
    if canonical_stamps(cells):
        return np.array(cells, dtype="M8[s]").view(np.int64)
    return np.fromiter(map(_seconds, cells), dtype=np.int64, count=len(cells))


def open_text_auto(path, newline: Optional[str] = None):
    """Open a text file for reading, gunzipping it when the name ends in .gz."""
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8", newline=newline)
    return open(path, "r", encoding="utf-8", newline=newline)


@contextmanager
def open_atomic(path, binary: bool = False, newline: Optional[str] = None):
    """Open an artifact for writing; it appears at path only if the block succeeds.

    Writes go to a temporary file beside path, which os.replace moves over
    path once the block exits cleanly; on any exception the temporary file
    is removed and path keeps its old content, if any. Text written to a
    name ending in .gz is gzip-compressed with an empty header name and
    mtime 0, so identical content gives identical bytes. An OSError becomes
    DataError.
    """
    target = Path(path)
    temp = target.with_name(f".{target.name}.tmp")
    try:
        with ExitStack() as stack:
            handle = stack.enter_context(open(temp, "wb"))
            if not binary:
                if target.name.endswith(".gz"):
                    # zlib's default level. On the 10x-demo collections
                    # it deflates in 0.39 s what level 9 takes 3.3 s for,
                    # and the files come out 6% larger.
                    handle = stack.enter_context(gzip.GzipFile(
                        filename="", mode="wb", fileobj=handle, mtime=0,
                        compresslevel=6))
                handle = stack.enter_context(io.TextIOWrapper(
                    handle, encoding="utf-8", newline=newline))
            yield handle
        os.replace(temp, target)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:
        temp.unlink(missing_ok=True)


def make_dir(path) -> Path:
    """Create the directory path and its parents if missing; returns it.

    An OSError, such as a file in the way, becomes DataError.
    """
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create {path}: {exc}") from exc
    return Path(path)


def check_dirs(*paths) -> None:
    """DataError unless the directory of each path exists, so that a stage
    that writes several files fails before it reads or writes any."""
    for path in paths:
        if not Path(path).parent.is_dir():
            raise DataError(
                f"cannot write {path}: no directory {Path(path).parent}")


def save_json(path, payload, **dump_options) -> Path:
    """Write payload as one JSON document plus a final newline."""
    with open_atomic(path) as handle:
        # One write: json.dump writes piece by piece, never with the C
        # encoder.
        handle.write(json.dumps(payload, **dump_options) + "\n")
    return Path(path)


def save_npz(path, arrays: dict[str, np.ndarray]) -> Path:
    """Write arrays as an uncompressed .npz archive; returns the path written.

    Like numpy.savez, appends ".npz" to a name that lacks it.
    """
    name = os.fspath(path)
    if not name.endswith(".npz"):
        name += ".npz"
    with open_atomic(name, binary=True) as handle:
        np.savez(handle, **arrays)
    return Path(name)


@contextmanager
def reading(path):
    """Report any failure to read or decode the artifact at path as DataError.

    A missing, unreadable, truncated or wrong-kind file raises one of these
    while it is opened or decoded, or while its content is unpacked: a
    corrupt deflate stream raises zlib.error, and a zip member whose
    compression method field is damaged NotImplementedError. A file that
    asks for more memory than the host has raises MemoryError.
    """
    try:
        yield
    except (OSError, EOFError, zipfile.BadZipFile, zlib.error,
            NotImplementedError, KeyError, ValueError, TypeError, csv.Error,
            MemoryError) as exc:
        raise DataError(
            f"cannot read {path}: {type(exc).__name__}: {exc}"
        ) from exc


def load_admission_npz(path, per_admission: dict[str, str],
                       shared: dict[str, Optional[str]] = {}
                       ) -> dict[str, np.ndarray]:
    """admission_ids (as strings), checked to be unique, the per_admission
    arrays, each checked to have one row per admission id, and the shared
    arrays of a .npz file; both map each array's name to the dtype kinds
    (numpy.dtype.kind letters) it may have, None for any kind."""
    with reading(path), np.load(path, allow_pickle=False) as data:
        kinds = {**per_admission, **shared}
        arrays = {name: data[name] for name in ("admission_ids", *kinds)}
        ids = arrays["admission_ids"] = arrays["admission_ids"].astype(str)
        for name, kind in kinds.items():
            if kind is not None and arrays[name].dtype.kind not in kind:
                raise ValueError(f"{name} of dtype {arrays[name].dtype} is"
                                 f" not of kind {kind!r}")
        shapes = {name: arrays[name].shape for name in per_admission}
        if ids.ndim != 1 or any(s[:1] != ids.shape for s in shapes.values()):
            raise ValueError(f"{ids.shape} admission ids and arrays {shapes}"
                             " do not have one row per admission id")
        repeated = [adm for adm, n in Counter(ids.tolist()).items() if n > 1]
        if repeated:
            raise ValueError(f"admission id {repeated[0]!r} appears more"
                             " than once")
    return arrays


class _Pairs(list):
    """The (key, value) pairs of a JSON object, in file order, duplicate
    keys kept: what iter_json_blocks decodes every object of an object
    file to."""


# Characters of JSON text iter_json_blocks reads at a time: some 600
# synthetic chartevents records, of about 430 characters each. At 2^20 the
# 10x demo preprocess from the collection peaked 5 MiB higher and ran no
# faster.
_JSON_BLOCK_CHARS = 1 << 18

# Whitespace as JSON defines it; str.strip would take more.
_JSON_SPACE = " \t\n\r"

# By opening bracket: the closing one, the kind's name, the type a whole
# file of that kind decodes to, and the decoder.
_JSON_KINDS = {
    "[": ("]", "array", list, json.loads),
    "{": ("}", "object", _Pairs,
          functools.partial(json.loads, object_pairs_hook=_Pairs)),
}


def iter_json_blocks(path, handle, bracket: str) -> Iterator[list]:
    """The members of the JSON array ("[") or object ("{") in handle, a
    block at a time: an array's elements, or an object's (key, value)
    pairs as a list of pairs (and so is every object nested in them).

    The text is read _JSON_BLOCK_CHARS characters at a time and cut after
    each block's last ",\\n", the end of a member line in the layout the
    artifact writers use, and each block is decoded on its own. Blocks that
    decode on their own, each to at least one member, decode to the members
    of the whole value. Otherwise the remaining members come from decoding
    the whole text, so every other valid layout is read, and an invalid
    file, or one whose top-level value is of the other kind, raises DataError.
    """
    close, kind, top, loads = _JSON_KINDS[bracket]
    text = handle.read(_JSON_BLOCK_CHARS).lstrip(_JSON_SPACE)
    done = 0
    if text.startswith(bracket):
        carry = text[1:]
        while True:
            chunk = handle.read(_JSON_BLOCK_CHARS)
            text = carry + chunk
            if chunk:
                cut = text.rfind(",\n")
                if cut < 0:
                    carry = text
                    continue
                piece, carry = text[:cut], text[cut + 2:]
            else:
                piece = text.rstrip(_JSON_SPACE)
                if not piece.endswith(close):
                    break
                piece = piece[:-1]
            try:
                members = loads(bracket + piece + close)
            except json.JSONDecodeError:
                break
            if not members:
                break
            yield members
            done += len(members)
            if not chunk:
                return
    handle.seek(0)
    try:
        members = loads(handle.read())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if type(members) is not top:
        raise DataError(f"{path}: top-level JSON value is not an {kind}")
    yield members[done:]


def load_json(path) -> dict:
    """A JSON artifact whose top-level value must be an object."""
    with reading(path), open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise DataError(f"{path}: top-level JSON value is not an object")
    return payload


def read_admission_times(path) -> dict[str, tuple[int, int]]:
    """Map hadm_id -> (admit time, discharge time), in time_seconds, from an
    admissions CSV read a block at a time; a row without an id or either
    time is left out."""
    times: dict[str, tuple[int, int]] = {}
    for hadm, admit, disch in iter_csv_columns(
            path, ("hadm_id", "admittime", "dischtime")):
        for adm, pair in zip(map(str.strip, hadm), zip(
                time_seconds(admit).tolist(), time_seconds(disch).tolist())):
            if adm and NO_TIME not in pair:
                times[adm] = pair
    return times


def iter_csv_blocks(
    path, required: Iterable[str] = (), block_rows: int = 1 << 12,
) -> Iterator[tuple[list[str], list[list[str]]]]:
    """Stream a (possibly gzipped) CSV a block of rows at a time.

    Yields (keys, rows) per block of up to block_rows rows, where keys is
    the header, stripped and lowercased (the same list for every block),
    and rows the block's rows as lists of strings. The header must name
    every required column, and every later line, a blank one included,
    must have as many fields as the header; otherwise DataError (naming
    the row number of a bad row). Parsing is strict, so a quoted
    field cut off by the end of the file raises DataError instead of
    yielding a shortened last row.
    """
    with reading(path), open_text_auto(path, newline="") as handle:
        reader = csv.reader(handle, strict=True)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, no header")
        keys = [h.strip().lower() for h in header]
        missing = set(required) - set(keys)
        if missing:
            raise DataError(
                f"{path}: header lacks column(s) {sorted(missing)}"
            )
        width = len(keys)
        done = 0
        while rows := list(islice(reader, block_rows)):
            if set(map(len, rows)) != {width}:
                number, row = next((number, row) for number, row
                                   in enumerate(rows, done + 1)
                                   if len(row) != width)
                raise DataError(
                    f"{path}: row {number} has {len(row)} fields, "
                    f"header has {width}"
                )
            yield keys, rows
            done += len(rows)


def iter_csv_rows(path, required: Iterable[str] = ()) -> Iterator[dict]:
    """Stream rows of a (possibly gzipped) CSV as lowercase-keyed dicts,
    read and checked as iter_csv_blocks reads and checks them."""
    for keys, rows in iter_csv_blocks(path, required):
        for row in rows:
            yield dict(zip(keys, row))


def iter_csv_columns(path, names: tuple[str, ...]
                     ) -> Iterator[list[list[str]]]:
    """Stream the columns names of a (possibly gzipped) CSV, read and
    checked as iter_csv_blocks reads and checks it: per block, one list of
    cells per name. A column the header repeats reads its last field, as
    in iter_csv_rows."""
    for keys, rows in iter_csv_blocks(path, names):
        last = {key: index for index, key in enumerate(keys)}
        yield [list(map(itemgetter(last[name]), rows)) for name in names]
