"""tables.parse_timestamp accepts and rejects what its strptime form did,
tables.time_seconds reads each cell as parse_timestamp does, and save_json
writes the text json.dump writes."""

import json
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import epoch_seconds
from ehrpipe.tables import NO_TIME, parse_timestamp, save_json, time_seconds


def strptime_parse(raw: str):
    """The earlier parse_timestamp, frozen: three strptime formats in turn."""
    text = raw.strip()
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d"):
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    return None


CASES = [
    ("2130-01-01 10:00:00", datetime(2130, 1, 1, 10)),
    ("2130-01-01T10:00:00", datetime(2130, 1, 1, 10)),
    ("2130-01-01", datetime(2130, 1, 1)),
    (" 2130-12-31 23:59:59\n", datetime(2130, 12, 31, 23, 59, 59)),
    # strptime accepts these, a strict ISO shape does not
    ("2130-1-1", datetime(2130, 1, 1)),
    ("2130-01- 1", datetime(2130, 1, 1)),
    ("2130-01-01t10:00:00", datetime(2130, 1, 1, 10)),
    ("2130-01-01  10:00:00", datetime(2130, 1, 1, 10)),
    ("2130-01-01 1:2:3", datetime(2130, 1, 1, 1, 2, 3)),
    ("٢١٣٠-01-01", datetime(2130, 1, 1)),
    # fromisoformat accepts these, strptime does not
    ("2130-01-01 10:00", None),
    ("20130101", None),
    ("2130-01-01 10:00:00.5", None),
    ("2130-01-01T10:00:00+00:00", None),
    ("2130-W01-1", None),
    ("2130-01-01T10", None),
    # neither accepts these
    ("2130-02-30", None),
    ("2130-01-01 24:00:00", None),
    ("2130-01-01 23:59:60", None),
    ("0000-01-01", None),
    ("0000-01-01 00:00:00", None),
    ("2130-13-01", None),
    ("", None),
    ("   ", None),
    ("not a time", None),
    # the epoch itself, second 0
    ("1970-01-01 00:00:00", datetime(1970, 1, 1)),
]


@pytest.mark.parametrize("raw,expected", CASES)
def test_parse_timestamp_matches_strptime(raw, expected):
    assert strptime_parse(raw) == expected
    assert parse_timestamp(raw) == expected


_DIGITS = "0123456789٣"


def _joined(*parts):
    return st.tuples(*parts).map("".join)


def _separator(usual: str):
    """Mostly the usual separator, else any of those the parsers know."""
    return st.one_of(
        st.just(usual), st.sampled_from(["-", ":", " ", "T", "t", "  ", ""]),
    )


def _number(width: int, top: int):
    """A field: zero-padded up to top, unpadded, or any run of digits."""
    return st.one_of(
        st.integers(0, top).map(lambda n: f"{n:0{width}d}"),
        st.integers(0, 99).map(str),
        st.text(alphabet=_DIGITS, min_size=1, max_size=5),
    )


_date = _joined(_number(4, 9999), _separator("-"), _number(2, 12),
                _separator("-"), _number(2, 31))
_clock = [_joined(_separator(" "), _number(2, 24)),
          _joined(_separator(":"), _number(2, 60)),
          _joined(_separator(":"), _number(2, 60))]
_near_stamp = _joined(
    _date,
    st.integers(0, 3).flatmap(lambda n: _joined(*_clock[:n])),
    st.sampled_from(["", ":00", " "]),
)


@settings(max_examples=1000, database=None)
@given(st.one_of(_near_stamp, st.text(alphabet=_DIGITS + "-: Tt", max_size=24)))
def test_parse_timestamp_property(raw):
    assert parse_timestamp(raw) == strptime_parse(raw)


def _seconds(cell) -> int:
    """parse_timestamp in seconds, NO_TIME for no time or no string."""
    when = parse_timestamp(cell) if isinstance(cell, str) else None
    return NO_TIME if when is None else epoch_seconds(when)


_CANONICAL = ["2130-01-01 10:00:00", "1970-01-01T00:00:00"]


@pytest.mark.parametrize("cell", [raw for raw, _ in CASES] + [None])
def test_time_seconds_matches_parse_timestamp(cell):
    # A column of the one cell, and the cell among canonical stamps: a
    # column of canonical stamps only is converted whole, any other column
    # cell by cell.
    for column in ([cell], [_CANONICAL[0], cell, _CANONICAL[1]]):
        assert time_seconds(column).tolist() == list(map(_seconds, column))


# Canonical stamps, fields in range or not, with either separator.
_stamps = st.tuples(
    st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
    st.integers(0, 25), st.integers(0, 61), st.integers(0, 61),
    st.sampled_from(" T"),
).map(lambda f: f"{f[0]:04}-{f[1]:02}-{f[2]:02}{f[6]}{f[3]:02}:{f[4]:02}:"
      f"{f[5]:02}")
_valid_stamps = st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59),
).map(lambda when: when.isoformat(sep=" ", timespec="seconds"))


@settings(max_examples=500, database=None)
@given(st.one_of(
    st.lists(_valid_stamps, max_size=30),
    st.lists(st.one_of(_valid_stamps, _stamps, _near_stamp, st.none(),
                       st.just(""), st.just("  ")), max_size=30)))
def test_time_seconds_property(cells):
    assert time_seconds(cells).tolist() == list(map(_seconds, cells))


# The payload shapes and options the program saves: chunks, training logs
# and metric reports (indent=1), the split (indent=0, sort_keys), the synth
# manifest (indent=2) and unknown codes (sort_keys).
_CHUNKS = {"101": [["[CLS]", "fièvre", "肺炎"], ["a", "b"]], "102": [[]]}
_LOG = {"loss": [0.6931471805599453, 1e-17, 3.0], "epochs": 2,
        "note": None, "ok": True, "empty": {}, "none": []}
SAVE_JSON_CASES = [
    (_CHUNKS, {}),
    (_LOG, {"indent": 1}),
    ({"b": "test", "a": "train", "c": "val"}, {"indent": 0,
                                               "sort_keys": True}),
    ({"tables": [["patients", "data/patients.csv", 30]], "seed": 7,
      "nested": {"x": [1.5, -0.0, float("nan")]}}, {"indent": 2}),
    ({"V30.01": 3, "E879.8": 1}, {"sort_keys": True}),
    ({"text": "FIÈVRE – SEPSIS \u2028 \x00 \"quoted\""}, {"indent": 1}),
]


@pytest.mark.parametrize("payload,options", SAVE_JSON_CASES)
def test_save_json_writes_the_text_of_json_dump(tmp_path, payload, options):
    reference = tmp_path / "reference.json"
    with open(reference, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, **options)
        handle.write("\n")
    path = save_json(tmp_path / "saved.json", payload, **options)
    assert path.read_bytes() == reference.read_bytes()
