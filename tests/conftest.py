import csv
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from ehrpipe.synth import SynthConfig, generate


def write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def epoch_seconds(when: datetime) -> int:
    """Whole seconds from 1970-01-01 to when, the unit the program keeps
    times in."""
    return (when - datetime(1970, 1, 1)) // timedelta(seconds=1)


def seconds_by_id(times: dict) -> dict:
    """times, a datetime per admission id, with each time in seconds."""
    return {adm: epoch_seconds(when) for adm, when in times.items()}


# Seconds before discharge of one event in each of the four bins.
_BIN_OFFSETS = np.array([30, 20, 12, 4]) * 3600


def matrix_blocks(values: np.ndarray, mask: np.ndarray):
    """Chart events whose bin_events matrices are values where mask holds,
    and 0 elsewhere: one event per masked cell of the (admissions, types, 4)
    arrays, in one block of the chart readers' columns. Admission row i is
    named i + 1 and type t is named t, so that both sort as they are
    numbered. Returns the blocks and the discharge time of every
    admission."""
    admission, type_, time_bin = np.nonzero(mask)
    discharge = 10 ** 9
    block = ([str(i + 1) for i in admission.tolist()],
             [str(t) for t in type_.tolist()], values[mask],
             discharge - _BIN_OFFSETS[time_bin])
    return [block], dict.fromkeys(map(str, range(1, mask.shape[0] + 1)),
                                  discharge)


@pytest.fixture
def csv_writer(tmp_path):
    def _write(name, header, rows):
        return write_csv(tmp_path / name, header, rows)

    return _write


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """A small planted-signal dataset shared by integration-style tests."""
    out = tmp_path_factory.mktemp("synth_small")
    config = SynthConfig(
        seed=1234,
        n_patients=60,
        n_admissions=150,
        n_observation_types=12,
        n_ccs_categories=8,
        positive_rate_target=0.1,
        signal_strength=3.0,
        notes_min=1, notes_max=3,
        vocabulary_size=80,
        n_planted=2,
        events_min=15, events_max=30,
    )
    manifest = generate(config, out)
    return manifest
