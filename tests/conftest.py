import csv
from datetime import datetime, timedelta
from pathlib import Path

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
