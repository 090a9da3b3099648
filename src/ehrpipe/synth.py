"""Deterministic synthetic datasets in MIMIC-III table schemas.

The generator emits patients, admissions, diagnoses_icd, chartevents and
noteevents CSVs plus a synthetic ICD->CCS crosswalk, honoring referential
integrity. A configurable number of "planted" category signals make the
data learnable: admissions positive for a planted category draw one
observation type from a mean-shifted distribution and carry a marker token
in their notes. Identical configs produce byte-identical files.

Each table is written as it is drawn. Diagnoses and notes go out a row at
a time. Chart events, most of the rows, are kept as plain lists for a block
of _BLOCK_ADMISSIONS admissions; the block's values and times are then
computed as numpy columns and each row formatted from one % template.
Memory is therefore bounded by one block and by the per-admission draws
(times, label matrix), not by the rows of every admission.
tests/synth_reference.py keeps the row-at-a-time generator this replaced;
both make the same draws in the same order and write the same bytes.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .tables import TABLE_COLUMNS, TableKind, make_dir, open_atomic, save_json

_BASE_ADMIT = np.datetime64("2130-01-01T00:00:00", "s")
_BASE_DOB = np.datetime64("1930-01-01T00:00:00", "s")

#: Admissions whose chart events are formatted and written together.
_BLOCK_ADMISSIONS = 128

#: Non-numeric observation types appended after the numeric ones; they
#: exercise the numeric-type filter downstream.
_STRING_TYPE_VALUES = ("ok", "alert", "check")

NOTE_CATEGORIES = ("Nursing", "Radiology", "Physician")
DISCHARGE_CATEGORY = "Discharge summary"

# One line of each table, as csv.writer wrote it: no cell holds a comma, a
# quote or a newline, except note text, which always holds a newline (every
# note has more than 13 words) and so is quoted.
_PATIENT = "%d,%d,%s,%s,%s,,,%d\n"
_ADMISSION = ("%d,%d,%d,%s,%s,,%s,TRANSFER,HOME,Medicare,ENGL,,,WHITE,,,"
              "%s,0,1\n")
_DIAGNOSIS = "%d,%d,%d,%d,%s\n"
_CHART_EVENT = "%d,%d,%d,,%d,%s,%s,,%s,%s,%s,0,0,,\n"
_NOTE = '%d,%d,%d,%s,%s,%s,%s,Report,,0,"%s"\n'


# Observation type sigmas are drawn from [0.5, _SIGMA_HIGH).
_SIGMA_HIGH = 15.0


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_patients: int = 100
    n_admissions: int = 120
    n_observation_types: int = 450
    n_ccs_categories: int = 281
    positive_rate_target: float = 0.043
    signal_strength: float = 0.0
    # notes per admission, drawn uniformly from [notes_min, notes_max]
    notes_min: int = 1
    notes_max: int = 3
    vocabulary_size: int = 200
    # Generation-size knobs beyond the core contract, with conservative
    # defaults: how many planted category signals and how many background
    # chart events per admission (from [events_min, events_max]).
    n_planted: int = 3
    events_min: int = 40
    events_max: int = 80

    def __post_init__(self) -> None:
        if self.n_patients < 1 or self.n_admissions < self.n_patients:
            raise ConfigError("need n_admissions >= n_patients >= 1")
        if not 0.0 < self.positive_rate_target < 1.0:
            raise ConfigError("positive_rate_target must be in (0,1)")
        # also rejects NaN, and a strength whose planted mean shift,
        # signal_strength times a type sigma, would overflow
        if not 0 <= self.signal_strength * _SIGMA_HIGH < math.inf:
            raise ConfigError("signal_strength must be non-negative and"
                                f" keep signal_strength * {_SIGMA_HIGH:g}"
                                " finite")
        if not 1 <= self.notes_min <= self.notes_max:
            raise ConfigError("need 1 <= notes_min <= notes_max")
        if not 1 <= self.events_min <= self.events_max:
            raise ConfigError("need 1 <= events_min <= events_max")
        if self.vocabulary_size < 10:
            raise ConfigError("vocabulary_size must be >= 10")
        if self.n_observation_types < 1 or self.n_ccs_categories < 1:
            raise ConfigError("need at least one observation type and category")
        if self.n_planted < 0 or self.n_planted > min(
            self.n_ccs_categories, self.n_observation_types
        ):
            raise ConfigError("n_planted exceeds available categories/types")
        if self.seed < 0:
            raise ConfigError("seed must be unsigned")


@dataclass(frozen=True)
class PlantedSignal:
    """Ground truth linking one category to one observation type and token.

    category_index is the dense 0-based index (crosswalk categories are the
    1-based ids index+1); observation_type_index is 0-based (itemid is
    index+1).
    """

    category_index: int
    observation_type_index: int
    mean_shift: float
    marker_token: str


@dataclass
class SynthManifest:
    tables: list[tuple[TableKind, Path, int]]
    crosswalk_path: Path
    planted: list[PlantedSignal]
    config: SynthConfig
    manifest_path: Path


def _fmt_time(ts: datetime) -> str:
    # strftime("%Y-%m-%d %H:%M:%S")'s text for years from 1000 on, faster.
    return ts.isoformat(sep=" ", timespec="seconds")


def _fmt_times(stamps: np.ndarray) -> list[str]:
    """_fmt_time's text of each datetime64[s] stamp: numpy's ISO text with
    a space for its T."""
    text = np.datetime_as_string(stamps, unit="s")
    text.view(np.uint32).reshape(-1, text.itemsize // 4)[:, 10] = ord(" ")
    return text.tolist()


def generate(config: SynthConfig, output_dir) -> SynthManifest:
    """Emit the synthetic dataset into output_dir and return its manifest."""
    out = make_dir(output_dir)

    rng = np.random.default_rng(config.seed)
    n_pat = config.n_patients
    n_adm = config.n_admissions
    n_types = config.n_observation_types
    n_cat = config.n_ccs_categories

    vocab = [f"term{i:04d}" for i in range(config.vocabulary_size)]

    # Planted ground truth: distinct categories and observation types.
    planted_cats = rng.choice(n_cat, size=config.n_planted, replace=False)
    planted_types = rng.choice(n_types, size=config.n_planted, replace=False)
    type_means = rng.uniform(-50.0, 150.0, size=n_types)
    type_sigmas = rng.uniform(0.5, _SIGMA_HIGH, size=n_types)
    planted = [
        PlantedSignal(
            category_index=int(c),
            observation_type_index=int(t),
            mean_shift=float(config.signal_strength * type_sigmas[t]),
            marker_token=f"signalword{int(c):03d}",
        )
        for c, t in zip(planted_cats, planted_types)
    ]

    kinds = (TableKind.PATIENTS, TableKind.ADMISSIONS, TableKind.DIAGNOSES_ICD,
             TableKind.CHARTEVENTS, TableKind.NOTEEVENTS)
    paths = [out / f"{kind.value}.csv" for kind in kinds]
    crosswalk_path = out / "ccs_crosswalk.csv"
    # Every file appears once all of them are written, or none does.
    with ExitStack() as stack:
        handles = [stack.enter_context(open_atomic(path, newline=""))
                   for path in paths]
        for kind, handle in zip(kinds, handles):
            handle.write(",".join(TABLE_COLUMNS[kind]) + "\n")
        patients_csv, admissions_csv, diagnoses_csv, chart_csv, notes_csv = (
            handles)

        # --- patients -----------------------------------------------------
        dob_days = rng.integers(0, 365 * 70, size=n_pat)
        genders = rng.choice(["F", "M"], size=n_pat)
        expire = rng.random(n_pat) < 0.08
        dob = _BASE_DOB + dob_days.astype("m8[D]")
        dod = _fmt_times(dob + np.timedelta64(365 * 60, "D"))
        patients = range(1, n_pat + 1)
        patients_csv.writelines(map(_PATIENT.__mod__, zip(
            patients, patients, genders.tolist(), _fmt_times(dob),
            [d if e else "" for d, e in zip(dod, expire.tolist())],
            expire.tolist())))

        # --- admissions ---------------------------------------------------
        subj_of_adm = np.arange(1, n_adm + 1)
        subj_of_adm[:n_pat] = np.arange(1, n_pat + 1)
        if n_adm > n_pat:
            subj_of_adm[n_pat:] = rng.integers(1, n_pat + 1,
                                               size=n_adm - n_pat)
        admit_offsets = rng.integers(0, 3650 * 24 * 3600, size=n_adm)
        los_seconds = rng.integers(2 * 24 * 3600, 12 * 24 * 3600, size=n_adm)
        admit = _BASE_ADMIT + admit_offsets.astype("m8[s]")
        disch = admit + los_seconds.astype("m8[s]")
        adm_types = rng.choice(["EMERGENCY", "ELECTIVE", "URGENT"], size=n_adm)
        dx_words = rng.integers(0, len(vocab), size=n_adm)
        subjects = subj_of_adm.tolist()
        hadm_ids = range(1, n_adm + 1)
        admissions_csv.writelines(map(_ADMISSION.__mod__, zip(
            hadm_ids, subjects, hadm_ids, _fmt_times(admit),
            _fmt_times(disch), adm_types.tolist(),
            [vocab[w].upper() for w in dx_words.tolist()])))

        # --- labels and diagnoses_icd -------------------------------------
        labels = rng.random((n_adm, n_cat)) < config.positive_rate_target
        code_pool = [[f"D{c:03d}{j}" for j in range(4)] for c in range(n_cat)]
        n_diag = 0
        for a in range(n_adm):
            seq = 0
            for c in np.flatnonzero(labels[a]).tolist():
                n_codes = 1 + int(rng.integers(0, 2))
                for j in rng.choice(4, size=n_codes, replace=False).tolist():
                    n_diag += 1
                    seq += 1
                    diagnoses_csv.write(_DIAGNOSIS % (
                        n_diag, subjects[a], a + 1, seq, code_pool[c][j]))

        # --- chartevents --------------------------------------------------
        # An event's type index t is itemid - 1; the string types follow
        # the numeric ones and take mean, sigma and noise 0. Its value is
        # means[t] + sigmas[t] * noise + shift[a, planted_of[t]]: shift is 0
        # in its last column, which every type that is not planted maps to,
        # and where admission a is negative for the planted category (adding
        # 0 keeps the value: no draw gives -0.0).
        means = np.append(type_means, (0.0, 0.0))
        sigmas = np.append(type_sigmas, (0.0, 0.0))
        planted_of = np.full(n_types + 2, len(planted))
        shift = np.zeros((n_adm, len(planted) + 1))
        for p, sig in enumerate(planted):
            planted_of[sig.observation_type_index] = p
            shift[labels[:, sig.category_index], p] = sig.mean_shift
        string_values = np.array(_STRING_TYPE_VALUES, dtype=object)
        n_chart = 0
        # One block's events in row order: admission index, type index,
        # seconds after admission, noise and string value index (0 for a
        # numeric event).
        block: tuple[list, ...] = ([], [], [], [], [])
        adm_col, type_col, offset_col, noise_col, word_col = block

        def write_block() -> None:
            nonlocal n_chart
            adm, types, offsets, noise, words = map(np.array, block)
            numeric = types < n_types
            values = (means[types] + sigmas[types] * noise
                      + shift[adm, planted_of[types]])
            text = np.array(["%.4f" % v for v in values.tolist()],
                            dtype=object)
            times = _fmt_times(admit[adm] + offsets.astype("m8[s]"))
            chart_csv.write("".join(map(_CHART_EVENT.__mod__, zip(
                range(n_chart + 1, n_chart + len(adm) + 1),
                subj_of_adm[adm].tolist(),
                (adm + 1).tolist(), (types + 1).tolist(), times, times,
                np.where(numeric, text, string_values[words]).tolist(),
                np.where(numeric, text, "").tolist(),
                np.where(numeric, "unit", "").tolist()))))
            n_chart += len(adm)
            for column in block:
                column.clear()

        for a in range(n_adm):
            span = int(los_seconds[a])
            n_ev = int(rng.integers(config.events_min, config.events_max + 1))
            type_col += rng.integers(0, n_types, size=n_ev).tolist()
            offset_col += rng.integers(0, span + 1, size=n_ev).tolist()
            noise_col += rng.standard_normal(n_ev).tolist()
            # Guaranteed coverage of every planted observation type: one
            # measurement inside each of the three final 8h windows plus one
            # earlier one, so the planted signal reaches every time bin.
            # Stays are at least two days long, so no offset is negative.
            for sig in planted:
                noise_col += rng.standard_normal(4).tolist()
                early = int(rng.integers(0, max(span - 24 * 3600, 1)))
                offset_col += (early, span - 22 * 3600, span - 12 * 3600,
                               span - 2 * 3600)
                type_col += (sig.observation_type_index,) * 4
            word_col += [0] * (len(type_col) - len(word_col))
            # Two non-numeric observation types (string payloads).
            for extra in range(2):
                for _ in range(int(rng.integers(1, 3))):
                    offset_col.append(int(rng.integers(0, span + 1)))
                    word_col.append(int(rng.integers(0, 3)))
                    type_col.append(n_types + extra)
                    noise_col.append(0.0)
            adm_col += [a] * (len(type_col) - len(adm_col))
            if (a + 1) % _BLOCK_ADMISSIONS == 0 or a + 1 == n_adm:
                write_block()

        # --- noteevents ---------------------------------------------------
        vocab_words = np.array(vocab, dtype=object)

        def note_text(n_words: int, markers: list[str],
                      marker_copies: int) -> str:
            words = vocab_words[
                rng.integers(0, len(vocab), size=n_words)].tolist()
            # Occasional abbreviations and newlines exercise note cleaning.
            if n_words > 10:
                words[int(rng.integers(0, n_words))] = "Dr."
            for token in markers:
                for _ in range(marker_copies):
                    words.insert(int(rng.integers(0, len(words) + 1)), token)
            return "\n".join(" ".join(words[i:i + 13])
                             for i in range(0, len(words), 13))

        n_notes = 0
        admit_times, disch_times = admit.tolist(), disch.tolist()
        for a in range(n_adm):
            markers = [
                s.marker_token for s in planted if labels[a, s.category_index]
            ]
            span_hours = int(los_seconds[a]) // 3600
            drawn = []
            for k in range(int(rng.integers(config.notes_min,
                                            config.notes_max + 1))):
                if k == 0:
                    off_h = int(rng.integers(0, 48))  # guaranteed early note
                else:
                    off_h = int(rng.integers(0, min(120, max(span_hours, 1))))
                text = note_text(int(rng.integers(60, 180)), markers, 2)
                category = NOTE_CATEGORIES[
                    int(rng.integers(0, len(NOTE_CATEGORIES)))]
                drawn.append((admit_times[a] + timedelta(hours=off_h),
                              category, text))
            text = note_text(int(rng.integers(80, 220)), markers, 3)
            drawn.append((disch_times[a] - timedelta(hours=2),
                          DISCHARGE_CATEGORY, text))
            for when, category, text in drawn:
                n_notes += 1
                stamp = _fmt_time(when)
                notes_csv.write(_NOTE % (n_notes, subjects[a], a + 1,
                                         stamp[:10], stamp, stamp, category,
                                         text))

        # --- crosswalk ----------------------------------------------------
        crosswalk = stack.enter_context(
            open_atomic(crosswalk_path, newline=""))
        crosswalk.write(
            "Synthetic single-level CCS crosswalk\n\n"
            "'ICD-9-CM CODE','CCS CATEGORY','CCS CATEGORY DESCRIPTION'\n"
        )
        crosswalk.writelines(
            f"'{code:<6}','{c + 1:<4}','synthetic category {c + 1}'\n"
            for c in range(n_cat) for code in code_pool[c]
        )

    # --- manifest -----------------------------------------------------------
    tables = list(zip(kinds, paths,
                      (n_pat, n_adm, n_diag, n_chart, n_notes)))
    manifest_path = out / "manifest.json"
    payload = {
        "config": asdict(config),
        "tables": [
            {"table": kind.value, "path": path.name, "rows": count}
            for kind, path, count in tables
        ],
        "crosswalk": crosswalk_path.name,
        "planted": [asdict(s) for s in planted],
    }
    save_json(manifest_path, payload, indent=2)

    return SynthManifest(
        tables=tables,
        crosswalk_path=crosswalk_path,
        planted=planted,
        config=config,
        manifest_path=manifest_path,
    )
