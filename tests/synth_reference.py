"""A frozen copy of the row-at-a-time synthetic generator that the
block-columnar writer in ehrpipe.synth replaced: every row of every table
is built as a Python list, kept until the end and written through
csv.writer.

The byte-identity tests in test_synth.py hold ehrpipe.synth.generate to
generate below, over drawn configs. Run as a script, it writes the data of
an INI's [synth] section (with the run's derived synth seed), so that a
larger run can be compared too:

    PYTHONPATH=src python tests/synth_reference.py run.ini OUT_DIR
"""

from __future__ import annotations

import csv
import sys
from dataclasses import asdict
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from ehrpipe.synth import (
    DISCHARGE_CATEGORY,
    NOTE_CATEGORIES,
    PlantedSignal,
    SynthConfig,
    SynthManifest,
)
from ehrpipe.tables import (
    TABLE_COLUMNS,
    TableKind,
    make_dir,
    open_atomic,
    save_json,
)

_BASE_ADMIT = datetime(2130, 1, 1)
_STRING_TYPE_VALUES = ("ok", "alert", "check")


def _fmt_time(ts: datetime) -> str:
    # strftime("%Y-%m-%d %H:%M:%S")'s text for years from 1000 on, faster.
    return ts.isoformat(sep=" ", timespec="seconds")


def _write_csv(path: Path, header: list[str], rows) -> int:
    count = 0
    with open_atomic(path, newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
            count += 1
    return count


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
    type_sigmas = rng.uniform(0.5, 15.0, size=n_types)
    planted = [
        PlantedSignal(
            category_index=int(c),
            observation_type_index=int(t),
            mean_shift=float(config.signal_strength * type_sigmas[t]),
            marker_token=f"signalword{int(c):03d}",
        )
        for c, t in zip(planted_cats, planted_types)
    ]
    planted_by_type = {s.observation_type_index: s for s in planted}

    # --- patients ---------------------------------------------------------
    patient_rows = []
    dob_days = rng.integers(0, 365 * 70, size=n_pat)
    genders = rng.choice(["F", "M"], size=n_pat)
    expire = rng.random(n_pat) < 0.08
    for i in range(n_pat):
        dob = datetime(1930, 1, 1) + timedelta(days=int(dob_days[i]))
        dod = ""
        if expire[i]:
            dod = _fmt_time(dob + timedelta(days=int(365 * 60)))
        patient_rows.append(
            [i + 1, i + 1, genders[i], _fmt_time(dob), dod, "", "",
             int(expire[i])]
        )

    # --- admissions -------------------------------------------------------
    subj_of_adm = np.arange(1, n_adm + 1)
    subj_of_adm[:n_pat] = np.arange(1, n_pat + 1)
    if n_adm > n_pat:
        subj_of_adm[n_pat:] = rng.integers(1, n_pat + 1, size=n_adm - n_pat)
    admit_offsets = rng.integers(0, 3650 * 24 * 3600, size=n_adm)
    los_seconds = rng.integers(2 * 24 * 3600, 12 * 24 * 3600, size=n_adm)
    admit_times = [
        _BASE_ADMIT + timedelta(seconds=int(s)) for s in admit_offsets
    ]
    disch_times = [
        a + timedelta(seconds=int(l)) for a, l in zip(admit_times, los_seconds)
    ]
    adm_types = rng.choice(["EMERGENCY", "ELECTIVE", "URGENT"], size=n_adm)
    dx_words = rng.integers(0, len(vocab), size=n_adm)
    admission_rows = []
    for a in range(n_adm):
        admission_rows.append(
            [a + 1, int(subj_of_adm[a]), a + 1,
             _fmt_time(admit_times[a]), _fmt_time(disch_times[a]), "",
             adm_types[a], "TRANSFER", "HOME", "Medicare", "ENGL", "", "",
             "WHITE", "", "", vocab[dx_words[a]].upper(), 0, 1]
        )

    # --- labels and diagnoses_icd ------------------------------------------
    labels = rng.random((n_adm, n_cat)) < config.positive_rate_target
    code_pool = {
        c: [f"D{c:03d}{j}" for j in range(4)] for c in range(n_cat)
    }
    diag_rows = []
    diag_row_id = 0
    for a in range(n_adm):
        seq = 0
        for c in np.flatnonzero(labels[a]):
            n_codes = 1 + int(rng.integers(0, 2))
            picks = rng.choice(4, size=n_codes, replace=False)
            for j in picks:
                diag_row_id += 1
                seq += 1
                diag_rows.append(
                    [diag_row_id, int(subj_of_adm[a]), a + 1, seq,
                     code_pool[int(c)][int(j)]]
                )

    # --- chartevents --------------------------------------------------------
    chart_rows = []
    chart_row_id = 0

    def _append_event(a: int, type_index: int, when: datetime, value: float):
        nonlocal chart_row_id
        chart_row_id += 1
        text = f"{value:.4f}"
        chart_rows.append(
            [chart_row_id, int(subj_of_adm[a]), a + 1, "",
             type_index + 1, _fmt_time(when), _fmt_time(when), "",
             text, text, "unit", 0, 0, "", ""]
        )

    def _append_string_event(a: int, itemid: int, when: datetime, value: str):
        nonlocal chart_row_id
        chart_row_id += 1
        chart_rows.append(
            [chart_row_id, int(subj_of_adm[a]), a + 1, "", itemid,
             _fmt_time(when), _fmt_time(when), "", value, "", "", 0, 0,
             "", ""]
        )

    for a in range(n_adm):
        span = int(los_seconds[a])
        n_ev = int(rng.integers(config.events_min, config.events_max + 1))
        ev_types = rng.integers(0, n_types, size=n_ev)
        ev_offsets = rng.integers(0, span + 1, size=n_ev)
        ev_noise = rng.standard_normal(n_ev)
        for t, off, z in zip(ev_types, ev_offsets, ev_noise):
            t = int(t)
            value = type_means[t] + type_sigmas[t] * float(z)
            sig = planted_by_type.get(t)
            if sig is not None and labels[a, sig.category_index]:
                value += sig.mean_shift
            _append_event(a, t, admit_times[a] + timedelta(seconds=int(off)),
                          value)
        # Guaranteed coverage of every planted observation type: one
        # measurement inside each of the three final 8h windows plus one
        # earlier one, so the planted signal reaches every time bin.
        for sig in planted:
            t = sig.observation_type_index
            zs = rng.standard_normal(4)
            early = int(rng.integers(0, max(span - 24 * 3600, 1)))
            offsets = [early, span - 22 * 3600, span - 12 * 3600,
                       span - 2 * 3600]
            shift = sig.mean_shift if labels[a, sig.category_index] else 0.0
            for off, z in zip(offsets, zs):
                value = type_means[t] + type_sigmas[t] * float(z) + shift
                _append_event(
                    a, t, admit_times[a] + timedelta(seconds=max(int(off), 0)),
                    value,
                )
        # Two non-numeric observation types (string payloads).
        for extra in range(2):
            itemid = n_types + 1 + extra
            n_str = int(rng.integers(1, 3))
            for _ in range(n_str):
                off = int(rng.integers(0, span + 1))
                val = _STRING_TYPE_VALUES[int(rng.integers(0, 3))]
                _append_string_event(
                    a, itemid, admit_times[a] + timedelta(seconds=int(off)),
                    val,
                )

    # --- noteevents ---------------------------------------------------------
    def _note_text(a: int, n_words: int, markers: list[str],
                   marker_copies: int) -> str:
        idx = rng.integers(0, len(vocab), size=n_words)
        words = [vocab[i] for i in idx]
        # Occasional abbreviations and newlines exercise note cleaning.
        if n_words > 10:
            words[int(rng.integers(0, n_words))] = "Dr."
        for token in markers:
            for _ in range(marker_copies):
                pos = int(rng.integers(0, len(words) + 1))
                words.insert(pos, token)
        pieces = []
        for i, w in enumerate(words):
            if i and i % 13 == 0:
                pieces.append("\n")
            else:
                if i:
                    pieces.append(" ")
            pieces.append(w)
        return "".join(pieces)

    note_rows = []
    note_row_id = 0
    for a in range(n_adm):
        markers = [
            s.marker_token for s in planted if labels[a, s.category_index]
        ]
        span_hours = int(los_seconds[a]) // 3600
        n_notes = int(rng.integers(config.notes_min, config.notes_max + 1))
        for k in range(n_notes):
            if k == 0:
                off_h = int(rng.integers(0, 48))  # guaranteed early note
            else:
                off_h = int(rng.integers(0, min(120, max(span_hours, 1))))
            when = admit_times[a] + timedelta(hours=off_h)
            n_words = int(rng.integers(60, 180))
            text = _note_text(a, n_words, markers, 2)
            note_row_id += 1
            note_rows.append(
                [note_row_id, int(subj_of_adm[a]), a + 1,
                 when.strftime("%Y-%m-%d"), _fmt_time(when), _fmt_time(when),
                 NOTE_CATEGORIES[int(rng.integers(0, len(NOTE_CATEGORIES)))],
                 "Report", "", 0, text]
            )
        disch_note_time = disch_times[a] - timedelta(hours=2)
        n_words = int(rng.integers(80, 220))
        text = _note_text(a, n_words, markers, 3)
        note_row_id += 1
        note_rows.append(
            [note_row_id, int(subj_of_adm[a]), a + 1,
             disch_note_time.strftime("%Y-%m-%d"), _fmt_time(disch_note_time),
             _fmt_time(disch_note_time), DISCHARGE_CATEGORY, "Report", "", 0,
             text]
        )

    # --- crosswalk ----------------------------------------------------------
    crosswalk_path = out / "ccs_crosswalk.csv"
    with open_atomic(crosswalk_path, newline="") as handle:
        handle.write("Synthetic single-level CCS crosswalk\n")
        handle.write("\n")
        handle.write(
            "'ICD-9-CM CODE','CCS CATEGORY','CCS CATEGORY DESCRIPTION'\n"
        )
        for c in range(n_cat):
            for code in code_pool[c]:
                handle.write(
                    f"'{code:<6}','{c + 1:<4}','synthetic category {c + 1}'\n"
                )

    # --- write tables and manifest -------------------------------------------
    all_rows = {
        TableKind.PATIENTS: patient_rows,
        TableKind.ADMISSIONS: admission_rows,
        TableKind.DIAGNOSES_ICD: diag_rows,
        TableKind.CHARTEVENTS: chart_rows,
        TableKind.NOTEEVENTS: note_rows,
    }
    tables: list[tuple[TableKind, Path, int]] = []
    for kind, rows in all_rows.items():
        path = out / f"{kind.value}.csv"
        count = _write_csv(path, list(TABLE_COLUMNS[kind]), rows)
        tables.append((kind, path, count))

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


if __name__ == "__main__":
    from ehrpipe.runcfg import load_config

    generate(load_config(sys.argv[1]).synth, sys.argv[2])
