"""Peak RSS of ehrpipe's stages as their data grows, against fixed bounds.

Usage: python tests/scale_probe.py WORKDIR (new or empty). Each row runs `python -m ehrpipe.cli
ARGV`, with the ehrpipe this interpreter imports, in WORKDIR/<data set> for each of its data
sets; os.wait4 gives the child's own peak RSS. The last line of stdout is a JSON report; the
exit status is 1 when a bound fails or a child exits non-zero.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import ehrpipe

ENV = {**os.environ, "PYTHONPATH": str(Path(ehrpipe.__file__).resolve().parents[1])}
DEMO = ("--types 20 --categories 10 --positive-rate 0.08 --signal 3.0 --notes-min 1 --notes-max 3"
        " --vocab 120 --planted 3 --events-min 25 --events-max 45")
SIZES = {"10x": f"--patients 600 --admissions 1500 {DEMO}",
         "50x": f"--patients 3000 --admissions 7500 {DEMO}",
         "wide": "--patients 3000 --admissions 7500"}
CHART = "preprocess --admissions admissions.csv --chartevents chartevents."
WIDE = "wide/csv/tensors.npz"

# (row, data sets, argv, bounds). The data sets (seed 11) are demo.ini's [synth] settings at 10
# and 50 times its counts, and the synth defaults (450 observation types) at 50 times them. A
# bound (a, k, b) asks the peak at data set a to stay below k times the peak at data set b, or
# k times the size of file b.
ROWS = [
    # synth writes chart events a block of admissions at a time.
    ("synth", ("10x", "50x", "wide"), "synth --out . --seed 11 {size}", [("50x", 1.5, "10x")]),
    ("transform", ("10x", "50x"),
     "transform --table chartevents chartevents.csv chartevents.json.gz", []),
    # preprocess keeps 16 bytes per chart event, not the parsed input.
    ("preprocess", ("10x", "50x"), CHART + "json.gz --out fhir", [("50x", 2, "10x")]),
    # At 450 types the output dominates: preprocess normalizes the binned values in place.
    ("preprocess-csv", ("10x", "wide"), CHART + "csv --out csv", [("wide", 2.5, WIDE)]),
    ("labels", ("10x", "wide"), "labels --diagnoses diagnoses_icd.csv --crosswalk"
     " ccs_crosswalk.csv --admissions admissions.csv --out labels.npz", []),
    ("split", ("10x", "wide"), "split --labels labels.npz --out split.json", []),
    # train fits and validates on rows of the one copy of the tensors it loads.
    ("train", ("wide",), "train --tensors csv/tensors.npz --labels labels.npz --split split.json"
     " --out model.npz --epochs 0", [("wide", 2.2, WIDE)]),
    # No bound yet: build_subset still holds the subset's text.
    ("notes-prep", ("10x", "50x"), "notes-prep --notes noteevents.csv --admissions"
     " admissions.csv --subset days3 --max-len 128 --out chunks.json", []),
    ("score-notes-fit", ("10x",), "score-notes --chunks chunks.json --labels labels.npz"
     " --split split.json --feature-dim 4096 --fit-out scorer.npz --out fit.npz", []),
    # score-notes reads chunks.json a block of admissions at a time, holds one string per
    # distinct token, and hashes and scores a block of chunks at a time.
    ("score-notes", ("10x", "50x"), "score-notes --chunks chunks.json --params"
     " ../10x/scorer.npz --out chunk_scores.npz", [("50x", 1.5, "10x")]),
]


def mib(path: Path) -> float:
    files = [path] if path.is_file() else path.rglob("*")
    return sum(f.stat().st_size for f in files if f.is_file()) / 2 ** 20


def run(argv: list[str], ds: str) -> dict:
    """One child's peak RSS, wall time, exit code, and MiB in (argv) and out (data set)."""
    inputs = sum(mib(Path(ds, a)) for a in argv if Path(ds, a).exists())
    before, start = mib(Path(ds)), time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "ehrpipe.cli", *argv],
                             cwd=ds, env=ENV, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    return {"peak_mib": usage.ru_maxrss / 1024, "wall_s": time.perf_counter() - start,
            "input_mib": inputs, "output_mib": mib(Path(ds)) - before,
            "exit": os.waitstatus_to_exitcode(status)}


def main(work: str) -> int:
    start, report, passed, same = time.perf_counter(), {}, True, None
    for ds in SIZES:
        os.makedirs(os.path.join(work, ds))
    os.chdir(work)
    for name, sets, argv, bounds in ROWS:
        runs = {ds: run(argv.format(size=SIZES[ds]).split(), ds) for ds in sets}
        peak = {ds: r["peak_mib"] for ds, r in runs.items()}
        report[name] = {"runs": runs, "checks": []}
        if any(r["exit"] for r in runs.values()):
            break  # later rows read what this one writes
        for a, k, b in bounds:
            ratio = peak[a] / (peak[b] if b in peak else mib(Path(b)))
            report[name]["checks"].append({"bound": [a, k, b], "ratio": ratio, "pass": ratio < k})
            passed &= ratio < k
    else:  # every child exited 0: the CSV and the collection give the same tensors
        same = len({Path("10x", d, "tensors.npz").read_bytes() for d in ("csv", "fhir")}) == 1
    print(json.dumps({"ehrpipe": ENV["PYTHONPATH"], "rows": report, "same_tensors": same,
                      "passed": passed and same is True, "wall_s": time.perf_counter() - start}))
    return 0 if passed and same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]) if len(sys.argv) == 2 else __doc__)
