"""ehrpipe benchmark: drives the CLI in fresh processes and checks its outputs.

    python3 bench/run.py --workload all --seed 11 --trace 1

runs every workload and prints each metric with its unit and the result of
the output gate; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics of untraced repetitions; `--trace 1` adds a traced
repetition (and one under tracemalloc) and reports the per-layer metrics.
Metric names, units and bounds live in BENCHMARK.json; bench/README.md
explains them.

The benchmark never sets BLAS thread variables: the program runs with the
threads its users get by default, and the count in effect is recorded.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import MIB, breakdown, layer_metrics, nnz_ratio
from workloads import COLLECTIONS, REPORTS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# Relative to ROOT, the working directory of the benchmark and of every
# child, so that the paths the program records in its artifacts (manifests)
# have the same bytes in every run and every checkout.
OUT = Path(".bench_out")
PYTHON = sys.executable
# Each workload of a run ends within this many seconds, whatever the
# program does.
DEADLINE_S = 170.0
SETUP_IMPORTS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GOTO_NUM_THREADS", "OPENBLAS_CORETYPE")

PROBE = r"""
import ctypes, json, platform, sys
import numpy, ehrpipe, ehrpipe.cli
blas = {"library": None, "config": None, "threads": None}
with open("/proc/self/maps") as maps:
    libs = [line.split()[-1] for line in maps if "openblas" in line.lower()]
if libs:
    lib = ctypes.CDLL(libs[0])
    blas["library"] = libs[0].rsplit("/", 1)[-1]
    for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", "64_")):
        try:
            name = f"{prefix}openblas_get_%s{suffix}"
            get_threads = getattr(lib, name % "num_threads")
            get_config = getattr(lib, name % "config")
        except AttributeError:
            continue
        get_config.restype = ctypes.c_char_p
        blas["threads"] = get_threads()
        blas["config"] = get_config().decode()
        break
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "blas": blas,
                  "ehrpipe": ehrpipe.__file__,
                  "ehrpipe_version": ehrpipe.__version__}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Proc:
    argv: list[str]
    log: Path
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    epochs: tuple[float, float]


@dataclass
class Ledger:
    """Program invocations attempted and failed, and every gate check."""

    attempted: int = 0
    failed: set = field(default_factory=set)
    checks: list = field(default_factory=list)

    def check(self, invocation: str, what: str, ok: bool) -> bool:
        self.checks.append({"invocation": invocation, "check": what,
                            "ok": bool(ok)})
        if not ok:
            self.failed.add(invocation)
        return ok

    def rep_failed(self, tag: str) -> bool:
        return any(key.startswith(f"{tag}:") for key in self.failed)


class Runner:
    def __init__(self, env: dict, log_dir: Path):
        self.env = env
        self.log_dir = log_dir
        self.count = 0
        self.restart_clock()

    def restart_clock(self) -> None:
        """Children still running DEADLINE_S from now are killed."""
        self.deadline = time.monotonic() + DEADLINE_S

    def run(self, argv: list[str]) -> Proc:
        """Run one child to completion; wall, CPU and max RSS from wait4."""
        self.count += 1
        timeout = max(1.0, self.deadline - time.monotonic())
        log_path = self.log_dir / f"proc{self.count:03d}.log"
        with open(log_path, "wb") as log:
            launched = time.time()
            start = time.perf_counter()
            child = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                     stdin=subprocess.DEVNULL, stdout=log,
                                     stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, child.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            ended = time.time()
        child.returncode = code = os.waitstatus_to_exitcode(status)
        return Proc(argv, log_path, code, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, (launched, ended))

    def cli(self, argv: list[str], spans: Path | None = None,
            alloc: bool = False) -> Proc:
        if spans is None:
            return self.run([PYTHON, "-m", "ehrpipe.cli", *argv])
        return self.run([PYTHON, str(BENCH_DIR / "tracer.py"),
                         *(["--alloc"] if alloc else []), str(spans), *argv])


# --- artifacts ------------------------------------------------------------------

def sha256_file(path: Path, decompress: bool = False) -> str:
    digest = hashlib.sha256()
    opener = gzip.open if decompress else open
    with opener(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# --- one repetition ---------------------------------------------------------------

def run_rep(wl: Workload, runner: Runner, ledger: Ledger, tag: str,
            ini_path: Path, setup_dir: Path | None, rep_dir: Path,
            spans_dir: Path | None = None, alloc: bool = False) -> dict:
    """Run the timed invocations once, check their outputs, measure them.

    With spans_dir each process runs under bench/tracer.py and leaves its
    spans there as <tag>.p<i>.json."""
    procs = []
    span_paths = []
    writers = {}
    start = time.perf_counter()
    for i, inv in enumerate(wl.invocations(ini_path, setup_dir, rep_dir)):
        spans = None
        if spans_dir is not None:
            spans = spans_dir / f"{tag.replace(':', '.')}.p{i}.json"
            span_paths.append(str(spans))
        proc = runner.cli(inv.argv, spans, alloc)
        ledger.attempted += 1
        procs.append(proc)
        key = f"{tag}:{i}:{inv.argv[0]}"
        writers.update({Path(o).relative_to(rep_dir).as_posix(): key
                        for o in inv.outputs})
        ledger.check(key, "exit code 0" if proc.code == 0 else
                     f"exit code 0, got {proc.code}: "
                     + proc.log.read_text(errors="replace")[-500:],
                     proc.code == 0)
        missing = [o for o in inv.outputs if not Path(o).is_file()]
        ledger.check(key, "expected artifacts exist"
                     + (f" (missing {missing})" if missing else ""),
                     not missing)
        if proc.code != 0 or missing:
            break
    wall = time.perf_counter() - start
    rep = {"tag": tag, "wall_s": wall,
           "cpu_s": sum(p.cpu_s for p in procs),
           "peak_rss_mib": max(p.maxrss_mib for p in procs),
           "output_mib": tree_bytes(rep_dir) / MIB if rep_dir.exists() else 0,
           "process_walls": [p.wall_s for p in procs],
           "process_epochs": [p.epochs for p in procs],
           "argv": [p.argv for p in procs], "writers": writers,
           "spans": span_paths,
           "digests": {}, "quality": {}}
    if ledger.rep_failed(tag):
        return rep
    for name in REPORTS:
        rep["digests"][name] = sha256_file(rep_dir / name)
        micro = read_json(rep_dir / name)["micro"]
        kind = name.split("_", 1)[0]
        rep["quality"][f"{kind}_micro_aupr"] = micro["aupr"]
        rep["quality"][f"{kind}_micro_auroc"] = micro["auroc"]
    if wl.needs_trained_run:
        # The CLI path must reproduce what run_pipeline reported.
        ledger.check(writers["chart_metrics.json"],
                     "chart_metrics.json equals the set-up pipeline's",
                     read_json(rep_dir / "chart_metrics.json")
                     == read_json(setup_dir / "chart_metrics.json"))
    else:
        for name in COLLECTIONS:
            rep["digests"][name] = sha256_file(rep_dir / name, True)
    return rep


def gate_across(ledger: Ledger, reps: list[dict]) -> None:
    """Reports and collection digests agree across repetitions."""
    first = next((r for r in reps if r["digests"]), None)
    for rep in reps:
        if first is None or not rep["digests"]:
            continue
        for name, digest in rep["digests"].items():
            ledger.check(rep["writers"][name], f"{name} identical to "
                         f"{first['tag']}", digest == first["digests"][name])


# --- a whole run --------------------------------------------------------------

def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def context(runner: Runner, ledger: Ledger) -> dict:
    """Run context; the probe also imports ehrpipe.cli once, which compiles
    its bytecode before anything is timed."""
    ledger.attempted += 1
    proc = runner.run([PYTHON, "-c", PROBE])
    output = proc.log.read_text(errors="replace")
    if proc.code != 0:
        raise BenchError(f"cannot import ehrpipe.cli: {output[-2000:]}")
    probe = json.loads(output.splitlines()[-1])
    if not Path(probe["ehrpipe"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"ehrpipe imported from {probe['ehrpipe']}, "
                         f"not from {ROOT / 'src'}")
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        **probe,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 runner: Runner, ledger: Ledger, work: Path,
                 spans_dir: Path) -> dict:
    ini_path = work / f"{wl.name}.ini"
    ini_text = wl.ini(seed)
    ini_path.write_text(ini_text, encoding="utf-8")
    record = {"workload": wl.name, "seed": seed, "ini": ini_text,
              "trace": trace}
    setup_dir = None
    record["setup_runs_s"] = []

    def sample_imports():
        # Import time drifts with the machine over seconds, so the samples
        # are spread over the run: before each untraced repetition and after
        # the last one.
        if wl.needs_trained_run:
            return
        argv = [PYTHON, "-c", "import ehrpipe.cli"]
        record["setup_argv"] = [argv]
        for _ in range(SETUP_IMPORTS):
            proc = runner.run(argv)
            ledger.attempted += 1
            ledger.check(f"{wl.name}:setup", "import exit code 0",
                         proc.code == 0)
            record["setup_runs_s"].append(proc.wall_s)

    if wl.needs_trained_run:
        setup_dir = work / f"{wl.name}-setup"
        argv = ["pipeline", "--config", str(ini_path),
                "--output-dir", str(setup_dir)]
        proc = runner.cli(argv)
        ledger.attempted += 1
        record["setup_argv"] = [argv]
        if not ledger.check(f"{wl.name}:setup", "set-up pipeline exit code 0",
                            proc.code == 0):
            return record
        record["setup_runs_s"].append(proc.wall_s)

    # Untraced repetitions: at least two, so that outputs can be compared,
    # then more while another one (as long as the median so far) still fits
    # in `seconds`; one suffices before a traced rep. The pipeline workloads
    # take about 15 s a repetition and so stop at two; apply-days2 fills the
    # window with 5-7 s repetitions. Its short processes swing with the
    # host's speed about twice as much as a pipeline run does, and the
    # median of a full window of them spans more of that drift.
    reps = []
    budget = seconds / 2 if trace else seconds
    measured = 0.0
    while True:
        sample_imports()
        rep_dir = work / f"{wl.name}-rep{len(reps)}"
        rep = run_rep(wl, runner, ledger, f"{wl.name}:rep{len(reps)}",
                      ini_path, setup_dir, rep_dir)
        shutil.rmtree(rep_dir, ignore_errors=True)
        reps.append(rep)
        measured += rep["wall_s"]
        left = runner.deadline - time.monotonic()
        if ledger.rep_failed(rep["tag"]) or left < 3 * rep["wall_s"] + 5:
            break
        typical = statistics.median(r["wall_s"] for r in reps)
        if (measured + typical > budget
                and len(reps) >= (1 if trace else 2)):
            break
    sample_imports()
    record["setup_s"] = statistics.median(record["setup_runs_s"])

    untraced = list(reps)
    if trace and not ledger.rep_failed(reps[-1]["tag"]):
        # One traced repetition for times and counts, then one under
        # tracemalloc for peak allocations only.
        spans_dir.mkdir(parents=True, exist_ok=True)
        traced = {}
        for kind in ("traced", "alloc"):
            rep_dir = work / f"{wl.name}-{kind}"
            rep = run_rep(wl, runner, ledger, f"{wl.name}:{kind}", ini_path,
                          setup_dir, rep_dir, spans_dir, kind == "alloc")
            reps.append(rep)
            if ledger.rep_failed(rep["tag"]):
                break
            traced[kind] = [
                read_json(Path(p)) | {"epochs": e}
                for p, e in zip(rep["spans"], rep["process_epochs"])]
            if kind == "traced":
                nnz = nnz_ratio(rep_dir / "chunks.json", wl.feature_dim)
            shutil.rmtree(rep_dir, ignore_errors=True)
        if len(traced) == 2:
            record["layers"] = layer_metrics(
                traced["traced"], traced["alloc"],
                reps[len(untraced)]["process_walls"],
                statistics.median(r["wall_s"] for r in untraced), nnz)
            record["breakdown"] = breakdown(traced["traced"])

    gate_across(ledger, reps)
    if setup_dir is not None:
        shutil.rmtree(setup_dir, ignore_errors=True)
    record["reps"] = reps
    record["untraced_reps"] = len(untraced)
    record["end_to_end"] = end_to_end(wl, record, untraced, ledger)
    return record


def end_to_end(wl: Workload, record: dict, reps: list[dict],
               ledger: Ledger) -> dict:
    def med(key):
        return statistics.median(r[key] for r in reps)

    wall = med("wall_s")
    quality = {}
    for key in ("chart_micro_aupr", "chart_micro_auroc", "note_micro_aupr",
                "note_micro_auroc"):
        values = [r["quality"][key] for r in reps if key in r["quality"]]
        quality[key] = statistics.median(values) if values else 0.0
    attempted = max(ledger.attempted, 1)
    return {
        "wall_s": wall,
        "admissions_per_s": wl.admissions / wall,
        "cpu_s": med("cpu_s"),
        "peak_rss_mib": med("peak_rss_mib"),
        "setup_s": record.get("setup_s", 0.0),
        "output_mib": med("output_mib"),
        "error_rate": len(ledger.failed) / attempted,
        "success_rate": 1.0 - len(ledger.failed) / attempted,
        **quality,
    }


# --- output ---------------------------------------------------------------------

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# Printed with the end-to-end metrics but not listed in BENCHMARK.json:
# error_rate is 0 when all is well, and the chart model's AU-ROC and both
# AU-PRs, on a test partition of 150 admissions, spread too much from seed
# to seed for any bound the benchmark may set.
EXTRA_END_TO_END = [
    {"name": "error_rate", "unit": "ratio", "better": "lower"},
    {"name": "chart_micro_auroc", "unit": "score", "better": "higher"},
    {"name": "chart_micro_aupr", "unit": "score", "better": "higher"},
    {"name": "note_micro_aupr", "unit": "score", "better": "higher"},
]


def show(title: str, values: dict, specs: list[dict]) -> None:
    print(title)
    for spec in specs:
        value = values.get(spec["name"], 0.0)
        print(f"  {spec['name']:<28} {value:>16.6g} {spec['unit']:<6} "
              f"({spec['better']} is better)")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    chosen = names if args.workload == "all" else [args.workload]

    if not (ROOT / "src" / "ehrpipe" / "cli.py").is_file():
        raise BenchError(f"no ehrpipe sources under {ROOT / 'src'}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    os.chdir(ROOT)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    # One run at a time per checkout: the work directory has a fixed name.
    work = OUT / "work" / args.workload
    results = OUT / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    runner = Runner(env, work)
    ledgers = [Ledger()]
    records = []
    try:
        ctx = context(runner, ledgers[0])
        for name in chosen:
            runner.restart_clock()
            ledgers.append(Ledger())
            records.append(run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                runner, ledgers[-1], work, results / f"{label}-spans"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(led.attempted for led in ledgers)
    failed = sum(len(led.failed) for led in ledgers)
    checks = [c for led in ledgers for c in led.checks]

    blas = ctx["blas"]
    print(f"ehrpipe {ctx['ehrpipe_version']} at {ctx['git_sha'][:12]}; "
          f"python {ctx['python']}, numpy {ctx['numpy']}, "
          f"{blas['config']}; BLAS threads {blas['threads']}; "
          f"nproc {ctx['nproc']}; thread env "
          f"{ {k: v for k, v in ctx['thread_env'].items() if v} or 'unset'}")
    metrics = {}
    for rec in records:
        wl = rec["workload"]
        if "end_to_end" in rec:
            show(f"{wl} end-to-end (seed {args.seed}, median of "
                 f"{rec['untraced_reps']} untraced repetitions)",
                 rec["end_to_end"], spec["end_to_end"] + EXTRA_END_TO_END)
        if "layers" in rec:
            show(f"{wl} per layer (one traced repetition)", rec["layers"],
                 spec["per_layer"])
            top = rec["breakdown"]["top_level_s"]
            print("  top-level seconds by layer: " + ", ".join(
                f"{k} {v:.3f}" for k, v in top.items()))
        chosen_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
        values = rec.get("layers" if args.trace else "end_to_end", {})
        for m in chosen_specs:
            key = m["name"] if len(records) == 1 else f"{wl}/{m['name']}"
            metrics[key] = {"value": float(values.get(m["name"], 0.0)),
                            "unit": m["unit"]}
    bad = [c for c in checks if not c["ok"]]
    print(f"output gate: {len(checks) - len(bad)}/{len(checks)} checks "
          f"passed; {failed} of {attempted} invocations failed")
    for c in bad:
        print(f"  FAILED {c['invocation']}: {c['check']}")
    correct = not bad and all("end_to_end" in r for r in records) and (
        not args.trace or all("layers" in r for r in records))
    with open(results / f"{label}.json", "w", encoding="utf-8") as handle:
        json.dump({"context": ctx, "args": vars(args), "records": records,
                   "checks": checks}, handle, indent=1)
        handle.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
