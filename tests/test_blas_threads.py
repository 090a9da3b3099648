"""Every ehrpipe process computes at one OpenBLAS thread, so no artifact
depends on the thread count the environment asks for. Each check runs in a
fresh interpreter: a thread count is fixed when numpy loads."""

import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import ehrpipe

SRC = Path(ehrpipe.__file__).resolve().parents[1]
WORKLOADS = SRC.parent / "bench" / "workloads.py"

# The thread count OpenBLAS reports, read the way the benchmark's probe
# reads it, independently of ehrpipe.
REPORT_THREADS = """
import ctypes, sys
umath = (sys.modules.get("numpy._core._multiarray_umath")
         or sys.modules["numpy.core._multiarray_umath"])
lib = ctypes.CDLL(umath.__file__)
for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads64_"):
    if hasattr(lib, name):
        print(getattr(lib, name)())
"""


def _python(*args: str, threads=None) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def _output(code: str, threads=None) -> list[str]:
    run = _python("-c", code, threads=threads)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


@pytest.mark.parametrize("threads", [None, "3"])
def test_import_leaves_the_thread_variable_as_it_found_it(threads):
    code = ("import ctypes, os\n"
            "import ehrpipe\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))\n"
            "getenv = ctypes.CDLL(None).getenv\n"
            "getenv.restype = ctypes.c_char_p\n"
            "print((getenv(b'OPENBLAS_NUM_THREADS') or b'unset').decode())\n"
            + REPORT_THREADS)
    expected = threads or "unset"
    assert _output(code, threads) == [expected, expected, "1"]


@pytest.mark.parametrize("threads", [None, "2"])
def test_numpy_loaded_first_is_set_to_one_thread(threads):
    code = ("import numpy\nimport ehrpipe\n"
            "print(ehrpipe.blas_threads())\n" + REPORT_THREADS)
    assert _output(code, threads) == ["1", "1"]


@pytest.mark.parametrize("numpy_first", [False, True])
def test_blas_without_a_thread_setter_raises(numpy_first):
    # Every library handle ehrpipe opens is one that exports no OpenBLAS.
    code = ("import ctypes, _ctypes\n"
            "real = ctypes.CDLL\n"
            "ctypes.CDLL = lambda name, *a, **k: real(_ctypes.__file__)\n"
            + ("import numpy\n" if numpy_first else "")
            + "try:\n"
            "    import ehrpipe\n"
            "except RuntimeError as exc:\n"
            "    print(type(exc).__name__, 'set_num_threads' in str(exc))\n")
    assert _output(code) == ["BlasThreadsError", "True"]


def _mimic_shaped_ini(path: Path) -> Path:
    """The models-mimic workload's INI (seed 11) on a small cohort: 281
    categories, 100 observation types, rnn 512/64 and feature_dim 2^15."""
    workloads = runpy.run_path(str(WORKLOADS))
    mimic = workloads["MODELS_MIMIC"]
    overrides = {**mimic, "synth": {
        **mimic["synth"], "n_patients": "40", "n_admissions": "100",
        "n_observation_types": "100"}}
    path.write_text(workloads["make_ini"](11, overrides), encoding="utf-8")
    return path


def _artifact_hashes(run: Path) -> dict[str, str]:
    return {str(p.relative_to(run)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run.rglob("*"))
            if p.is_file() and not p.name.startswith("run_manifest")}


def test_mimic_shaped_artifacts_do_not_depend_on_the_thread_variable(tmp_path):
    ini = _mimic_shaped_ini(tmp_path / "mimic.ini")
    hashes, manifests = {}, {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        run = _python("-m", "ehrpipe.cli", "pipeline", "--config", str(ini),
                      "--output-dir", str(out), threads=threads)
        assert run.returncode == 0, run.stderr
        hashes[threads] = _artifact_hashes(out)
        manifests[threads] = json.loads(
            (out / "run_manifest_pipeline.json").read_text())
    assert "note_scorer.npz" in hashes["1"]
    assert hashes["1"] == hashes["2"]
    assert [m["blas_threads"] for m in manifests.values()] == [1, 1]
