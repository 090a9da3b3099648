"""Flat-FHIR ETL and multi-label diagnosis prediction over MIMIC-III-schema
tables: streaming CSV-to-JSON resource transformation, chart-event binning,
CCS label encoding, iterative stratified splitting, small-network training,
note chunk scoring/aggregation and threshold-free evaluation.

Importing ehrpipe pins the process's OpenBLAS to one thread. A matrix
product split over more threads sums in another order, so at MIMIC size the
models' bytes would follow the thread count; and the pipeline's two
branches already keep two cores busy, so extra BLAS threads only cost CPU.
If numpy is not loaded yet, it is imported with OPENBLAS_NUM_THREADS=1 set
for that import only, so that OpenBLAS never starts another thread, and the
variable is then put back as it was. Then OpenBLAS's own setter is called,
which is what pins a numpy that was loaded already. A numpy whose BLAS has
no such setter raises BlasThreadsError: ehrpipe never runs at a thread
count it cannot fix.
"""

import os
import sys

__version__ = "0.1.0"

_THREAD_VAR = "OPENBLAS_NUM_THREADS"
# How OpenBLAS builds name their symbols: plain, with a 64-bit integer
# interface, and as bundled in numpy's wheels.
_SPELLINGS = (("", ""), ("", "64_"), ("scipy_", "64_"))


class BlasThreadsError(RuntimeError):
    """numpy's BLAS offers no OpenBLAS thread getter and setter."""


def _openblas_threads():
    """OpenBLAS's get_num_threads and set_num_threads, looked up through
    numpy's extension module: a symbol lookup on its handle also searches
    the OpenBLAS it links."""
    import ctypes

    umath = (sys.modules.get("numpy._core._multiarray_umath")
             or sys.modules["numpy.core._multiarray_umath"])
    lib = ctypes.CDLL(umath.__file__)
    names = []
    for prefix, suffix in _SPELLINGS:
        get, put = (f"{prefix}openblas_{verb}_num_threads{suffix}"
                    for verb in ("get", "set"))
        names.append(put)
        try:
            getter, setter = getattr(lib, get), getattr(lib, put)
        except AttributeError:
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return getter, setter
    raise BlasThreadsError(
        f"ehrpipe computes at one OpenBLAS thread, but the BLAS numpy links "
        f"({umath.__file__}) has none of {', '.join(names)}")


def _pin_one_thread():
    if "numpy" not in sys.modules:
        before = os.environ.get(_THREAD_VAR)
        os.environ[_THREAD_VAR] = "1"
        try:
            import numpy  # noqa: F401
        finally:
            if before is None:
                del os.environ[_THREAD_VAR]
            else:
                os.environ[_THREAD_VAR] = before
    getter, setter = _openblas_threads()
    setter(1)
    return getter


_get_threads = _pin_one_thread()


def blas_threads() -> int:
    """The thread count OpenBLAS computes with, read back from it."""
    return _get_threads()
