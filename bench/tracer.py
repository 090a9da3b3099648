"""Traced launcher: one ehrpipe CLI invocation with spans at module boundaries.

    python3 bench/tracer.py [--alloc] SPANS.json <ehrpipe subcommand and args>

Imports ehrpipe.cli, wraps the public functions and methods of each module
from outside (plus numpy.savez/numpy.load, the artifact I/O the modules call
directly), runs cli.main(argv) and exits with its return code. Spans are kept
in memory and written to SPANS.json when the invocation ends. No file of the
program is changed. With --alloc, tracemalloc also runs inside ALLOC_STAGES
and their spans record the peak traced allocation; that slows those stages
several times over, so such a run gives memory, not time.

A span records name, start, end, parent span, busy time and the busy time of
its direct children, so self time is busy minus children. A generator
function gets one span per iterator whose busy time is the time spent inside
next(); its start and end are the first and the last resume.
"""

from __future__ import annotations

import time

# Taken first, so that the benchmark can time interpreter start-up as the
# gap between launching this process and this line.
EPOCH0, PERF0 = time.time(), time.perf_counter()

import functools
import inspect
import json
import os
import sys
import tracemalloc

from layers import is_save

MODULES = ("synth", "tables", "fhir_etl", "labels", "split", "chart",
           "chart_model", "nn", "notes", "metrics", "runcfg")

# Called once per cell, row, event, code, note or chunk: a span would cost
# more than the work it times, so their time stays in the caller's self time.
PER_ITEM = frozenset({
    "tables.convert_cell", "tables.parse_timestamp", "tables.attribute_name",
    "tables.map_table_kind", "chart.assign_bin",
    "labels.CcsCrosswalk.category_index", "notes.clean_text",
    "notes.hash_features",
})

# Stages whose peak traced allocation is reported under --alloc.
ALLOC_STAGES = frozenset({"chart.preprocess_admissions", "notes.train_scorer",
                          "notes.score_chunks"})


class Tracer:
    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.t0 = PERF0
        self.spans: list[dict] = []
        self.stack: list[dict] = []

    def new(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "start": None, "end": None, "busy": 0.0, "child": 0.0,
                "cpu": 0.0}
        self.spans.append(span)
        return span

    def enter(self, span: dict) -> float:
        now = time.perf_counter() - self.t0
        if span["start"] is None:
            span["start"] = now
        self.stack.append(span)
        return now

    def leave(self, span: dict, entered: float) -> None:
        now = time.perf_counter() - self.t0
        span["end"] = now
        span["busy"] += now - entered
        self.stack.pop()
        if self.stack:
            self.stack[-1]["child"] += now - entered

    def wrap(self, name: str, fn, hook=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.new(name)
            alloc = (self.alloc and name in ALLOC_STAGES
                     and not tracemalloc.is_tracing())
            if alloc:
                tracemalloc.start()
            cpu = time.process_time()
            entered = self.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(span, entered)
                span["cpu"] = time.process_time() - cpu
                if alloc:
                    span["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = None
            while True:
                if span is None:
                    span = self.new(name)
                    span["items"] = 0
                entered = self.enter(span)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.leave(span, entered)
                span["items"] += 1
                yield item

        return traced

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**extra, "spans": self.spans}, handle)
            handle.write("\n")


# --- counters recorded at the boundaries ------------------------------------

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _on_generate(span, args, kwargs, result):
    span["rows_out"] = sum(count for _, _, count in result.tables)


def _on_transform(span, args, kwargs, result):
    table = _arg(args, kwargs, 2, "table")
    span["table"] = getattr(table, "value", str(table))
    span["rows_in"] = result if isinstance(result, int) else len(result)
    span["bytes_in"] = _file_size(_arg(args, kwargs, 0, "input_path"))
    span["bytes_out"] = _file_size(_arg(args, kwargs, 1, "output_path"))


def _on_preprocess(span, args, kwargs, result):
    tensors, catalog, _ = result
    span["tensors_out"] = len(tensors)
    span["types_kept"] = len(catalog)


def _on_dense_forward(span, args, kwargs, result):
    x = args[1]
    span["flop"] = 2 * x.shape[0] * x.shape[1] * result.shape[1]


def _on_dense_backward(span, args, kwargs, result):
    grad = args[1]
    span["flop"] = 4 * grad.shape[0] * grad.shape[1] * result.shape[1]


def _on_train_scorer(span, args, kwargs, result):
    chunks = _arg(args, kwargs, 0, "chunks")
    labelled = _arg(args, kwargs, 1, "labels_by_admission")
    usable = [ch for ch in chunks if ch.admission_id in labelled]
    dim = result[0].weights.shape[1]
    span["tokens_hashed"] = sum(len(ch.tokens) for ch in usable)
    span["feature_bytes"] = len(usable) * dim * 8


def _on_score_chunks(span, args, kwargs, result):
    chunks = _arg(args, kwargs, 0, "chunks")
    dim = _arg(args, kwargs, 1, "params").weights.shape[1]
    span["tokens_hashed"] = sum(len(ch.tokens) for ch in chunks)
    rows = max((m.probabilities.shape[0] for m in result), default=0)
    span["feature_bytes"] = rows * dim * 8


def _on_save(span, args, kwargs, result):
    span["bytes_written"] = _file_size(args[0] if args else None)


HOOKS = {
    "synth.generate": _on_generate,
    "fhir_etl.transform_stream": _on_transform,
    "fhir_etl.transform": _on_transform,
    "chart.preprocess_admissions": _on_preprocess,
    "nn.DenseLayer.forward": _on_dense_forward,
    "nn.DenseLayer.backward": _on_dense_backward,
    "notes.train_scorer": _on_train_scorer,
    "notes.score_chunks": _on_score_chunks,
}


def instrument(tracer: Tracer) -> int:
    """Wrap every public function and method of MODULES; returns the count."""
    import numpy

    replaced = {}
    for short in MODULES:
        module = sys.modules[f"ehrpipe.{short}"]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                name = f"{short}.{attr}"
                if name not in PER_ITEM:
                    replaced[obj] = tracer.wrap(name, obj, _hook(name))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for meth, fn in list(vars(obj).items()):
                    name = f"{short}.{attr}.{meth}"
                    if (meth.startswith("_") or not inspect.isfunction(fn)
                            or name in PER_ITEM):
                        continue
                    setattr(obj, meth, tracer.wrap(name, fn, _hook(name)))
    # Modules hold their own references to what they imported by name.
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "ehrpipe" or mod_name.startswith("ehrpipe."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])
    numpy.savez = tracer.wrap("numpy.savez", numpy.savez, _on_save)
    numpy.load = tracer.wrap("numpy.load", numpy.load)
    return len(replaced)


def _hook(name: str):
    if name in HOOKS:
        return HOOKS[name]
    return _on_save if is_save(name) else None


def main(argv: list[str]) -> int:
    alloc = bool(argv) and argv[0] == "--alloc"
    argv = argv[alloc:]
    if len(argv) < 2:
        print("usage: tracer.py [--alloc] SPANS.json SUBCOMMAND [ARGS...]",
              file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer(alloc)
    span = tracer.new("cli.import")
    entered = tracer.enter(span)
    from ehrpipe import cli
    tracer.leave(span, entered)
    wrapped = instrument(tracer)
    code = 1
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.dump(spans_path, argv=cli_argv, exit_code=code,
                    wrapped_functions=wrapped, epoch0=EPOCH0,
                    main_end=time.perf_counter() - tracer.t0)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
