"""Per-layer metrics from the span files of one traced repetition.

Every function here reads spans written by bench/tracer.py; counts come from
the counters the tracer records at the same boundaries, or from artifacts.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict

MIB = float(1 << 20)

READ_ITERATORS = ("chart.read_chart_events",
                  "chart.read_chart_events_from_collection")
TRANSFORMS = ("fhir_etl.transform_stream", "fhir_etl.transform")
NN_TIMES = {
    "nn.dense_fwd_s": "nn.DenseLayer.forward",
    "nn.dense_bwd_s": "nn.DenseLayer.backward",
    "nn.rnn_fwd_s": "nn.SimpleRnnLayer.forward",
    "nn.rnn_bwd_s": "nn.SimpleRnnLayer.backward",
    "nn.timeconv_fwd_s": "nn.TimeConvLayer.forward",
    "nn.timeconv_bwd_s": "nn.TimeConvLayer.backward",
    "nn.adam_step_s": "nn.Adam.step",
}
TIMES = {
    "cli.import_s": ("cli.import",),
    "synth.generate_s": ("synth.generate",),
    "fhir_etl.transform_s": TRANSFORMS,
    "fhir_etl.read_collection_s": ("fhir_etl.read_collection",),
    "labels.encode_s": ("labels.encode_labels",),
    "split.stratify_s": ("split.iterative_stratified_split",),
    "chart.read_s": READ_ITERATORS,
    "chart_model.train_s": ("chart_model.train",),
    "chart_model.predict_s": ("chart_model.predict",),
    "notes.read_s": ("notes.read_note_events",),
    "notes.prep_s": ("notes.build_subset", "notes.chunk_text"),
    "notes.score_s": ("notes.score_chunks",),
    "notes.aggregate_s": ("notes.aggregate",),
    "metrics.micro_average_s": ("metrics.micro_average",),
    **{k: (v,) for k, v in NN_TIMES.items()},
}


def layer_of(name: str) -> str:
    """Module a span belongs to; numpy's savez/load count as artifact I/O."""
    head = name.split(".", 1)[0]
    return "io" if head == "numpy" else head


def is_save(name: str) -> bool:
    leaf = name.rsplit(".", 1)[-1]
    return leaf.startswith("save_") or leaf in ("write_run_manifest", "savez")


def is_load(name: str) -> bool:
    return name.rsplit(".", 1)[-1].startswith("load_") or name == "numpy.load"


class Process:
    """Spans of one traced process, with ancestry queries.

    Two root spans come from the benchmark's clock rather than the tracer's:
    cli.startup, from launching the process to the tracer's first line
    (interpreter start-up), and cli.exit, from the return of cli.main to
    the end of the process (writing the span file and interpreter exit).
    """

    def __init__(self, doc: dict):
        self.spans = [s for s in doc["spans"] if s["start"] is not None]
        launched, ended = doc["epochs"]
        startup = doc["epoch0"] - launched
        exit_s = ended - doc["epoch0"] - doc["main_end"]
        self.spans += [
            _root(-1, "cli.startup", -startup, 0.0),
            _root(-2, "cli.exit", doc["main_end"], doc["main_end"] + exit_s),
        ]
        self.by_id = {s["id"]: s for s in self.spans}

    def ancestors(self, span):
        parent = span["parent"]
        while parent is not None:
            span = self.by_id[parent]
            yield span
            parent = span["parent"]

    def topmost(self, pred):
        """Spans matching pred that have no matching ancestor."""
        return [s for s in self.spans if pred(s["name"])
                and not any(pred(a["name"]) for a in self.ancestors(s))]

    def named(self, names):
        return self.topmost(lambda n: n in names)


def _root(span_id: int, name: str, start: float, end: float) -> dict:
    return {"id": span_id, "name": name, "parent": None, "start": start,
            "end": end, "busy": end - start, "child": 0.0, "cpu": 0.0}


def nnz_ratio(chunks_path, dim: int) -> float:
    """Share of nonzero cells in the dense signed-hash feature matrix.

    Recomputes ehrpipe's token hash (blake2b-64, slot = value mod dim, sign
    from the top bit) over the chunk artifact; collisions that cancel count
    as zero, exactly as in the dense matrix.
    """
    with open(chunks_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    slots: dict[str, tuple[int, int]] = {}
    nonzero = rows = 0
    for token_lists in payload.values():
        for tokens in token_lists:
            cells: dict[int, int] = defaultdict(int)
            for token in tokens:
                if token not in slots:
                    value = int.from_bytes(hashlib.blake2b(
                        token.encode("utf-8"), digest_size=8).digest(),
                        "little")
                    slots[token] = (value % dim, -1 if value >> 63 else 1)
                slot, sign = slots[token]
                cells[slot] += sign
            nonzero += sum(1 for v in cells.values() if v)
            rows += 1
    return nonzero / (rows * dim) if rows else 0.0


def layer_metrics(docs: list[dict], alloc_docs: list[dict],
                  process_walls: list[float], untraced_wall: float,
                  feature_nnz_ratio: float) -> dict:
    """Every per-layer metric: times and counts from the traced repetition
    (docs), peak allocations from the --alloc repetition (alloc_docs)."""
    procs = [Process(d) for d in docs]
    out: dict[str, float] = defaultdict(float)
    peaks: dict[str, float] = defaultdict(float)
    nn_cpu = nn_busy = root_busy = 0.0
    for p in procs:
        for metric, names in TIMES.items():
            out[metric] += sum(s["busy"] for s in p.named(names))
        for s in p.named(TRANSFORMS):
            if s.get("table") in ("chartevents", "noteevents"):
                out[f"fhir_etl.{s['table']}_s"] += s["busy"]
            for key in ("rows_in", "bytes_in", "bytes_out"):
                out[f"fhir_etl.{key}"] += s.get(key, 0)
        for s in p.spans:
            name = s["name"]
            out["synth.rows_out"] += s.get("rows_out", 0)
            out["nn.dense_gflop"] += s.get("flop", 0) / 1e9
            out["notes.tokens_hashed"] += s.get("tokens_hashed", 0)
            peaks["notes.feature_mib"] = max(peaks["notes.feature_mib"],
                                             s.get("feature_bytes", 0) / MIB)
            if name in READ_ITERATORS:
                out["chart.events_in"] += s["items"]
            if name == "chart.preprocess_admissions":
                out["chart.tensors_out"] += s.get("tensors_out", 0)
                out["chart.types_kept"] += s.get("types_kept", 0)
            if name == "notes.train_scorer":
                out["notes.train_scorer_self_s"] += s["busy"] - s["child"]
            if s["parent"] is None:
                root_busy += s["busy"]
        for s in p.named(("chart.preprocess_admissions",)):
            inner = [r for r in p.named(READ_ITERATORS)
                     if any(a is s for a in p.ancestors(r))]
            out["chart.preprocess_self_s"] += (
                s["busy"] - sum(r["busy"] for r in inner))
        for s in p.topmost(lambda n: n.startswith("nn.")):
            nn_cpu += s["cpu"]
            nn_busy += s["busy"]
        saves = p.topmost(is_save)
        out["io.save_s"] += sum(s["busy"] for s in saves)
        out["io.bytes_written"] += sum(s.get("bytes_written", 0)
                                       for s in saves)
        out["io.load_s"] += sum(s["busy"] for s in p.topmost(is_load))
    for doc in alloc_docs:
        for s in doc["spans"]:
            if "peak_alloc_bytes" in s:
                key = f"{layer_of(s['name'])}.peak_alloc_mib"
                peaks[key] = max(peaks[key], s["peak_alloc_bytes"] / MIB)
    out.update(peaks)
    transform_s = out["fhir_etl.transform_s"]
    out["fhir_etl.rows_per_s"] = (out["fhir_etl.rows_in"] / transform_s
                                  if transform_s else 0.0)
    out["nn.cpu_per_wall"] = nn_cpu / nn_busy if nn_busy else 0.0
    out["notes.feature_nnz_ratio"] = feature_nnz_ratio
    traced_wall = sum(process_walls)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.coverage"] = root_busy / traced_wall
    return dict(out)


def breakdown(docs: list[dict]) -> dict:
    """Top-level (inclusive) and self seconds per layer, largest first."""
    top: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for doc in docs:
        for s in Process(doc).spans:
            layer = layer_of(s["name"])
            own[layer] += s["busy"] - s["child"]
            if s["parent"] is None:
                top[layer] += s["busy"]

    def ranked(d):
        return dict(sorted(d.items(), key=lambda kv: -kv[1]))

    return {"top_level_s": ranked(top), "self_s": ranked(own)}
