"""Pipeline stages, file to file, and run_pipeline, which chains them.

One function per subcommand stage takes the subcommand's input paths,
output paths and settings, reads its inputs, computes, writes every
artifact of the stage and returns only what the CLI prints. The CLI and
run_pipeline call the same functions, so stages pass data to each other
only through the files they write. run_pipeline runs synth -> labels ->
split, then two branches at once, under the configured output directory:
the chart branch (transform chartevents -> preprocess -> train -> predict
-> eval) in the calling process and the notes branch (transform of the
other tables -> notes-prep -> score-notes -> aggregate -> eval) in one
forked worker process. Re-running with the same config and seed rewrites
byte-identical artifacts, whatever OPENBLAS_NUM_THREADS says: both processes
compute at the one OpenBLAS thread that importing ehrpipe sets. CI checks
demo.ini on one CPU and on two, and demo.ini, the 10x demo config and a
small MIMIC-shaped config at several thread counts.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from . import chart, chart_model, fhir_etl, labels as labels_mod, metrics
from . import notes as notes_mod
from . import split as split_mod
from .errors import DataError
from .runcfg import (
    PipelineConfig,
    check_fraction,
    config_hash,
    write_run_manifest,
)
from .synth import generate
from .tables import (
    TableKind,
    check_dirs,
    iter_csv_rows,
    load_admission_npz,
    make_dir,
    read_admission_times,
    save_json,
    save_npz,
)


def _members(split_path, partition: str) -> set[str]:
    """Admission ids the split file puts in one partition."""
    return {adm for adm, tag in split_mod.load_split(split_path).items()
            if tag == partition}


def _labelled(ids: list[str], label_matrix: labels_mod.LabelMatrix,
              keep: Optional[set[str]] = None) -> tuple[list[int], list[int]]:
    """Positions in ids of the admissions with labels (and in keep, when
    given), and their rows in label_matrix."""
    row_of = dict(zip(label_matrix.admission_ids.tolist(),
                      range(len(label_matrix))))
    kept = [i for i, adm in enumerate(ids)
            if adm in row_of and (keep is None or adm in keep)]
    return kept, [row_of[ids[i]] for i in kept]


def _save_probs(path, ids: list[str], probs: np.ndarray) -> Path:
    return save_npz(path, {"admission_ids": np.array(ids), "probs": probs})


# --- stages ------------------------------------------------------------------

def labels(diagnoses, crosswalk, out,
           admissions=None) -> tuple[dict[str, Path], tuple[int, int], int]:
    """CCS labels to out, and beside it unknown_codes.json, the occurrences
    of each code missing from the crosswalk ({} when there are none);
    returns the paths written ("labels", "unknown_codes"), the labels'
    (admissions, categories) shape and the unknown code occurrences.

    With an admissions CSV every admission with an id gets a row, all zeros
    when it has no diagnosis rows; without one only admissions with
    diagnoses do.
    """
    xwalk = labels_mod.load_crosswalk(crosswalk)
    codes = labels_mod.read_diagnoses(diagnoses)
    if admissions is not None:
        admission_ids = [row["hadm_id"].strip()
                         for row in iter_csv_rows(admissions, ("hadm_id",))]
        codes = {adm: codes.get(adm, []) for adm in admission_ids if adm}
    label_matrix, unknown = labels_mod.encode_labels(codes, xwalk)
    written = labels_mod.save_labels(out, label_matrix)
    return ({"labels": written,
             "unknown_codes": save_json(written.parent / "unknown_codes.json",
                                        unknown, sort_keys=True)},
            label_matrix.bits.shape, sum(unknown.values()))


def split(labels_path, out, spec: split_mod.SplitSpec) -> dict[str, int]:
    """Iterative stratified split to out; returns the partition sizes."""
    assignment = split_mod.iterative_stratified_split(
        labels_mod.load_labels(labels_path), spec)
    split_mod.save_split(out, assignment)
    tags = list(assignment.values())
    return {tag: tags.count(tag) for tag in split_mod.PARTITIONS}


def preprocess(
    chartevents, admissions, out, split_path, numeric_fraction: float,
) -> tuple[Path, Path, tuple[int, int]]:
    """tensors.npz and chart_stats.json in the directory out, from a
    chartevents CSV or observation collection; returns the two paths and
    the numbers of admission tensors and of observation types.

    Normalization statistics are fitted on the split's train admissions
    when a split is given.
    """
    check_fraction("numeric_fraction", numeric_fraction)
    out = make_dir(out)
    fit_ids = _members(split_path, "train") if split_path else None
    read = (chart.read_chart_events_from_collection
            if str(chartevents).endswith((".json", ".json.gz"))
            else chart.read_chart_events)
    blocks = read(chartevents)
    discharge = {adm: t[1]
                 for adm, t in read_admission_times(admissions).items()}
    tensors, catalog, stats = chart.preprocess_admissions(
        blocks, discharge, fit_ids=fit_ids, numeric_fraction=numeric_fraction)
    return (chart.save_tensors(out / "tensors.npz", tensors, catalog),
            chart.save_stats(out / "chart_stats.json", stats),
            (len(tensors), len(catalog)))


def train(
    tensors_path, labels_path, split_path, out, log_out,
    config: chart_model.ChartModelConfig,
) -> tuple[Path, list[float]]:
    """Chart model fitted on the split's labelled train admissions, and
    validated on its val ones, to out, and its log to log_out; returns the
    checkpoint path and the loss per epoch.

    Both are rows of the one copy of the tensors it loads. Their catalog
    and the labels replace config's n_types and n_categories. A missing
    directory of out or log_out fails before anything is read.
    """
    check_dirs(out, log_out)
    tensors, catalog = chart.load_tensors(tensors_path)
    label_matrix = labels_mod.load_labels(labels_path)
    assignment = split_mod.load_split(split_path)
    ids = tensors.admission_ids.tolist()
    kept, rows = _labelled(ids, label_matrix)
    if not kept:
        raise DataError("no admission tensor has a label vector")
    bits = np.zeros((len(ids), label_matrix.bits.shape[1]), bool)
    bits[kept] = label_matrix.bits[rows]
    train_rows, val_rows = ([i for i in kept if assignment.get(ids[i]) == tag]
                            for tag in ("train", "val"))
    config = replace(config, n_types=len(catalog),
                     n_categories=label_matrix.bits.shape[1])
    model = chart_model.ChartModel(config)
    history = chart_model.train(model, tensors.values, bits, train_rows,
                                val_rows)
    written = chart_model.save_checkpoint(out, model, catalog)
    save_json(log_out, history, indent=1)
    return written, history["train_loss"]


def predict(model, tensors_path, out) -> tuple[Path, tuple[int, int]]:
    """(N, C) probabilities of the tensors' admissions to out; returns the
    path written and the shape.

    DataError when the checkpoint records a catalog other than the
    tensors' one.
    """
    loaded, stored_catalog = chart_model.load_checkpoint(model)
    tensors, catalog = chart.load_tensors(tensors_path)
    if stored_catalog and stored_catalog != catalog:
        raise DataError(
            "the tensors' observation types differ from the checkpoint's")
    probs = chart_model.predict(loaded, tensors.values)
    return (_save_probs(out, tensors.admission_ids.tolist(), probs),
            probs.shape)


def notes_prep(notes, admissions, out, subset: str,
               max_len: int) -> tuple[int, int]:
    """Chunks of one note subset, admission by admission in id order, to
    out, each admission written as soon as it is chunked; returns the
    numbers of admissions in the subset and of chunks."""
    notes_mod.check_max_len(max_len)
    texts = notes_mod.build_subset(notes_mod.read_note_events(notes),
                                   read_admission_times(admissions), subset)
    n_chunks = notes_mod.save_chunks(out, chain.from_iterable(
        notes_mod.chunk_text(adm, texts[adm], max_len=max_len)
        for adm in sorted(texts)))
    return len(texts), n_chunks


def score_notes(
    chunks_path, out, params=None, labels_path=None, split_path=None,
    fit_out=None, log_out=None,
    config: notes_mod.ScorerConfig = notes_mod.ScorerConfig(),
) -> tuple[dict[str, Path], Optional[list[float]], int]:
    """Chunk scores to out, by the scorer at params or else by one fitted
    on the split's train admissions, saved to fit_out with its log at
    log_out. Returns the paths written ("scores", and "scorer" and "log"
    when fitted), the fitted scorer's loss per epoch (or None) and the
    admissions scored. A missing directory of a file it would write fails
    before anything is read.
    """
    if not (params or labels_path and split_path):
        raise DataError(
            "score-notes needs --params, or --labels and --split to fit")
    check_dirs(out, *(() if params else (fit_out, log_out)))
    chunks = notes_mod.load_chunks(chunks_path)
    fitted: dict[str, Path] = {}
    losses = None
    if params:
        scorer = notes_mod.load_scorer(params)
    else:
        label_matrix = labels_mod.load_labels(labels_path)
        train_ids = _members(split_path, "train")
        bits_of = dict(zip(label_matrix.admission_ids.tolist(),
                           label_matrix.bits))
        scorer, log = notes_mod.train_scorer(
            [ch for ch in chunks if ch.admission_id in train_ids], bits_of,
            config)
        fitted = {"scorer": notes_mod.save_scorer(fit_out, scorer),
                  "log": save_json(log_out, log, indent=1)}
        losses = log["train_loss"]
    matrices = notes_mod.score_chunks(chunks, scorer)
    return ({"scores": notes_mod.save_score_matrices(out, matrices)} | fitted,
            losses, len(matrices))


def aggregate(scores, out, c: float) -> tuple[Path, int]:
    """(N, C) admission probabilities of the chunk scores to out; returns
    the path written and N."""
    notes_mod.check_scale_c(c)
    matrices = notes_mod.load_score_matrices(scores)
    if not matrices:
        raise DataError("no scored admissions to aggregate")
    probs = np.stack([notes_mod.aggregate(m, c) for m in matrices])
    return (_save_probs(out, [m.admission_id for m in matrices], probs),
            len(matrices))


def evaluate(
    probs_path, labels_path, out, split_path, partition: Optional[str],
    target: float,
) -> dict:
    """Metric report (metrics.micro_average) to out over the admissions
    with probabilities and labels, in one partition of the split when
    given; returns it."""
    check_fraction("recall_target", target)
    arrays = load_admission_npz(probs_path, ("probs",))
    label_matrix = labels_mod.load_labels(labels_path)
    keep = _members(split_path, partition) if partition else None
    kept, rows = _labelled(arrays["admission_ids"].tolist(), label_matrix,
                           keep)
    if not kept:
        raise DataError("no admissions to evaluate")
    report = metrics.micro_average(arrays["probs"][kept],
                                   label_matrix.bits[rows], target=target)
    metrics.save_report(out, report)
    return report


# --- end to end ----------------------------------------------------------------

def _chart_branch(config: PipelineConfig, tables: dict[TableKind, Path],
                  collections: dict[TableKind, Path],
                  files: dict[str, Path]) -> Iterator[None]:
    """transform chartevents -> preprocess -> train -> predict -> eval,
    pausing after each stage but the last, so the caller can stop there."""
    fhir_etl.transform(tables[TableKind.CHARTEVENTS],
                       collections[TableKind.CHARTEVENTS],
                       TableKind.CHARTEVENTS)
    yield
    preprocess(collections[TableKind.CHARTEVENTS],
               tables[TableKind.ADMISSIONS], files["tensors"].parent,
               files["split"], config.numeric_fraction)
    yield
    train(files["tensors"], files["labels"], files["split"],
          files["chart_model"], files["chart_training_log"],
          config.chart_model)
    yield
    predict(files["chart_model"], files["tensors"], files["chart_probs"])
    yield
    evaluate(files["chart_probs"], files["labels"], files["chart_metrics"],
             files["split"], "test", config.recall_target)


def _notes_branch(config: PipelineConfig, tables: dict[TableKind, Path],
                  collections: dict[TableKind, Path],
                  files: dict[str, Path]) -> None:
    """transform of every other table, then notes-prep -> score-notes ->
    aggregate -> eval."""
    for kind, path in tables.items():
        if kind != TableKind.CHARTEVENTS:
            fhir_etl.transform(path, collections[kind], kind)
    notes_prep(tables[TableKind.NOTEEVENTS], tables[TableKind.ADMISSIONS],
               files["chunks"], config.subset, config.max_len)
    score_notes(files["chunks"], files["chunk_scores"],
                labels_path=files["labels"], split_path=files["split"],
                fit_out=files["note_scorer"],
                log_out=files["note_training_log"], config=config.scorer)
    aggregate(files["chunk_scores"], files["note_admission_probs"],
              config.aggregation_c)
    evaluate(files["note_admission_probs"], files["labels"],
             files["note_metrics"], files["split"], "test",
             config.recall_target)


def run_pipeline(config: PipelineConfig) -> dict[str, Path]:
    """Every stage under config.output_dir; returns the artifacts by name.

    synth, labels and split run first. Then a forked worker process runs
    the notes branch while this one runs the chart branch, and the run
    manifest is written once both are done. A branch's error is raised
    once both have ended; when both fail, the chart branch's. Once the
    notes branch has failed, the chart branch starts no further stage.
    """
    # Imported here: every other subcommand would pay some 20 ms of
    # start-up for it.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    out = make_dir(config.output_dir)
    manifest = generate(config.synth, out / "data")
    tables = {kind: path for kind, path, _ in manifest.tables}
    fhir = make_dir(out / "fhir")
    collections = {kind: fhir / f"{kind.value}.json.gz" for kind in tables}
    # Each stage artifact is named by its file's stem.
    files = {Path(name).stem: out / name for name in (
        "labels.npz", "split.json", "tensors.npz", "chart_stats.json",
        "chart_model.npz", "chart_training_log.json", "chart_probs.npz",
        "chart_metrics.json", "chunks.json", "note_scorer.npz",
        "note_training_log.json", "chunk_scores.npz",
        "note_admission_probs.npz", "note_metrics.json",
    )}
    labelled, _, _ = labels(tables[TableKind.DIAGNOSES_ICD],
                            manifest.crosswalk_path, files["labels"],
                            tables[TableKind.ADMISSIONS])
    split(files["labels"], files["split"], config.split)

    with ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork")) as worker:
        notes = worker.submit(_notes_branch, config, tables, collections,
                              files)
        for _ in _chart_branch(config, tables, collections, files):
            if notes.done() and notes.exception() is not None:
                break
        notes.result()

    artifacts = {"synth_manifest": manifest.manifest_path,
                 "crosswalk": manifest.crosswalk_path}
    artifacts |= {f"data_{kind.value}": path for kind, path in tables.items()}
    artifacts |= {f"fhir_{kind.value}": path
                  for kind, path in collections.items()}
    artifacts |= files | labelled
    artifacts["run_manifest"] = write_run_manifest(
        out / "run_manifest_pipeline.json", "pipeline",
        inputs={"config": "inline"},
        outputs={name: str(path) for name, path in artifacts.items()},
        cfg_hash=config_hash(config), seed=config.seed,
    )
    return artifacts
