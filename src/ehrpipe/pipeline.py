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
from .errors import CatalogMismatch, DataError, EmptyChunkSet, EmptyPartition
from .runcfg import (
    PipelineConfig,
    check_fraction,
    config_hash,
    write_run_manifest,
)
from .synth import generate
from .tables import (
    TableKind,
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
           admissions=None) -> tuple[Path, tuple[int, int], int]:
    """CCS labels to out, and beside it unknown_codes.json, the occurrences
    of each code missing from the crosswalk ({} when there are none);
    returns the path written, the labels' (admissions, categories) shape
    and the unknown code occurrences.

    With an admissions CSV every admission gets a row, all zeros when it
    has no diagnosis rows; without one only admissions with diagnoses do.
    """
    xwalk = labels_mod.load_crosswalk(crosswalk)
    codes = labels_mod.read_diagnoses(diagnoses)
    if admissions is not None:
        admission_ids = [row["hadm_id"].strip()
                         for row in iter_csv_rows(admissions, ("hadm_id",))]
        codes = {adm: codes.get(adm, []) for adm in admission_ids}
    label_matrix, unknown = labels_mod.encode_labels(codes, xwalk)
    written = labels_mod.save_labels(out, label_matrix)
    save_json(written.parent / "unknown_codes.json", unknown, sort_keys=True)
    return written, label_matrix.bits.shape, sum(unknown.values())


def split(labels_path, out, spec: split_mod.SplitSpec) -> dict[str, int]:
    """Iterative stratified split to out; returns the partition sizes."""
    result = split_mod.iterative_stratified_split(
        labels_mod.load_labels(labels_path), spec)
    split_mod.save_split(out, result)
    return result.sizes


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
    """Chart model trained on the tensors that have labels to out, and its
    log to log_out; returns the checkpoint path and the loss per epoch.

    The tensors' catalog and the labels replace config's n_types and
    n_categories. The checkpoint names chart_stats.json when that file is
    beside the tensors.
    """
    config.validate()
    tensors, catalog = chart.load_tensors(tensors_path)
    label_matrix = labels_mod.load_labels(labels_path)
    assignment = split_mod.load_split(split_path)
    ids = tensors.admission_ids.tolist()
    kept, rows = _labelled(ids, label_matrix)
    if not kept:
        raise EmptyPartition("no admission tensor has a label vector")
    stats = Path(tensors_path).parent / "chart_stats.json"
    config = replace(config, n_types=len(catalog),
                     n_categories=label_matrix.bits.shape[1])
    trained = chart_model.train(
        chart_model.ChartModel(config), tensors.values[kept],
        label_matrix.bits[rows], [ids[i] for i in kept], assignment,
        catalog=catalog, stats_ref=stats.name if stats.exists() else "",
    )
    written = chart_model.save_checkpoint(out, trained)
    save_json(log_out, trained.history, indent=1)
    return written, trained.history["train_loss"]


def predict(model, tensors_path, out) -> tuple[Path, tuple[int, int]]:
    """(N, C) probabilities of the tensors' admissions to out; returns the
    path written and the shape.

    CatalogMismatch when the checkpoint records a catalog other than the
    tensors' one.
    """
    trained = chart_model.load_checkpoint(model)
    tensors, catalog = chart.load_tensors(tensors_path)
    if trained.catalog and trained.catalog != catalog:
        raise CatalogMismatch(
            "the tensors' observation types differ from the checkpoint's")
    probs = chart_model.predict(trained.model, tensors.values)
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
    log_out. Returns the paths written ("scorer" when fitted, "scores"),
    the fitted scorer's loss per epoch (or None) and the admissions
    scored.
    """
    config.validate()
    chunks = notes_mod.load_chunks(chunks_path)
    written: dict[str, Path] = {}
    losses = None
    if params:
        scorer = notes_mod.load_scorer(params)
    elif not (labels_path and split_path):
        raise DataError(
            "score-notes needs --params, or --labels and --split to fit")
    else:
        label_matrix = labels_mod.load_labels(labels_path)
        train_ids = _members(split_path, "train")
        bits_of = dict(zip(label_matrix.admission_ids.tolist(),
                           label_matrix.bits))
        scorer, log = notes_mod.train_scorer(
            [ch for ch in chunks if ch.admission_id in train_ids], bits_of,
            config)
        written["scorer"] = notes_mod.save_scorer(fit_out, scorer)
        save_json(log_out, log, indent=1)
        losses = log["train_loss"]
    matrices = notes_mod.score_chunks(chunks, scorer)
    written["scores"] = notes_mod.save_score_matrices(out, matrices)
    return written, losses, len(matrices)


def aggregate(scores, out, c: float) -> tuple[Path, int]:
    """(N, C) admission probabilities of the chunk scores to out; returns
    the path written and N."""
    params = notes_mod.AggregationParams(c=c)
    params.validate()
    matrices = notes_mod.load_score_matrices(scores)
    if not matrices:
        raise EmptyChunkSet("no scored admissions to aggregate")
    probs = np.stack([notes_mod.aggregate(m, params) for m in matrices])
    return (_save_probs(out, [m.admission_id for m in matrices], probs),
            len(matrices))


def evaluate(
    probs_path, labels_path, out, split_path, partition: Optional[str],
    target: float,
) -> metrics.MetricReport:
    """Metric report to out over the admissions with probabilities and
    labels, in one partition of the split when given; returns it."""
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

    config.validate()
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
    labels(tables[TableKind.DIAGNOSES_ICD], manifest.crosswalk_path,
           files["labels"], tables[TableKind.ADMISSIONS])
    split(files["labels"], files["split"], config.split)

    with ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork")) as worker:
        notes = worker.submit(_notes_branch, config, tables, collections,
                              files)
        for _ in _chart_branch(config, tables, collections, files):
            if notes.done() and notes.exception() is not None:
                break
        notes.result()

    artifacts = {"synth_manifest": manifest.manifest_path}
    artifacts |= {f"fhir_{kind.value}": path
                  for kind, path in collections.items()}
    artifacts |= files
    artifacts["run_manifest"] = write_run_manifest(
        out / "run_manifest_pipeline.json", "pipeline",
        inputs={"config": "inline"},
        outputs={name: str(path) for name, path in artifacts.items()},
        cfg_hash=config_hash(config), seed=config.seed,
    )
    return artifacts
