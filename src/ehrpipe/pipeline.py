"""Pipeline stages, and run_pipeline, which chains them end to end.

Each stage is one function; the CLI subcommands and run_pipeline call the
same ones. Chart branch: synth -> transform -> labels -> split -> preprocess
-> train -> predict -> eval. Notes branch (same labels and split):
notes-prep -> score-notes -> aggregate -> eval. run_pipeline runs them one
after another in one thread, transform included: it converts the five
tables in manifest order. All artifacts are plain files under the
configured output directory; re-running with the same config and seed
rewrites byte-identical artifacts.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Optional

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


def members(assignment: dict[str, str], partition: str) -> set[str]:
    """Admission ids the split assignment puts in one partition."""
    return {adm for adm, tag in assignment.items() if tag == partition}


def _labelled(ids: list[str], labels: labels_mod.LabelMatrix,
              keep: Optional[set[str]] = None) -> tuple[list[int], list[int]]:
    """Positions in ids of the admissions with labels (and in keep, when
    given), and their rows in labels."""
    row_of = dict(zip(labels.admission_ids.tolist(), range(len(labels))))
    kept = [i for i, adm in enumerate(ids)
            if adm in row_of and (keep is None or adm in keep)]
    return kept, [row_of[ids[i]] for i in kept]


# --- stages ------------------------------------------------------------------

def label_admissions(
    diagnoses, crosswalk, admissions=None,
) -> tuple[labels_mod.LabelMatrix, dict[str, int]]:
    """CCS labels and counts of uncrosswalked codes.

    With an admissions CSV every admission gets a row, all zeros when it
    has no diagnosis rows; without one only admissions with diagnoses do.
    """
    xwalk = labels_mod.load_crosswalk(crosswalk)
    codes = labels_mod.read_diagnoses(diagnoses)
    if admissions is not None:
        admission_ids = [row["hadm_id"].strip()
                         for row in iter_csv_rows(admissions, ("hadm_id",))]
        codes = {adm: codes.get(adm, []) for adm in admission_ids}
    return labels_mod.encode_labels(codes, xwalk)


def preprocess_chart(
    chartevents,
    admissions,
    fit_ids: Optional[set[str]] = None,
    numeric_fraction: float = chart.DEFAULT_NUMERIC_FRACTION,
) -> tuple[chart.ChartTensors, list[str], chart.NormalizationStats]:
    """Admission tensors from a chartevents CSV or observation collection.

    Normalization statistics are fitted on fit_ids only when given.
    """
    name = str(chartevents)
    if name.endswith(".json") or name.endswith(".json.gz"):
        blocks = chart.read_chart_events_from_collection(chartevents)
    else:
        blocks = chart.read_chart_events(chartevents)
    times = read_admission_times(admissions)
    discharge = {adm: t[1] for adm, t in times.items()}
    return chart.preprocess_admissions(blocks, discharge, fit_ids=fit_ids,
                                       numeric_fraction=numeric_fraction)


def train_chart(
    tensors: chart.ChartTensors,
    catalog: list[str],
    labels: labels_mod.LabelMatrix,
    assignment: dict[str, str],
    config: chart_model.ChartModelConfig,
    stats_ref: str = "",
) -> chart_model.TrainedModel:
    """Chart model trained on the tensors that have labels.

    The catalog and the labels replace config's n_types and n_categories.
    """
    ids = tensors.admission_ids.tolist()
    kept, rows = _labelled(ids, labels)
    if not kept:
        raise EmptyPartition("no admission tensor has a label vector")
    config = replace(config, n_types=len(catalog),
                     n_categories=labels.bits.shape[1])
    return chart_model.train(
        chart_model.build(config), tensors.values[kept], labels.bits[rows],
        [ids[i] for i in kept], assignment, catalog=catalog,
        stats_ref=stats_ref,
    )


def predict_chart(
    trained: chart_model.TrainedModel,
    tensors: chart.ChartTensors,
    catalog: list[str],
) -> tuple[list[str], np.ndarray]:
    """Admission ids and their (N, C) probabilities.

    CatalogMismatch when the checkpoint records a catalog other than the
    tensors' one.
    """
    if trained.catalog and trained.catalog != catalog:
        raise CatalogMismatch(
            "the tensors' observation types differ from the checkpoint's")
    return (tensors.admission_ids.tolist(),
            chart_model.predict(trained.model, tensors.values))


def chunk_notes(
    notes, admissions, subset: str, max_len: int,
) -> tuple[int, list[notes_mod.ChunkTokenSequence]]:
    """Chunks of one note subset, admission by admission in id order.

    Returns the number of admissions with notes in the subset and the chunks.
    """
    texts = notes_mod.build_subset(notes_mod.read_note_events(notes),
                                   read_admission_times(admissions), subset)
    chunks = []
    for adm in sorted(texts):
        chunks.extend(notes_mod.chunk_text(adm, texts[adm], max_len=max_len))
    return len(texts), chunks


def fit_scorer(
    chunks: list[notes_mod.ChunkTokenSequence],
    labels: labels_mod.LabelMatrix,
    assignment: dict[str, str],
    config: notes_mod.ScorerConfig,
) -> tuple[notes_mod.LinearClassifierParams, dict]:
    """Chunk scorer fitted on the chunks of train-partition admissions."""
    train_ids = members(assignment, "train")
    train_chunks = [ch for ch in chunks if ch.admission_id in train_ids]
    bits_of = dict(zip(labels.admission_ids.tolist(), labels.bits))
    return notes_mod.train_scorer(train_chunks, bits_of, config)


def aggregate_scores(
    matrices: list[notes_mod.ChunkScoreMatrix], c: float,
) -> tuple[list[str], np.ndarray]:
    """Admission ids and their aggregated (N, C) probabilities."""
    params = notes_mod.AggregationParams(c=c)
    params.validate()
    if not matrices:
        raise EmptyChunkSet("no scored admissions to aggregate")
    ids = [m.admission_id for m in matrices]
    return ids, np.stack([notes_mod.aggregate(m, params) for m in matrices])


def evaluate(
    ids: list[str],
    probs: np.ndarray,
    labels: labels_mod.LabelMatrix,
    keep: Optional[set[str]] = None,
    target: float = PipelineConfig.recall_target,
) -> metrics.MetricReport:
    """Metric report over the admissions with both probabilities and labels,
    restricted to keep when given."""
    check_fraction("recall_target", target)
    kept, rows = _labelled(ids, labels, keep)
    if not kept:
        raise DataError("no admissions to evaluate")
    return metrics.micro_average(probs[kept], labels.bits[rows],
                                 target=target)


def save_probs(path, ids: list[str], probs: np.ndarray) -> Path:
    return save_npz(path, {"admission_ids": np.array(ids), "probs": probs})


def load_probs(path) -> tuple[list[str], np.ndarray]:
    arrays = load_admission_npz(path, ("probs",))
    return arrays["admission_ids"].tolist(), arrays["probs"]


# --- end to end ----------------------------------------------------------------

def run_pipeline(config: PipelineConfig) -> dict[str, Path]:
    config.validate()
    out = make_dir(config.output_dir)
    artifacts: dict[str, Path] = {}

    manifest = generate(config.synth, out / "data")
    table_paths = {kind: path for kind, path, _ in manifest.tables}
    admissions = table_paths[TableKind.ADMISSIONS]
    artifacts["synth_manifest"] = manifest.manifest_path

    make_dir(out / "fhir")
    for kind, path, _ in manifest.tables:
        target = out / "fhir" / f"{kind.value}.json.gz"
        fhir_etl.transform(path, target, kind)
        artifacts[f"fhir_{kind.value}"] = target

    labels, unknown = label_admissions(
        table_paths[TableKind.DIAGNOSES_ICD], manifest.crosswalk_path,
        admissions,
    )
    artifacts["labels"] = labels_mod.save_labels(out / "labels.npz", labels)
    if unknown:
        save_json(out / "unknown_codes.json", unknown, sort_keys=True)

    split_result = split_mod.iterative_stratified_split(labels, config.split)
    assignment = split_result.assignment
    artifacts["split"] = split_mod.save_split(out / "split.json", split_result)
    test_ids = members(assignment, "test")

    # --- chart branch ---------------------------------------------------------
    tensors, catalog, stats = preprocess_chart(
        artifacts["fhir_chartevents"], admissions,
        fit_ids=members(assignment, "train"),
        numeric_fraction=config.numeric_fraction,
    )
    artifacts["tensors"] = chart.save_tensors(out / "tensors.npz", tensors,
                                              catalog)
    artifacts["chart_stats"] = chart.save_stats(out / "chart_stats.json",
                                                stats)
    trained = train_chart(tensors, catalog, labels, assignment,
                          config.chart_model,
                          stats_ref=artifacts["chart_stats"].name)
    artifacts["chart_model"] = chart_model.save_checkpoint(
        out / "chart_model.npz", trained)
    artifacts["chart_training_log"] = save_json(
        out / "chart_training_log.json", trained.history, indent=1)
    ids, probs = predict_chart(trained, tensors, catalog)
    artifacts["chart_probs"] = save_probs(out / "chart_probs.npz", ids, probs)
    artifacts["chart_metrics"] = metrics.save_report(
        out / "chart_metrics.json",
        evaluate(ids, probs, labels, test_ids, config.recall_target),
    )

    # --- notes branch -----------------------------------------------------------
    _, chunks = chunk_notes(table_paths[TableKind.NOTEEVENTS], admissions,
                            config.subset, config.max_len)
    artifacts["chunks"] = notes_mod.save_chunks(out / "chunks.json", chunks)
    scorer, scorer_log = fit_scorer(chunks, labels, assignment, config.scorer)
    artifacts["note_scorer"] = notes_mod.save_scorer(out / "note_scorer.npz",
                                                     scorer)
    artifacts["note_training_log"] = save_json(
        out / "note_training_log.json", scorer_log, indent=1)
    matrices = notes_mod.score_chunks(chunks, scorer)
    artifacts["chunk_scores"] = notes_mod.save_score_matrices(
        out / "chunk_scores.npz", matrices)
    ids, probs = aggregate_scores(matrices, config.aggregation_c)
    artifacts["note_admission_probs"] = save_probs(
        out / "note_admission_probs.npz", ids, probs)
    artifacts["note_metrics"] = metrics.save_report(
        out / "note_metrics.json",
        evaluate(ids, probs, labels, test_ids, config.recall_target),
    )

    manifest_path = out / "run_manifest_pipeline.json"
    write_run_manifest(
        manifest_path,
        "pipeline",
        inputs={"config": "inline"},
        outputs={name: str(path) for name, path in artifacts.items()},
        cfg_hash=config_hash(config),
        seed=config.seed,
    )
    artifacts["run_manifest"] = manifest_path
    return artifacts
