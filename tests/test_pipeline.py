"""run_pipeline: its config's stage seeds, the bytes and failures of its
table transform and output directory, its notes branch in a forked worker,
and the bytes the subcommands write for the same stages."""

import csv
import json
import multiprocessing
import os
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor, wait
from pathlib import Path

import numpy as np
import pytest

from ehrpipe import chart, labels as labels_mod, pipeline
from ehrpipe import split as split_mod
from ehrpipe.chart_model import ChartModelConfig
from ehrpipe.cli import main
from ehrpipe.errors import DataError
from ehrpipe.fhir_etl import transform
from ehrpipe.runcfg import derive_seed, load_config
from ehrpipe.tables import TableKind

SMALL_RUN = (
    "[run]\nseed = 3\noutput_dir = {out}\n\n"
    "[synth]\nn_patients = 30\nn_admissions = 80\n"
    "n_observation_types = 8\nn_ccs_categories = 6\n"
    "positive_rate_target = 0.12\nsignal_strength = 3.0\n"
    "events_min = 10\nevents_max = 18\n\n"
    "[chart_model]\nvariant = cnn\nhidden_size = 32\nepochs = 1\n"
    "lr = 0.003\nconv_filters = 3\n\n"
    "[notes]\nsubset = days3\nmax_len = 64\nfeature_dim = 1024\n"
    "epochs = 1\n"
)


@pytest.fixture
def config_path(tmp_path):
    """A small run's INI."""
    path = tmp_path / "run.ini"
    path.write_text(SMALL_RUN.format(out=tmp_path / "run"))
    return path


def test_collections_match_serial_transforms(config_path, tmp_path):
    artifacts = pipeline.run_pipeline(load_config(config_path))
    data = tmp_path / "run" / "data"
    for kind in ("patients", "admissions", "diagnoses_icd", "chartevents",
                 "noteevents"):
        serial = tmp_path / f"{kind}.json.gz"
        transform(data / f"{kind}.csv", serial, TableKind(kind))
        assert artifacts[f"fhir_{kind}"].read_bytes() == serial.read_bytes()


def test_malformed_row_exits_4_and_leaves_no_temp_file(
    config_path, tmp_path, monkeypatch, capsys,
):
    generate = pipeline.generate

    def generate_then_break(config, out):
        manifest = generate(config, out)
        for kind, path, _ in manifest.tables:
            if kind in (TableKind.ADMISSIONS, TableKind.NOTEEVENTS):
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write("1,2\n")
        return manifest

    monkeypatch.setattr(pipeline, "generate", generate_then_break)
    assert main(["pipeline", "--config", str(config_path)]) == 4
    fhir = tmp_path / "run" / "fhir"
    assert [p.name for p in fhir.iterdir() if p.name.endswith(".tmp")] == []
    # labels reads admissions.csv before any transform and before the
    # notes branch starts, so the run stops there.
    err = capsys.readouterr().err
    assert "admissions.csv" in err and "noteevents" not in err


def _no_worker_and_no_temp_file(run: Path) -> bool:
    """What any run_pipeline leaves: no child process still running and no
    temporary file under its output directory."""
    return (multiprocessing.active_children() == []
            and [p for p in run.rglob("*") if p.name.endswith(".tmp")] == [])


def test_notes_branch_runs_in_a_forked_worker(config_path, tmp_path,
                                              monkeypatch):
    notes_prep, pids = pipeline.notes_prep, tmp_path / "pids"

    def notes_prep_noting_its_process(*args):
        pids.write_text(f"{os.getpid()} {os.getppid()}")
        return notes_prep(*args)

    monkeypatch.setattr(pipeline, "notes_prep", notes_prep_noting_its_process)
    artifacts = pipeline.run_pipeline(load_config(config_path))
    assert pids.read_text().split()[1] == str(os.getpid())
    assert artifacts["note_metrics"].is_file()
    assert _no_worker_and_no_temp_file(tmp_path / "run")


def _fail(message: str, after: Path | None = None, mark: Path | None = None,
          entered: Path | None = None):
    """A stage that raises DataError(message). When given, it leaves the
    file entered behind as it starts, waits for the file after (a minute at
    most) and leaves the file mark behind just before it raises."""

    def stage(*args, **kwargs):
        if entered is not None:
            entered.touch()
        deadline = time.monotonic() + 60
        while (after is not None and not after.exists()
               and time.monotonic() < deadline):
            time.sleep(0.01)
        if mark is not None:
            mark.touch()
        raise DataError(message)

    return stage


def test_failing_notes_branch_exits_4_with_its_message(
    config_path, tmp_path, monkeypatch, capsys,
):
    # The notes branch fails once preprocess has started, and preprocess
    # goes on once the worker has reported that failure, so the chart
    # branch sees it at its next pause.
    submitted, submit = [], ProcessPoolExecutor.submit

    def submit_noting_the_future(self, *args, **kwargs):
        submitted.append(submit(self, *args, **kwargs))
        return submitted[-1]

    preprocess, started = pipeline.preprocess, tmp_path / "started"

    def preprocess_once_the_notes_failed(*args):
        started.touch()
        assert wait(submitted, timeout=60).not_done == set()
        return preprocess(*args)

    monkeypatch.setattr(ProcessPoolExecutor, "submit",
                        submit_noting_the_future)
    monkeypatch.setattr(pipeline, "notes_prep",
                        _fail("the notes broke", after=started))
    monkeypatch.setattr(pipeline, "preprocess",
                        preprocess_once_the_notes_failed)
    assert main(["pipeline", "--config", str(config_path)]) == 4
    assert "the notes broke" in capsys.readouterr().err
    assert _no_worker_and_no_temp_file(tmp_path / "run")
    # the running stage ended, and no later one started
    run = tmp_path / "run"
    assert (run / "tensors.npz").is_file()
    assert not (run / "chart_model.npz").exists()
    assert not (run / "chart_metrics.json").exists()
    assert not (run / "run_manifest_pipeline.json").exists()


@pytest.mark.parametrize("first", ["chart", "notes"])
def test_chart_error_is_reported_when_both_branches_fail(
    config_path, tmp_path, monkeypatch, capsys, first,
):
    chart_done, notes_done = tmp_path / "chart_done", tmp_path / "notes_done"
    if first == "chart":
        chart = _fail("the chart broke", mark=chart_done)
        notes = _fail("the notes broke", after=chart_done)
    else:
        # The chart stage is running when the notes branch fails, so the
        # chart branch cannot stop before it.
        chart_started = tmp_path / "chart_started"
        chart = _fail("the chart broke", entered=chart_started,
                      after=notes_done)
        notes = _fail("the notes broke", after=chart_started,
                      mark=notes_done)
    monkeypatch.setattr(pipeline, "preprocess", chart)
    monkeypatch.setattr(pipeline, "notes_prep", notes)
    with pytest.raises(DataError, match="the chart broke"):
        pipeline.run_pipeline(load_config(config_path))
    assert (chart_done if first == "chart" else notes_done).exists()
    assert _no_worker_and_no_temp_file(tmp_path / "run")


def test_run_manifest_lists_every_file_the_run_wrote(config_path,
                                                    tmp_path):
    artifacts = pipeline.run_pipeline(load_config(config_path))
    written = {p for p in (tmp_path / "run").rglob("*") if p.is_file()}
    manifest = json.loads(artifacts["run_manifest"].read_text())
    listed = [Path(p) for p in manifest["outputs"].values()]
    assert sorted(listed) == sorted(written - {artifacts["run_manifest"]})
    assert {"crosswalk", "data_noteevents", "unknown_codes"} <= set(
        manifest["outputs"])
    assert manifest["inputs"] == {"config": "inline"}


def test_score_notes_checks_its_mode_before_reading(tmp_path):
    with pytest.raises(DataError, match="score-notes needs --params, or "
                                        "--labels and --split to fit"):
        pipeline.score_notes(tmp_path / "missing.json", tmp_path / "s.npz")


def test_load_config_derives_every_stage_seed(config_path):
    stages = ("synth", "split", "chart_model", "scorer")
    seeds = {}
    for run_seed, override in ((3, None), (8, 8)):
        config = load_config(config_path, seed_override=override)
        assert config.seed == run_seed
        seeds[run_seed] = {stage: getattr(config, stage).seed
                           for stage in stages}
        assert seeds[run_seed] == {stage: derive_seed(run_seed, stage)
                                   for stage in stages}
    # seed_override moves all four
    assert all(seeds[3][stage] != seeds[8][stage] for stage in stages)


@pytest.mark.parametrize("where", ["file", "file/sub"])
def test_output_dir_blocked_by_a_file_exits_4(config_path, tmp_path, where):
    (tmp_path / "file").write_text("not a directory\n")
    assert main(["pipeline", "--config", str(config_path),
                 "--output-dir", str(tmp_path / where)]) == 4


# What run_pipeline writes and the subcommands write too, under one name.
SHARED_ARTIFACTS = (
    "labels.npz", "unknown_codes.json", "split.json", "tensors.npz",
    "chart_stats.json", "chart_model.npz", "chart_training_log.json",
    "chart_probs.npz", "chart_metrics.json", "chunks.json", "note_scorer.npz",
    "chunk_scores.npz", "note_admission_probs.npz", "note_metrics.json",
)


def test_subcommands_write_the_bytes_the_pipeline_writes(tmp_path):
    demo = Path(__file__).resolve().parent.parent / "demo.ini"
    config = load_config(demo)
    pipe, out = tmp_path / "pipeline", tmp_path / "cli"
    assert main(["pipeline", "--config", str(demo),
                 "--output-dir", str(pipe)]) == 0
    data, synth = pipe / "data", config.synth
    model, scorer = config.chart_model, config.scorer
    labelled = ["--labels", out / "labels.npz", "--split", out / "split.json"]
    test_partition = [*labelled, "--partition", "test",
                      "--target", config.recall_target]
    steps = [
        ["synth", "--out", out / "data", "--seed", synth.seed,
         "--patients", synth.n_patients, "--admissions", synth.n_admissions,
         "--types", synth.n_observation_types,
         "--categories", synth.n_ccs_categories,
         "--positive-rate", synth.positive_rate_target,
         "--signal", synth.signal_strength, "--notes-min", synth.notes_min,
         "--notes-max", synth.notes_max, "--vocab", synth.vocabulary_size,
         "--planted", synth.n_planted, "--events-min", synth.events_min,
         "--events-max", synth.events_max],
        ["labels", "--diagnoses", data / "diagnoses_icd.csv",
         "--crosswalk", data / "ccs_crosswalk.csv",
         "--admissions", data / "admissions.csv",
         "--out", out / "labels.npz"],
        ["split", "--labels", out / "labels.npz", "--out", out / "split.json",
         "--ratios", *config.split.ratios, "--seed", config.split.seed],
        ["preprocess", "--chartevents", pipe / "fhir" / "chartevents.json.gz",
         "--admissions", data / "admissions.csv", "--out", out,
         "--split", out / "split.json",
         "--numeric-fraction", config.numeric_fraction],
        ["train", "--tensors", out / "tensors.npz", *labelled,
         "--out", out / "chart_model.npz",
         "--log", out / "chart_training_log.json",
         "--variant", model.variant, "--hidden", model.hidden_size,
         "--epochs", model.epochs, "--batch-size", model.batch_size,
         "--lr", model.lr, "--dropout", model.dropout,
         "--conv-filters", model.conv_filters,
         "--rnn-hidden", model.rnn_hidden, "--seed", model.seed],
        ["predict", "--model", out / "chart_model.npz",
         "--tensors", out / "tensors.npz", "--out", out / "chart_probs.npz"],
        ["eval", "--probs", out / "chart_probs.npz", *test_partition,
         "--out", out / "chart_metrics.json"],
        ["notes-prep", "--notes", data / "noteevents.csv",
         "--admissions", data / "admissions.csv", "--subset", config.subset,
         "--max-len", config.max_len, "--out", out / "chunks.json"],
        ["score-notes", "--chunks", out / "chunks.json", *labelled,
         "--fit-out", out / "note_scorer.npz",
         "--out", out / "chunk_scores.npz",
         "--feature-dim", scorer.feature_dim, "--epochs", scorer.epochs,
         "--batch-size", scorer.batch_size, "--lr", scorer.lr,
         "--seed", scorer.seed],
        ["score-notes", "--chunks", out / "chunks.json",
         "--params", out / "note_scorer.npz",
         "--out", out / "rescored_chunk_scores.npz"],
        ["aggregate", "--scores", out / "chunk_scores.npz",
         "--scale-c", config.aggregation_c,
         "--out", out / "note_admission_probs.npz"],
        ["eval", "--probs", out / "note_admission_probs.npz",
         *test_partition, "--out", out / "note_metrics.json"],
    ]
    out.mkdir()
    for argv in steps:
        assert main([str(a) for a in argv]) == 0, argv[0]
    for name in SHARED_ARTIFACTS:
        assert (out / name).read_bytes() == (pipe / name).read_bytes(), name
    tables = sorted(path.name for path in data.iterdir())
    assert len(tables) == 7  # five tables, the crosswalk and the manifest
    for name in tables:
        assert (out / "data" / name).read_bytes() == (
            data / name).read_bytes(), name
    assert (out / "rescored_chunk_scores.npz").read_bytes() == (
        pipe / "chunk_scores.npz").read_bytes()
    # score-notes writes the fitted scorer's log beside it
    assert (out / "note_scorer.npz.log.json").read_bytes() == (
        pipe / "note_training_log.json").read_bytes()


def _append_unknown_code(diagnoses: Path) -> None:
    """A copy of the first diagnosis row, with code ZZZ99, at the end."""
    with open(diagnoses, newline="", encoding="utf-8") as handle:
        header, first = list(csv.reader(handle))[:2]
    row = dict(zip(header, first), icd9_code="ZZZ99")
    with open(diagnoses, "a", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerow(
            [row[column] for column in header])


def test_labels_writes_the_unknown_codes_the_pipeline_writes(
    config_path, tmp_path, monkeypatch,
):
    generate = pipeline.generate

    def generate_with_unknown_code(config, out):
        manifest = generate(config, out)
        _append_unknown_code(out / "diagnoses_icd.csv")
        return manifest

    monkeypatch.setattr(pipeline, "generate", generate_with_unknown_code)
    assert main(["pipeline", "--config", str(config_path)]) == 0
    run, cli = tmp_path / "run", tmp_path / "cli"
    data = run / "data"
    cli.mkdir()
    assert main(["labels", "--diagnoses", str(data / "diagnoses_icd.csv"),
                 "--crosswalk", str(data / "ccs_crosswalk.csv"),
                 "--admissions", str(data / "admissions.csv"),
                 "--out", str(cli / "labels.npz")]) == 0
    assert b'"ZZZ99": 1' in (run / "unknown_codes.json").read_bytes()
    assert (cli / "unknown_codes.json").read_bytes() == (
        run / "unknown_codes.json").read_bytes()


def test_labels_rerun_rewrites_unknown_codes(small_dataset, tmp_path):
    """A rerun without unknown codes leaves {}, not the codes of the run
    before, in unknown_codes.json."""
    data = small_dataset.manifest_path.parent
    diagnoses = tmp_path / "diagnoses_icd.csv"
    diagnoses.write_bytes((data / "diagnoses_icd.csv").read_bytes())
    _append_unknown_code(diagnoses)
    unknown = tmp_path / "unknown_codes.json"
    for source, expected in ((diagnoses, {"ZZZ99": 1}),
                             (data / "diagnoses_icd.csv", {})):
        assert main(["labels", "--diagnoses", str(source),
                     "--crosswalk", str(small_dataset.crosswalk_path),
                     "--out", str(tmp_path / "labels.npz")]) == 0
        assert json.loads(unknown.read_text()) == expected


def test_labels_skip_a_blank_admission_id(small_dataset, tmp_path):
    """An admissions row whose hadm_id is blank adds no label row: labels.npz
    keeps the bytes it has without that row."""
    data = small_dataset.manifest_path.parent
    with open(data / "admissions.csv", newline="", encoding="utf-8") as handle:
        header, first = list(csv.reader(handle))[:2]
    admissions = tmp_path / "admissions.csv"
    admissions.write_bytes((data / "admissions.csv").read_bytes())
    with open(admissions, "a", newline="", encoding="utf-8") as handle:
        row = dict(zip(header, first), hadm_id=" ")
        csv.writer(handle, lineterminator="\n").writerow(
            [row[column] for column in header])
    written = []
    for source in (data / "admissions.csv", admissions):
        out = tmp_path / f"labels{len(written)}.npz"
        assert main(["labels", "--diagnoses", str(data / "diagnoses_icd.csv"),
                     "--crosswalk", str(small_dataset.crosswalk_path),
                     "--admissions", str(source), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[1] == written[0]


def test_train_holds_one_copy_of_the_tensors(tmp_path):
    """The traced peak of the train stage stays under 1.8 times the bytes
    of the values and mask it loads, at 300 admissions of 450 types: the
    model fits on rows of the loaded values, not on a copy of them."""
    rng = np.random.default_rng(6)
    n, n_types, n_categories = 300, 450, 10
    ids = np.array([str(i) for i in range(n)])
    tensors = chart.ChartTensors(ids, rng.normal(size=(n, n_types, 4)),
                                 rng.random((n, n_types, 4)) < 0.05)
    chart.save_tensors(tmp_path / "tensors.npz", tensors,
                       [str(t) for t in range(n_types)])
    labels_mod.save_labels(tmp_path / "labels.npz", labels_mod.LabelMatrix(
        ids, rng.random((n, n_categories)) < 0.2, np.arange(n_categories)))
    pipeline.split(tmp_path / "labels.npz", tmp_path / "split.json",
                   split_mod.SplitSpec())
    config = ChartModelConfig(hidden_size=8, conv_filters=2, epochs=1)
    tracemalloc.start()
    try:
        pipeline.train(tmp_path / "tensors.npz", tmp_path / "labels.npz",
                       tmp_path / "split.json", tmp_path / "model.npz",
                       tmp_path / "log.json", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * (tensors.values.nbytes + tensors.mask.nbytes)
