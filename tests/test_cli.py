"""CLI subcommands: exit codes, chained workflows, manifests, isolation."""

import csv
import gzip
import hashlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ehrpipe import cli, pipeline
from ehrpipe.chart_model import ChartModelConfig
from ehrpipe.cli import main
from ehrpipe.notes import ScorerConfig
from ehrpipe.synth import SynthConfig


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    code = main([
        "synth", "--out", str(out), "--seed", "5", "--patients", "40",
        "--admissions", "100", "--types", "8", "--categories", "6",
        "--positive-rate", "0.12", "--signal", "3.0",
        "--events-min", "12", "--events-max", "20",
    ])
    assert code == 0
    return out


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_unmapped_table_exits_4(cli_dataset, tmp_path):
    code = main([
        "transform", "--table", "drgcodes",
        str(cli_dataset / "admissions.csv"), str(tmp_path / "x.json"),
    ])
    assert code == 4


def test_missing_input_exits_4(tmp_path):
    code = main([
        "transform", "--table", "patients",
        str(tmp_path / "missing.csv"), str(tmp_path / "x.json"),
    ])
    assert code == 4


def test_admissions_without_time_columns_exit_4(cli_dataset, tmp_path):
    bad = tmp_path / "bad_admissions.csv"
    bad.write_text("row_id,subject_id\n1,2\n")
    code = main([
        "notes-prep", "--notes", str(cli_dataset / "noteevents.csv"),
        "--admissions", str(bad), "--out", str(tmp_path / "chunks.json"),
    ])
    assert code == 4


def test_bad_config_exits_3(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nseed = not_a_number\n")
    assert main(["pipeline", "--config", str(bad)]) == 3


def test_numeric_fault_exits_5(tmp_path):
    from ehrpipe.chart import ChartTensors, save_tensors
    from ehrpipe.labels import LabelMatrix, save_labels
    from ehrpipe.split import save_split

    ids = np.array([f"a{i}" for i in range(4)])
    tensors = ChartTensors(ids, np.full((4, 2, 4), np.inf),
                           np.ones((4, 2, 4), dtype=bool))
    save_tensors(tmp_path / "tensors.npz", tensors, ["1", "2"])
    vectors = LabelMatrix(ids, np.array([[i % 2 == 0] for i in range(4)]),
                          np.array([1]))
    save_labels(tmp_path / "labels.npz", vectors)
    save_split(tmp_path / "split.json",
               {f"a{i}": "train" for i in range(4)})
    code = main([
        "train", "--tensors", str(tmp_path / "tensors.npz"),
        "--labels", str(tmp_path / "labels.npz"),
        "--split", str(tmp_path / "split.json"),
        "--out", str(tmp_path / "model.npz"), "--hidden", "4",
        "--epochs", "1",
    ])
    assert code == 5


def test_transform_writes_gzip_and_manifest(cli_dataset, tmp_path):
    out = tmp_path / "admissions.json.gz"
    before = hashlib.sha256(
        (cli_dataset / "admissions.csv").read_bytes()
    ).hexdigest()
    assert main([
        "transform", "--table", "admissions",
        str(cli_dataset / "admissions.csv"), str(out),
    ]) == 0
    assert out.exists()
    manifest = json.loads(
        (tmp_path / "run_manifest_transform.json").read_text()
    )
    assert manifest["subcommand"] == "transform"
    assert manifest["outputs"]["collection"] == str(out)
    # inputs are never modified
    after = hashlib.sha256(
        (cli_dataset / "admissions.csv").read_bytes()
    ).hexdigest()
    assert before == after


def test_full_chart_workflow(cli_dataset, tmp_path):
    labels_path = tmp_path / "labels.npz"
    split_path = tmp_path / "split.json"
    model_path = tmp_path / "model.npz"
    probs_path = tmp_path / "probs.npz"
    report_path = tmp_path / "report.json"

    assert main([
        "labels", "--diagnoses", str(cli_dataset / "diagnoses_icd.csv"),
        "--crosswalk", str(cli_dataset / "ccs_crosswalk.csv"),
        "--admissions", str(cli_dataset / "admissions.csv"),
        "--out", str(labels_path),
    ]) == 0
    assert main([
        "split", "--labels", str(labels_path), "--out", str(split_path),
        "--seed", "3",
    ]) == 0
    assert main([
        "preprocess", "--chartevents", str(cli_dataset / "chartevents.csv"),
        "--admissions", str(cli_dataset / "admissions.csv"),
        "--out", str(tmp_path), "--split", str(split_path),
    ]) == 0
    assert main([
        "train", "--tensors", str(tmp_path / "tensors.npz"),
        "--labels", str(labels_path), "--split", str(split_path),
        "--out", str(model_path), "--variant", "fcnn", "--hidden", "32",
        "--epochs", "1", "--lr", "0.003", "--seed", "2",
    ]) == 0
    assert main([
        "predict", "--model", str(model_path),
        "--tensors", str(tmp_path / "tensors.npz"),
        "--out", str(probs_path),
    ]) == 0
    assert main([
        "eval", "--probs", str(probs_path), "--labels", str(labels_path),
        "--split", str(split_path), "--partition", "test",
        "--out", str(report_path),
    ]) == 0
    report = json.loads(report_path.read_text())
    assert 0.0 <= report["micro"]["aupr"] <= 1.0
    assert 0.0 <= report["micro"]["auroc"] <= 1.0


def test_full_notes_workflow(cli_dataset, tmp_path):
    labels_path = tmp_path / "labels.npz"
    split_path = tmp_path / "split.json"
    chunks_path = tmp_path / "chunks.json"
    scores_path = tmp_path / "scores.npz"
    agg_path = tmp_path / "agg.npz"
    report_path = tmp_path / "report.json"

    main([
        "labels", "--diagnoses", str(cli_dataset / "diagnoses_icd.csv"),
        "--crosswalk", str(cli_dataset / "ccs_crosswalk.csv"),
        "--admissions", str(cli_dataset / "admissions.csv"),
        "--out", str(labels_path),
    ])
    main([
        "split", "--labels", str(labels_path), "--out", str(split_path),
    ])
    assert main([
        "notes-prep", "--notes", str(cli_dataset / "noteevents.csv"),
        "--admissions", str(cli_dataset / "admissions.csv"),
        "--subset", "days3", "--max-len", "64", "--out", str(chunks_path),
    ]) == 0
    assert main([
        "score-notes", "--chunks", str(chunks_path),
        "--labels", str(labels_path), "--split", str(split_path),
        "--out", str(scores_path), "--feature-dim", "1024",
        "--epochs", "2", "--seed", "4",
    ]) == 0
    assert (tmp_path / (scores_path.name + ".scorer.npz")).exists()
    assert main([
        "aggregate", "--scores", str(scores_path), "--scale-c", "2",
        "--out", str(agg_path),
    ]) == 0
    assert main([
        "eval", "--probs", str(agg_path), "--labels", str(labels_path),
        "--split", str(split_path), "--partition", "test",
        "--out", str(report_path),
    ]) == 0
    with np.load(agg_path, allow_pickle=False) as data:
        assert data["probs"].shape[1] == 6
        assert np.all((data["probs"] > 0) & (data["probs"] < 1))


def test_score_notes_with_saved_params(cli_dataset, tmp_path):
    chunks_path = tmp_path / "chunks.json"
    main([
        "notes-prep", "--notes", str(cli_dataset / "noteevents.csv"),
        "--admissions", str(cli_dataset / "admissions.csv"),
        "--subset", "disch", "--max-len", "64", "--out", str(chunks_path),
    ])
    from ehrpipe.notes import LinearClassifierParams, save_scorer

    params = LinearClassifierParams(slots=np.arange(1024),
                                    weights=np.zeros((6, 1024)),
                                    bias=np.zeros(6), feature_dim=1024)
    scorer_path = tmp_path / "scorer.npz"
    save_scorer(scorer_path, params)
    scores_path = tmp_path / "scores.npz"
    assert main([
        "score-notes", "--chunks", str(chunks_path),
        "--params", str(scorer_path), "--out", str(scores_path),
    ]) == 0
    with np.load(scores_path, allow_pickle=False) as data:
        np.testing.assert_allclose(data["probabilities"], 0.5)


def test_score_notes_without_params_or_labels_exits_4(tmp_path):
    chunks_path = tmp_path / "chunks.json"
    chunks_path.write_text('{"a": [["[CLS]", "x"]]}')
    assert main([
        "score-notes", "--chunks", str(chunks_path),
        "--out", str(tmp_path / "s.npz"),
    ]) == 4


def _score_chunk_file(tmp_path, text: str) -> int:
    """score-notes --params on a chunks.json holding text."""
    from ehrpipe.notes import LinearClassifierParams, save_scorer

    chunks = tmp_path / "chunks.json"
    chunks.write_text(text, encoding="utf-8")
    scorer = save_scorer(tmp_path / "scorer.npz", LinearClassifierParams(
        slots=np.array([5]), weights=np.ones((1, 1)), bias=np.zeros(1),
        feature_dim=64))
    return main(["score-notes", "--chunks", str(chunks), "--params",
                 str(scorer), "--out", str(tmp_path / "s.npz")])


# json.load keeps the last of two entries and silently drops the first
# one's chunks.
@pytest.mark.parametrize("text", [
    '{"1": [["[CLS]", "a"]],\n"2": [["[CLS]", "b"]],\n"1": [["[CLS]", "c"]]}\n',
    '{"1": [["[CLS]", "a"]], "2": [["[CLS]", "b"]], "1": [["[CLS]", "c"]]}\n',
    '{"1": [["[CLS]", "a"]],\n"1": [["[CLS]", "c"]]}\n',
    '{\n  "1": [\n    ["[CLS]", "a"]\n  ],\n  "1": []\n}\n',
], ids=["streamed", "one-line", "same-block", "indented"])
@pytest.mark.parametrize("block", [8, 1 << 18])
def test_chunk_file_naming_an_admission_twice_exits_4(
        tmp_path, capsys, monkeypatch, text, block):
    from ehrpipe import tables

    monkeypatch.setattr(tables, "_JSON_BLOCK_CHARS", block)
    assert _score_chunk_file(tmp_path, text) == 4
    assert "admission '1' appears twice" in capsys.readouterr().err
    assert not (tmp_path / "s.npz").exists()


@pytest.mark.parametrize("keep", [
    lambda text: text[:len(text) // 2],
    lambda text: text[:text.index(",\n") + 2],
    lambda text: text[:text.rindex("}")],
    lambda text: text.replace(",\n", "\n", 1),
    lambda text: text.replace(",\n", ",\n,\n", 1),
], ids=["half", "after-a-line", "unclosed", "missing-comma", "empty-member"])
@pytest.mark.parametrize("block", [1, 8, 1 << 18])
def test_cut_or_broken_streamed_chunk_file_exits_4(tmp_path, monkeypatch,
                                                   keep, block):
    from ehrpipe import notes, tables

    whole = tmp_path / "whole.json"
    notes.save_chunks(whole, [
        notes.ChunkTokenSequence(str(adm), ["[CLS]", f"t{adm}", "x"])
        for adm in range(20) for _ in range(2)])
    text = whole.read_text(encoding="utf-8")
    assert _score_chunk_file(tmp_path, text) == 0
    monkeypatch.setattr(tables, "_JSON_BLOCK_CHARS", block)
    assert _score_chunk_file(tmp_path, keep(text)) == 4


def test_attention_subcommand(tmp_path):
    payload = {
        "queries": [[2.0]],
        "keys": [[1.0], [0.0]],
        "values": [[1.0], [0.0]],
        "tokens_q": ["query"],
        "tokens_k": ["strong", "weak"],
    }
    src = tmp_path / "qkv.json"
    src.write_text(json.dumps(payload))
    csv_out = tmp_path / "alignment.csv"
    json_out = tmp_path / "weights.json"
    assert main([
        "attention", "--input", str(src), "--out-csv", str(csv_out),
        "--out-json", str(json_out),
    ]) == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "query_token,key_token,weight"
    assert lines[1].startswith("query,strong,")
    weights = json.loads(json_out.read_text())["weights"]
    assert weights[0][0] == pytest.approx(0.8808, abs=1e-4)


def test_pipeline_subcommand(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[run]\nseed = 3\noutput_dir = {out}\n\n"
        "[synth]\nn_patients = 30\nn_admissions = 80\n"
        "n_observation_types = 8\nn_ccs_categories = 6\n"
        "positive_rate_target = 0.12\nsignal_strength = 3.0\n"
        "events_min = 10\nevents_max = 18\n\n"
        "[chart_model]\nvariant = cnn\nhidden_size = 32\nepochs = 1\n"
        "lr = 0.003\nconv_filters = 3\n\n"
        "[notes]\nsubset = days3\nmax_len = 64\nfeature_dim = 1024\n"
        "epochs = 1\n".format(out=tmp_path / "run_out")
    )
    assert main(["pipeline", "--config", str(config)]) == 0
    out = tmp_path / "run_out"
    for artifact in ("labels.npz", "split.json", "tensors.npz",
                     "chart_model.npz", "chart_metrics.json", "chunks.json",
                     "note_metrics.json", "run_manifest_pipeline.json"):
        assert (out / artifact).exists(), artifact
    manifest = json.loads((out / "run_manifest_pipeline.json").read_text())
    assert manifest["seed"] == 3
    assert "config_hash" in manifest

    # flag overrides beat file values and change derived stage seeds
    override_out = tmp_path / "run_out2"
    assert main([
        "pipeline", "--config", str(config), "--seed", "8",
        "--output-dir", str(override_out),
    ]) == 0
    manifest2 = json.loads(
        (override_out / "run_manifest_pipeline.json").read_text()
    )
    assert manifest2["seed"] == 8
    assert manifest2["config_hash"] != manifest["config_hash"]


# --- bad input exits 4 ---------------------------------------------------------

@pytest.fixture(scope="module")
def chain(cli_dataset, tmp_path_factory):
    """One valid artifact of every kind, made by the CLI."""
    d = tmp_path_factory.mktemp("chain")
    data = cli_dataset
    steps = [
        ["labels", "--diagnoses", data / "diagnoses_icd.csv",
         "--crosswalk", data / "ccs_crosswalk.csv",
         "--admissions", data / "admissions.csv", "--out", d / "labels.npz"],
        ["split", "--labels", d / "labels.npz", "--out", d / "split.json"],
        ["preprocess", "--chartevents", data / "chartevents.csv",
         "--admissions", data / "admissions.csv", "--out", d,
         "--split", d / "split.json"],
        ["train", "--tensors", d / "tensors.npz", "--labels", d / "labels.npz",
         "--split", d / "split.json", "--out", d / "model.npz",
         "--hidden", "4", "--epochs", "1"],
        ["predict", "--model", d / "model.npz", "--tensors", d / "tensors.npz",
         "--out", d / "probs.npz"],
        ["notes-prep", "--notes", data / "noteevents.csv",
         "--admissions", data / "admissions.csv", "--max-len", "64",
         "--out", d / "chunks.json"],
        ["score-notes", "--chunks", d / "chunks.json",
         "--labels", d / "labels.npz", "--split", d / "split.json",
         "--feature-dim", "256", "--epochs", "1", "--out", d / "scores.npz",
         "--fit-out", d / "scorer.npz"],
        ["transform", data / "chartevents.csv", d / "chartevents.json.gz",
         "--table", "chartevents"],
    ]
    for argv in steps:
        assert main([str(a) for a in argv]) == 0, argv[0]
    (d / "diagnoses_icd.csv.gz").write_bytes(
        gzip.compress((data / "diagnoses_icd.csv").read_bytes(), mtime=0))
    (d / "array.json").write_text("[1, 2]\n")
    (d / "faulty").mkdir()
    return d


def _argv(chain, data, subcommand: str) -> list:
    """A valid invocation of subcommand over the chain's artifacts."""
    out = chain / "faulty"
    return {
        "eval": ["eval", "--probs", chain / "probs.npz",
                 "--labels", chain / "labels.npz", "--out", out / "r.json"],
        "predict": ["predict", "--model", chain / "model.npz",
                    "--tensors", chain / "tensors.npz",
                    "--out", out / "p.npz"],
        "score-notes": ["score-notes", "--chunks", chain / "chunks.json",
                        "--params", chain / "scorer.npz",
                        "--out", out / "s.npz"],
        "train": ["train", "--tensors", chain / "tensors.npz",
                  "--labels", chain / "labels.npz",
                  "--split", chain / "split.json", "--out", out / "m.npz",
                  "--hidden", "4", "--epochs", "1"],
        "preprocess": ["preprocess", "--chartevents",
                       data / "chartevents.csv",
                       "--admissions", data / "admissions.csv",
                       "--out", out],
        "notes-prep": ["notes-prep", "--notes", data / "noteevents.csv",
                       "--admissions", data / "admissions.csv",
                       "--out", out / "c.json"],
        "labels": ["labels", "--diagnoses", data / "diagnoses_icd.csv",
                   "--crosswalk", data / "ccs_crosswalk.csv",
                   "--admissions", data / "admissions.csv",
                   "--out", out / "l.npz"],
        "split": ["split", "--labels", chain / "labels.npz",
                  "--out", out / "split.json"],
        "aggregate": ["aggregate", "--scores", chain / "scores.npz",
                      "--out", out / "a.npz"],
        # _with(argv, "transform", path) replaces the input positional
        "transform": ["transform", data / "noteevents.csv", out / "n.json",
                      "--table", "noteevents"],
    }[subcommand]


def _with(argv: list, flag: str, value) -> list[str]:
    argv = list(argv)
    argv[argv.index(flag) + 1] = value
    return [str(a) for a in argv]


# (subcommand, flag, artifact the flag takes, artifact of another kind)
ARTIFACT_FLAGS = [
    ("eval", "--probs", "probs.npz", "labels.npz"),
    ("eval", "--labels", "labels.npz", "probs.npz"),
    ("predict", "--model", "model.npz", "tensors.npz"),
    ("predict", "--tensors", "tensors.npz", "labels.npz"),
    ("score-notes", "--params", "scorer.npz", "model.npz"),
    ("score-notes", "--chunks", "chunks.json", "labels.npz"),
    ("train", "--split", "split.json", "array.json"),
    ("score-notes", "--chunks", "chunks.json", "split.json"),
    ("aggregate", "--scores", "scores.npz", "labels.npz"),
]


@pytest.mark.parametrize("fault", ["missing", "truncated", "wrong-kind"])
@pytest.mark.parametrize("subcommand,flag,good,other", ARTIFACT_FLAGS)
def test_unreadable_artifact_exits_4(chain, cli_dataset, tmp_path, capsys,
                                     fault, subcommand, flag, good, other):
    if fault == "missing":
        bad = tmp_path / good
    elif fault == "truncated":
        content = (chain / good).read_bytes()
        bad = tmp_path / good
        bad.write_bytes(content[:len(content) // 2])
    else:
        bad = chain / other
    argv = _with(_argv(chain, cli_dataset, subcommand), flag, bad)
    assert main(argv) == 4
    assert str(bad) in capsys.readouterr().err


def _stored_config(meta: np.ndarray, **changes) -> np.ndarray:
    """A checkpoint's meta array with changes made to its stored config."""
    fields = json.loads(str(meta))
    fields["config"].update(changes)
    return np.array(json.dumps(fields))


# Ways to spoil one array of a valid .npz artifact.
ARRAY_SPOILERS = {
    "fewer-rows": lambda a: a[:-1],
    "more-rows": lambda a: np.concatenate([a, a[:1]]),
    "first-row-only": lambda a: a[0],
    "one-column-less": lambda a: a[:, :-1],
    "reversed": lambda a: a[::-1],
    "first-repeated": lambda a: np.concatenate([a[:1], a[:-1]]),
    "last-past-any-dim": lambda a: np.concatenate([a[:-1], [2 ** 40]]),
    "first-negative": lambda a: np.concatenate([[-1], a[1:]]),
    "first-zero-sum-kept": lambda a: np.concatenate([[0, a[0] + a[1]],
                                                     a[2:]]),
    "dropped": lambda a: None,
    "first-nan": lambda a: np.where(np.arange(a.size).reshape(a.shape) == 0,
                                    np.nan, a),
    "variant-xyz": lambda a: _stored_config(a, variant="xyz"),
    "hidden-size-0": lambda a: _stored_config(a, hidden_size=0),
    # Parameters of 10^15 types would take more bytes than any address
    # space holds, so building the model fails before a shape is checked.
    "types-1e15": lambda a: _stored_config(a, n_types=10 ** 15),
    # The same shape, as text: "1.5", "True", "3".
    "as-text": lambda a: a.astype(str),
}


# (subcommand, flag, artifact, array to spoil, spoiler)
MALFORMED_ARRAYS = [
    ("eval", "--labels", "labels.npz", "bits", "fewer-rows"),
    ("eval", "--labels", "labels.npz", "bits", "more-rows"),
    ("eval", "--labels", "labels.npz", "bits", "one-column-less"),
    ("eval", "--labels", "labels.npz", "categories", "fewer-rows"),
    ("eval", "--labels", "labels.npz", "bits", "first-row-only"),
    ("eval", "--probs", "probs.npz", "probs", "fewer-rows"),
    ("eval", "--probs", "probs.npz", "probs", "more-rows"),
    ("train", "--labels", "labels.npz", "admission_ids", "more-rows"),
    ("train", "--tensors", "tensors.npz", "values", "fewer-rows"),
    ("train", "--tensors", "tensors.npz", "mask", "more-rows"),
    ("train", "--tensors", "tensors.npz", "mask", "one-column-less"),
    ("predict", "--tensors", "tensors.npz", "values", "more-rows"),
    ("predict", "--model", "model.npz", "param_0", "first-nan"),
    ("predict", "--model", "model.npz", "param_0", "one-column-less"),
    ("predict", "--model", "model.npz", "param_7", "dropped"),
    ("predict", "--model", "model.npz", "meta", "variant-xyz"),
    ("predict", "--model", "model.npz", "meta", "hidden-size-0"),
    ("predict", "--model", "model.npz", "meta", "types-1e15"),
    ("score-notes", "--params", "scorer.npz", "bias", "fewer-rows"),
    ("score-notes", "--params", "scorer.npz", "weights", "first-row-only"),
    ("score-notes", "--params", "scorer.npz", "slots", "reversed"),
    ("score-notes", "--params", "scorer.npz", "slots", "first-repeated"),
    ("score-notes", "--params", "scorer.npz", "slots", "last-past-any-dim"),
    ("score-notes", "--params", "scorer.npz", "slots", "first-negative"),
    ("score-notes", "--params", "scorer.npz", "weights", "one-column-less"),
    ("score-notes", "--params", "scorer.npz", "slots", "dropped"),
    ("score-notes", "--params", "scorer.npz", "weights", "first-nan"),
    ("score-notes", "--params", "scorer.npz", "bias", "first-nan"),
    ("aggregate", "--scores", "scores.npz", "chunk_counts", "fewer-rows"),
    ("aggregate", "--scores", "scores.npz", "chunk_counts", "more-rows"),
    ("aggregate", "--scores", "scores.npz", "probabilities", "fewer-rows"),
    ("aggregate", "--scores", "scores.npz", "probabilities",
     "first-row-only"),
    ("aggregate", "--scores", "scores.npz", "chunk_counts",
     "first-zero-sum-kept"),
    ("aggregate", "--scores", "scores.npz", "chunk_counts", "dropped"),
    ("eval", "--probs", "probs.npz", "admission_ids", "first-repeated"),
    ("eval", "--labels", "labels.npz", "admission_ids", "first-repeated"),
    ("train", "--tensors", "tensors.npz", "admission_ids", "first-repeated"),
    ("aggregate", "--scores", "scores.npz", "admission_ids",
     "first-repeated"),
    ("predict", "--tensors", "tensors.npz", "values", "as-text"),
    ("train", "--tensors", "tensors.npz", "values", "as-text"),
    ("train", "--tensors", "tensors.npz", "mask", "as-text"),
    ("train", "--labels", "labels.npz", "bits", "as-text"),
    ("split", "--labels", "labels.npz", "bits", "as-text"),
    ("eval", "--labels", "labels.npz", "categories", "as-text"),
    ("eval", "--probs", "probs.npz", "probs", "as-text"),
    ("aggregate", "--scores", "scores.npz", "probabilities", "as-text"),
    ("aggregate", "--scores", "scores.npz", "chunk_counts", "as-text"),
]


@pytest.mark.parametrize("subcommand,flag,artifact,array,spoiler",
                         MALFORMED_ARRAYS)
def test_malformed_array_exits_4(chain, cli_dataset, tmp_path, capsys,
                                 subcommand, flag, artifact, array, spoiler):
    with np.load(chain / artifact) as data:
        arrays = dict(data)
    arrays[array] = ARRAY_SPOILERS[spoiler](arrays[array])
    if arrays[array] is None:
        del arrays[array]
    bad = tmp_path / artifact
    np.savez(bad, **arrays)
    argv = _with(_argv(chain, cli_dataset, subcommand), flag, bad)
    assert main(argv) == 4
    assert str(bad) in capsys.readouterr().err


def test_corrupt_deflate_stream_exits_4(chain, cli_dataset, tmp_path, capsys):
    """Byte 10 of a gzip member without a file name is the first byte of its
    deflate stream; 0xff there is an invalid block type, which zlib raises
    as zlib.error, not as an OSError."""
    content = bytearray((chain / "diagnoses_icd.csv.gz").read_bytes())
    content[10] = 0xFF
    bad = tmp_path / "diagnoses_icd.csv.gz"
    bad.write_bytes(content)
    argv = _with(_argv(chain, cli_dataset, "labels"), "--diagnoses", bad)
    assert main(argv) == 4
    assert str(bad) in capsys.readouterr().err


# Each .gz and .npz input of the chain: the subcommand that reads it, its
# flag, and the file the subcommand writes.
COMPRESSED_AND_ARCHIVED_INPUTS = [
    ("labels", "--diagnoses", "diagnoses_icd.csv.gz", "l.npz"),
    ("preprocess", "--chartevents", "chartevents.json.gz", "tensors.npz"),
    ("split", "--labels", "labels.npz", "split.json"),
    ("eval", "--probs", "probs.npz", "r.json"),
    ("predict", "--tensors", "tensors.npz", "p.npz"),
    ("predict", "--model", "model.npz", "p.npz"),
    ("score-notes", "--params", "scorer.npz", "s.npz"),
    ("aggregate", "--scores", "scores.npz", "a.npz"),
]


@pytest.mark.parametrize("subcommand,flag,artifact,written",
                         COMPRESSED_AND_ARCHIVED_INPUTS)
def test_flipped_bit_exits_4_or_changes_nothing(chain, cli_dataset, capsys,
                                                subcommand, flag, artifact,
                                                written):
    """20 seeded single-bit flips of the input: each run exits 4, or exits
    0 with the bytes of the unflipped run (the flip hit a header field that
    nothing reads). None exits 1."""
    argv = _with(_argv(chain, cli_dataset, subcommand), flag, chain / artifact)
    out = chain / "faulty" / written
    assert main(argv) == 0
    expected = out.read_bytes()
    content = (chain / artifact).read_bytes()
    flipped = chain / "faulty" / f"flipped-{artifact}"
    for bit in np.random.default_rng(13).choice(8 * len(content), 20,
                                                replace=False):
        spoiled = bytearray(content)
        spoiled[bit // 8] ^= 1 << (bit % 8)
        flipped.write_bytes(spoiled)
        out.unlink(missing_ok=True)
        code = main(_with(argv, flag, flipped))
        assert code in (0, 4), (bit, capsys.readouterr().err)
        assert code == 4 or out.read_bytes() == expected, bit


# Ways to spoil split.json's {admission: partition}: each gives the bad
# mapping and the first admission whose value is not a partition.
SPLIT_SPOILERS = {
    "test-misspelled": lambda split: (
        {adm: "tset" if tag == "test" else tag for adm, tag in split.items()},
        next(adm for adm, tag in split.items() if tag == "test")),
    "one-mistyped": lambda split: (
        {**split, next(iter(split)): "trian"}, next(iter(split))),
    "lists": lambda split: (
        {adm: [tag] for adm, tag in split.items()}, next(iter(split))),
}


@pytest.mark.parametrize("spoiler", SPLIT_SPOILERS)
@pytest.mark.parametrize("subcommand", ["eval", "train", "preprocess"])
def test_split_value_not_a_partition_exits_4(chain, cli_dataset, tmp_path,
                                              capsys, subcommand, spoiler):
    split = json.loads((chain / "split.json").read_text())
    spoiled, first = SPLIT_SPOILERS[spoiler](split)
    bad = tmp_path / "split.json"
    bad.write_text(json.dumps(spoiled))
    argv = _argv(chain, cli_dataset, subcommand)
    if subcommand == "train":
        argv = _with(argv, "--split", bad)
    else:
        argv = [str(a) for a in argv] + ["--split", str(bad)]
        if subcommand == "eval":
            argv += ["--partition", "test"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert str(bad) in err and repr(first) in err


def test_preprocess_checks_its_out_dir_before_reading_input(
        chain, cli_dataset, tmp_path, capsys):
    blocked = tmp_path / "file"
    blocked.write_text("not a directory\n")
    argv = _with(_argv(chain, cli_dataset, "preprocess"), "--out", blocked)
    argv = _with(argv, "--chartevents", tmp_path / "missing.csv")
    assert main(argv) == 4
    assert str(blocked) in capsys.readouterr().err


@pytest.mark.parametrize("subcommand,flag", [
    ("preprocess", "--chartevents"),
    ("preprocess", "--admissions"),
    ("notes-prep", "--notes"),
    ("labels", "--diagnoses"),
])
def test_missing_csv_exits_4(chain, cli_dataset, tmp_path, subcommand, flag):
    argv = _with(_argv(chain, cli_dataset, subcommand), flag,
                 tmp_path / "missing.csv")
    assert main(argv) == 4


# Ways to spoil a valid input CSV: each maps its text to the bad text.
SPOILERS = {
    "no-columns": lambda text: "row_id,subject_id\n1,2\n",
    "2-field-row": lambda text: text + "1,2\n",
    "3-field-row": lambda text: text + "1,2,3\n",
    "cut-mid-row": lambda text: text[:text.rindex(",")],
    # every synthetic note spans lines, so it is quoted
    "cut-in-quotes": lambda text: text[:text.rindex(" ")],
    "long-note": lambda text: (text + "1,1,1,,,,Nursing,Report,,0,"
                               + "word " * 28_000 + "\n"),
}


@pytest.mark.parametrize("subcommand,flag,table,spoiler", [
    ("labels", "--admissions", "admissions", "no-columns"),
    ("labels", "--admissions", "admissions", "3-field-row"),
    ("labels", "--diagnoses", "diagnoses_icd", "no-columns"),
    ("labels", "--diagnoses", "diagnoses_icd", "2-field-row"),
    ("preprocess", "--chartevents", "chartevents", "no-columns"),
    ("preprocess", "--chartevents", "chartevents", "3-field-row"),
    ("preprocess", "--admissions", "admissions", "3-field-row"),
    ("preprocess", "--admissions", "admissions", "cut-mid-row"),
    ("notes-prep", "--admissions", "admissions", "3-field-row"),
    ("notes-prep", "--notes", "noteevents", "cut-in-quotes"),
    ("transform", "transform", "noteevents", "cut-in-quotes"),
    ("notes-prep", "--notes", "noteevents", "long-note"),
])
def test_malformed_csv_exits_4(chain, cli_dataset, tmp_path, subcommand,
                               flag, table, spoiler):
    text = (cli_dataset / f"{table}.csv").read_text(encoding="utf-8")
    bad = tmp_path / f"{table}.csv"
    bad.write_text(SPOILERS[spoiler](text), encoding="utf-8")
    argv = _with(_argv(chain, cli_dataset, subcommand), flag, bad)
    assert main(argv) == 4


@pytest.mark.parametrize("table", ["admissions", "noteevents"])
def test_wrong_kind_collection_exits_4(chain, cli_dataset, tmp_path, capsys,
                                       table):
    collection = tmp_path / f"{table}.json.gz"
    assert main(["transform", "--table", table,
                 str(cli_dataset / f"{table}.csv"), str(collection)]) == 0
    capsys.readouterr()
    argv = _with(_argv(chain, cli_dataset, "preprocess"), "--chartevents",
                 collection)
    assert main(argv) == 4
    assert f"{collection}: record 0 lacks" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "{}", "[1]", '[{"id": 1}]', '[{"resource_type": ["observation"]}]',
    '[{"resource_type": {"observation": 1}}]',
])
def test_malformed_collection_exits_4(chain, cli_dataset, tmp_path, text):
    bad = tmp_path / "chartevents.json"
    bad.write_text(text)
    argv = _with(_argv(chain, cli_dataset, "preprocess"), "--chartevents",
                 bad)
    assert main(argv) == 4


@pytest.fixture
def chart_collection(cli_dataset, tmp_path, monkeypatch, capsys):
    """The chartevents collection in the writer's layout, read in blocks of
    about 2 KiB, some ten records each."""
    from ehrpipe import tables

    monkeypatch.setattr(tables, "_JSON_BLOCK_CHARS", 2048)
    collection = tmp_path / "chartevents.json"
    assert main(["transform", "--table", "chartevents",
                 str(cli_dataset / "chartevents.csv"), str(collection)]) == 0
    capsys.readouterr()
    return collection


@pytest.mark.parametrize("spoil,message", [
    (lambda r: r.pop("encounter"), "lacks ['encounter']"),
    (lambda r: r.update(code=[1]), "attribute 'code' is nested"),
    (lambda r: r.update(resource_type="foo"), "has resource_type 'foo'"),
])
def test_bad_record_in_a_later_block_names_its_index(
        chain, cli_dataset, chart_collection, capsys, spoil, message):
    lines = chart_collection.read_text(encoding="utf-8").split("\n")
    index = 57  # line 0 is "["
    record = json.loads(lines[index + 1].strip().rstrip(","))
    spoil(record)
    lines[index + 1] = " " + json.dumps(record) + ","
    chart_collection.write_text("\n".join(lines), encoding="utf-8")
    argv = _with(_argv(chain, cli_dataset, "preprocess"), "--chartevents",
                 chart_collection)
    assert main(argv) == 4
    assert f"{chart_collection}: record {index} {message}" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
def test_collection_cut_mid_block_exits_4(chain, cli_dataset, chart_collection,
                                          tmp_path, packed):
    text = chart_collection.read_bytes()
    if packed:
        bad = tmp_path / "cut.json.gz"
        full = gzip.compress(text)
        bad.write_bytes(full[:len(full) // 2])
    else:
        bad = tmp_path / "cut.json"
        bad.write_bytes(text[:len(text) // 2])
    argv = _with(_argv(chain, cli_dataset, "preprocess"), "--chartevents",
                 bad)
    assert main(argv) == 4


def test_csv_and_collection_give_the_same_tensors(chain, cli_dataset,
                                                  chart_collection, tmp_path):
    argv = _argv(chain, cli_dataset, "preprocess") + [
        "--split", chain / "split.json"]
    for source, out in ((cli_dataset / "chartevents.csv", "csv"),
                        (chart_collection, "collection")):
        assert main(_with(_with(argv, "--chartevents", source),
                          "--out", tmp_path / out)) == 0
    for name in ("tensors.npz", "chart_stats.json"):
        assert (tmp_path / "collection" / name).read_bytes() == (
            tmp_path / "csv" / name).read_bytes(), name


def test_aggregate_of_empty_scores_exits_4(tmp_path):
    from ehrpipe.notes import save_score_matrices

    save_score_matrices(tmp_path / "empty.npz", [])
    assert main([
        "aggregate", "--scores", str(tmp_path / "empty.npz"),
        "--out", str(tmp_path / "agg.npz"),
    ]) == 4


def test_chunk_scores_of_one_array_per_admission_exit_4(tmp_path, capsys):
    old = tmp_path / "scores.npz"
    np.savez(old, adm_1=np.full((2, 3), 0.5), adm_2=np.full((1, 3), 0.5))
    assert main(["aggregate", "--scores", str(old),
                 "--out", str(tmp_path / "agg.npz")]) == 4
    assert str(old) in capsys.readouterr().err


# A scorer this wide used to wrap _hash_rows' int64 keys and exit 1.
@pytest.mark.parametrize("feature_dim,code", [
    (2 ** 32, 0), (2 ** 32 + 1, 4), (2 ** 62, 4),
])
def test_scorer_feature_dim_above_2_to_the_32_exits_4(tmp_path, capsys,
                                                      feature_dim, code):
    from ehrpipe.notes import LinearClassifierParams, save_scorer

    chunks = tmp_path / "chunks.json"
    chunks.write_text(json.dumps({"1": [["[CLS]", "a"], ["[CLS]", "b"]],
                                  "2": [["[CLS]", "c"], ["[CLS]", "d"]]}))
    scorer = save_scorer(tmp_path / "scorer.npz", LinearClassifierParams(
        slots=np.array([5]), weights=np.ones((1, 1)), bias=np.zeros(1),
        feature_dim=feature_dim))
    assert main(["score-notes", "--chunks", str(chunks),
                 "--params", str(scorer),
                 "--out", str(tmp_path / "s.npz")]) == code
    assert (str(scorer) in capsys.readouterr().err) == bool(code)


def test_train_without_labelled_tensors_exits_4(chain, tmp_path):
    from ehrpipe.labels import LabelMatrix, save_labels

    vectors = LabelMatrix(np.array([f"other{i}" for i in range(3)]),
                          np.array([[True, False]] * 3), np.array([1, 2]))
    save_labels(tmp_path / "labels.npz", vectors)
    assert main([
        "train", "--tensors", str(chain / "tensors.npz"),
        "--labels", str(tmp_path / "labels.npz"),
        "--split", str(chain / "split.json"),
        "--out", str(tmp_path / "model.npz"), "--hidden", "4",
    ]) == 4


def test_predict_with_another_catalog_exits_4(chain, tmp_path, capsys):
    from ehrpipe.chart import load_tensors, save_tensors

    tensors, catalog = load_tensors(chain / "tensors.npz")
    renamed = save_tensors(tmp_path / "renamed.npz", tensors,
                           [f"9{type_id}" for type_id in catalog])
    assert main([
        "predict", "--model", str(chain / "model.npz"),
        "--tensors", str(renamed), "--out", str(tmp_path / "probs.npz"),
    ]) == 4
    assert "checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "probs.npz").exists()


def _peak_mib(argv: list, stderr: Path) -> tuple[int, float]:
    """The exit code of ehrpipe argv run in a child process, and that
    process's own peak RSS in MiB; its stderr goes to the file stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    with open(stderr, "w", encoding="utf-8") as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "ehrpipe.cli", *map(str, argv)], env=env,
            stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss / 1024


def test_oversized_checkpoint_config_exits_4_without_its_memory(chain,
                                                                tmp_path):
    """A stored config of 10^6 types asks for a (4, 8 * 10^6) first dense
    layer, 244 MiB of weights and as much of gradients. Nothing touches
    either before the stored shapes are compared, so predict exits 4 at
    about the peak it has with the real checkpoint."""
    with np.load(chain / "model.npz") as data:
        arrays = dict(data)
    arrays["meta"] = _stored_config(arrays["meta"], n_types=10 ** 6)
    bad = tmp_path / "model.npz"
    np.savez(bad, **arrays)
    argv = ["predict", "--tensors", chain / "tensors.npz",
            "--out", tmp_path / "probs.npz"]
    code, real = _peak_mib(argv + ["--model", chain / "model.npz"],
                           tmp_path / "real.err")
    assert code == 0
    code, oversized = _peak_mib(argv + ["--model", bad], tmp_path / "bad.err")
    assert code == 4
    assert str(bad) in (tmp_path / "bad.err").read_text(encoding="utf-8")
    assert oversized < real + 64, (oversized, real)


@pytest.mark.parametrize("subcommand", ["preprocess", "synth"])
@pytest.mark.parametrize("where", ["file", "file/sub"])
def test_out_dir_blocked_by_a_file_exits_4(chain, cli_dataset, tmp_path,
                                           subcommand, where):
    (tmp_path / "file").write_text("not a directory\n")
    argv = (_argv(chain, cli_dataset, "preprocess")
            if subcommand == "preprocess" else ["synth", "--out", "x"])
    assert main(_with(argv, "--out", tmp_path / where)) == 4


def test_train_checks_both_output_dirs_before_reading(chain, tmp_path,
                                                      capsys):
    """A --log under a missing directory fails before the tensors are
    read, so no checkpoint is left behind."""
    out, log = tmp_path / "out", tmp_path / "missing" / "m.log.json"
    out.mkdir()
    argv = ["train", "--tensors", tmp_path / "absent.npz",
            "--labels", chain / "labels.npz", "--split", chain / "split.json",
            "--out", out / "m.npz", "--log", log, "--hidden", "4",
            "--epochs", "1"]
    assert main([str(a) for a in argv]) == 4
    assert f"cannot write {log}: no directory" in capsys.readouterr().err
    assert main(_with(argv, "--tensors", chain / "tensors.npz")) == 4
    assert list(out.iterdir()) == []


def test_score_notes_checks_every_output_dir_before_fitting(chain, tmp_path,
                                                            capsys):
    """An --out under a missing directory fails before the chunks are read,
    so no scorer is fitted and none is left behind."""
    fitted, scores = tmp_path / "fitted", tmp_path / "missing" / "s.npz"
    fitted.mkdir()
    argv = ["score-notes", "--chunks", tmp_path / "absent.json",
            "--labels", chain / "labels.npz", "--split", chain / "split.json",
            "--feature-dim", "256", "--epochs", "1", "--out", scores,
            "--fit-out", fitted / "scorer.npz"]
    assert main([str(a) for a in argv]) == 4
    assert f"cannot write {scores}: no directory" in capsys.readouterr().err
    assert main(_with(argv, "--chunks", chain / "chunks.json")) == 4
    assert list(fitted.iterdir()) == []


def test_attention_input_without_values_exits_4(tmp_path):
    src = tmp_path / "qk.json"
    src.write_text(json.dumps({"queries": [[1.0]], "keys": [[1.0]]}))
    assert main(["attention", "--input", str(src),
                 "--out-json", str(tmp_path / "w.json")]) == 4


def test_load_stats_without_keys_raises_io_failure(tmp_path):
    from chart_reference import load_stats
    from ehrpipe.errors import DataError

    path = tmp_path / "chart_stats.json"
    path.write_text(json.dumps({"type_ids": ["1"], "mean": [0.0]}))
    with pytest.raises(DataError,
                       match="chart_stats.json: KeyError: 'stddev'"):
        load_stats(path)


def test_transform_failing_midway_leaves_no_output(tmp_path):
    src = tmp_path / "patients.csv"
    header = ("row_id,subject_id,gender,dob,dod,dod_hosp,dod_ssn,"
              "expire_flag\n")
    good = "1,1,F,2100-01-01 00:00:00,,,,0\n"
    src.write_text(header + good * 50 + "2,2,M\n" + good)
    out = tmp_path / "out" / "patients.json.gz"
    out.parent.mkdir()
    assert main(["transform", "--table", "patients", str(src),
                 str(out)]) == 4
    assert list(out.parent.iterdir()) == []


def _shuffled_csv(src: Path, dst: Path, seed: int) -> None:
    import csv

    with open(src, newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    np.random.default_rng(seed).shuffle(rows)
    with open(dst, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header, *rows])


def test_event_row_order_does_not_change_artifacts(chain, cli_dataset,
                                                   tmp_path):
    data, d = cli_dataset, tmp_path
    for table, seed in (("chartevents", 1), ("noteevents", 2)):
        _shuffled_csv(data / f"{table}.csv", d / f"{table}.csv", seed)
        assert (d / f"{table}.csv").read_bytes() != (
            data / f"{table}.csv").read_bytes()
    steps = [
        ["preprocess", "--chartevents", d / "chartevents.csv",
         "--admissions", data / "admissions.csv", "--out", d,
         "--split", chain / "split.json"],
        ["notes-prep", "--notes", d / "noteevents.csv",
         "--admissions", data / "admissions.csv", "--max-len", "64",
         "--out", d / "chunks.json"],
        ["score-notes", "--chunks", d / "chunks.json",
         "--labels", chain / "labels.npz", "--split", chain / "split.json",
         "--feature-dim", "256", "--epochs", "1", "--out", d / "scores.npz",
         "--fit-out", d / "scorer.npz"],
    ]
    for argv in steps:
        assert main([str(a) for a in argv]) == 0, argv[0]
    for name in ("tensors.npz", "chart_stats.json", "chunks.json",
                 "scorer.npz", "scores.npz"):
        assert (d / name).read_bytes() == (chain / name).read_bytes(), name


def test_note_row_order_does_not_change_chunks(tmp_path):
    """Notes of one admission stamped at the same time are joined in row_id
    order, numbers by value, so no subset's chunks.json depends on the
    order of the notes CSV."""
    from conftest import write_csv
    from ehrpipe.tables import TABLE_COLUMNS, TableKind

    header = list(TABLE_COLUMNS[TableKind.NOTEEVENTS])
    rows = []
    for row_id, hadm_id, category, charttime, text in (
            ("12", "2", "Nursing", "2130-01-01 00:00:00", "early"),
            ("4", "2", "Nursing", "2130-01-01 00:00:00", "first"),
            ("9", "1", "Nursing", "2130-01-01 10:00:00", "nine"),
            ("10", "1", "Radiology", "2130-01-01 10:00:00", "ten"),
            ("100", "1", "Nursing", "2130-01-01 10:00:00", "hundred"),
            ("13", "1", "Nursing", "2130-01-03 10:00:00", "third day"),
            ("3", "2", "Discharge summary", "2130-01-05 00:00:00", "b"),
            ("2", "2", "Discharge summary", "2130-01-05 00:00:00", "a")):
        cells = dict.fromkeys(header, "")
        cells.update(row_id=row_id, subject_id="1", hadm_id=hadm_id,
                     category=category, charttime=charttime, text=text)
        rows.append([cells[col] for col in header])
    admissions = write_csv(
        tmp_path / "admissions.csv", ["hadm_id", "admittime", "dischtime"],
        [[adm, "2130-01-01 00:00:00", "2130-01-06 00:00:00"]
         for adm in "12"])

    def chunks(name, order):
        notes = write_csv(tmp_path / f"{name}.csv", header, order)
        out = {}
        for subset in ("disch", "days3", "days2"):
            path = tmp_path / f"{name}-{subset}.json"
            assert main(["notes-prep", "--notes", str(notes),
                         "--admissions", str(admissions), "--subset", subset,
                         "--out", str(path)]) == 0
            out[subset] = path.read_bytes()
        return out

    given = chunks("given", rows)
    assert {subset: json.loads(text) for subset, text in given.items()} == {
        "disch": {"2": [["[CLS]", "a", "b"]]},
        "days3": {"1": [["[CLS]", "nine", "ten", "hundred", "third", "day"]],
                  "2": [["[CLS]", "first", "early"]]},
        "days2": {"1": [["[CLS]", "nine", "ten", "hundred"]],
                  "2": [["[CLS]", "first", "early"]]},
    }
    assert chunks("reversed", rows[::-1]) == given
    for seed in range(3):
        order = list(rows)
        np.random.default_rng(seed).shuffle(order)
        assert chunks(f"shuffled{seed}", order) == given


def test_note_without_an_admission_id_is_dropped(cli_dataset, tmp_path):
    """MIMIC-III's NOTEEVENTS allows a null HADM_ID: such a note changes no
    subset's chunks.json."""
    from conftest import write_csv
    from ehrpipe.tables import TABLE_COLUMNS, TableKind

    header = list(TABLE_COLUMNS[TableKind.NOTEEVENTS])
    given = cli_dataset / "noteevents.csv"
    with open(given, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    extra = []
    for row_id, hadm_id, category in (("900001", "", "Nursing"),
                                      ("900002", " ", "Discharge summary")):
        cells = dict(zip(header, rows[0]))
        cells.update(row_id=row_id, hadm_id=hadm_id, category=category,
                     text="unlinked note text")
        extra.append([cells[col] for col in header])
    appended = write_csv(tmp_path / "appended.csv", header, rows + extra)
    for subset in ("disch", "days3", "days2"):
        chunks = []
        for notes in (given, appended):
            out = tmp_path / f"{notes.stem}-{subset}.json"
            assert main(["notes-prep", "--notes", str(notes),
                         "--admissions", str(cli_dataset / "admissions.csv"),
                         "--subset", subset, "--out", str(out)]) == 0
            chunks.append(out.read_bytes())
        assert chunks[0] == chunks[1], subset


def _preprocess_rows(out: Path, itemids_and_values) -> int:
    """preprocess over one admission and one chartevents row per
    (itemid, value), written in the given order."""
    from conftest import write_csv
    from ehrpipe.tables import TABLE_COLUMNS, TableKind

    header = list(TABLE_COLUMNS[TableKind.CHARTEVENTS])
    rows = []
    for itemid, value in itemids_and_values:
        cells = dict.fromkeys(header, "")
        cells.update(row_id="1", subject_id="1", hadm_id="1", itemid=itemid,
                     charttime="2130-01-10 00:00:00", valuenum=str(value))
        rows.append([cells[col] for col in header])
    out.mkdir()
    write_csv(out / "chartevents.csv", header, rows)
    write_csv(out / "admissions.csv", ["hadm_id", "admittime", "dischtime"],
              [["1", "2130-01-01 00:00:00", "2130-01-10 12:00:00"]])
    return main(["preprocess", "--chartevents", str(out / "chartevents.csv"),
                 "--admissions", str(out / "admissions.csv"),
                 "--out", str(out)])


def test_item_ids_of_one_value_keep_one_catalog_order(tmp_path):
    rows = [("07", 1.0), ("7", 2.0)]
    assert _preprocess_rows(tmp_path / "forward", rows) == 0
    assert _preprocess_rows(tmp_path / "reversed", rows[::-1]) == 0
    assert (tmp_path / "forward" / "tensors.npz").read_bytes() == (
        tmp_path / "reversed" / "tensors.npz").read_bytes()


def test_non_decimal_digit_item_id_is_a_type(tmp_path):
    assert _preprocess_rows(tmp_path / "run", [("²", 1.0)]) == 0


# --- config, usage and manifests ---------------------------------------------

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("text", [
    "[chart_model]\nhiden_size = 8\n",
    "[chart_modle]\nhidden_size = 8\n",
])
def test_unknown_config_key_or_section_exits_3(tmp_path, text):
    bad = tmp_path / "typo.ini"
    bad.write_text(text)
    assert main(["pipeline", "--config", str(bad)]) == 3


# Each of these used to crash (exit 1), train nothing (exit 0) or fault on
# NaN weights (exit 5).
BAD_SCORER_SETTINGS = [("batch_size", "0"), ("batch_size", "-1"),
                       ("feature_dim", "0"), ("feature_dim", "4294967297"),
                       ("epochs", "-1"), ("lr", "0"), ("lr", "nan"),
                       ("lr", "inf")]


@pytest.mark.parametrize("key,value", BAD_SCORER_SETTINGS)
def test_bad_scorer_flag_exits_3(chain, tmp_path, key, value):
    out = tmp_path / "s.npz"
    argv = ["score-notes", "--chunks", chain / "chunks.json",
            "--labels", chain / "labels.npz", "--split", chain / "split.json",
            "--feature-dim", "256", "--epochs", "1", "--out", out,
            "--" + key.replace("_", "-"), value]
    assert main([str(a) for a in argv]) == 3
    assert not out.exists()


def _demo_ini_with(tmp_path, section: str, key: str, value: str) -> Path:
    import configparser

    parser = configparser.ConfigParser()
    parser.read(REPO / "demo.ini", encoding="utf-8")
    parser[section][key] = value
    bad = tmp_path / f"{section}.ini"
    with open(bad, "w", encoding="utf-8") as handle:
        parser.write(handle)
    return bad


@pytest.mark.parametrize("key,value", BAD_SCORER_SETTINGS)
def test_bad_scorer_config_exits_3_before_the_first_stage(tmp_path, key,
                                                          value):
    bad = _demo_ini_with(tmp_path, "notes", key, value)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(bad),
                 "--output-dir", str(out)]) == 3
    assert not out.exists()


# Each of these used to write files before exiting 3, 4 or 5, or ran to the
# end (exit 0) with NaN probabilities or a meaningless metric.
BAD_SETTINGS = [
    ("chart_model", "lr", "nan"), ("chart_model", "lr", "0"),
    ("chart_model", "batch_size", "0"), ("chart_model", "dropout", "nan"),
    ("notes", "aggregation_c", "nan"), ("notes", "aggregation_c", "0"),
    ("chart", "numeric_fraction", "nan"), ("chart", "numeric_fraction", "1.5"),
    ("metrics", "recall_target", "nan"), ("metrics", "recall_target", "-0.1"),
    ("synth", "signal_strength", "nan"), ("split", "train", "nan"),
    ("notes", "subset", "foo"), ("notes", "max_len", "1"),
    ("synth", "signal_strength", "inf"), ("chart_model", "lr", "inf"),
]


@pytest.mark.parametrize("section,key,value", BAD_SETTINGS)
def test_bad_config_exits_3_before_the_first_stage(tmp_path, section, key,
                                                   value):
    bad = _demo_ini_with(tmp_path, section, key, value)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(bad),
                 "--output-dir", str(out)]) == 3
    assert not out.exists()


def test_run_pipeline_checks_its_config_first(tmp_path):
    from dataclasses import replace

    from ehrpipe.errors import ConfigError
    from ehrpipe.pipeline import run_pipeline
    from ehrpipe.runcfg import load_config

    config = load_config(REPO / "demo.ini")
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="lr must be positive and finite"):
        run_pipeline(replace(
            config, output_dir=out,
            chart_model=replace(config.chart_model, lr=float("nan"))))
    assert not out.exists()


@pytest.mark.parametrize("subcommand,flag,value", [
    ("aggregate", "--scale-c", "nan"), ("aggregate", "--scale-c", "0"),
    ("preprocess", "--numeric-fraction", "nan"),
    ("preprocess", "--numeric-fraction", "1.5"),
    ("eval", "--target", "nan"), ("eval", "--target", "2"),
    ("train", "--lr", "nan"),
])
def test_bad_flag_exits_3(chain, cli_dataset, tmp_path, subcommand, flag,
                          value):
    argv = [str(a) for a in _argv(chain, cli_dataset, subcommand)]
    out = tmp_path / "out"
    argv[argv.index("--out") + 1] = str(out)
    assert main(argv + [flag, value]) == 3
    assert not out.exists()


def test_readme_config_listing_matches_demo_ini(tmp_path):
    from ehrpipe.runcfg import load_config

    readme = (REPO / "README.md").read_text(encoding="utf-8")
    listing = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert " ; " in listing  # the listing carries inline comments
    copy = tmp_path / "readme.ini"
    copy.write_text(listing, encoding="utf-8")
    assert load_config(copy) == load_config(REPO / "demo.ini")


@pytest.mark.parametrize("flag", ["--partition", "--split"])
def test_eval_split_and_partition_go_together(chain, tmp_path, flag):
    value = "test" if flag == "--partition" else str(chain / "split.json")
    with pytest.raises(SystemExit) as err:
        main([
            "eval", "--probs", str(chain / "probs.npz"),
            "--labels", str(chain / "labels.npz"),
            "--out", str(tmp_path / "report.json"), flag, value,
        ])
    assert err.value.code == 2


def test_eval_names_the_precision_its_recall_was_taken_at(chain, tmp_path,
                                                         capsys):
    out = tmp_path / "report.json"
    assert main([
        "eval", "--probs", str(chain / "probs.npz"),
        "--labels", str(chain / "labels.npz"), "--out", str(out),
        "--target", "0.6",
    ]) == 0
    report = json.loads(out.read_text())
    recall = report["micro"]["recall_at_prec60"]
    assert "recall_at_prec80" not in report["micro"]
    assert all("recall_at_prec60" in figures
               for figures in report["per_category"].values())
    assert f"Recall@Prec60 {recall:.4f}  " in capsys.readouterr().out


def test_manifest_records_the_npz_path_written(chain, tmp_path):
    assert main([
        "predict", "--model", str(chain / "model.npz"),
        "--tensors", str(chain / "tensors.npz"),
        "--out", str(tmp_path / "probs"),
    ]) == 0
    manifest = json.loads(
        (tmp_path / "run_manifest_predict.json").read_text()
    )
    assert manifest["outputs"]["probs"] == str(tmp_path / "probs.npz")
    assert (tmp_path / "probs.npz").exists()


def _manifest_case(case: str, chain, data, src, out):
    """The subcommand of case, the {dest: path} of the input flags it gives
    and its other arguments, which write into out."""
    return {
        "transform": ("transform", {"input": data / "admissions.csv"},
                      ["--table", "admissions", out / "admissions.json"]),
        "synth": ("synth", {}, ["--out", out, "--patients", "4",
                                "--admissions", "6", "--types", "8",
                                "--categories", "6"]),
        "preprocess": ("preprocess", {
            "chartevents": data / "chartevents.csv",
            "admissions": data / "admissions.csv",
            "split": chain / "split.json"}, ["--out", out]),
        "labels": ("labels", {
            "diagnoses": data / "diagnoses_icd.csv",
            "crosswalk": data / "ccs_crosswalk.csv",
            "admissions": data / "admissions.csv"},
            ["--out", out / "labels.npz"]),
        "split": ("split", {"labels": chain / "labels.npz"},
                  ["--out", out / "split.json"]),
        "train": ("train", {"tensors": chain / "tensors.npz",
                            "labels": chain / "labels.npz",
                            "split": chain / "split.json"},
                  ["--out", out / "model.npz", "--hidden", "4",
                   "--epochs", "1"]),
        "predict": ("predict", {"model": chain / "model.npz",
                                "tensors": chain / "tensors.npz"},
                    ["--out", out / "probs.npz"]),
        "notes-prep": ("notes-prep", {"notes": data / "noteevents.csv",
                                      "admissions": data / "admissions.csv"},
                       ["--out", out / "chunks.json"]),
        "score-notes-params": ("score-notes", {
            "chunks": chain / "chunks.json", "params": chain / "scorer.npz"},
            ["--out", out / "scores.npz"]),
        "score-notes-fit": ("score-notes", {
            "chunks": chain / "chunks.json", "labels": chain / "labels.npz",
            "split": chain / "split.json"},
            ["--out", out / "scores.npz", "--feature-dim", "256",
             "--epochs", "1"]),
        "aggregate": ("aggregate", {"scores": chain / "scores.npz"},
                      ["--out", out / "probs.npz"]),
        "eval": ("eval", {"probs": chain / "probs.npz",
                          "labels": chain / "labels.npz",
                          "split": chain / "split.json"},
                 ["--partition", "test", "--out", out / "report.json"]),
        "attention": ("attention", {"input": src},
                      ["--out-csv", out / "alignment.csv",
                       "--out-json", out / "weights.json"]),
    }[case]


@pytest.mark.parametrize("case", [
    "transform", "synth", "preprocess", "labels", "split", "train",
    "predict", "notes-prep", "score-notes-params", "score-notes-fit",
    "aggregate", "eval", "attention",
])
def test_manifest_lists_every_file_read_and_written(chain, cli_dataset,
                                                    tmp_path, case):
    src = tmp_path / "qkv.json"
    src.write_text(json.dumps({"queries": [[1.0]], "keys": [[1.0], [0.0]],
                               "values": [[1.0], [0.0]]}))
    out = tmp_path / "out"
    out.mkdir()
    subcommand, inputs, rest = _manifest_case(case, chain, cli_dataset, src,
                                              out)
    argv = [subcommand]
    for dest, path in inputs.items():
        # transform takes its input as a positional argument
        argv += [path] if subcommand == "transform" else [f"--{dest}", path]
    before = set(out.rglob("*"))
    assert main([str(a) for a in argv + rest]) == 0
    written = set(out.rglob("*")) - before
    manifest_path = out / f"run_manifest_{subcommand}.json"
    manifest = json.loads(manifest_path.read_text())
    assert {Path(p) for p in manifest["outputs"].values()} == (
        written - {manifest_path})
    assert manifest["inputs"] == {k: str(v) for k, v in inputs.items()}


@pytest.mark.parametrize("flags", [
    ("--params", "scorer.npz", "--labels", "labels.npz"),
    ("--params", "scorer.npz", "--fit-out", "fit.npz"),
    ("--labels", "labels.npz"),
], ids=["params-and-labels", "params-and-fit-out", "labels-alone"])
def test_score_notes_takes_one_mode_or_the_other(chain, tmp_path, flags):
    out = tmp_path / "scores.npz"
    argv = ["score-notes", "--chunks", str(chain / "chunks.json"),
            "--out", str(out)]
    argv += [flag if flag.startswith("--") else str(chain / flag)
             for flag in flags]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert not any(tmp_path.iterdir())


def test_score_notes_manifest_goes_beside_its_scores(chain, tmp_path):
    scores, fit = tmp_path / "scores", tmp_path / "fit"
    scores.mkdir()
    fit.mkdir()
    assert main([
        "score-notes", "--chunks", str(chain / "chunks.json"),
        "--labels", str(chain / "labels.npz"),
        "--split", str(chain / "split.json"), "--feature-dim", "256",
        "--epochs", "1", "--fit-out", str(fit / "scorer.npz"),
        "--out", str(scores / "chunk_scores.npz"),
    ]) == 0
    assert (scores / "run_manifest_score-notes.json").exists()
    assert sorted(p.name for p in fit.iterdir()) == [
        "scorer.npz", "scorer.npz.log.json"]


def test_score_notes_fits_at_the_largest_feature_dim(chain, tmp_path):
    """Fitting draws only the trained columns, so 2^32 slots cost about
    what 256 do. The child's address space is capped at 4 GiB, so a draw as
    wide as the feature space (32 GiB a category) fails at once."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    limit = 4 << 30
    child = subprocess.run(
        [sys.executable, "-m", "ehrpipe.cli", "score-notes",
         "--chunks", str(chain / "chunks.json"),
         "--labels", str(chain / "labels.npz"),
         "--split", str(chain / "split.json"),
         "--feature-dim", str(2 ** 32), "--epochs", "1",
         "--fit-out", str(tmp_path / "scorer.npz"),
         "--out", str(tmp_path / "scores.npz")],
        env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert child.returncode == 0, child.stderr
    with np.load(tmp_path / "scorer.npz") as data:
        assert int(data["feature_dim"]) == 2 ** 32


def test_notes_prep_checks_max_len_before_reading(cli_dataset, tmp_path):
    notes = tmp_path / "noteevents.csv"
    with open(cli_dataset / "noteevents.csv", encoding="utf-8") as handle:
        notes.write_text(handle.readline(), encoding="utf-8")
    out = tmp_path / "chunks.json"
    assert main(["notes-prep", "--notes", str(notes),
                 "--admissions", str(cli_dataset / "admissions.csv"),
                 "--max-len", "1", "--out", str(out)]) == 3
    assert not out.exists()


def test_infinite_signal_exits_3_and_writes_nothing(tmp_path):
    # It used to write inf chart values, which readers drop, and a
    # manifest.json holding Infinity, which is not JSON.
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--signal", "inf",
                 "--patients", "5", "--admissions", "6",
                 "--positive-rate", "0.5"]) == 3
    assert not out.exists()


def test_overflowing_signal_exits_3_and_writes_nothing(tmp_path):
    # 1e308 is finite, but its planted mean shift, up to 15 times it, is
    # not: it used to write inf chart values and "mean_shift": Infinity.
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--signal", "1e308",
                 "--patients", "5", "--admissions", "6",
                 "--positive-rate", "0.5", "--types", "5",
                 "--categories", "3"]) == 3
    assert not out.exists()


# Every input named is missing, which would exit 4 once read.
@pytest.mark.parametrize("subcommand,inputs,setting", [
    ("train", ("--tensors", "--labels", "--split"), ["--lr", "nan"]),
    ("score-notes", ("--chunks", "--labels", "--split"),
     ["--batch-size", "0"]),
    ("score-notes", ("--chunks", "--params"), ["--feature-dim", "0"]),
    ("train", ("--tensors", "--labels", "--split"), ["--lr", "inf"]),
    ("score-notes", ("--chunks", "--labels", "--split"), ["--lr", "inf"]),
    ("split", ("--labels",), ["--ratios", "0.5", "0.5", "0.2"]),
], ids=["train", "score-notes-fit", "score-notes-params", "train-lr-inf",
        "score-notes-lr-inf", "split-ratios"])
def test_train_and_score_notes_check_settings_before_reading(
        tmp_path, subcommand, inputs, setting):
    out = tmp_path / "out.npz"
    argv = [subcommand, "--out", str(out), *setting]
    for flag in inputs:
        argv += [flag, str(tmp_path / f"missing{flag}")]
    assert main(argv) == 3
    assert not out.exists()


# Each subcommand's inputs, every flag of its config at a value that is
# neither the field's default nor any other flag's value, and the config
# those flags build.
CONFIG_FLAG_CASES = {
    "synth": (
        [],
        ["--seed", "7", "--patients", "11", "--admissions", "13",
         "--types", "17", "--categories", "19", "--positive-rate", "0.25",
         "--signal", "1.5", "--notes-min", "2", "--notes-max", "5",
         "--vocab", "23", "--planted", "4", "--events-min", "6",
         "--events-max", "9"],
        SynthConfig(seed=7, n_patients=11, n_admissions=13,
                    n_observation_types=17, n_ccs_categories=19,
                    positive_rate_target=0.25, signal_strength=1.5,
                    notes_min=2, notes_max=5, vocabulary_size=23,
                    n_planted=4, events_min=6, events_max=9),
    ),
    "train": (
        ["--tensors", "t.npz", "--labels", "l.npz", "--split", "s.json"],
        ["--variant", "rnn", "--hidden", "21", "--epochs", "2",
         "--batch-size", "5", "--lr", "0.125", "--dropout", "0.375",
         "--conv-filters", "3", "--rnn-hidden", "6", "--seed", "8"],
        ChartModelConfig(variant="rnn", hidden_size=21, epochs=2,
                         batch_size=5, lr=0.125, dropout=0.375,
                         conv_filters=3, rnn_hidden=6, seed=8),
    ),
    "score-notes": (
        ["--chunks", "c.json"],
        ["--feature-dim", "64", "--epochs", "4", "--batch-size", "9",
         "--lr", "0.5", "--seed", "10"],
        ScorerConfig(feature_dim=64, epochs=4, batch_size=9, lr=0.5,
                     seed=10),
    ),
}


@pytest.mark.parametrize("subcommand", list(CONFIG_FLAG_CASES))
def test_each_config_flag_sets_its_own_field(subcommand, tmp_path,
                                             monkeypatch):
    inputs, flags, expected = CONFIG_FLAG_CASES[subcommand]
    defaults = type(expected)()
    changed = [f.name for f in fields(expected)
               if getattr(expected, f.name) != getattr(defaults, f.name)]
    values = [getattr(expected, name) for name in changed]
    assert len(changed) == len(flags) // 2 and len(set(values)) == len(values)

    out = tmp_path / "out"
    built = []

    def fake_generate(config, _):
        built.append(config)
        return SimpleNamespace(tables=[], crosswalk_path=out,
                               manifest_path=out)

    def fake_stage(*args):  # the config is the stage's last argument
        built.append(args[-1])
        if subcommand == "score-notes":
            return {"scores": out}, None, 0
        return out, [0.5]

    monkeypatch.setattr(cli, "generate", fake_generate)
    monkeypatch.setattr(pipeline, "train", fake_stage)
    monkeypatch.setattr(pipeline, "score_notes", fake_stage)
    assert main([subcommand, *inputs, "--out", str(out), *flags]) == 0
    (config,) = built
    for f in fields(expected):
        assert getattr(config, f.name) == getattr(expected, f.name), f.name
