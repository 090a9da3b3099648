"""The three benchmark workloads: generated INI files and CLI invocations.

Each workload is a list of ehrpipe CLI invocations run back to back in fresh
processes (a closed loop with one client). The seed only enters the INI the
benchmark writes; the program sees nothing else of it.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

# demo.ini as shipped, every workload's base. A frozen copy, so that editing
# demo.ini does not change what the benchmark measures.
DEMO = {
    "run": {"seed": "11", "output_dir": "out"},
    "synth": {
        "n_patients": "60", "n_admissions": "150",
        "n_observation_types": "20", "n_ccs_categories": "10",
        "positive_rate_target": "0.08", "signal_strength": "3.0",
        "notes_min": "1", "notes_max": "3", "vocabulary_size": "120",
        "n_planted": "3", "events_min": "25", "events_max": "45",
    },
    "split": {"train": "0.8", "val": "0.1", "test": "0.1"},
    "chart": {"numeric_fraction": "0.9"},
    "chart_model": {
        "variant": "cnn", "hidden_size": "64", "epochs": "3",
        "batch_size": "32", "lr": "0.002", "dropout": "0.2",
        "conv_filters": "4", "rnn_hidden": "16",
    },
    "notes": {
        "subset": "days3", "max_len": "128", "aggregation_c": "2.0",
        "feature_dim": "4096", "epochs": "3", "batch_size": "32",
        "lr": "0.01",
    },
    "metrics": {"recall_target": "0.8"},
}

# ROADMAP reference scale: 10x demo.
ETL_10X = {"synth": {"n_patients": "600", "n_admissions": "1500"}}

# MIMIC-sized module defaults on a small cohort.
MODELS_MIMIC = {
    "synth": {"n_patients": "120", "n_admissions": "300",
              "n_observation_types": "450", "n_ccs_categories": "281"},
    "chart_model": {"variant": "rnn", "hidden_size": "512",
                    "rnn_hidden": "64", "conv_filters": "8"},
    "notes": {"feature_dim": "32768", "max_len": "512"},
}

PIPELINE_ARTIFACTS = (
    "labels.npz", "split.json", "tensors.npz", "chart_stats.json",
    "chart_model.npz", "chart_training_log.json", "chart_probs.npz",
    "chart_metrics.json", "chunks.json", "note_scorer.npz",
    "note_training_log.json", "chunk_scores.npz", "note_admission_probs.npz",
    "note_metrics.json", "run_manifest_pipeline.json",
    "fhir/admissions.json.gz", "fhir/patients.json.gz",
    "fhir/diagnoses_icd.json.gz", "fhir/chartevents.json.gz",
    "fhir/noteevents.json.gz",
)
REPORTS = ("chart_metrics.json", "note_metrics.json")
COLLECTIONS = tuple(a for a in PIPELINE_ARTIFACTS if a.startswith("fhir/"))


def make_ini(seed: int, overrides: dict) -> str:
    parser = configparser.ConfigParser()
    parser.read_dict(DEMO)
    parser.read_dict(overrides)
    parser["run"]["seed"] = str(seed)
    lines = []
    for section in parser.sections():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in parser[section].items())
        lines.append("")
    return "\n".join(lines)


@dataclass
class Invocation:
    """One CLI process: its argv after `ehrpipe` and what it must leave."""

    argv: list[str]
    outputs: list[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    overrides: dict
    admissions: int
    feature_dim: int
    # apply-days2 trains its models in set-up (one pipeline run) and times
    # the subcommands that apply them; the other two time the pipeline.
    needs_trained_run: bool = False

    def ini(self, seed: int) -> str:
        return make_ini(seed, self.overrides)

    def invocations(self, ini_path: Path, setup_dir: Path | None,
                    rep_dir: Path) -> list[Invocation]:
        """The timed part: the processes of one repetition, in order."""
        if not self.needs_trained_run:
            return [Invocation(
                ["pipeline", "--config", str(ini_path),
                 "--output-dir", str(rep_dir)],
                [str(rep_dir / a) for a in PIPELINE_ARTIFACTS],
            )]
        s, r = setup_dir, rep_dir
        adm = str(s / "data" / "admissions.csv")
        evaluate = ["--labels", str(s / "labels.npz"),
                    "--split", str(s / "split.json"), "--partition", "test"]
        return [
            Invocation(["preprocess",
                        "--chartevents", str(s / "fhir/chartevents.json.gz"),
                        "--admissions", adm, "--out", str(r / "chart"),
                        "--split", str(s / "split.json")],
                       [str(r / "chart/tensors.npz"),
                        str(r / "chart/chart_stats.json")]),
            Invocation(["predict", "--model", str(s / "chart_model.npz"),
                        "--tensors", str(r / "chart/tensors.npz"),
                        "--out", str(r / "chart_probs.npz")],
                       [str(r / "chart_probs.npz")]),
            Invocation(["eval", "--probs", str(r / "chart_probs.npz"),
                        "--out", str(r / "chart_metrics.json"), *evaluate],
                       [str(r / "chart_metrics.json")]),
            Invocation(["notes-prep", "--notes",
                        str(s / "data" / "noteevents.csv"),
                        "--admissions", adm, "--subset", "days2",
                        "--max-len", "128", "--out", str(r / "chunks.json")],
                       [str(r / "chunks.json")]),
            Invocation(["score-notes", "--chunks", str(r / "chunks.json"),
                        "--params", str(s / "note_scorer.npz"),
                        "--out", str(r / "chunk_scores.npz")],
                       [str(r / "chunk_scores.npz")]),
            Invocation(["aggregate", "--scores", str(r / "chunk_scores.npz"),
                        "--scale-c", "2.0",
                        "--out", str(r / "note_admission_probs.npz")],
                       [str(r / "note_admission_probs.npz")]),
            Invocation(["eval", "--probs",
                        str(r / "note_admission_probs.npz"),
                        "--out", str(r / "note_metrics.json"), *evaluate],
                       [str(r / "note_metrics.json")]),
        ]


# Why each workload exists is stated in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("etl-10x", ETL_10X, admissions=1500, feature_dim=4096),
        Workload("models-mimic", MODELS_MIMIC, admissions=300,
                 feature_dim=32768),
        Workload("apply-days2", ETL_10X, admissions=1500, feature_dim=4096,
                 needs_trained_run=True),
    )
}
