"""Command-line entry point.

Exit codes: 0 success, 2 usage error, 3 configuration error, 4 data/schema
error, 5 numeric fault, 1 anything unexpected. Every invocation writes a
run manifest (inputs, outputs, config hash, seed, BLAS threads) next to
its primary output. Subcommands never modify their input files. A stage's
handler maps its flags onto the stage's pipeline function, prints what that
returns and writes the manifest; the function reads and writes the
artifacts. The flags of a config dataclass are named once, in its
{field: flag} table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from . import chart, chart_model, fhir_etl
from . import notes as notes_mod
from . import pipeline
from . import split as split_mod
from .attention import (
    attention,
    export_alignment,
    load_attention_input,
    write_alignment_csv,
    write_weights_json,
)
from .errors import PipelineError
from .runcfg import PipelineConfig, config_hash, load_config, write_run_manifest
from .synth import SynthConfig, generate
from .tables import TableKind


def _args_hash(args: argparse.Namespace) -> str:
    payload = {k: str(v) for k, v in sorted(vars(args).items())
               if k != "func"}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _emit_manifest(args, subcommand: str, inputs: dict, outputs: dict,
                   seed: int):
    primary = next(iter(outputs.values()), ".")
    write_run_manifest(
        Path(primary).parent / f"run_manifest_{subcommand}.json",
        subcommand,
        inputs={k: str(v) for k, v in inputs.items()},
        outputs={k: str(v) for k, v in outputs.items()},
        cfg_hash=_args_hash(args),
        seed=seed,
    )


# --- config flags ------------------------------------------------------------

# One {field: flag} table per config that a subcommand builds from its flags.
SYNTH_FLAGS = {
    "seed": "--seed", "n_patients": "--patients",
    "n_admissions": "--admissions", "n_observation_types": "--types",
    "n_ccs_categories": "--categories",
    "positive_rate_target": "--positive-rate", "signal_strength": "--signal",
    "notes_min": "--notes-min", "notes_max": "--notes-max",
    "vocabulary_size": "--vocab", "n_planted": "--planted",
    "events_min": "--events-min", "events_max": "--events-max",
}
MODEL_FLAGS = {
    "variant": "--variant", "hidden_size": "--hidden", "epochs": "--epochs",
    "batch_size": "--batch-size", "lr": "--lr", "dropout": "--dropout",
    "conv_filters": "--conv-filters", "rnn_hidden": "--rnn-hidden",
    "seed": "--seed",
}
SCORER_FLAGS = {
    "feature_dim": "--feature-dim", "epochs": "--epochs",
    "batch_size": "--batch-size", "lr": "--lr", "seed": "--seed",
}


def _add_config_flags(parser, cls, flags: dict[str, str],
                      choices: dict | None = None) -> None:
    """One flag per entry of flags, stored under its field's name, with the
    type and default of that field in cls(). A field in choices takes one
    of them, as given; any other shows the metavar argparse derives from
    its flag."""
    defaults = cls()
    for name, flag in flags.items():
        default = getattr(defaults, name)
        if choices and name in choices:
            kind = {"choices": choices[name]}
        else:
            kind = {"type": type(default),
                    "metavar": flag[2:].replace("-", "_").upper()}
        parser.add_argument(flag, dest=name, default=default, **kind)


def _config(cls, flags: dict[str, str], args: argparse.Namespace):
    """cls built from the parsed values of its flags."""
    return cls(**{name: getattr(args, name) for name in flags})


# --- subcommand handlers -----------------------------------------------------

def _cmd_transform(args) -> int:
    table = TableKind(args.table)
    count = fhir_etl.transform(args.input, args.output, table)
    print(f"{args.input} -> {args.output}: {count} records "
          f"({fhir_etl.map_table_kind(table)})")
    _emit_manifest(args, "transform", {"csv": args.input},
                   {"collection": args.output}, seed=0)
    return 0


def _cmd_synth(args) -> int:
    manifest = generate(_config(SynthConfig, SYNTH_FLAGS, args), args.out)
    for kind, path, count in manifest.tables:
        print(f"{kind.value}: {count} rows -> {path}")
    _emit_manifest(
        args, "synth", {},
        {kind.value: path for kind, path, _ in manifest.tables}
        | {"crosswalk": manifest.crosswalk_path,
           "manifest": manifest.manifest_path},
        seed=args.seed,
    )
    return 0


def _cmd_preprocess(args) -> int:
    tensors, stats, (n_tensors, n_types) = pipeline.preprocess(
        args.chartevents, args.admissions, args.out, args.split,
        args.numeric_fraction)
    print(f"{n_tensors} admission tensors over {n_types} types")
    _emit_manifest(
        args, "preprocess",
        {"chartevents": args.chartevents, "admissions": args.admissions},
        {"tensors": tensors, "stats": stats}, seed=0,
    )
    return 0


def _cmd_labels(args) -> int:
    written, (n_admissions, n_categories), n_unknown = pipeline.labels(
        args.diagnoses, args.crosswalk, args.out, args.admissions)
    print(f"{n_admissions} admissions x {n_categories} categories; "
          f"{n_unknown} unknown code occurrences")
    _emit_manifest(
        args, "labels",
        {"diagnoses": args.diagnoses, "crosswalk": args.crosswalk},
        {"labels": written}, seed=0,
    )
    return 0


def _cmd_split(args) -> int:
    sizes = pipeline.split(
        args.labels, args.out,
        split_mod.SplitSpec(ratios=tuple(args.ratios), seed=args.seed))
    print(f"sizes: {sizes}")
    _emit_manifest(args, "split", {"labels": args.labels},
                   {"split": args.out}, seed=args.seed)
    return 0


def _cmd_train(args) -> int:
    log = Path(args.log or f"{args.out}.log.json")
    written, losses = pipeline.train(
        args.tensors, args.labels, args.split, args.out, log,
        _config(chart_model.ChartModelConfig, MODEL_FLAGS, args))
    print(f"train loss per epoch: {[round(x, 6) for x in losses]}")
    _emit_manifest(
        args, "train",
        {"tensors": args.tensors, "labels": args.labels, "split": args.split},
        {"checkpoint": written, "log": log}, seed=args.seed,
    )
    return 0


def _cmd_predict(args) -> int:
    written, (n, c) = pipeline.predict(args.model, args.tensors, args.out)
    print(f"{n} x {c} probabilities -> {written}")
    _emit_manifest(args, "predict",
                   {"model": args.model, "tensors": args.tensors},
                   {"probs": written}, seed=0)
    return 0


def _cmd_notes_prep(args) -> int:
    n_admissions, n_chunks = pipeline.notes_prep(
        args.notes, args.admissions, args.out, args.subset, args.max_len)
    print(f"{n_admissions} admissions -> {n_chunks} chunks "
          f"(subset={args.subset})")
    _emit_manifest(args, "notes-prep",
                   {"notes": args.notes, "admissions": args.admissions},
                   {"chunks": args.out}, seed=0)
    return 0


def _cmd_score_notes(args) -> int:
    fit_out = args.fit_out or f"{args.out}.scorer.npz"
    outputs, losses, n_scored = pipeline.score_notes(
        args.chunks, args.out, args.params, args.labels, args.split,
        fit_out, f"{fit_out}.log.json",
        _config(notes_mod.ScorerConfig, SCORER_FLAGS, args))
    if losses is not None:
        print(f"scorer loss per epoch: {[round(x, 6) for x in losses]}")
    print(f"scored {n_scored} admissions -> {outputs['scores']}")
    inputs = ({"chunks": args.chunks, "params": args.params} if args.params
              else {"chunks": args.chunks, "labels": args.labels,
                    "split": args.split})
    _emit_manifest(args, "score-notes", inputs, outputs, seed=args.seed)
    return 0


def _cmd_aggregate(args) -> int:
    written, n = pipeline.aggregate(args.scores, args.out, args.scale_c)
    print(f"aggregated {n} admissions -> {written}")
    _emit_manifest(args, "aggregate", {"scores": args.scores},
                   {"probs": written}, seed=0)
    return 0


def _cmd_eval(args) -> int:
    report = pipeline.evaluate(args.probs, args.labels, args.out, args.split,
                               args.partition, args.target)
    print(f"micro AU-ROC {report.micro_auroc:.4f}  "
          f"AU-PR {report.micro_aupr:.4f}  "
          f"Recall@Prec80 {report.micro_recall_at_prec80:.4f}  "
          f"(positive ratio {report.positive_ratio:.4f})")
    _emit_manifest(args, "eval",
                   {"probs": args.probs, "labels": args.labels},
                   {"report": args.out}, seed=0)
    return 0


def _cmd_attention(args) -> int:
    inp = load_attention_input(args.input)
    weights = attention(inp)
    outputs = {}
    if args.out_csv:
        tokens_q = inp.tokens_q or [f"q{i}" for i in
                                    range(weights.weights.shape[0])]
        tokens_k = inp.tokens_k or [f"k{i}" for i in
                                    range(weights.weights.shape[1])]
        records = export_alignment(weights, tokens_q, tokens_k)
        write_alignment_csv(args.out_csv, records)
        outputs["alignment"] = args.out_csv
    if args.out_json:
        write_weights_json(args.out_json, weights)
        outputs["weights"] = args.out_json
    print(f"attention over {weights.weights.shape[0]} queries x "
          f"{weights.weights.shape[1]} keys")
    _emit_manifest(args, "attention", {"input": args.input}, outputs, seed=0)
    return 0


def _cmd_pipeline(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    if args.output_dir:
        config.output_dir = Path(args.output_dir)
    artifacts = pipeline.run_pipeline(config)
    print(f"pipeline complete: {len(artifacts)} artifacts in "
          f"{config.output_dir} (config hash {config_hash(config)[:12]})")
    for name in ("chart_metrics", "note_metrics"):
        print(f"  {name}: {artifacts[name]}")
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrpipe",
        description="Flat-FHIR ETL and multi-label diagnosis prediction "
                    "pipeline over MIMIC-III-schema tables.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("transform", help="CSV table -> flat FHIR JSON")
    p.add_argument("--table", required=True,
                   choices=[t.value for t in TableKind])
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    _add_config_flags(p, SynthConfig, SYNTH_FLAGS)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("preprocess", help="chart events -> admission tensors")
    p.add_argument("--chartevents", required=True,
                   help="chartevents CSV or its FHIR observation collection")
    p.add_argument("--admissions", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--split", help="fit normalization on its train ids only")
    p.add_argument("--numeric-fraction", type=float,
                   default=chart.DEFAULT_NUMERIC_FRACTION)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("labels", help="encode CCS label vectors")
    p.add_argument("--diagnoses", required=True)
    p.add_argument("--crosswalk", required=True)
    p.add_argument("--admissions",
                   help="include admissions without diagnosis rows")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_labels)

    p = sub.add_parser("split", help="iterative stratified split")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ratios", type=float, nargs=3,
                   default=list(split_mod.SplitSpec.ratios))
    p.add_argument("--seed", type=int, default=split_mod.SplitSpec.seed)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train a chart tensor classifier")
    p.add_argument("--tensors", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    _add_config_flags(p, chart_model.ChartModelConfig, MODEL_FLAGS,
                      choices={"variant": chart_model.VARIANTS})
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="probabilities from a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--tensors", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("notes-prep", help="clean, subset and chunk notes")
    p.add_argument("--notes", required=True)
    p.add_argument("--admissions", required=True)
    p.add_argument("--subset", choices=notes_mod.SUBSET_KINDS,
                   default=PipelineConfig.subset)
    p.add_argument("--max-len", type=int, default=notes_mod.DEFAULT_MAX_LEN)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_notes_prep)

    p = sub.add_parser("score-notes",
                       help="score chunks (fits the scorer when asked)")
    p.add_argument("--chunks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--params", help="existing scorer parameters")
    p.add_argument("--labels", help="labels npz, to fit a new scorer")
    p.add_argument("--split", help="split json, to fit a new scorer")
    p.add_argument("--fit-out", help="where to store the fitted scorer")
    _add_config_flags(p, notes_mod.ScorerConfig, SCORER_FLAGS)
    p.set_defaults(func=_cmd_score_notes)

    p = sub.add_parser("aggregate", help="chunk scores -> admission scores")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scale-c", type=float,
                   default=notes_mod.AggregationParams.c)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("eval", help="metric report from probabilities")
    p.add_argument("--probs", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", help="with --partition: evaluate one partition")
    p.add_argument("--partition", choices=split_mod.PARTITIONS)
    p.add_argument("--target", type=float,
                   default=PipelineConfig.recall_target,
                   help="precision target for the recall metric")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("attention", help="attention weights and alignment")
    p.add_argument("--input", required=True,
                   help="JSON with queries/keys/values and optional tokens")
    p.add_argument("--out-csv")
    p.add_argument("--out-json")
    p.set_defaults(func=_cmd_attention)

    p = sub.add_parser("pipeline", help="run the whole pipeline end to end")
    p.add_argument("--config", required=True, help="INI config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--output-dir")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "eval" and (args.split is None) != (
            args.partition is None):
        parser.error("eval: --split and --partition go together")
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - unexpected failure path
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
