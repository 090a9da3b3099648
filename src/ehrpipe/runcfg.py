"""Run configuration, seed derivation and per-invocation manifests.

The config file is a plain INI document (see README for the schema) whose
keys are cast to the types of the PipelineConfig defaults; CLI flags
override file values. One global seed fans out to per-stage seeds by
hashing the stage name into it, so stages draw from independent but fully
reproducible streams.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import blas_threads
from .chart import DEFAULT_NUMERIC_FRACTION
from .chart_model import ChartModelConfig
from .errors import ConfigError, InvalidConfig
from .notes import (
    DEFAULT_MAX_LEN,
    SUBSET_KINDS,
    AggregationParams,
    ScorerConfig,
    check_max_len,
)
from .split import PARTITIONS, SplitSpec
from .synth import SynthConfig
from .tables import reading, save_json


def check_fraction(name: str, value: float) -> None:
    """InvalidConfig unless 0 <= value <= 1; NaN fails too."""
    if not 0.0 <= value <= 1.0:
        raise InvalidConfig(f"{name} must lie in [0, 1], got {value}")


def derive_seed(master: int, stage: str) -> int:
    digest = hashlib.blake2b(
        f"{master}:{stage}".encode("utf-8"), digest_size=4
    ).digest()
    return int.from_bytes(digest, "little")


@dataclass
class PipelineConfig:
    seed: int = 0
    output_dir: Path = Path("out")
    synth: SynthConfig = field(default_factory=SynthConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    numeric_fraction: float = DEFAULT_NUMERIC_FRACTION
    chart_model: ChartModelConfig = field(default_factory=ChartModelConfig)
    # notes
    subset: str = "days3"
    max_len: int = DEFAULT_MAX_LEN
    aggregation_c: float = AggregationParams.c
    scorer: ScorerConfig = field(default_factory=ScorerConfig)
    recall_target: float = 0.8

    def validate(self) -> None:
        """Check every setting, so that a bad one stops a run before its
        first stage writes anything (InvalidConfig/InvalidSpec, exit 3)."""
        self.synth.validate()
        self.split.validate()
        check_fraction("numeric_fraction", self.numeric_fraction)
        self.chart_model.validate()
        if self.subset not in SUBSET_KINDS:
            raise InvalidConfig(f"subset kind must be one of {SUBSET_KINDS}")
        check_max_len(self.max_len)
        AggregationParams(c=self.aggregation_c).validate()
        self.scorer.validate()
        check_fraction("recall_target", self.recall_target)


def _section(parser, section: str, defaults: dict) -> dict:
    """The keys of one INI section, each cast to the type of its default.

    A key the section does not set keeps its default; a key without a
    default is a ConfigError.
    """
    values = dict(defaults)
    if not parser.has_section(section):
        return values
    for key, raw in parser.items(section):
        if key not in defaults:
            raise ConfigError(
                f"[{section}] unknown key {key!r}; "
                f"known keys: {', '.join(defaults)}"
            )
        try:
            values[key] = type(defaults[key])(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return values


def _fields(config, *skip: str) -> dict:
    """A dataclass's fields and their values, without those in skip."""
    return {key: value for key, value in asdict(config).items()
            if key not in skip}


_SECTIONS = ("run", "synth", "split", "chart", "chart_model", "notes",
             "metrics")


def load_config(path, seed_override: int | None = None) -> PipelineConfig:
    """Parse an INI config file into a PipelineConfig.

    Every key is optional and falls back to the PipelineConfig default; an
    unknown section or key, or a value PipelineConfig.validate rejects, is
    a ConfigError. The synth, split, chart_model and scorer seeds are all
    derived here from the run seed; seed_override replaces the file's seed
    before they are, so a flag-level override reproduces exactly what a
    config edit would. A PipelineConfig built in code keeps the seeds its
    parts carry.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        with reading(path), open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    unknown = [name for name in parser.sections() if name not in _SECTIONS]
    if unknown:
        raise ConfigError(f"{path}: unknown section(s) {unknown}; "
                          f"known sections: {', '.join(_SECTIONS)}")
    base = PipelineConfig()

    run = _section(parser, "run", {"seed": base.seed,
                                   "output_dir": base.output_dir})
    seed = run["seed"] if seed_override is None else seed_override

    # The stage seeds come from [run]'s, n_types and n_categories from the
    # data.
    synth = _section(parser, "synth", _fields(base.synth, "seed"))
    ratios = _section(parser, "split", dict(zip(PARTITIONS, base.split.ratios)))
    chart = _section(parser, "chart",
                     {"numeric_fraction": base.numeric_fraction})
    model = _section(parser, "chart_model", _fields(
        base.chart_model, "n_types", "n_categories", "seed"))

    # [notes] holds PipelineConfig fields and the ScorerConfig fields.
    scorer = _fields(base.scorer, "seed")
    notes = _section(parser, "notes", {
        "subset": base.subset, "max_len": base.max_len,
        "aggregation_c": base.aggregation_c, **scorer,
    })
    scorer = {key: notes.pop(key) for key in scorer}
    recall = _section(parser, "metrics", {"recall_target": base.recall_target})

    config = PipelineConfig(
        seed=seed,
        output_dir=run["output_dir"],
        synth=SynthConfig(seed=derive_seed(seed, "synth"), **synth),
        split=SplitSpec(ratios=tuple(ratios[tag] for tag in PARTITIONS),
                        seed=derive_seed(seed, "split")),
        chart_model=ChartModelConfig(seed=derive_seed(seed, "chart_model"),
                                     **model),
        scorer=ScorerConfig(seed=derive_seed(seed, "scorer"), **scorer),
        **chart, **notes, **recall,
    )
    config.validate()
    return config


def config_hash(config: PipelineConfig) -> str:
    canonical = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_run_manifest(
    path,
    subcommand: str,
    inputs: dict[str, str],
    outputs: dict[str, str],
    cfg_hash: str,
    seed: int,
) -> Path:
    payload = {
        "subcommand": subcommand,
        "created_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "seed": seed,
        "config_hash": cfg_hash,
        "inputs": inputs,
        "outputs": outputs,
        "blas_threads": blas_threads(),
    }
    return save_json(path, payload, indent=1)
