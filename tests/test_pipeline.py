"""run_pipeline: its config's stage seeds, and the bytes and failures of
its table transform and output directory."""

import pytest

from ehrpipe import pipeline
from ehrpipe.cli import main
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
    # The first broken table in manifest order is reported; the run stops
    # there, before noteevents.
    err = capsys.readouterr().err
    assert "admissions.csv" in err and "noteevents" not in err


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
