"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance and runtime budget is asserted here, not deferred.
"""

import hashlib
import json
import math
import random
import time
from contextlib import contextmanager
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from ehrpipe import chart, chart_model, fhir_etl, metrics
from ehrpipe import labels as labels_mod
from ehrpipe import notes as notes_mod
from ehrpipe import split as split_mod
from ehrpipe.attention import (
    attention,
    AttentionInput,
    export_alignment,
    read_alignment_csv,
    write_alignment_csv,
)
from ehrpipe.nn import (
    bce_loss,
    DenseLayer,
    DropoutLayer,
    sigmoid,
    SimpleRnnLayer,
    TimeConvLayer,
)
from ehrpipe.runcfg import PipelineConfig
from ehrpipe.pipeline import run_pipeline
from ehrpipe.split import SplitSpec
from ehrpipe.synth import SynthConfig, generate
from ehrpipe.tables import (
    TABLE_COLUMNS,
    TableKind,
    iter_csv_rows,
    map_table_kind,
    read_admission_times,
)

import fhir_reference as reference
from conftest import matrix_blocks, seconds_by_id, write_csv
from test_metrics import concordance_oracle
from test_nn import check_layer_gradients, numeric_grad, rel_error
from test_split import (
    make_structured_labels,
    partition_positives,
    partition_sizes,
)


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@contextmanager
def criterion(tag, description, budget_seconds):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[{tag}] {description}: FAIL")
        raise
    elapsed = time.monotonic() - started
    assert elapsed < budget_seconds, (
        f"{tag} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    print(f"\n[{tag}] {description}: PASS ({elapsed:.1f}s)")


# --- helpers shared by A5/A6 --------------------------------------------------

def _prepared_dataset(tmp_path, config, split_seed):
    manifest = generate(config, tmp_path)
    paths = {kind: path for kind, path, _ in manifest.tables}
    xwalk = labels_mod.load_crosswalk(manifest.crosswalk_path)
    diagnoses = labels_mod.read_diagnoses(paths[TableKind.DIAGNOSES_ICD])
    admission_ids = [
        str(row["hadm_id"]).strip()
        for row in iter_csv_rows(paths[TableKind.ADMISSIONS])
    ]
    vectors, _ = labels_mod.encode_labels(
        {adm: diagnoses.get(adm, []) for adm in admission_ids}, xwalk
    )
    assignment = split_mod.iterative_stratified_split(
        vectors, SplitSpec(seed=split_seed)
    )
    return manifest, paths, xwalk, vectors, assignment


class TestA1FhirMapping:
    def test_a1(self, tmp_path):
        with criterion("A1", "FHIR mapping exactness and roundtrips", 10):
            expected = {
                "patients": "patient", "admissions": "encounter",
                "diagnoses_icd": "encounter", "icustays": "encounter",
                "cptevents": "claim", "noteevents": "diagnosticReport",
                "inputevents_cv": "medicationDispense",
                "inputevents_mv": "medicationDispense",
                "prescriptions": "medicationRequest",
                "chartevents": "observation", "datetimeevents": "observation",
                "labevents": "observation", "caregivers": "practitioner",
                "procedures_icd": "procedure",
                "procedureevents_mv": "procedure",
                "microbiologyevents": "specimen", "outputevents": "specimen",
                "services": "serviceRequest", "callout": None,
                "transfers": None, "drgcodes": None,
            }
            assert len(expected) == 21
            for table in TableKind:
                assert map_table_kind(table) == expected[table.value]

            rng = random.Random(77)
            mapped = [t for t in TableKind if map_table_kind(t) is not None]

            def cell():
                k = rng.randrange(6)
                return ["", str(rng.randrange(1000)),
                        f"{rng.uniform(0, 9):.3f}", "2104-07-12 08:15:00",
                        "with, comma\nand newline", 'quoted "text"'][k]

            import csv as _csv

            for trial in range(100):
                table = mapped[rng.randrange(len(mapped))]
                header = list(TABLE_COLUMNS[table])
                rows = [[cell() for _ in header]
                        for _ in range(rng.randrange(0, 25))]
                src = tmp_path / f"a1_{trial}.csv"
                with open(src, "w", encoding="utf-8", newline="") as handle:
                    writer = _csv.writer(handle, lineterminator="\n")
                    writer.writerow(header)
                    writer.writerows(rows)
                suffix = ".json.gz" if trial % 2 else ".json"
                out = tmp_path / f"a1_{trial}{suffix}"
                written = fhir_etl.transform(src, out, table)
                assert written == len(rows)  # count preservation
                read = reference.read_collection(out)
                assert read == list(reference.iter_records(src, table))


class TestA2Binning:
    def test_a2(self, tmp_path):
        with criterion("A2", "bin assignment and hand-computed means", 1):
            discharge = datetime(2130, 1, 10, 12, 0, 0)
            columns = list(TABLE_COLUMNS[TableKind.CHARTEVENTS])

            def row(adm, tid, before, value):
                cells = dict.fromkeys(columns, "")
                when = discharge - before
                cells.update(hadm_id=adm, itemid=tid, valuenum=str(value),
                             charttime=f"{when:%Y-%m-%d %H:%M:%S}")
                return list(cells.values())

            def binned(rows, discharge_times):
                path = write_csv(tmp_path / "chartevents.csv", columns, rows)
                return chart.bin_events(chart.read_chart_events(path),
                                        seconds_by_id(discharge_times))

            # one admission per minute, each with one event of type 1
            minutes = range(0, 40 * 60 + 1)
            raw, _ = binned(
                [row(str(m), "1", timedelta(minutes=m), 1.0) for m in minutes],
                {str(m): discharge for m in minutes})
            assert raw.admission_ids.tolist() == [str(m) for m in minutes]
            seen = set()
            for minute, mask in zip(minutes, raw.mask):
                offset_h = minute / 60.0
                got = int(np.flatnonzero(mask[0])[0])
                if offset_h >= 24:
                    expected = 0
                elif offset_h >= 16:
                    expected = 1
                elif offset_h >= 8:
                    expected = 2
                else:
                    expected = 3
                assert got == expected  # no gaps, no overlaps
                seen.add(got)
            assert seen == {0, 1, 2, 3}

            def ev(tid, hours, value):
                return row("A", tid, timedelta(hours=hours), value)

            fixture = [
                ev("1", 30, 10.0), ev("1", 26, 14.0), ev("1", 20, 5.0),
                ev("1", 16, 7.0), ev("1", 8, 3.0), ev("1", 0.5, 9.0),
                ev("1", 0, 11.0),
                ev("2", 40, 100.0), ev("2", 12, 50.0), ev("2", 4, 60.0),
            ]
            raw, catalog = binned(fixture, {"A": discharge})
            assert catalog == ["1", "2"]
            values, mask = raw.values[0], raw.mask[0]
            np.testing.assert_array_equal(
                values, [[12.0, 6.0, 3.0, 10.0], [100.0, 0.0, 50.0, 60.0]]
            )
            np.testing.assert_array_equal(
                mask, [[True, True, True, True],
                       [True, False, True, True]]
            )


class TestA3NormalizationLaw:
    def test_a3(self):
        with criterion("A3", "post-normalization mean 0 / variance 1", 1):
            rng = np.random.default_rng(31)
            matrices = []
            for _ in range(200):
                values = rng.normal(50.0, 12.0, size=(10, 4))
                mask = rng.random((10, 4)) < 0.6
                mask[:, 0] = True
                matrices.append((values, mask))
            mask = np.stack([m for _, m in matrices])
            tensors, _, stats = chart.preprocess_admissions(*matrix_blocks(
                np.stack([v for v, _ in matrices]), mask))
            z = tensors.values
            for t in range(10):
                assert stats["stddev"][t] > 0
                cells = np.concatenate(
                    [z[i, t][mask[i, t]] for i in range(len(matrices))]
                )
                assert abs(cells.mean()) < 1e-9
                assert abs(cells.var() - 1.0) < 1e-9


class TestA4GradientChecks:
    def test_a4(self):
        with criterion("A4", "finite-difference gradients, 10 seeds", 30):
            for seed in range(10):
                rng = np.random.default_rng(1000 + seed)
                shapes_b = int(rng.integers(2, 5))
                in_dim = int(rng.integers(2, 6))
                out_dim = int(rng.integers(2, 5))
                check_layer_gradients(
                    DenseLayer(in_dim, out_dim, rng),
                    rng.standard_normal((shapes_b, in_dim)), rng,
                )
                n_types = int(rng.integers(2, 6))
                check_layer_gradients(
                    TimeConvLayer(int(rng.integers(1, 4)), rng),
                    rng.standard_normal((shapes_b, n_types, 4)), rng,
                )
                hidden = int(rng.integers(2, 5))
                check_layer_gradients(
                    SimpleRnnLayer(n_types, hidden, rng),
                    rng.standard_normal((shapes_b, n_types, 4)), rng,
                )
                # dropout with its drawn mask frozen
                drop = DropoutLayer(0.4, rng)
                x = rng.standard_normal((shapes_b, in_dim))
                drop.forward(x, train=True)
                mask = drop.last_mask.copy()
                g = rng.standard_normal((shapes_b, in_dim))
                np.testing.assert_allclose(
                    drop.backward(g), g * mask / 0.6, atol=1e-12
                )
                # loss gradient w.r.t. logits
                logits = rng.standard_normal((shapes_b, out_dim))
                targets = rng.random((shapes_b, out_dim)) < 0.5
                _, analytic = bce_loss(sigmoid(logits), targets)

                def objective():
                    return bce_loss(sigmoid(logits), targets)[0]

                assert rel_error(analytic, numeric_grad(objective, logits)) \
                    < 1e-4


class TestA5ChartModelLearnability:
    def test_a5(self, tmp_path):
        with criterion(
            "A5", "planted-signal learnability of all three variants", 300
        ):
            config = SynthConfig(
                seed=42, n_patients=400, n_admissions=1000,
                n_observation_types=40, n_ccs_categories=20,
                positive_rate_target=0.043, signal_strength=3.0,
                n_planted=3, events_min=30, events_max=60,
            )
            _, paths, xwalk, vectors, assignment = _prepared_dataset(
                tmp_path, config, split_seed=1
            )
            times = read_admission_times(paths[TableKind.ADMISSIONS])
            discharge = {adm: t[1] for adm, t in times.items()}
            train_ids = {a for a, t in assignment.items()
                         if t == "train"}
            tensors, catalog, _ = chart.preprocess_admissions(
                chart.read_chart_events(paths[TableKind.CHARTEVENTS]),
                discharge, fit_ids=train_ids,
            )
            bits = dict(zip(vectors.admission_ids.tolist(), vectors.bits))
            ids = tensors.admission_ids.tolist()
            x = tensors.values
            y = np.stack([bits[a] for a in ids])
            train_rows, val_rows, test_rows = (
                [i for i, a in enumerate(ids) if assignment.get(a) == tag]
                for tag in ("train", "val", "test"))
            baseline = float(y[test_rows].mean())
            assert baseline > 0

            for variant in chart_model.VARIANTS:
                # 3 epochs as mandated; the learning rate is scaled up for
                # desk-size data (75 optimizer steps instead of thousands)
                model_config = chart_model.ChartModelConfig(
                    variant=variant, n_types=len(catalog),
                    n_categories=vectors.bits.shape[1], hidden_size=128,
                    epochs=3, batch_size=32, lr=5e-3, dropout=0.2,
                    conv_filters=8, rnn_hidden=64, seed=5,
                )
                model = chart_model.ChartModel(model_config)
                history = chart_model.train(model, x, y, train_rows,
                                            val_rows)
                losses = history["train_loss"]
                assert losses[-1] < losses[0], f"{variant}: loss not falling"
                probs = chart_model.predict(model, x[test_rows])
                aupr = metrics.pr_auc(probs.ravel(), y[test_rows].ravel())
                assert aupr >= 2.0 * baseline, (
                    f"{variant}: AU-PR {aupr:.4f} < 2x baseline {baseline:.4f}"
                )


class TestA6NotePipelineLearnability:
    def test_a6(self, tmp_path):
        with criterion(
            "A6", "note scorer beats baseline; aggregation helps", 180
        ):
            config = SynthConfig(
                seed=24, n_patients=300, n_admissions=700,
                n_observation_types=10, n_ccs_categories=16,
                positive_rate_target=0.05, signal_strength=3.0,
                n_planted=3, events_min=5, events_max=10,
                notes_min=2, notes_max=4, vocabulary_size=150,
            )
            manifest, paths, xwalk, vectors, assignment = _prepared_dataset(
                tmp_path, config, split_seed=3
            )
            times = read_admission_times(paths[TableKind.ADMISSIONS])
            notes = notes_mod.read_note_events(paths[TableKind.NOTEEVENTS])
            subset = notes_mod.build_subset(notes, times, "days3")
            chunks = []
            for adm in sorted(subset):
                chunks.extend(
                    notes_mod.chunk_text(adm, subset[adm], max_len=64)
                )
            bits = dict(zip(vectors.admission_ids.tolist(), vectors.bits))
            train_chunks = [
                c for c in chunks
                if assignment.get(c.admission_id) == "train"
            ]
            params, _ = notes_mod.train_scorer(
                train_chunks, bits,
                notes_mod.ScorerConfig(feature_dim=4096, epochs=3,
                                       batch_size=32, lr=1e-2, seed=9),
            )
            matrices = {
                m.admission_id: m
                for m in notes_mod.score_chunks(chunks, params)
            }
            test_adm = sorted(
                a for a, t in assignment.items()
                if t == "test" and a in subset
            )
            chunk_scores, chunk_truths = [], []
            adm_scores, adm_truths = [], []
            for adm in test_adm:
                matrix = matrices[adm]
                for row in matrix.probabilities:
                    chunk_scores.append(row)
                    chunk_truths.append(bits[adm])
                adm_scores.append(notes_mod.aggregate(matrix))
                adm_truths.append(bits[adm])
            chunk_scores = np.asarray(chunk_scores)
            chunk_truths = np.asarray(chunk_truths)
            adm_scores = np.asarray(adm_scores)
            adm_truths = np.asarray(adm_truths)

            planted_cols = [s.category_index for s in manifest.planted]
            marked_base = float(adm_truths[:, planted_cols].mean())
            marked_aupr = metrics.pr_auc(
                adm_scores[:, planted_cols].ravel(),
                adm_truths[:, planted_cols].ravel(),
            )
            assert marked_base > 0
            assert marked_aupr >= 2.0 * marked_base, (
                f"marked AU-PR {marked_aupr:.4f} < 2x {marked_base:.4f}"
            )
            # admission-level aggregation at least matches chunk level
            chunk_aupr = metrics.pr_auc(chunk_scores.ravel(),
                                        chunk_truths.ravel())
            adm_aupr = metrics.pr_auc(adm_scores.ravel(), adm_truths.ravel())
            assert adm_aupr >= chunk_aupr, (
                f"aggregated {adm_aupr:.4f} < chunk-level {chunk_aupr:.4f}"
            )


class TestA7AggregationProperties:
    def test_a7(self):
        with criterion("A7", "chunk aggregation formula properties", 5):
            rng = np.random.default_rng(71)
            big_c = 1e12
            for _ in range(10_000):
                n = int(rng.integers(1, 9))
                probs = rng.random((n, 2))
                c = float(rng.uniform(0.2, 5.0))
                out = notes_mod.aggregate(
                    notes_mod.ChunkScoreMatrix("A", probs), c
                )
                p_max = probs.max(axis=0)
                p_mean = probs.mean(axis=0)
                # boundedness
                assert np.all(out >= probs.min(axis=0) - 1e-12)
                assert np.all(out <= p_max + 1e-12)
                # permutation invariance
                perm = rng.permutation(n)
                out_perm = notes_mod.aggregate(
                    notes_mod.ChunkScoreMatrix("A", probs[perm]), c
                )
                assert np.all(np.abs(out - out_perm) <= 1e-12)
                # monotonicity in a single raised entry
                bumped = probs.copy()
                i = int(rng.integers(n))
                bumped[i, 0] = min(1.0, bumped[i, 0] + 0.25)
                out_bumped = notes_mod.aggregate(
                    notes_mod.ChunkScoreMatrix("A", bumped), c
                )
                assert out_bumped[0] >= out[0] - 1e-12
                # n = 1 identity
                single = notes_mod.aggregate(
                    notes_mod.ChunkScoreMatrix("A", probs[:1]), c
                )
                assert np.all(np.abs(single - probs[0]) <= 1e-12)
                # c -> infinity approaches the max
                limit = notes_mod.aggregate(
                    notes_mod.ChunkScoreMatrix("A", probs), big_c
                )
                assert np.all(np.abs(limit - p_max) <= 1e-9)
                # n -> infinity approaches the mean (replicating chunks
                # grows n while keeping max and mean fixed)
                grown = notes_mod.aggregate(
                    notes_mod.ChunkScoreMatrix("A", np.tile(probs, (400, 1))),
                    c,
                )
                assert np.all(np.abs(grown - p_mean) <= 0.02)
                assert np.all(np.abs(grown - p_mean) <=
                              (p_max - p_mean) / (1.0 + n * 400 / c) + 1e-12)


class TestA8MetricOracles:
    def test_a8(self):
        with criterion("A8", "metric oracles and random baseline", 30):
            rng = np.random.default_rng(81)
            checked = 0
            while checked < 1000:
                n = int(rng.integers(4, 201))
                if rng.random() < 0.5:
                    scores = rng.choice(
                        np.linspace(0.0, 1.0, 7), size=n
                    )  # heavy ties
                else:
                    scores = rng.random(n)
                truths = rng.random(n) < float(rng.uniform(0.1, 0.9))
                if truths.all() or not truths.any():
                    continue
                got = metrics.roc_auc(scores, truths)
                want = concordance_oracle(scores, truths)
                assert abs(got - want) < 1e-12
                checked += 1

            # the random-classifier identity is asymptotic: the step-wise
            # estimator carries an O(1/n_pos) positive bias, so n is sized
            # to push that bias well under the 3-SE band
            ratio = 0.05
            n = 40_000
            values = []
            for seed in range(200):
                local = np.random.default_rng(9000 + seed)
                truths = local.random(n) < ratio
                if not truths.any():
                    continue
                values.append(metrics.pr_auc(local.random(n), truths))
            values = np.asarray(values)
            stderr = values.std(ddof=1) / math.sqrt(len(values))
            assert abs(values.mean() - ratio) < 3 * stderr, (
                f"mean {values.mean():.5f} vs ratio {ratio} "
                f"(3 SE = {3 * stderr:.5f})"
            )

            for seed in range(5):
                local = np.random.default_rng(8200 + seed)
                scores = local.random(400)
                truths = local.random(400) < 0.2
                targets = np.linspace(0.02, 1.0, 50)
                recalls = [
                    metrics.recall_at_precision(scores, truths, t)
                    for t in targets
                ]
                assert all(a >= b - 1e-12
                           for a, b in zip(recalls, recalls[1:]))


class TestA9StratifiedSplit:
    def test_a9(self):
        with criterion("A9", "stratified split distribution, 10 seeds", 10):
            for seed in range(10):
                bits = make_structured_labels(
                    np.random.default_rng(200 + seed), 1000, 20
                )
                vectors = labels_mod.LabelMatrix(
                    np.array([f"a{i}" for i in range(1000)]), bits,
                    np.arange(20),
                )
                assignment = split_mod.iterative_stratified_split(
                    vectors, SplitSpec(seed=seed)
                )
                again = split_mod.iterative_stratified_split(
                    vectors, SplitSpec(seed=seed)
                )
                assert assignment == again  # deterministic
                assert set(assignment) == set(
                    vectors.admission_ids.tolist()
                )
                assert sum(partition_sizes(assignment)) == 1000
                report = split_mod.verify_distribution(
                    assignment, vectors, tolerance=0.02, min_support=50
                )
                flagged = [
                    lab for lab in report["flagged"]
                    if report["labels"][lab]["support"] >= 50
                ]
                assert not flagged, f"seed {seed}: deviations {flagged}"

            # single-label case against the proportional-allocation oracle
            for seed in range(5):
                rng = np.random.default_rng(300 + seed)
                n = int(rng.integers(30, 120))
                n_pos = int(rng.integers(4, n - 4))
                vectors = labels_mod.LabelMatrix(
                    np.array([f"a{i}" for i in range(n)]),
                    np.array([[i < n_pos] for i in range(n)]),
                    np.arange(1),
                )
                assignment = split_mod.iterative_stratified_split(
                    vectors, SplitSpec(seed=seed)
                )

                def oracle(total):
                    raw = [total * r for r in (0.8, 0.1, 0.1)]
                    counts = [int(v) for v in raw]
                    order = sorted(
                        range(3),
                        key=lambda i: (-(raw[i] - counts[i]), i),
                    )
                    for i in order[: total - sum(counts)]:
                        counts[i] += 1
                    return counts

                assert partition_positives(assignment, vectors) == \
                    oracle(n_pos)
                assert partition_sizes(assignment) == oracle(n)


class TestA10Attention:
    def test_a10(self, tmp_path):
        with criterion("A10", "attention weights and alignment export", 1):
            rng = np.random.default_rng(101)
            out = attention(AttentionInput(
                queries=rng.standard_normal((8, 5)) * 20,
                keys=rng.standard_normal((11, 5)) * 20,
                values=rng.standard_normal((11, 3)),
            ))
            np.testing.assert_allclose(out.weights.sum(axis=1), 1.0,
                                       atol=1e-9)
            assert np.all(out.weights >= 0)

            q = rng.standard_normal((4, 3))
            k = rng.standard_normal((6, 3))
            v = rng.standard_normal((6, 2))
            shift = rng.standard_normal(3)
            base = attention(AttentionInput(queries=q, keys=k, values=v))
            moved = attention(
                AttentionInput(queries=q, keys=k + shift, values=v)
            )
            np.testing.assert_allclose(base.weights, moved.weights,
                                       atol=1e-12)

            hand = attention(AttentionInput(
                queries=np.array([[2.0]]),
                keys=np.array([[1.0], [0.0]]),
                values=np.array([[1.0], [0.0]]),
            ))
            assert abs(hand.weights[0, 0] - 0.8808) < 1e-4
            assert abs(hand.weights[0, 1] - 0.1192) < 1e-4

            tokens_q = [f"q{i}" for i in range(4)]
            tokens_k = [f"k{i}" for i in range(6)]
            records = export_alignment(base, tokens_q, tokens_k)
            path = tmp_path / "alignment.csv"
            write_alignment_csv(path, records)
            loaded = read_alignment_csv(path)
            for (q1, k1, w1), (q2, k2, w2) in zip(loaded, records):
                assert (q1, k1) == (q2, k2)
                assert abs(w1 - w2) < 1e-12


class TestA11PipelineReproducibility:
    def test_a11(self, tmp_path):
        with criterion("A11", "end-to-end pipeline reproducibility", 600):
            config = PipelineConfig(
                seed=17,
                output_dir=tmp_path / "run",
                synth=SynthConfig(
                    seed=99, n_patients=60, n_admissions=150,
                    n_observation_types=15, n_ccs_categories=10,
                    positive_rate_target=0.08, signal_strength=3.0,
                    n_planted=2, events_min=15, events_max=30,
                ),
                chart_model=chart_model.ChartModelConfig(
                    hidden_size=32, epochs=2, lr=3e-3, conv_filters=4,
                    rnn_hidden=8),
                max_len=64,
                scorer=notes_mod.ScorerConfig(feature_dim=1024, epochs=2,
                                              seed=7),
            )
            first = run_pipeline(config)
            hashes_first = {
                name: file_sha256(path)
                for name, path in first.items()
                if "manifest" not in name
            }
            manifest_first = json.loads(
                Path(first["run_manifest"]).read_text()
            )
            second = run_pipeline(config)
            hashes_second = {
                name: file_sha256(path)
                for name, path in second.items()
                if "manifest" not in name
            }
            manifest_second = json.loads(
                Path(second["run_manifest"]).read_text()
            )
            assert hashes_first == hashes_second
            manifest_first.pop("created_utc")
            manifest_second.pop("created_utc")
            assert manifest_first == manifest_second
