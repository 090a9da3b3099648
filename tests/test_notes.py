"""Note cleaning, subsetting, chunking, scoring and chunk aggregation."""

import json
import tracemalloc
from datetime import datetime
from itertools import groupby
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import epoch_seconds
from ehrpipe import notes, tables
from ehrpipe.errors import ConfigError, DataError
from ehrpipe.notes import (
    _token_slot,
    aggregate,
    build_subset,
    chunk_text,
    ChunkScoreMatrix,
    ChunkTokenSequence,
    clean_text,
    LinearClassifierParams,
    load_chunks,
    load_score_matrices,
    load_scorer,
    NoteEvent,
    read_note_events,
    save_chunks,
    save_score_matrices,
    save_scorer,
    score_chunks,
    ScorerConfig,
    train_scorer,
)
from ehrpipe.nn import Adam, DenseLayer, bce_loss, glorot_uniform, sigmoid
from ehrpipe.tables import TABLE_COLUMNS, TableKind, read_admission_times

ADMIT = epoch_seconds(datetime(2130, 3, 1, 8, 0, 0))
DISCH = ADMIT + 6 * 86400
TIMES = {"A": (ADMIT, DISCH)}


def _note(hours, category="Nursing", text="some note text", adm="A",
          row_id="1"):
    return NoteEvent(row_id=row_id, admission_id=adm, category=category,
                     charttime=ADMIT + hours * 3600, text=text)


def hash_features(tokens, dim: int) -> np.ndarray:
    """Signed-hash term-frequency vector of fixed dimension: the dense,
    per-chunk row that notes._hash_rows computes in CSR form."""
    out = np.zeros(dim)
    for token in tokens:
        slot, sign = _token_slot(token, dim)
        out[slot] += sign
    return out


class TestCleanText:
    def test_abbreviation_and_newline(self):
        assert clean_text("Dr. Smith\nfailure") == "doctor smith failure"

    def test_empty(self):
        assert clean_text("") == ""

    def test_idempotent(self):
        samples = ["Dr. Who\n\nsees you", "  many   spaces\r\n", "ok"]
        for raw in samples:
            once = clean_text(raw)
            assert clean_text(once) == once


class TestBuildSubset:
    def test_window_boundaries(self):
        note = _note(49)
        days3 = build_subset([note], TIMES, "days3")
        days2 = build_subset([note], TIMES, "days2")
        assert "A" in days3
        assert "A" not in days2

    def test_discharge_summary_excluded_from_day_windows(self):
        note = _note(10, category="Discharge summary", text="summary words")
        assert "A" not in build_subset([note], TIMES, "days3")
        assert "A" not in build_subset([note], TIMES, "days2")
        assert build_subset([note], TIMES, "disch") == {"A": "summary words"}

    def test_no_qualifying_notes_absent(self):
        note = _note(100)  # past both windows
        assert build_subset([note], TIMES, "days2") == {}

    def test_concatenation_in_time_order(self):
        notes = [_note(30, text="second part"), _note(2, text="First\npart")]
        subset = build_subset(notes, TIMES, "days3")
        assert subset["A"] == "first part second part"

    def test_unknown_admission(self):
        with pytest.raises(DataError,
                           match="note references unknown admission ghost"):
            build_subset([_note(1, adm="ghost")], TIMES, "days3")

    def test_invalid_kind(self):
        with pytest.raises(ConfigError, match="subset kind must be one of"):
            build_subset([], TIMES, "days7")

    def test_empty_after_cleaning_dropped(self):
        assert build_subset([_note(1, text="\n \n")], TIMES, "days3") == {}

    def test_time_tie_breaks_by_row_id_value(self):
        notes = [_note(5, text=text, row_id=row_id) for text, row_id
                 in (("hundred", "100"), ("ten", "10"), ("nine", "9"))]
        for order in (notes, notes[::-1]):
            assert build_subset(order, TIMES, "days3") == {
                "A": "nine ten hundred"}

    def test_days2_is_time_prefix_of_days3(self):
        notes = [_note(h, text=f"tok{h}") for h in (1, 30, 50, 60)]
        d3 = build_subset(notes, TIMES, "days3")["A"]
        d2 = build_subset(notes, TIMES, "days2")["A"]
        assert d3.startswith(d2)


class TestChunking:
    def test_ceiling_division(self):
        text = " ".join(f"t{i}" for i in range(1030))
        chunks = chunk_text("A", text, max_len=512)
        assert [len(c.tokens) for c in chunks] == [512, 512, 9]
        assert [c.tokens[1] for c in chunks] == ["t0", "t511", "t1022"]

    def test_short_text_single_chunk(self):
        chunks = chunk_text("A", "a b c d e", max_len=512)
        assert len(chunks) == 1
        assert len(chunks[0].tokens) == 6  # marker + 5

    def test_empty_text(self):
        assert chunk_text("A", "", max_len=512) == []

    def test_marker_leads_every_chunk(self):
        chunks = chunk_text("A", "x " * 100, max_len=16)
        assert all(c.tokens[0] == "[CLS]" for c in chunks)

    def test_reassembly(self):
        text = " ".join(f"w{i}" for i in range(357))
        chunks = chunk_text("A", text, max_len=64)
        rebuilt = " ".join(t for c in chunks for t in c.tokens[1:])
        assert rebuilt == text

    def test_max_len_too_small(self):
        with pytest.raises(ConfigError,
                           match=r"max_len must be at least 2 \(marker"):
            chunk_text("A", "x", max_len=1)


def _dense_params(weights, bias) -> LinearClassifierParams:
    """A scorer trained on every slot of a (C, dim) weight matrix."""
    return LinearClassifierParams(slots=np.arange(weights.shape[1]),
                                  weights=weights, bias=bias,
                                  feature_dim=weights.shape[1])


class TestScoring:
    def test_zero_parameters_give_half(self):
        chunks = chunk_text("A", "alpha beta gamma", max_len=8)
        params = _dense_params(np.zeros((3, 64)), np.zeros(3))
        matrices = score_chunks(chunks, params)
        np.testing.assert_allclose(matrices[0].probabilities, 0.5)

    def test_duplicate_chunks_duplicate_rows(self):
        chunks = [
            ChunkTokenSequence("A", ["[CLS]", "x", "y"]),
            ChunkTokenSequence("A", ["[CLS]", "x", "y"]),
        ]
        rng = np.random.default_rng(0)
        params = _dense_params(rng.standard_normal((2, 64)),
                               rng.standard_normal(2))
        matrix = score_chunks(chunks, params)[0]
        np.testing.assert_array_equal(matrix.probabilities[0],
                                      matrix.probabilities[1])

    def test_hash_features_deterministic_counts(self):
        f1 = hash_features(["a", "b", "a"], 128)
        f2 = hash_features(["b", "a", "a"], 128)
        np.testing.assert_array_equal(f1, f2)
        assert np.abs(f1).sum() >= 1

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(max_size=12), min_size=1, max_size=30),
           st.integers(min_value=1, max_value=2 ** 20))
    def test_cached_token_slots_match_uncached(self, tokens, dim):
        for token in tokens + tokens:  # the second pass reads the cache
            slot, sign = _token_slot(token, dim)
            assert (slot, sign) == _token_slot.__wrapped__(token, dim)
            assert 0 <= slot < dim and sign in (1.0, -1.0)

    def test_marked_token_learns_positive_weight(self):
        rng = np.random.default_rng(4)
        vocab = [f"w{i}" for i in range(30)]
        chunks, labels = [], {}
        for i in range(120):
            adm = f"adm{i}"
            positive = i % 5 == 0
            words = list(rng.choice(vocab, size=20))
            if positive:
                words[3] = "markertoken"
            chunks.extend(chunk_text(adm, " ".join(words), max_len=32))
            labels[adm] = np.array([positive])
        params, history = train_scorer(
            chunks, labels,
            ScorerConfig(feature_dim=256, epochs=5, lr=0.05, seed=0),
        )
        assert history["train_loss"][-1] < history["train_loss"][0]
        marked = chunk_text("x", "markertoken " * 3, max_len=8)
        plain = chunk_text("y", "w1 w2 w3", max_len=8)
        high = score_chunks(marked, params)[0].probabilities[0, 0]
        low = score_chunks(plain, params)[0].probabilities[0, 0]
        assert high > 0.5 > low

    def test_scorer_deterministic(self):
        chunks = chunk_text("A", "a b c d e f g h", max_len=4)
        labels = {"A": np.array([True, False])}
        config = ScorerConfig(feature_dim=64, epochs=2, seed=3)
        p1, h1 = train_scorer(chunks, labels, config)
        p2, h2 = train_scorer(chunks, labels, config)
        np.testing.assert_array_equal(p1.weights, p2.weights)
        assert h1 == h2

    def test_zero_epochs_returns_initialization(self):
        chunks = chunk_text("A", "a b c", max_len=4)
        labels = {"A": np.array([True])}
        config = ScorerConfig(feature_dim=32, epochs=0, seed=1)
        p1, _ = train_scorer(chunks, labels, config)
        p2, _ = train_scorer(list(reversed(chunks)), labels, config)
        np.testing.assert_array_equal(p1.weights, p2.weights)

    def test_no_labeled_chunks(self):
        with pytest.raises(DataError, match="no labeled chunks to train on"):
            train_scorer(chunk_text("A", "a b", max_len=4), {},
                         ScorerConfig(feature_dim=16))


def _cancelling_pair(dim: int) -> tuple[str, str]:
    """Two tokens that hash to one slot with opposite signs."""
    seen: dict[int, tuple[str, float]] = {}
    for i in range(1_000_000):
        token = f"t{i}"
        slot, sign = _token_slot(token, dim)
        if slot in seen and seen[slot][1] != sign:
            return seen[slot][0], token
        seen.setdefault(slot, (token, sign))
    raise AssertionError("no cancelling pair")


def _sparse_case_chunks(dim: int) -> list[ChunkTokenSequence]:
    """Random chunks plus a chunk whose only tokens cancel, a marker-only
    chunk and a chunk without tokens."""
    rng = np.random.default_rng(dim)
    vocab = [f"w{i}" for i in range(60)]
    plus, minus = _cancelling_pair(dim)
    chunks = []
    for i in range(24):
        words = list(rng.choice(vocab, size=int(rng.integers(1, 40))))
        chunks.extend(chunk_text(f"adm{i % 9}", " ".join(words), max_len=16))
    chunks.append(ChunkTokenSequence("cancel", [plus, minus, "w1"]))
    chunks.append(ChunkTokenSequence("cancel", [plus, minus]))
    chunks.append(ChunkTokenSequence("marker", ["[CLS]"]))
    chunks.append(ChunkTokenSequence("blank", []))
    return chunks


def _dense_train(chunks, labels_by_admission, config):
    """The scorer trained on dense hash_features rows: the reference. Its
    touched columns start from the scorer's draw, the others from 0; no
    gradient reaches those."""
    usable = [ch for ch in chunks if ch.admission_id in labels_by_admission]
    targets = np.stack([labels_by_admission[ch.admission_id]
                        for ch in usable])
    rng = np.random.default_rng([config.seed, 0])
    dim, n_categories = config.feature_dim, targets.shape[1]
    touched = sorted({_token_slot(token, dim)[0]
                      for ch in usable for token in ch.tokens})
    layer = DenseLayer(dim, n_categories, None)
    layer.weights[:, touched] = glorot_uniform(
        np.random.default_rng([config.seed, 1]), dim, n_categories,
        (n_categories, len(touched)))
    optimizer = Adam(layer.params(), lr=config.lr)
    features = np.stack([hash_features(ch.tokens, config.feature_dim)
                         for ch in usable])
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(usable))
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            rows = order[start:start + config.batch_size]
            probs = sigmoid(layer.forward(features[rows], train=True))
            loss, grad = bce_loss(probs, targets[rows])
            layer.backward(grad)
            optimizer.step(layer.grads())
            total += loss * grad.size
        losses.append(total / targets.size)
    return layer.weights, layer.bias, losses


class TestSparseFeatures:
    """The CSR hashing, gather-sum scoring and active-column training
    against the dense hash_features computation (tolerance 1e-12 where the
    summation order changed, exact where it did not)."""

    @pytest.mark.parametrize("dim", [16, 2 ** 15])
    def test_hash_rows_match_hash_features(self, dim):
        chunks = _sparse_case_chunks(dim)
        indptr, slots, values = notes._hash_rows(chunks, dim)
        for i, chunk in enumerate(chunks):
            row = slice(indptr[i], indptr[i + 1])
            assert np.all(np.diff(slots[row]) > 0)
            rebuilt = np.zeros(dim)
            rebuilt[slots[row]] = values[row]
            np.testing.assert_array_equal(rebuilt,
                                          hash_features(chunk.tokens, dim))
        # the chunk [plus, minus] is one explicit zero
        assert values[indptr[-4]:indptr[-3]].tolist() == [0.0]

    @pytest.mark.parametrize("dim", [16, 2 ** 15])
    @pytest.mark.parametrize("block_bytes", [8 << 20, 8 * 5 * 3])
    def test_score_chunks_matches_dense(self, dim, block_bytes, monkeypatch):
        """A scorer trained on every other slot against the dense product
        with zeros in the untrained columns."""
        monkeypatch.setattr(notes, "_HASH_BLOCK_BYTES", block_bytes)
        chunks = _sparse_case_chunks(dim)
        rng = np.random.default_rng(1)
        slots = np.arange(1, dim, 2)
        params = LinearClassifierParams(
            slots=slots, weights=rng.standard_normal((5, slots.size)),
            bias=rng.standard_normal(5), feature_dim=dim)
        full = np.zeros((5, dim))
        full[:, slots] = params.weights
        matrices = score_chunks(chunks, params)
        runs = [(adm, list(run)) for adm, run in groupby(
            chunks, key=attrgetter("admission_id"))]
        assert [m.admission_id for m in matrices] == [adm for adm, _ in runs]
        for matrix, (_, own) in zip(matrices, runs, strict=True):
            dense = np.stack([hash_features(ch.tokens, dim) for ch in own])
            expected = sigmoid(dense @ full.T + params.bias)
            np.testing.assert_allclose(matrix.probabilities, expected,
                                       rtol=0, atol=1e-12)
        blank = next(m for m in matrices if m.admission_id == "blank")
        np.testing.assert_array_equal(blank.probabilities[0],
                                      sigmoid(params.bias))

    @pytest.mark.parametrize("dim", [16, 2 ** 15])
    def test_train_scorer_matches_dense(self, dim):
        chunks = _sparse_case_chunks(dim)
        rng = np.random.default_rng(2)
        labels = {ch.admission_id: rng.random(3) < 0.4 for ch in chunks}
        config = ScorerConfig(feature_dim=dim, epochs=3, batch_size=4,
                              lr=0.05, seed=7)
        params, history = train_scorer(chunks, labels, config)
        weights, bias, losses = _dense_train(chunks, labels, config)
        touched = {_token_slot(token, dim)[0]
                   for ch in chunks for token in ch.tokens}
        np.testing.assert_array_equal(params.slots, sorted(touched))
        assert params.feature_dim == dim
        np.testing.assert_allclose(params.weights, weights[:, params.slots],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(params.bias, bias, rtol=0, atol=1e-12)
        np.testing.assert_allclose(history["train_loss"], losses, rtol=0,
                                   atol=1e-12)

    # At dim 16 every slot is trained, so the draw is the full layer's.
    @pytest.mark.parametrize("dim", [64, 2 ** 15])
    def test_untrained_scorer_is_one_draw_of_its_columns(self, dim):
        """The trained columns alone are drawn, at the Glorot scale of the
        full (categories, dim) layer."""
        chunks = _sparse_case_chunks(dim)
        labels = {ch.admission_id: np.ones(3, dtype=bool) for ch in chunks}
        config = ScorerConfig(feature_dim=dim, epochs=0, seed=7)
        params, _ = train_scorer(chunks, labels, config)
        init = glorot_uniform(np.random.default_rng([config.seed, 1]), dim,
                              3, (3, params.slots.size))
        np.testing.assert_array_equal(params.weights, init)

    def test_fitting_memory_does_not_grow_with_feature_dim(self):
        dim = 2 ** 24
        chunks = _sparse_case_chunks(dim)
        labels = {ch.admission_id: np.arange(3) % 2 == 0 for ch in chunks}
        config = ScorerConfig(feature_dim=dim, epochs=1, batch_size=4,
                              seed=7)
        # The first call fills _token_slot's cache, which outlives it.
        expected, _ = train_scorer(chunks, labels, config)
        tracemalloc.start()
        try:
            params, _ = train_scorer(chunks, labels, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        np.testing.assert_array_equal(params.weights, expected.weights)

    @pytest.mark.parametrize("dim", [16, 2 ** 15])
    def test_blocks_give_the_whole_list_results(self, dim, monkeypatch):
        """Hashing and scoring a block of chunks at a time gives, bit for
        bit, what one block of every chunk gives, a chunk of more tokens
        than a block holds included."""
        chunks = _sparse_case_chunks(dim)
        chunks.insert(5, ChunkTokenSequence(
            "long", [f"w{i % 70}" for i in range(300)]))
        labels = {ch.admission_id: np.arange(3) % 2 == 0 for ch in chunks}
        config = ScorerConfig(feature_dim=dim, epochs=2, batch_size=4,
                              seed=7)

        def run():
            params, history = train_scorer(chunks, labels, config)
            return (notes._hash_rows(chunks, dim), params, history,
                    score_chunks(chunks, params))

        whole_rows = notes._hash_block(chunks, dim)
        whole = run()
        monkeypatch.setattr(notes, "_HASH_BLOCK_BYTES",
                            40 * notes._HASH_TOKEN_BYTES)
        assert len(list(notes._blocks(chunks))) > 10
        blocked = run()
        for rows in (whole[0], blocked[0]):
            for got, want in zip(rows, whole_rows):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        for name in ("slots", "weights", "bias"):
            np.testing.assert_array_equal(getattr(blocked[1], name),
                                          getattr(whole[1], name))
        assert blocked[2] == whole[2]
        assert [m.admission_id for m in blocked[3]] == [
            m.admission_id for m in whole[3]]
        for got, want in zip(blocked[3], whole[3]):
            np.testing.assert_array_equal(got.probabilities,
                                          want.probabilities)

    def test_scoring_peak_stays_within_two_block_budgets(self):
        """281 categories over some 60k tokens: a scoring block's gathered
        weights fit _HASH_BLOCK_BYTES, as its hashing arrays do, so the
        traced peak stays under two budgets plus the probabilities."""
        rng = np.random.default_rng(5)
        dim = 2 ** 15
        vocab = [f"w{i}" for i in range(3000)]
        chunks = [ChunkTokenSequence(f"adm{i // 3}", ["[CLS]", *(
            vocab[k] for k in rng.integers(len(vocab), size=127))])
                  for i in range(470)]
        slots = np.unique([_token_slot(w, dim)[0] for w in vocab[:125]])
        params = LinearClassifierParams(
            slots=slots, weights=rng.standard_normal((281, slots.size)),
            bias=rng.standard_normal(281), feature_dim=dim)
        # The first call fills _token_slot's cache, which outlives it.
        expected = score_chunks(chunks, params)
        tracemalloc.start()
        try:
            matrices = score_chunks(chunks, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = sum(m.probabilities.nbytes for m in matrices)
        assert output == 470 * 281 * 8
        assert peak < 2 * notes._HASH_BLOCK_BYTES + output
        for got, want in zip(matrices, expected):
            np.testing.assert_array_equal(got.probabilities,
                                          want.probabilities)

    def test_chunk_of_untrained_slots_scores_the_bias(self):
        dim = 2 ** 15
        chunks = _sparse_case_chunks(dim)
        labels = {ch.admission_id: np.ones(3, dtype=bool) for ch in chunks}
        params, _ = train_scorer(chunks, labels, ScorerConfig(
            feature_dim=dim, epochs=1, seed=7))
        unseen = next(f"u{i}" for i in range(1_000_000)
                      if _token_slot(f"u{i}", dim)[0] not in params.slots)
        matrix = score_chunks([ChunkTokenSequence("new", [unseen])],
                              params)[0]
        assert not np.all(params.bias == 0)
        np.testing.assert_array_equal(matrix.probabilities[0],
                                      sigmoid(params.bias))


class TestAggregation:
    def _matrix(self, rows):
        return ChunkScoreMatrix("A", np.asarray(rows, dtype=float))

    def test_single_chunk_identity(self):
        out = aggregate(self._matrix([[0.7]]), 2.0)
        assert out[0] == pytest.approx(0.7, abs=1e-12)

    def test_hand_computed_two_chunks(self):
        # max 0.8, mean 0.5, n=2, c=2: (0.8 + 0.5*1) / (1+1) = 0.65
        out = aggregate(self._matrix([[0.2], [0.8]]), 2.0)
        assert out[0] == pytest.approx(0.65, abs=1e-12)

    def test_limits(self):
        probs = [[0.2], [0.8], [0.5]]
        big_c = aggregate(self._matrix(probs), 1e9)
        assert big_c[0] == pytest.approx(0.8, abs=1e-6)  # c -> inf: max
        many = [[0.3]] * 5000 + [[0.9]]
        expected_mean = np.asarray(many).mean()
        huge_n = aggregate(self._matrix(many), 2.0)
        assert huge_n[0] == pytest.approx(expected_mean, abs=1e-3)

    def test_bounds_monotonicity_permutation(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            probs = rng.random((n, 3))
            c = float(rng.uniform(0.1, 5.0))
            out = aggregate(ChunkScoreMatrix("A", probs), c)
            assert np.all(out >= probs.min(axis=0) - 1e-12)
            assert np.all(out <= probs.max(axis=0) + 1e-12)
            # permutation invariance
            perm = rng.permutation(n)
            out_p = aggregate(ChunkScoreMatrix("A", probs[perm]), c)
            np.testing.assert_allclose(out, out_p, atol=1e-12)
            # raising one entry never lowers the aggregate
            bumped = probs.copy()
            i, j = int(rng.integers(n)), int(rng.integers(3))
            bumped[i, j] = min(1.0, bumped[i, j] + float(rng.random()) * 0.5)
            out_b = aggregate(ChunkScoreMatrix("A", bumped), c)
            assert out_b[j] >= out[j] - 1e-12

    def test_empty_chunk_set(self):
        with pytest.raises(DataError,
                           match="admission A has no scored chunks"):
            aggregate(ChunkScoreMatrix("A", np.zeros((0, 3))))

    def test_invalid_scale(self):
        with pytest.raises(ConfigError,
                           match="aggregation scale c must be positive"):
            aggregate(self._matrix([[0.5]]), 0.0)


def _pairs(chunks):
    return [(c.admission_id, c.tokens) for c in chunks]


# Quotes, backslashes, a newline and non-ASCII text, which json.dumps
# escapes, and the characters of a marker.
_AWKWARD = st.sampled_from(['"', "\\", "\n", "\u00e9", "\u6f22", "\U0001f600",
                            "[", "]", "C", "L", "S", ",", " ", "a"])


class TestPersistence:
    def test_chunks_roundtrip(self, tmp_path):
        chunks = chunk_text("A", "a b c d e f", max_len=4) + \
            chunk_text("B", "g h", max_len=4)
        path = tmp_path / "chunks.json"
        save_chunks(path, chunks)
        loaded = load_chunks(path)
        assert _pairs(loaded) == _pairs(chunks)

    def test_one_line_layout_loads_the_same_chunks(self, tmp_path):
        chunks = chunk_text("A", "a b c d e f", max_len=4) + \
            chunk_text("B", "g h", max_len=4)
        streamed, one_line = tmp_path / "s.json", tmp_path / "o.json"
        save_chunks(streamed, chunks)
        one_line.write_text(json.dumps(json.loads(streamed.read_text())))
        assert "\n" not in one_line.read_text()
        assert _pairs(load_chunks(one_line)) == _pairs(
            load_chunks(streamed)) == _pairs(chunks)

    @settings(max_examples=150, deadline=None, database=None)
    @given(payload=st.dictionaries(
        st.text(alphabet=_AWKWARD, max_size=8),
        st.lists(st.lists(st.text(alphabet=_AWKWARD, max_size=6)
                          | st.just("[CLS]"), max_size=6),
                 min_size=1, max_size=4),
        max_size=8),
        block=st.sampled_from([1, 7, 64, 1 << 18]))
    def test_streamed_file_is_json_dumps_and_round_trips(
            self, tmp_path_factory, payload, block):
        chunks = [ChunkTokenSequence(adm, list(tokens))
                  for adm, token_lists in payload.items()
                  for tokens in token_lists]
        path = tmp_path_factory.mktemp("chunks") / "chunks.json"
        assert save_chunks(path, chunks) == len(chunks)
        text = path.read_text(encoding="utf-8")
        # json.dumps with ",\n" for ", " between admissions: its text
        # holds no newline of its own
        assert text.replace(",\n", ", ") == json.dumps(payload) + "\n"
        assert text.count("\n") == max(len(payload), 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tables, "_JSON_BLOCK_CHARS", block)
            loaded = load_chunks(path)
        assert _pairs(loaded) == _pairs(chunks)
        # equal tokens are one str object
        tokens = [token for chunk in loaded for token in chunk.tokens]
        assert len(set(map(id, tokens))) == len(set(tokens))

    def test_scorer_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        params = LinearClassifierParams(
            slots=np.array([0, 5, 31]), weights=rng.standard_normal((2, 3)),
            bias=rng.standard_normal(2), feature_dim=32)
        path = tmp_path / "scorer.npz"
        save_scorer(path, params)
        loaded = load_scorer(path)
        for name in ("slots", "weights", "bias"):
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(params, name))
        assert loaded.feature_dim == 32

    def test_score_matrices_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        matrices = [
            ChunkScoreMatrix("a1", rng.random((3, 4))),
            ChunkScoreMatrix("a2", rng.random((1, 4))),
        ]
        path = tmp_path / "scores.npz"
        save_score_matrices(path, matrices)
        loaded = {m.admission_id: m for m in load_score_matrices(path)}
        for m in matrices:
            np.testing.assert_array_equal(
                loaded[m.admission_id].probabilities, m.probabilities
            )


class TestReadNoteEvents:
    def test_blank_charttime_falls_back_to_chartdate(self, csv_writer):
        header = list(TABLE_COLUMNS[TableKind.NOTEEVENTS])

        def row(row_id, charttime, chartdate):
            cells = dict.fromkeys(header, "")
            cells.update(row_id=row_id, hadm_id="7", charttime=charttime,
                         chartdate=chartdate, category="Nursing", text="t")
            return [cells[col] for col in header]

        path = csv_writer("noteevents.csv", header, [
            row("1", "  ", "2130-03-02"),
            row("2", "", "2130-03-03"),
            row("3", "2130-03-04 10:00:00", "2130-03-04"),
            row("4", "  ", ""),
        ])
        notes = read_note_events(path)
        assert [n.charttime for n in notes] == list(map(epoch_seconds, [
            datetime(2130, 3, 2), datetime(2130, 3, 3),
            datetime(2130, 3, 4, 10),
        ]))

    def test_second_zero_is_a_time(self, csv_writer):
        # 1970-01-01 00:00:00 is second 0: a time, though a false value.
        def table(kind, *rows):
            header = list(TABLE_COLUMNS[kind])
            return header, [[row.get(col, "") for col in header]
                            for row in rows]

        times = read_admission_times(csv_writer("admissions.csv", *table(
            TableKind.ADMISSIONS,
            {"hadm_id": "7", "admittime": "1970-01-01 00:00:00",
             "dischtime": "1970-01-03 00:00:00"},
            {"hadm_id": "8", "admittime": "1969-12-30 00:00:00",
             "dischtime": "1970-01-01T00:00:00"})))
        assert times == {"7": (0, 2 * 86400), "8": (-2 * 86400, 0)}
        notes = list(read_note_events(csv_writer("noteevents.csv", *table(
            TableKind.NOTEEVENTS,
            {"hadm_id": "7", "category": "Nursing",
             "charttime": "1970-01-01 00:00:00", "text": "at second zero"}))))
        assert [n.charttime for n in notes] == [0]
        assert build_subset(notes, times, "days2") == {"7": "at second zero"}
