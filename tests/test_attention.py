"""Attention weight math and alignment export."""

import math

import numpy as np
import pytest

from ehrpipe.attention import (
    attention,
    AttentionInput,
    export_alignment,
    read_alignment_csv,
    write_alignment_csv,
)
from ehrpipe.errors import DataError


def _input(q, k, v, tq=None, tk=None):
    return AttentionInput(
        queries=np.asarray(q, dtype=float),
        keys=np.asarray(k, dtype=float),
        values=np.asarray(v, dtype=float),
        tokens_q=tq or [],
        tokens_k=tk or [],
    )


class TestAttention:
    def test_zero_queries_give_uniform_weights(self):
        out = attention(_input(np.zeros((2, 3)), np.random.default_rng(0)
                               .standard_normal((5, 3)), np.eye(5)))
        np.testing.assert_allclose(out.weights, 1.0 / 5.0, atol=1e-12)

    def test_single_key(self):
        out = attention(_input([[1.0, 2.0]], [[0.5, 0.5]], [[7.0, 8.0]]))
        assert out.weights[0, 0] == 1.0
        np.testing.assert_array_equal(out.output, [[7.0, 8.0]])

    def test_hand_computed_one_dimensional(self):
        # q=[2], keys [[1],[0]], d=1: logits (2, 0); softmax gives
        # e^2/(e^2+1) and 1/(e^2+1)
        out = attention(_input([[2.0]], [[1.0], [0.0]], [[1.0], [0.0]]))
        expected_hi = math.exp(2.0) / (math.exp(2.0) + 1.0)
        assert out.weights[0, 0] == pytest.approx(expected_hi, abs=1e-12)
        assert out.weights[0, 1] == pytest.approx(1 - expected_hi, abs=1e-12)
        assert out.weights[0, 0] == pytest.approx(0.8808, abs=1e-4)
        assert out.weights[0, 1] == pytest.approx(0.1192, abs=1e-4)

    def test_rows_are_stochastic(self):
        rng = np.random.default_rng(1)
        out = attention(_input(rng.standard_normal((6, 4)) * 30,
                               rng.standard_normal((9, 4)) * 30,
                               rng.standard_normal((9, 2))))
        np.testing.assert_allclose(out.weights.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out.weights >= 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((4, 3))
        k = rng.standard_normal((6, 3))
        v = rng.standard_normal((6, 2))
        shift = rng.standard_normal(3)  # adds a per-row constant to logits
        base = attention(_input(q, k, v))
        shifted = attention(_input(q, k + shift, v))
        np.testing.assert_allclose(base.weights, shifted.weights, atol=1e-12)

    def test_sqrt_d_divisor_placement(self):
        # doubling d with zero padding and a 2^(1/4) rescale keeps
        # Q K^T / sqrt(d) invariant; a missing sqrt(d) would break this
        rng = np.random.default_rng(3)
        q = rng.standard_normal((3, 2))
        k = rng.standard_normal((5, 2))
        v = rng.standard_normal((5, 4))
        beta = 2.0 ** 0.25
        q_pad = np.hstack([beta * q, np.zeros((3, 2))])
        k_pad = np.hstack([beta * k, np.zeros((5, 2))])
        base = attention(_input(q, k, v))
        padded = attention(_input(q_pad, k_pad, v))
        np.testing.assert_allclose(base.weights, padded.weights, atol=1e-12)

    def test_large_logits_do_not_overflow(self):
        out = attention(_input([[1e4]], [[100.0], [-100.0]], [[1.0], [0.0]]))
        assert np.isfinite(out.weights).all()

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="query dim 3 != key dim 2"):
            attention(_input(np.zeros((2, 3)), np.zeros((4, 2)),
                             np.zeros((4, 1))))
        with pytest.raises(DataError, match="3 value rows for 4 keys"):
            attention(_input(np.zeros((2, 3)), np.zeros((4, 3)),
                             np.zeros((3, 1))))


class TestAlignment:
    def test_uniform_weights_export(self):
        out = attention(_input(np.zeros((1, 2)), np.ones((4, 2)),
                               np.eye(4), ["q0"], ["a", "b", "c", "d"]))
        records = export_alignment(out, ["q0"], ["a", "b", "c", "d"])
        assert len(records) == 4
        assert all(w == pytest.approx(0.25) for _, _, w in records)

    def test_dominant_weight_sorts_first(self):
        out = attention(_input([[3.0]], [[2.0], [0.0], [-2.0]],
                               [[1.0], [2.0], [3.0]]))
        records = export_alignment(out, ["q"], ["hi", "mid", "lo"])
        assert records[0][1] == "hi"
        assert records[0][2] > records[1][2] > records[2][2]

    def test_csv_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        out = attention(_input(rng.standard_normal((3, 2)),
                               rng.standard_normal((5, 2)),
                               rng.standard_normal((5, 2))))
        tokens_q = [f"q{i}" for i in range(3)]
        tokens_k = [f"k{i}" for i in range(5)]
        records = export_alignment(out, tokens_q, tokens_k)
        path = tmp_path / "alignment.csv"
        write_alignment_csv(path, records)
        loaded = read_alignment_csv(path)
        assert [(q, k) for q, k, _ in loaded] == \
            [(q, k) for q, k, _ in records]
        for (_, _, a), (_, _, b) in zip(loaded, records):
            assert abs(a - b) < 1e-12

    def test_token_count_mismatch(self):
        out = attention(_input(np.zeros((2, 2)), np.ones((3, 2)), np.eye(3)))
        with pytest.raises(DataError,
                           match=r"weights \(2, 3\) vs 1 queries x 3 keys"):
            export_alignment(out, ["only-one"], ["a", "b", "c"])
