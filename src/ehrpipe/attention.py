"""Scaled dot-product attention weights and query-key alignment export.

weights = row-softmax(Q K^T / sqrt(d)), output = weights V. The module only
computes and exports the map for externally supplied matrices; rendering the
heat maps is left to downstream tools.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .tables import iter_csv_rows, load_json, open_atomic, reading, save_json


@dataclass
class AttentionInput:
    queries: np.ndarray  # (n_q, d)
    keys: np.ndarray  # (n_k, d)
    values: np.ndarray  # (n_k, d_v)
    tokens_q: list[str] = field(default_factory=list)
    tokens_k: list[str] = field(default_factory=list)

    def validate(self) -> None:
        q, k, v = map(np.asarray, (self.queries, self.keys, self.values))
        if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
            raise DataError("queries, keys and values must be 2-D")
        if q.shape[1] != k.shape[1] or q.shape[1] < 1:
            raise DataError(
                f"query dim {q.shape[1]} != key dim {k.shape[1]}"
            )
        if v.shape[0] != k.shape[0]:
            raise DataError(
                f"{v.shape[0]} value rows for {k.shape[0]} keys"
            )
        if self.tokens_q and len(self.tokens_q) != q.shape[0]:
            raise DataError("tokens_q length != number of queries")
        if self.tokens_k and len(self.tokens_k) != k.shape[0]:
            raise DataError("tokens_k length != number of keys")


@dataclass
class AttentionWeights:
    weights: np.ndarray  # (n_q, n_k), rows sum to 1
    output: np.ndarray  # (n_q, d_v)


def attention(inp: AttentionInput) -> AttentionWeights:
    inp.validate()
    q = np.asarray(inp.queries, dtype=np.float64)
    k = np.asarray(inp.keys, dtype=np.float64)
    v = np.asarray(inp.values, dtype=np.float64)
    logits = q @ k.T / np.sqrt(q.shape[1])
    logits -= logits.max(axis=1, keepdims=True)  # overflow guard
    exp = np.exp(logits)
    weights = exp / exp.sum(axis=1, keepdims=True)
    return AttentionWeights(weights=weights, output=weights @ v)


def export_alignment(
    weights: AttentionWeights,
    tokens_q: list[str],
    tokens_k: list[str],
) -> list[tuple[str, str, float]]:
    """(query_token, key_token, weight) triples, sorted by weight descending
    within each query; ties keep key order."""
    w = weights.weights
    if w.shape != (len(tokens_q), len(tokens_k)):
        raise DataError(
            f"weights {w.shape} vs {len(tokens_q)} queries x "
            f"{len(tokens_k)} keys"
        )
    records = []
    for qi, q_token in enumerate(tokens_q):
        order = sorted(range(len(tokens_k)), key=lambda ki: (-w[qi, ki], ki))
        for ki in order:
            records.append((q_token, tokens_k[ki], float(w[qi, ki])))
    return records


def write_alignment_csv(path, records: list[tuple[str, str, float]]):
    with open_atomic(path, newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["query_token", "key_token", "weight"])
        for q_token, k_token, weight in records:
            writer.writerow([q_token, k_token, f"{weight:.17g}"])


def read_alignment_csv(path) -> list[tuple[str, str, float]]:
    columns = ("query_token", "key_token", "weight")
    with reading(path):
        return [(row["query_token"], row["key_token"], float(row["weight"]))
                for row in iter_csv_rows(path, columns)]


def write_weights_json(path, weights: AttentionWeights):
    payload = {
        "weights": [[float(x) for x in row] for row in weights.weights],
        "output": [[float(x) for x in row] for row in weights.output],
    }
    save_json(path, payload)


def load_attention_input(path) -> AttentionInput:
    """Read a JSON file with queries/keys/values and optional token lists."""
    with reading(path):
        payload = load_json(path)
        return AttentionInput(
            queries=np.asarray(payload["queries"], dtype=np.float64),
            keys=np.asarray(payload["keys"], dtype=np.float64),
            values=np.asarray(payload["values"], dtype=np.float64),
            tokens_q=[str(t) for t in payload.get("tokens_q", [])],
            tokens_k=[str(t) for t in payload.get("tokens_k", [])],
        )
