"""Clinical note cleaning, subsetting, chunking, scoring and aggregation.

Notes are streamed a block of CSV rows at a time, with their times in
seconds since 1970-01-01, decoded a column at a time by tables.time_seconds,
the decoder that also reads the admission times. They are cleaned
(lowercase, abbreviation replacements, newline removal), restricted to one
of three subsets per admission (discharge summaries only, or all other notes
from the first 72h / 48h after admission), concatenated in time order
(row_id breaks a tie) and split into whitespace-token chunks of at most
max_len tokens including a leading classification marker; every stage keeps
an admission's chunks one after another, in text order.
A pluggable chunk scorer maps chunks to per-category probabilities; the
default is a signed-hash bag-of-words linear classifier trained with the
shared BCE/Adam kernel (feature hashing as in Weinberger et al., ICML 2009).
Hashed chunks are held sparsely, as CSR rows of sorted unique slots and
summed signs, never as a dense (chunks x feature_dim) matrix. The scorer
keeps only the columns its training chunks touch, as their sorted slots and
a (categories x slots) weight matrix, from its initial draw through training
and its checkpoint to scoring. A slot it was not trained on weighs 0, and
scoring is a blocked gather-sum over the weight columns. Chunk
probabilities are combined per admission as (P_max + P_mean * n/c) /
(1 + n/c), which leans on the best chunk while the mean term attenuates
noise as chunks accumulate.

Memory per token is a pointer. chunks.json is written an admission per
line as the admissions are chunked, and read back a block of lines at a
time, with one str per distinct token. Training and scoring hash a block
of chunks at a time, each distinct token of the block once, and scoring
also scores a block at a time, its gathered weights within the budget its
hashing keeps to; what grows with the chunks is the tokens' pointers, the
training CSR and the probabilities.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain, groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ConfigError, DataError
from .nn import Adam, DenseLayer, glorot_uniform, sigmoid, train_epoch
from .tables import (
    NO_TIME,
    id_sort_key,
    iter_csv_columns,
    iter_json_blocks,
    load_admission_npz,
    open_atomic,
    reading,
    save_npz,
    time_seconds,
)

DISCHARGE_CATEGORY = "discharge summary"
SUBSET_KINDS = ("disch", "days3", "days2")
_SUBSET_WINDOW_HOURS = {"days3": 72, "days2": 48}

REPLACEMENTS = {"dr.": "doctor"}  # applied in order by clean_text
MARKER = "[CLS]"  # leads every chunk
DEFAULT_MAX_LEN = 512
DEFAULT_SCALE_C = 2.0


@dataclass
class NoteEvent:
    row_id: str
    admission_id: str
    category: str
    charttime: int  # seconds since 1970-01-01 (tables.time_seconds)
    text: str


@dataclass
class ChunkTokenSequence:
    admission_id: str
    tokens: list[str]  # leading marker + at most max_len-1 content tokens


@dataclass
class ChunkScoreMatrix:
    admission_id: str
    probabilities: np.ndarray  # (n_chunks, C)


@dataclass
class LinearClassifierParams:
    slots: np.ndarray  # int64 (S,): the trained columns, sorted and unique
    weights: np.ndarray  # (C, S): column j weighs slot slots[j]
    bias: np.ndarray  # (C,)
    feature_dim: int  # slots hash into [0, feature_dim)


# _hash_rows' int64 keys chunk * feature_dim + slot cannot wrap under this
# bound for fewer than 2^31 chunks.
MAX_FEATURE_DIM = 2 ** 32


@dataclass(frozen=True)
class ScorerConfig:
    feature_dim: int = 2 ** 15
    epochs: int = 3
    batch_size: int = 32
    lr: float = 1e-2
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("feature_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"scorer {name} must be positive")
        if self.feature_dim > MAX_FEATURE_DIM:
            raise ConfigError("scorer feature_dim must be at most 2^32")
        if self.epochs < 0:
            raise ConfigError("scorer epochs must be >= 0")
        if not 0 < self.lr < math.inf:  # also rejects NaN
            raise ConfigError("scorer lr must be positive and finite")


def clean_text(raw: str) -> str:
    """Lowercase, apply REPLACEMENTS, strip newlines, collapse runs."""
    text = raw.lower()
    for old, new in REPLACEMENTS.items():
        text = text.replace(old, new)
    text = text.replace("\r", " ").replace("\n", " ")
    return " ".join(text.split())


def build_subset(
    notes: Iterable[NoteEvent],
    admission_times: Mapping[str, tuple[int, int]],
    kind: str,
) -> dict[str, str]:
    """Per-admission concatenated cleaned text for one subset.

    disch keeps only discharge summaries; days3/days2 keep all other notes
    with charttime before admit + 72h/48h. Retained notes are sorted by
    charttime, then by row_id (numbers by value, as tables.id_sort_key
    orders ids), so the order of the input does not matter, and joined
    with single spaces; notes that clean to the empty string are dropped;
    admissions with no qualifying notes are absent.
    """
    check_subset(kind)
    picked: dict[str, list[tuple[int, tuple, str]]] = {}
    for note in notes:
        adm = str(note.admission_id)
        if adm not in admission_times:
            raise DataError(f"note references unknown admission {adm}")
        is_discharge = note.category.strip().lower() == DISCHARGE_CATEGORY
        if kind == "disch":
            if not is_discharge:
                continue
        else:
            if is_discharge:
                continue
            admit, _ = admission_times[adm]
            if note.charttime >= admit + _SUBSET_WINDOW_HOURS[kind] * 3600:
                continue
        cleaned = clean_text(note.text)
        if not cleaned:
            continue
        picked.setdefault(adm, []).append(
            (note.charttime, id_sort_key(note.row_id), cleaned))
    return {
        adm: " ".join(text for _, _, text in sorted(entries))
        for adm, entries in picked.items()
    }


def check_subset(kind: str) -> None:
    """ConfigError unless kind is one of SUBSET_KINDS."""
    if kind not in SUBSET_KINDS:
        raise ConfigError(f"subset kind must be one of {SUBSET_KINDS}")


def check_max_len(max_len: int) -> None:
    """ConfigError unless a chunk of max_len tokens holds the marker and
    at least one token."""
    if max_len < 2:
        raise ConfigError("max_len must be at least 2 (marker + 1 token)")


def chunk_text(
    admission_id: str,
    text: str,
    max_len: int = DEFAULT_MAX_LEN,
) -> list[ChunkTokenSequence]:
    """Greedy whitespace chunking to max_len tokens including MARKER."""
    check_max_len(max_len)
    tokens = text.split()
    if not tokens:
        return []
    content = max_len - 1
    return [
        ChunkTokenSequence(admission_id=str(admission_id),
                           tokens=[MARKER] + tokens[start:start + content])
        for start in range(0, len(tokens), content)
    ]


@functools.lru_cache(maxsize=2 ** 16)
def _token_slot(token: str, dim: int) -> tuple[int, float]:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    value = int.from_bytes(digest, "little")
    sign = 1.0 if value >> 63 == 0 else -1.0
    return value % dim, sign


# Budget for the arrays one block of chunks makes: _hash_block's, at some
# 100 bytes a token, and in scoring the block's gathered weights, at 8
# bytes a token and category. A chunk of more tokens is a block of its own.
_HASH_BLOCK_BYTES = 2 << 20
_HASH_TOKEN_BYTES = 100


def _blocks(chunks: list[ChunkTokenSequence],
            token_bytes: int = _HASH_TOKEN_BYTES) -> Iterator[slice]:
    """Consecutive runs of chunks that fit _HASH_BLOCK_BYTES at token_bytes
    a token, in order."""
    limit = max(1, _HASH_BLOCK_BYTES // token_bytes)
    start = held = 0
    for stop, chunk in enumerate(chunks):
        if held and held + len(chunk.tokens) > limit:
            yield slice(start, stop)
            start, held = stop, 0
        held += len(chunk.tokens)
    if start < len(chunks):
        yield slice(start, len(chunks))


def _hash_block(chunks: list[ChunkTokenSequence],
                dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_hash_rows of one block of chunks, all at once.

    Each distinct token is hashed once; every position then gathers its
    token's slot and sign.
    """
    lengths = np.fromiter((len(ch.tokens) for ch in chunks), dtype=np.int64,
                          count=len(chunks))
    tokens = list(chain.from_iterable(ch.tokens for ch in chunks))
    index = {token: i for i, token in enumerate(dict.fromkeys(tokens))}
    hashed = [_token_slot(token, dim) for token in index]
    position = np.fromiter(map(index.__getitem__, tokens), dtype=np.intp,
                           count=len(tokens))
    slots = np.array([slot for slot, _ in hashed], dtype=np.int64)[position]
    signs = np.array([sign for _, sign in hashed], dtype=np.float64)[position]
    rows = np.repeat(np.arange(len(chunks), dtype=np.int64), lengths)
    keys, inverse = np.unique(rows * dim + slots, return_inverse=True)
    values = np.bincount(inverse, weights=signs, minlength=keys.size)
    indptr = np.zeros(len(chunks) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // dim, minlength=len(chunks)), out=indptr[1:])
    return indptr, keys % dim, values


def _hash_rows(chunks: list[ChunkTokenSequence],
               dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chunks' signed-hash term-frequency rows in CSR form: (indptr,
    slots, values).

    Row i is chunk i: its sorted unique slots are slots[indptr[i]:indptr[i+1]]
    and values holds the summed signs of the tokens that hash to them. A slot
    whose signs cancel keeps an explicit 0; a chunk without tokens is an empty
    row. The rows are hashed a block of chunks at a time, so only the CSR
    itself grows with the number of chunks.
    """
    indptr = np.zeros(len(chunks) + 1, dtype=np.int64)
    slots, values = [np.zeros(0, np.int64)], [np.zeros(0)]
    for block in _blocks(chunks):
        block_indptr, block_slots, block_values = _hash_block(chunks[block],
                                                              dim)
        indptr[block.start + 1:block.stop + 1] = (block_indptr[1:]
                                                  + indptr[block.start])
        slots.append(block_slots)
        values.append(block_values)
    return indptr, np.concatenate(slots), np.concatenate(values)


def _dense_rows(indptr: np.ndarray, columns: np.ndarray, values: np.ndarray,
                rows: np.ndarray, width: int) -> np.ndarray:
    """The given rows of a CSR matrix as a dense (len(rows), width) array."""
    counts = indptr[rows + 1] - indptr[rows]
    offsets = np.cumsum(counts) - counts
    picked = np.repeat(indptr[rows] - offsets, counts) + np.arange(counts.sum())
    out = np.zeros((rows.size, width))
    out[np.repeat(np.arange(rows.size), counts), columns[picked]] = (
        values[picked])
    return out


def _logits(indptr: np.ndarray, slots: np.ndarray, values: np.ndarray,
            table: np.ndarray, params: LinearClassifierParams) -> np.ndarray:
    """W f + b for every CSR row, as a gather-sum over the weight columns.

    table holds the weights slot-major, one row per trained slot, and a
    last row of zeros, which every slot the scorer was not trained on maps
    to. The gathered (nonzeros x categories) weights are held at once.
    """
    position = np.searchsorted(params.slots, slots)
    # the position past the last slot is the row of zeros
    position[np.append(params.slots, -1)[position] != slots] = len(params.slots)
    out = np.zeros((indptr.size - 1, table.shape[1]))
    # reduceat sums [cut, next cut); an empty row has no cut of its own and
    # keeps its zero.
    filled = np.flatnonzero(np.diff(indptr))
    if filled.size:
        gathered = table[position]
        gathered *= values[:, None]
        out[filled] = np.add.reduceat(gathered, indptr[filled])
    out += params.bias
    return out


def score_chunks(
    chunks: list[ChunkTokenSequence],
    params: LinearClassifierParams,
) -> list[ChunkScoreMatrix]:
    """Per-admission (chunks x categories) probabilities: sigmoid(Wf + b).

    An admission's chunks must come one after another, as load_chunks and
    chunk_text give them: each run of an admission's chunks, in the order
    given, is one matrix, its rows in the chunks' order. The chunks are
    hashed and scored a block at a time, each block's gathered weights
    within _HASH_BLOCK_BYTES, so only the probabilities grow with the
    number of chunks.
    """
    n_categories = params.weights.shape[0]
    table = np.vstack([params.weights.T, np.zeros(n_categories)])
    probabilities = np.empty((len(chunks), n_categories))
    token_bytes = max(_HASH_TOKEN_BYTES, 8 * n_categories)
    for block in _blocks(chunks, token_bytes):
        probabilities[block] = sigmoid(_logits(
            *_hash_block(chunks[block], params.feature_dim), table, params))
    matrices, start = [], 0
    for adm, run in groupby(chunks, key=attrgetter("admission_id")):
        stop = start + sum(1 for _ in run)
        matrices.append(ChunkScoreMatrix(adm, probabilities[start:stop]))
        start = stop
    return matrices


def train_scorer(
    chunks: list[ChunkTokenSequence],
    labels_by_admission: Mapping[str, np.ndarray],
    config: ScorerConfig = ScorerConfig(),
) -> tuple[LinearClassifierParams, dict]:
    """Fit the linear chunk scorer; each chunk inherits its admission labels.

    Deterministic per seed; returns the parameters and a per-epoch loss log.
    Only the active columns, the slots the training chunks hash to, can get
    a gradient, so training runs a DenseLayer over them alone, on batches
    densified to (batch, active), and the parameters are those columns.
    Only they are drawn, from the Glorot range of the full (categories,
    feature_dim) layer, so fitting costs the same whatever feature_dim is.
    """
    usable = [ch for ch in chunks if ch.admission_id in labels_by_admission]
    if not usable:
        raise DataError("no labeled chunks to train on")
    targets = np.stack(
        [np.asarray(labels_by_admission[ch.admission_id], dtype=bool)
         for ch in usable]
    )
    n_categories = targets.shape[1]

    rng = np.random.default_rng([config.seed, 0])
    init_rng = np.random.default_rng([config.seed, 1])
    indptr, slots, values = _hash_rows(usable, config.feature_dim)
    active, columns = np.unique(slots, return_inverse=True)
    layer = DenseLayer(active.size, n_categories, None)
    layer.weights[...] = glorot_uniform(init_rng, config.feature_dim,
                                        n_categories,
                                        (n_categories, active.size))
    optimizer = Adam(layer.params(), lr=config.lr)
    history: dict = {"train_loss": []}
    for _ in range(config.epochs):
        history["train_loss"].append(train_epoch(
            layer, optimizer, rng.permutation(len(usable)), config.batch_size,
            lambda rows: (_dense_rows(indptr, columns, values, rows,
                                      active.size), targets[rows])))
    params = LinearClassifierParams(slots=active, weights=layer.weights,
                                    bias=layer.bias,
                                    feature_dim=config.feature_dim)
    return params, history


def check_scale_c(c: float) -> None:
    """ConfigError unless the aggregation scale c is positive."""
    if not c > 0:  # also rejects NaN
        raise ConfigError("aggregation scale c must be positive")


def aggregate(matrix: ChunkScoreMatrix,
              c: float = DEFAULT_SCALE_C) -> np.ndarray:
    """Combine chunk probabilities into one per-category admission vector."""
    check_scale_c(c)
    probs = matrix.probabilities
    if probs.ndim != 2 or probs.shape[0] < 1:
        raise DataError(
            f"admission {matrix.admission_id} has no scored chunks"
        )
    n = probs.shape[0]
    p_max = probs.max(axis=0)
    p_mean = probs.mean(axis=0)
    weight = n / c
    return (p_max + p_mean * weight) / (1.0 + weight)


def read_note_events(path) -> Iterator[NoteEvent]:
    """Notes from a noteevents CSV, streamed a block of rows at a time, its
    times decoded a column at a time (tables.time_seconds); rows without a
    parseable time or without an admission id are dropped.

    A blank charttime counts as missing, so chartdate stands in for it.
    """
    columns = ("row_id", "hadm_id", "category", "charttime", "chartdate",
               "text")
    for row_id, hadm, category, charttime, chartdate, text in (
            iter_csv_columns(path, columns)):
        seconds = time_seconds([time if time.strip() else date for time, date
                                in zip(charttime, chartdate)]).tolist()
        for row, adm, kind, when, body in zip(
                row_id, map(str.strip, hadm), category, seconds, text):
            if when != NO_TIME and adm:
                yield NoteEvent(row.strip(), adm, kind, when, body)


# --- persistence -----------------------------------------------------------

def save_chunks(path, chunks: Iterable[ChunkTokenSequence]) -> int:
    """Write chunks.json, a JSON object that maps each admission id to its
    chunks' token lists; returns the number of chunks written.

    An admission's chunks must come one after another, as chunk_text gives
    them. Each admission is written as soon as its last chunk has come, on a
    line of its own: the file is json.dumps of the object with ",\\n", not
    ", ", between admissions.
    """
    count = 0
    with open_atomic(path) as handle:
        handle.write("{")
        for index, (adm, run) in enumerate(groupby(
                chunks, key=attrgetter("admission_id"))):
            token_lists = [chunk.tokens for chunk in run]
            if index:
                handle.write(",\n")
            handle.write(f"{json.dumps(adm)}: {json.dumps(token_lists)}")
            count += len(token_lists)
        handle.write("}\n")
    return count


def _check_chunk_block(path, members: list, seen: set[str]) -> None:
    """DataError unless every admission of members maps to lists of
    strings and appears once in the file; seen holds the admissions of the
    blocks before, and gets these.

    Three passes over the whole block check the types of the chunk lists,
    of the chunks and of the tokens; only a block that fails one is walked
    admission by admission, to name the first bad one.
    """
    values = [token_lists for _, token_lists in members]
    if not (set(map(type, values)) <= {list}
            and set(map(type, chain.from_iterable(values))) <= {list}
            and set(map(type, chain.from_iterable(chain.from_iterable(
                values)))) <= {str}):
        adm = next(adm for adm, token_lists in members
                   if not (type(token_lists) is list and all(
                       type(tokens) is list
                       and all(type(t) is str for t in tokens)
                       for tokens in token_lists)))
        raise DataError(
            f"{path}: admission {adm!r} does not map to token lists")
    for adm, _ in members:
        if adm in seen:
            raise DataError(f"{path}: admission {adm!r} appears twice")
        seen.add(adm)


def load_chunks(path) -> list[ChunkTokenSequence]:
    """Chunks from a JSON object mapping admission ids to token lists, in
    file order.

    The layout save_chunks writes is decoded a block of admissions at a
    time, and any other valid layout whole (tables.iter_json_blocks). An
    admission that does not map to lists of strings, or that appears twice,
    raises DataError. Equal tokens share one str object, so the chunks hold
    a pointer per token and one string per distinct token.
    """
    chunks = []
    seen: set[str] = set()
    canonical: dict[str, str] = {}
    with reading(path), open(path, "r", encoding="utf-8") as handle:
        for members in iter_json_blocks(path, handle, "{"):
            _check_chunk_block(path, members, seen)
            for adm, token_lists in members:
                for tokens in token_lists:
                    tokens[:] = map(canonical.setdefault, tokens, tokens)
                    chunks.append(ChunkTokenSequence(admission_id=adm,
                                                     tokens=tokens))
    return chunks


def save_scorer(path, params: LinearClassifierParams) -> Path:
    return save_npz(path, vars(params))


def load_scorer(path) -> LinearClassifierParams:
    """note_scorer.npz, checked to weigh sorted unique slots in
    [0, feature_dim), with feature_dim at most MAX_FEATURE_DIM, one weight
    column per slot and one bias per weight row, all finite."""
    with reading(path), np.load(path, allow_pickle=False) as data:
        slots, weights, bias, dim = (data[name] for name in (
            "slots", "weights", "bias", "feature_dim"))
        if slots.ndim != 1 or slots.dtype.kind not in "iu" or (
                dim.ndim != 0 or dim.dtype.kind not in "iu"
                or not 1 <= dim <= MAX_FEATURE_DIM):
            raise ValueError(f"slots {slots.shape} {slots.dtype} and"
                             f" feature_dim {dim.shape} {dim.dtype} are not"
                             " integer slots and an integer in [1, 2^32]")
        if slots.size and not (np.all(slots[1:] > slots[:-1])
                               and 0 <= int(slots[0])
                               and int(slots[-1]) < int(dim)):
            raise ValueError("slots are not sorted, unique and in"
                             f" [0, {dim})")
        if (weights.ndim != 2 or weights.shape[1:] != slots.shape
                or bias.shape != weights.shape[:1]):
            raise ValueError(f"weights {weights.shape} and bias {bias.shape}"
                             " are not a (C, slots) matrix and a (C,)"
                             " vector")
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise ValueError("weights or bias hold NaN or Inf")
        return LinearClassifierParams(slots=slots.astype(np.int64),
                                      weights=weights, bias=bias,
                                      feature_dim=int(dim))


def save_score_matrices(path, matrices: list[ChunkScoreMatrix]) -> Path:
    """The admission ids, their chunk counts and their chunks' rows."""
    return save_npz(path, {
        "admission_ids": np.array([m.admission_id for m in matrices], str),
        "chunk_counts": np.array([len(m.probabilities) for m in matrices],
                                 np.int64),
        "probabilities": np.concatenate([m.probabilities for m in matrices]
                                        or [np.zeros((0, 0))]),
    })


def load_score_matrices(path) -> list[ChunkScoreMatrix]:
    """chunk_scores.npz, checked to hold 2-D probabilities whose rows the
    chunk counts, each at least 1, cover exactly; each matrix is a view of
    its admission's rows."""
    arrays = load_admission_npz(path, ("chunk_counts",), ("probabilities",))
    counts, probs = arrays["chunk_counts"], arrays["probabilities"]
    if (probs.ndim != 2 or counts.ndim != 1 or counts.dtype.kind not in "iu"
            or np.any(counts < 1) or counts.sum() != probs.shape[0]):
        raise DataError(f"{path}: chunk_counts {counts.shape} {counts.dtype}"
                        " are not counts of at least 1 summing to the rows"
                        f" of probabilities {probs.shape}")
    return [
        ChunkScoreMatrix(admission_id=adm, probabilities=rows)
        for adm, rows in zip(arrays["admission_ids"].tolist(),
                             np.split(probs, np.cumsum(counts)[:-1]))
    ]
