"""Multi-label classifiers over (types x N_BINS) admission tensors.

Three interchangeable variants differ only in the first layer, which learns
patterns across the time dimension: a dense layer on the flattened tensor
(fcnn), a per-type convolution spanning the N_BINS bins (cnn), or a simple
tanh recurrence over the bins (rnn). All variants continue with dropout and
two 512-wide dense layers into a sigmoid head with one output per category.
train fits a model in place on the tensor rows its caller picks and returns
its history, with a validation AU-PR for each epoch whose validation labels
hold a positive; a checkpoint holds the model and the tensors'
observation-type catalog. An invalid config raises ConfigError, tensors or
labels of other shapes DataError, and a checkpoint that does not load
DataError naming its file.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .metrics import pr_auc
from .nn import (
    N_BINS,
    Adam,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    ReluLayer,
    SimpleRnnLayer,
    TimeConvLayer,
    sigmoid,
    train_epoch,
)
from .tables import reading, save_npz

VARIANTS = ("fcnn", "cnn", "rnn")


@dataclass(frozen=True)
class ChartModelConfig:
    variant: str = "cnn"
    n_types: int = 450
    n_categories: int = 281
    hidden_size: int = 512
    epochs: int = 3
    batch_size: int = 32
    lr: float = 2e-5
    dropout: float = 0.2
    conv_filters: int = 8
    rnn_hidden: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        for name in ("n_types", "n_categories", "hidden_size", "batch_size",
                     "conv_filters", "rnn_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0,1)")
        if not 0 < self.lr < math.inf:  # also rejects NaN
            raise ConfigError("lr must be positive and finite")


class ChartModel:
    """Layer stack producing logits; sigmoid turns them into probabilities."""

    def __init__(self, config: ChartModelConfig, initialize: bool = True):
        """Layers for config, Glorot-initialized from its seed; with
        initialize False every parameter is zero, for a checkpoint to fill.
        Zero parameters and gradients touch no page until written."""
        self.config = config
        init_rng = (np.random.default_rng([config.seed, 0]) if initialize
                    else None)
        drop_rng = np.random.default_rng([config.seed, 1])
        t, h, c = config.n_types, config.hidden_size, config.n_categories

        def drop() -> DropoutLayer:
            return DropoutLayer(config.dropout, drop_rng)

        if config.variant == "fcnn":
            first = [FlattenLayer(), DenseLayer(t * N_BINS, h, init_rng),
                     ReluLayer()]
            width = h
        elif config.variant == "cnn":
            first = [TimeConvLayer(config.conv_filters, init_rng),
                     ReluLayer(), FlattenLayer()]
            width = t * config.conv_filters
        else:
            first = [SimpleRnnLayer(t, config.rnn_hidden, init_rng)]
            width = config.rnn_hidden

        self.layers = first + [
            drop(),
            DenseLayer(width, h, init_rng), ReluLayer(), drop(),
            DenseLayer(h, h, init_rng), ReluLayer(), drop(),
            DenseLayer(h, c, init_rng),
        ]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, train=train)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]


def _check_inputs(config: ChartModelConfig, tensors: np.ndarray):
    if tensors.ndim != 3 or tensors.shape[1] != config.n_types \
            or tensors.shape[2] != N_BINS:
        raise DataError(
            f"tensors {tensors.shape} do not match "
            f"({config.n_types} types x {N_BINS} bins)"
        )


def train(
    model: ChartModel,
    tensors: np.ndarray,
    labels: np.ndarray,
    train_rows: np.ndarray | list[int],
    val_rows: np.ndarray | list[int],
) -> dict:
    """Train model in place on tensors[train_rows] for the configured
    number of epochs of minibatch Adam; returns its history.

    Minibatches are drawn from a fresh seeded shuffle each epoch. The log
    records the mean train loss per epoch and, when labels[val_rows] holds
    a positive, the micro AU-PR on tensors[val_rows]. No early stopping:
    the epoch count is fixed configuration.
    """
    config = model.config
    _check_inputs(config, tensors)
    if labels.shape != (tensors.shape[0], config.n_categories):
        raise DataError(
            f"labels {labels.shape} do not match "
            f"({tensors.shape[0]}, {config.n_categories})"
        )
    train_rows = np.asarray(train_rows, np.intp)
    if not train_rows.size:
        raise DataError("no training samples in the split")

    rng = np.random.default_rng([config.seed, 2])
    optimizer = Adam(model.params(), lr=config.lr)
    history: dict = {"train_loss": [], "val_micro_aupr": []}
    val_truth = labels[val_rows].ravel()

    for _ in range(config.epochs):
        history["train_loss"].append(train_epoch(
            model, optimizer, train_rows[rng.permutation(train_rows.size)],
            config.batch_size, lambda rows: (tensors[rows], labels[rows])))
        val_aupr = None
        if val_truth.any():
            val_probs = predict(model, tensors[val_rows])
            val_aupr = pr_auc(val_probs.ravel(), val_truth)
        history["val_micro_aupr"].append(val_aupr)

    return history


def predict(model: ChartModel, tensors: np.ndarray,
            batch_size: int = 256) -> np.ndarray:
    """Probability matrix (N, C); deterministic, dropout disabled."""
    _check_inputs(model.config, tensors)
    probs = np.empty((tensors.shape[0], model.config.n_categories))
    for start in range(0, tensors.shape[0], batch_size):
        probs[start:start + batch_size] = sigmoid(
            model.forward(tensors[start:start + batch_size], train=False))
    return probs


# --- checkpointing ----------------------------------------------------------

_CHECKPOINT_VERSION = 1


def save_checkpoint(path, model: ChartModel, catalog: list[str]) -> Path:
    """model's config and parameters, and the tensors' catalog."""
    meta = {
        "version": _CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "catalog": catalog,
    }
    arrays = {f"param_{i}": p for i, p in enumerate(model.params())}
    return save_npz(path, {"meta": np.array(json.dumps(meta)), **arrays})


def load_checkpoint(path) -> tuple[ChartModel, list[str]]:
    """The model and the catalog a checkpoint stores; DataError naming path
    when its config is invalid, its arrays do not fit the config's
    parameters or one holds a NaN or Inf."""
    with reading(path):
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            arrays = [data[f"param_{i}"]
                      for i in range(len(data.files) - 1)]
        if meta["version"] != _CHECKPOINT_VERSION:
            raise ValueError("unsupported checkpoint version")
        try:
            model = ChartModel(ChartModelConfig(**meta["config"]),
                               initialize=False)
        except ConfigError as exc:
            raise ValueError(f"config: {exc}") from exc
        params = model.params()
        if len(params) != len(arrays):
            raise ValueError(f"{len(arrays)} arrays for {len(params)} params")
        for i, (p, stored) in enumerate(zip(params, arrays)):
            if p.shape != stored.shape:
                raise ValueError(f"param_{i} {stored.shape} vs {p.shape}")
            if not np.isfinite(stored).all():
                raise ValueError(f"param_{i} holds NaN or Inf")
            p[...] = stored
        return model, [str(x) for x in meta.get("catalog", [])]
