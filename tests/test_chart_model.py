"""Model assembly, training determinism and checkpoint roundtrips."""

import json

import numpy as np
import pytest

from ehrpipe.chart_model import (
    ChartModel,
    ChartModelConfig,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
    VARIANTS,
)
from ehrpipe.errors import ConfigError, DataError
from ehrpipe import nn
from ehrpipe.nn import DenseLayer, SimpleRnnLayer, TimeConvLayer


def _small_config(variant, **overrides):
    base = dict(variant=variant, n_types=6, n_categories=4, hidden_size=16,
                epochs=2, batch_size=8, lr=1e-3, dropout=0.2,
                conv_filters=3, rnn_hidden=5, seed=0)
    base.update(overrides)
    return ChartModelConfig(**base)


def _dataset(n=40, n_types=6, n_categories=4, seed=0):
    rng = np.random.default_rng(seed)
    tensors = rng.standard_normal((n, n_types, 4))
    labels = rng.random((n, n_categories)) < 0.3
    # rows 0-79% train, 80-89% val, the rest test
    train_rows, val_rows = np.arange(n * 8 // 10), np.arange(n * 8 // 10,
                                                             n * 9 // 10)
    return tensors, labels, train_rows, val_rows


class TestBuild:
    def test_fcnn_first_dense_width(self):
        model = ChartModel(_small_config("fcnn", n_types=450,
                                         n_categories=281, hidden_size=512))
        first_dense = next(
            layer for layer in model.layers if isinstance(layer, DenseLayer)
        )
        assert first_dense.weights.shape == (512, 1800)  # 450 x 4 flattened

    def test_cnn_post_conv_width(self):
        model = ChartModel(_small_config("cnn", n_types=450, conv_filters=8,
                                         hidden_size=512, n_categories=281))
        conv = model.layers[0]
        assert isinstance(conv, TimeConvLayer)
        assert conv.filters.shape == (8, 1, 4)
        first_dense = next(
            layer for layer in model.layers if isinstance(layer, DenseLayer)
        )
        assert first_dense.weights.shape[1] == 450 * 8

    def test_rnn_width(self):
        model = ChartModel(_small_config("rnn", rnn_hidden=64,
                                         hidden_size=512))
        rnn = model.layers[0]
        assert isinstance(rnn, SimpleRnnLayer)
        first_dense = next(
            layer for layer in model.layers if isinstance(layer, DenseLayer)
        )
        assert first_dense.weights.shape[1] == 64

    def test_invalid_configs(self):
        with pytest.raises(ConfigError, match="variant must be one of"):
            _small_config("transformer")
        with pytest.raises(ConfigError, match="epochs must be >= 0"):
            _small_config("cnn", epochs=-1)
        with pytest.raises(ConfigError, match=r"dropout must be in \[0,1\)"):
            _small_config("cnn", dropout=1.0)

    def test_variants_share_io_contract(self):
        x = np.random.default_rng(1).standard_normal((3, 6, 4))
        for variant in VARIANTS:
            model = ChartModel(_small_config(variant))
            probs = predict(model, x)
            assert probs.shape == (3, 4)
            assert np.all((probs > 0) & (probs < 1))


class TestPredict:
    def test_zero_head_gives_half(self):
        model = ChartModel(_small_config("fcnn"))
        head = [l for l in model.layers if isinstance(l, DenseLayer)][-1]
        head.weights[:] = 0.0
        head.bias[:] = 0.0
        probs = predict(model, np.zeros((2, 6, 4)))
        np.testing.assert_allclose(probs, 0.5)

    def test_identical_rows_identical_outputs(self):
        model = ChartModel(_small_config("cnn"))
        row = np.random.default_rng(2).standard_normal((1, 6, 4))
        probs = predict(model, np.repeat(row, 5, axis=0))
        for i in range(1, 5):
            np.testing.assert_array_equal(probs[i], probs[0])

    def test_catalog_mismatch(self):
        model = ChartModel(_small_config("fcnn"))
        with pytest.raises(DataError,
                           match=r"tensors \(2, 7, 4\) do not match"):
            predict(model, np.zeros((2, 7, 4)))


class TestTrain:
    def test_zero_epochs_keeps_initialization(self):
        tensors, labels, train_rows, val_rows = _dataset()
        config = _small_config("fcnn", epochs=0)
        reference = [p.copy() for p in ChartModel(config).params()]
        model = ChartModel(config)
        train(model, tensors, labels, train_rows, val_rows)
        for p, q in zip(model.params(), reference):
            np.testing.assert_array_equal(p, q)

    def test_training_is_deterministic(self):
        tensors, labels, train_rows, val_rows = _dataset()
        histories, params = [], []
        for _ in range(2):
            model = ChartModel(_small_config("cnn"))
            histories.append(train(model, tensors, labels, train_rows,
                                   val_rows))
            params.append([p.copy() for p in model.params()])
        assert histories[0] == histories[1]
        for a, b in zip(*params):
            np.testing.assert_array_equal(a, b)

    def test_history_records_every_epoch(self):
        tensors, labels, train_rows, val_rows = _dataset()
        history = train(ChartModel(_small_config("rnn", epochs=3)), tensors,
                        labels, train_rows, val_rows)
        assert len(history["train_loss"]) == 3
        assert len(history["val_micro_aupr"]) == 3

    def test_empty_partition(self):
        tensors, labels, _, val_rows = _dataset()
        with pytest.raises(DataError,
                           match="no training samples in the split"):
            train(ChartModel(_small_config("fcnn")), tensors, labels, [],
                  val_rows)


class TestCheckpoint:
    def test_roundtrip_is_bit_identical(self, tmp_path):
        tensors, labels, train_rows, val_rows = _dataset()
        model = ChartModel(_small_config("cnn"))
        train(model, tensors, labels, train_rows, val_rows)
        catalog = [str(i) for i in range(6)]
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, catalog)
        loaded, loaded_catalog = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded_catalog == catalog
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
        assert meta.keys() == {"version", "config", "catalog"}
        before = predict(model, tensors)
        after = predict(loaded, tensors)
        np.testing.assert_array_equal(before, after)

    def test_checkpoint_with_history_and_stats_ref_loads(self, tmp_path):
        """A checkpoint whose meta still holds the training history and
        the stats file name loads to the same predictions."""
        model = ChartModel(_small_config("fcnn"))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, ["a", "b"])
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(str(arrays["meta"]))
        meta.update(history={"train_loss": [0.5], "val_micro_aupr": [None]},
                    stats_ref="chart_stats.json")
        np.savez(path, **arrays | {"meta": np.array(json.dumps(meta))})
        loaded, catalog = load_checkpoint(path)
        assert catalog == ["a", "b"]
        x = np.random.default_rng(4).standard_normal((3, 6, 4))
        np.testing.assert_array_equal(predict(model, x), predict(loaded, x))

    def test_untrained_roundtrip(self, tmp_path):
        model = ChartModel(_small_config("rnn"))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, [])
        loaded, _ = load_checkpoint(path)
        x = np.random.default_rng(3).standard_normal((2, 6, 4))
        np.testing.assert_array_equal(predict(model, x),
                                      predict(loaded, x))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_load_takes_the_parameters_without_a_glorot_draw(
            self, tmp_path, monkeypatch, variant):
        model = ChartModel(_small_config(variant))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, [])

        def no_draw(*args):
            raise AssertionError("glorot_uniform called during a load")

        monkeypatch.setattr(nn, "glorot_uniform", no_draw)
        loaded, _ = load_checkpoint(path)
        for stored, param in zip(model.params(), loaded.params(),
                                 strict=True):
            np.testing.assert_array_equal(stored, param)
