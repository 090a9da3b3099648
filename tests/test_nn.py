"""Forward contracts and finite-difference gradient checks for the kernel."""

import math

import numpy as np
import pytest

from ehrpipe.errors import DataError, NumericError
from ehrpipe.nn import (
    ADAM_SLICE,
    Adam,
    bce_loss,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    ReluLayer,
    sigmoid,
    SimpleRnnLayer,
    TimeConvLayer,
)

EPS = 1e-5
MAX_REL_ERR = 1e-4


def rel_error(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float((np.abs(a - b) / scale).max())


def numeric_grad(fn, x):
    """Central finite differences of a scalar function at x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + EPS
        up = fn()
        flat[i] = keep - EPS
        down = fn()
        flat[i] = keep
        out[i] = (up - down) / (2 * EPS)
    return grad


def check_layer_gradients(layer, x, rng):
    """Compare analytic gradients against finite differences.

    The scalar objective is sum(forward(x) * G) for a fixed random G, whose
    analytic gradient flows from backward(G).
    """
    out = layer.forward(x, train=False)
    g = rng.standard_normal(out.shape)

    def objective():
        return float((layer.forward(x, train=False) * g).sum())

    dx = layer.backward(g)
    assert rel_error(dx, numeric_grad(objective, x)) < MAX_REL_ERR
    analytic = [grad.copy() for grad in layer.grads()]
    for param, expected in zip(layer.params(), analytic):
        got = numeric_grad(objective, param)
        layer.forward(x, train=False)
        layer.backward(g)
        assert rel_error(expected, got) < MAX_REL_ERR


class TestForwardExamples:
    def test_dense_identity(self):
        layer = DenseLayer(3, 3, np.random.default_rng(0))
        layer.weights[:] = np.eye(3)
        layer.bias[:] = 0.0
        x = np.array([[1.0, -2.0, 0.5]])
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_timeconv_mean_filter(self):
        layer = TimeConvLayer(1, np.random.default_rng(0))
        layer.filters[0, 0, :] = 0.25
        layer.bias[:] = 0.0
        x = np.array([[[4.0, 6.0, 2.0, 8.0]]])  # (B=1, T=1, 4)
        assert layer.forward(x)[0, 0, 0] == pytest.approx(5.0)

    def test_timeconv_filter_shape(self):
        layer = TimeConvLayer(8, np.random.default_rng(0))
        assert layer.filters.shape == (8, 1, 4)

    def test_rnn_zero_weights_zero_output(self):
        layer = SimpleRnnLayer(3, 5, np.random.default_rng(0))
        layer.input_weights[:] = 0.0
        layer.recurrent_weights[:] = 0.0
        layer.bias[:] = 0.0
        x = np.random.default_rng(1).standard_normal((2, 3, 4))
        np.testing.assert_array_equal(layer.forward(x), np.zeros((2, 5)))

    def test_dropout_eval_identity(self):
        layer = DropoutLayer(0.5, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((4, 6))
        np.testing.assert_array_equal(layer.forward(x, train=False), x)
        np.testing.assert_array_equal(layer.backward(x), x)

    def test_dropout_train_scales_survivors(self):
        layer = DropoutLayer(0.25, np.random.default_rng(0))
        x = np.ones((8, 8))
        out = layer.forward(x, train=True)
        survivors = out[out != 0.0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75)

    def test_dropout_expectation(self):
        layer = DropoutLayer(0.3, np.random.default_rng(0))
        x = np.full((2, 5), 3.0)
        total = np.zeros_like(x)
        n = 4000
        for _ in range(n):
            total += layer.forward(x, train=True)
        np.testing.assert_allclose(total / n, x, atol=0.15)

    def test_shape_mismatch(self):
        layer = DenseLayer(3, 2, np.random.default_rng(0))
        with pytest.raises(DataError,
                           match=r"dense expects \(B,3\), got \(1, 4\)"):
            layer.forward(np.zeros((1, 4)))

    def test_non_finite_trips_fault(self):
        layer = DenseLayer(2, 2, np.random.default_rng(0))
        with pytest.raises(NumericError,
                           match="non-finite values in dense output"):
            layer.forward(np.array([[np.inf, 1.0]]))


class TestGradients:
    def test_dense_scalar_product_rule(self):
        layer = DenseLayer(1, 1, np.random.default_rng(0))
        layer.weights[:] = 2.0
        layer.bias[:] = 0.0
        x = np.array([[3.0]])
        layer.forward(x)
        layer.backward(np.array([[1.0]]))
        assert layer.d_weights[0, 0] == 3.0  # dL/dw = x for upstream 1

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        layer = DenseLayer(4, 3, rng)
        check_layer_gradients(layer, rng.standard_normal((5, 4)), rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_timeconv_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        layer = TimeConvLayer(3, rng)
        check_layer_gradients(layer, rng.standard_normal((2, 5, 4)), rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_rnn_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        layer = SimpleRnnLayer(4, 3, rng)
        check_layer_gradients(layer, rng.standard_normal((2, 4, 4)), rng)

    def test_relu_and_flatten_gradients(self):
        rng = np.random.default_rng(7)
        for layer, shape in ((ReluLayer(), (4, 5)),
                             (FlattenLayer(), (3, 2, 4))):
            check_layer_gradients(layer, rng.standard_normal(shape), rng)

    def test_dropout_frozen_mask_gradient(self):
        rng = np.random.default_rng(3)
        layer = DropoutLayer(0.4, rng)
        x = rng.standard_normal((4, 6))
        layer.forward(x, train=True)
        mask = layer.last_mask.copy()
        g = rng.standard_normal((4, 6))
        dx = layer.backward(g)
        np.testing.assert_allclose(dx, g * mask / 0.6)

    def test_loss_gradient_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((4, 3))
        targets = rng.random((4, 3)) < 0.4

        _, analytic = bce_loss(sigmoid(logits), targets)

        def objective():
            return bce_loss(sigmoid(logits), targets)[0]

        assert rel_error(analytic, numeric_grad(objective, logits)) \
            < MAX_REL_ERR


class TestLoss:
    def test_half_probability_gives_log2(self):
        probs = np.full((2, 3), 0.5)
        targets = np.array([[1, 0, 1], [0, 1, 0]], dtype=bool)
        loss, _ = bce_loss(probs, targets)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_exact_prediction_vanishes(self):
        targets = np.array([[True, False]])
        probs = targets.astype(float)
        loss, grad = bce_loss(probs, targets)
        assert loss < 1e-6
        assert np.abs(grad).max() < 1e-6

    def test_hand_computed_cell(self):
        loss, _ = bce_loss(np.array([[0.8]]), np.array([[True]]))
        assert loss == pytest.approx(-math.log(0.8), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DataError,
                           match=r"probabilities \(2, 2\) vs targets"):
            bce_loss(np.zeros((2, 2)), np.zeros((2, 3), dtype=bool))


class TestAdam:
    def test_first_step_magnitude(self):
        param = np.array([1.0, -1.0])
        opt = Adam([param], lr=0.1)
        opt.step([np.array([0.3, -0.7])])
        # bias-corrected first step is -lr * sign(g) up to epsilon effects
        np.testing.assert_allclose(param, [1.0 - 0.1, -1.0 + 0.1], atol=1e-6)

    def test_zero_gradient_keeps_parameters(self):
        param = np.array([2.0, 3.0])
        opt = Adam([param], lr=0.5)
        for _ in range(10):
            opt.step([np.zeros(2)])
        np.testing.assert_array_equal(param, [2.0, 3.0])

    def test_determinism(self):
        results = []
        for _ in range(2):
            param = np.array([1.0, 2.0, 3.0])
            opt = Adam([param], lr=0.01)
            rng = np.random.default_rng(8)
            for _ in range(25):
                opt.step([rng.standard_normal(3)])
            results.append(param.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_shape_mismatch(self):
        opt = Adam([np.zeros(3)], lr=0.1)
        with pytest.raises(DataError,
                           match=r"gradient \(4,\) does not match parameter"):
            opt.step([np.zeros(4)])
        with pytest.raises(DataError, match="0 gradients for 1 parameters"):
            opt.step([])


class FrozenAdam:
    """The earlier Adam, frozen: whole-array expressions, new temporaries."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.first_moment = [np.zeros_like(p) for p in params]
        self.second_moment = [np.zeros_like(p) for p in params]

    def step(self, grads):
        self.step_count += 1
        t = self.step_count
        for p, g, m, v in zip(self.params, grads, self.first_moment,
                              self.second_moment):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)


# The note scorer's weights at MIMIC size, a parameter whose size is not a
# multiple of the slice, the scorer's bias and a TimeConv filter bank.
ADAM_SHAPES = [(281, 2 ** 15), (3 * ADAM_SLICE + 5,), (281,), (8, 1, 4)]


def _adam_run(optimizer_cls, steps: int):
    """Parameters and moments after steps of optimizer_cls on fixed data.

    The first parameter gets the scorer's kind of gradient: most columns
    are whole zero columns (hashed slots no chunk of the batch touched).
    """
    rng = np.random.default_rng(17)
    params = [rng.standard_normal(shape) for shape in ADAM_SHAPES]
    opt = optimizer_cls(params, lr=0.01)
    for _ in range(steps):
        grads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 2)
                 for shape in ADAM_SHAPES[1:]]
        sparse = np.zeros(ADAM_SHAPES[0])
        cols = rng.choice(ADAM_SHAPES[0][1], size=600, replace=False)
        sparse[:, cols] = rng.standard_normal((ADAM_SHAPES[0][0], cols.size))
        opt.step([sparse] + grads)
    return params, opt.first_moment, opt.second_moment


class TestAdamMatchesFrozen:
    def test_bit_identical_to_whole_array_update(self):
        # One side at a time: the frozen step's temporaries are weight-sized.
        expected = _adam_run(FrozenAdam, steps=5)
        got = _adam_run(Adam, steps=5)
        for kind, want_list, got_list in zip(("p", "m", "v"), expected, got):
            for want, have in zip(want_list, got_list):
                assert np.array_equal(want, have), (kind, want.shape)

    def test_non_contiguous_parameter_rejected(self):
        # reshape(-1) would copy these, and the copy would be updated instead
        for bad in (np.zeros((4, 6))[:, :3], np.zeros((3, 5)).T):
            with pytest.raises(DataError, match="needs contiguous parameters"):
                Adam([np.zeros(3), bad])

    def test_evenly_strided_parameter_is_updated(self):
        base = np.zeros((4, 6))
        param = base[:, ::2]  # flattens to a view with one stride
        Adam([param], lr=0.1).step([np.ones_like(param)])
        assert np.all(base[:, ::2] < 0)
        assert np.all(base[:, 1::2] == 0)


class TestGradientBuffers:
    def test_dense_backward_writes_in_place(self):
        rng = np.random.default_rng(5)
        layer = DenseLayer(40, 7, rng)
        d_weights, d_bias = layer.grads()
        for _ in range(2):
            x = rng.standard_normal((6, 40))
            g = rng.standard_normal((6, 7))
            layer.forward(x, train=True)
            assert np.array_equal(layer.backward(g), g @ layer.weights)
        assert layer.grads()[0] is d_weights
        assert layer.grads()[1] is d_bias
        assert np.array_equal(d_weights, g.T @ x)
        assert np.array_equal(d_bias, g.sum(axis=0))

    @pytest.mark.parametrize("make,x_shape", [
        (lambda rng: DenseLayer(6, 4, rng), (3, 6)),
        (lambda rng: TimeConvLayer(4, rng), (3, 6, 4)),
        (lambda rng: SimpleRnnLayer(6, 5, rng), (3, 6, 4)),
    ])
    def test_grads_buffers_are_reused(self, make, x_shape):
        rng = np.random.default_rng(7)
        layer = make(rng)
        before = layer.grads()
        for _ in range(2):
            out = layer.forward(rng.standard_normal(x_shape), train=True)
            layer.backward(rng.standard_normal(out.shape))
        assert all(a is b for a, b in zip(before, layer.grads()))
