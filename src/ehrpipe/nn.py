"""Minimal deterministic neural kernel with exact analytic gradients.

Dense, time-convolution (kernel spanning the 4 time bins), simple tanh
recurrence over the bins, inverted dropout, sigmoid, per-label binary
cross-entropy and Adam. Everything is float64, and a fixed seed reproduces
training trajectories bit for bit. Matrix products run on numpy's
OpenBLAS, which importing ehrpipe pins to one thread (see __init__), so
the sums do not follow the thread count the user's environment asks for.
OpenBLAS's DYNAMIC_ARCH may still pick another kernel on another CPU, which
is out of scope. Forward passes fault on NaN/Inf rather than letting them
propagate.

Layer protocol: forward(x, train=False) caches what backward needs;
backward(grad) returns the input gradient and writes parameter gradients
into the arrays grads() returns, aligned with params(). Those arrays are
allocated once and overwritten by every backward, so a caller that keeps a
gradient across batches copies it. Adam updates parameters and its moments
in place, slice by slice, and allocates nothing per step. The chart models
and the note scorer both train with train_epoch, one epoch of minibatch
BCE/Adam over a model that follows the protocol.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, NumericError

N_BINS = 4


def _ensure_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {name}")
    return arr


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...]) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _initial(rng: np.random.Generator | None, fan_in: int, fan_out: int,
             shape: tuple[int, ...]) -> np.ndarray:
    """A Glorot draw from rng; without one, zeros for a checkpoint to fill."""
    if rng is None:
        return np.zeros(shape)
    return glorot_uniform(rng, fan_in, fan_out, shape)


class DenseLayer:
    """Affine map y = x W^T + b with W of shape (out, in)."""

    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator | None):
        self.weights = _initial(rng, in_dim, out_dim, (out_dim, in_dim))
        self.bias = np.zeros(out_dim)
        self._x: np.ndarray | None = None
        self.d_weights = np.zeros(self.weights.shape)
        self.d_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.weights.shape[1]:
            raise DataError(
                f"dense expects (B,{self.weights.shape[1]}), got {x.shape}"
            )
        self._x = x
        return _ensure_finite("dense output", x @ self.weights.T + self.bias)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None or grad.shape != (self._x.shape[0],
                                             self.weights.shape[0]):
            raise DataError(f"dense backward got {grad.shape}")
        np.matmul(grad.T, self._x, out=self.d_weights)
        np.sum(grad, axis=0, out=self.d_bias)
        return grad @ self.weights

    def params(self):
        return [self.weights, self.bias]

    def grads(self):
        return [self.d_weights, self.d_bias]


class _Parameterless:
    """A layer without parameters, so without gradients."""

    def params(self):
        return []

    def grads(self):
        return []


class ReluLayer(_Parameterless):
    def __init__(self):
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._x = x
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * (self._x > 0)


class DropoutLayer(_Parameterless):
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    Identity at evaluation time. The mask drawn by the last train-mode
    forward is kept on last_mask (tests freeze it for finite differences).
    """

    def __init__(self, p: float, rng: np.random.Generator):
        if not 0.0 <= p < 1.0:
            raise ConfigError(f"dropout probability {p} not in [0,1)")
        self.p = p
        self.rng = rng
        self.last_mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if not train or self.p == 0.0:
            self.last_mask = None
            return x
        self.last_mask = self.rng.random(x.shape) >= self.p
        return x * self.last_mask / (1.0 - self.p)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self.last_mask is None:
            return grad
        return grad * self.last_mask / (1.0 - self.p)


class FlattenLayer(_Parameterless):
    def __init__(self):
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)


class TimeConvLayer:
    """Per-type convolution across the 4 time bins.

    filters has shape (n_filters, 1, 4): each filter spans the whole time
    axis of one observation type, so output[b, t, f] = sum_k filt[f, 0, k] *
    x[b, t, k] + bias[f].
    """

    def __init__(self, n_filters: int, rng: np.random.Generator | None):
        self.filters = _initial(rng, N_BINS, n_filters,
                                (n_filters, 1, N_BINS))
        self.bias = np.zeros(n_filters)
        self._x: np.ndarray | None = None
        self.d_filters = np.zeros(self.filters.shape)
        self.d_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != N_BINS:
            raise DataError(f"timeconv expects (B,T,{N_BINS}), got {x.shape}")
        self._x = x
        kernel = self.filters[:, 0, :]  # (F, 4)
        out = np.einsum("btk,fk->btf", x, kernel) + self.bias
        return _ensure_finite("timeconv output", out)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None or grad.shape[:2] != self._x.shape[:2]:
            raise DataError(f"timeconv backward got {grad.shape}")
        kernel = self.filters[:, 0, :]
        self.d_filters[:, 0, :] = np.einsum("btf,btk->fk", grad, self._x)
        self.d_bias[:] = grad.sum(axis=(0, 1))
        return np.einsum("btf,fk->btk", grad, kernel)

    def params(self):
        return [self.filters, self.bias]

    def grads(self):
        return [self.d_filters, self.d_bias]


class SimpleRnnLayer:
    """Plain tanh recurrence over the 4 bins; the output is the last state.

    h_k = tanh(U x_k + V h_{k-1} + b) with h_{-1} = 0, where x_k is the
    (B, n_types) slice of bin k.
    """

    def __init__(self, in_dim: int, hidden: int,
                 rng: np.random.Generator | None):
        self.input_weights = _initial(rng, in_dim, hidden, (hidden, in_dim))
        self.recurrent_weights = _initial(rng, hidden, hidden,
                                          (hidden, hidden))
        self.bias = np.zeros(hidden)
        self._x: np.ndarray | None = None
        self._states: list[np.ndarray] = []
        self.d_input = np.zeros(self.input_weights.shape)
        self.d_recurrent = np.zeros(self.recurrent_weights.shape)
        self.d_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != N_BINS:
            raise DataError(f"rnn expects (B,T,{N_BINS}), got {x.shape}")
        if x.shape[1] != self.input_weights.shape[1]:
            raise DataError(
                f"rnn expects {self.input_weights.shape[1]} types, "
                f"got {x.shape[1]}"
            )
        self._x = x
        h = np.zeros((x.shape[0], self.bias.shape[0]))
        self._states = []
        for k in range(N_BINS):
            pre = (x[:, :, k] @ self.input_weights.T
                   + h @ self.recurrent_weights.T + self.bias)
            h = np.tanh(pre)
            self._states.append(h)
        return _ensure_finite("rnn output", h)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None or grad.shape != self._states[-1].shape:
            raise DataError(f"rnn backward got {grad.shape}")
        x = self._x
        self.d_input.fill(0.0)
        self.d_recurrent.fill(0.0)
        self.d_bias.fill(0.0)
        dx = np.zeros_like(x)
        dh = grad
        for k in range(N_BINS - 1, -1, -1):
            h_k = self._states[k]
            dz = dh * (1.0 - h_k * h_k)
            h_prev = (self._states[k - 1] if k > 0
                      else np.zeros_like(self._states[0]))
            self.d_input += dz.T @ x[:, :, k]
            self.d_recurrent += dz.T @ h_prev
            self.d_bias += dz.sum(axis=0)
            dx[:, :, k] = dz @ self.input_weights
            dh = dz @ self.recurrent_weights
        return dx

    def params(self):
        return [self.input_weights, self.recurrent_weights, self.bias]

    def grads(self):
        return [self.d_input, self.d_recurrent, self.d_bias]


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_CLAMP = 1e-7


def bce_loss(probabilities: np.ndarray,
             targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over all cells.

    Probabilities are clamped to [1e-7, 1-1e-7]. The returned gradient is
    taken with respect to the pre-sigmoid logits: (p - y) / n_cells, so a
    sigmoid output layer backpropagates directly from it.
    """
    if probabilities.shape != targets.shape:
        raise DataError(
            f"probabilities {probabilities.shape} vs targets {targets.shape}"
        )
    p = np.clip(probabilities, _CLAMP, 1.0 - _CLAMP)
    y = targets.astype(np.float64)
    cells = p.size
    loss = float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())
    _ensure_finite("bce loss", np.asarray(loss))
    return loss, (p - y) / cells


# Adam walks each parameter in slices of this many elements, with its
# temporaries in two scratch slices, because whole-array expressions allocate
# parameter-sized temporaries on every step. The largest parameter it serves
# is the 3600 x 512 weights of the default cnn's first dense layer at 450
# types (8 filters x 450 types in). On those, one step took 15.8-17.8 ms at
# 2^14 to 2^16, 24.9 ms at 2^11, 20.3 ms at 2^17 and 23.9 ms on the whole
# array (2-vCPU VM, one BLAS thread, median of 3 runs of 20 steps). When the
# note scorer was a dense 281 x 2^15 layer, the whole-array temporaries
# raised the models-mimic benchmark's peak RSS from 70.4-74.6 to 78.2-79.5
# MiB (six alternating pairs, seeds 701-706).
ADAM_SLICE = 2 ** 15


class Adam:
    """Adam with bias correction over a list of parameter arrays (in place).

    Kingma & Ba, ICLR 2015, at their default betas and epsilon. Parameters
    and both moments are updated in place through flat views, one slice at
    a time, with two scratch slices allocated here; a step allocates no
    parameter-sized array. The update is elementwise, so the slicing does
    not change a bit of the result.
    """

    def __init__(self, params: list[np.ndarray], lr: float = 2e-5):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.first_moment = [np.zeros_like(p) for p in params]
        self.second_moment = [np.zeros_like(p) for p in params]
        self._flat = []
        for p, m, v in zip(params, self.first_moment, self.second_moment):
            flat = p.reshape(-1)
            if not np.may_share_memory(flat, p):
                # reshape copied: an update of the copy would never reach p
                raise DataError(
                    f"Adam needs contiguous parameters, got strides "
                    f"{p.strides} for shape {p.shape}"
                )
            self._flat.append((flat, m.reshape(-1), v.reshape(-1)))
        width = min(ADAM_SLICE, max((p.size for p in params), default=0))
        self._scratch = (np.empty(width), np.empty(width))

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise DataError(
                f"{len(grads)} gradients for {len(self.params)} parameters"
            )
        for p, g in zip(self.params, grads):
            if g.shape != p.shape:
                raise DataError(
                    f"gradient {g.shape} does not match parameter {p.shape}"
                )
        self.step_count += 1
        t = self.step_count
        b1, b2, lr, eps = 0.9, 0.999, self.lr, 1e-8
        c1 = 1.0 - b1 ** t
        c2 = 1.0 - b2 ** t
        for (p, m, v), g in zip(self._flat, grads):
            g = g.reshape(-1)
            for start in range(0, p.size, ADAM_SLICE):
                cut = slice(start, start + ADAM_SLICE)
                ps, gs, ms, vs = p[cut], g[cut], m[cut], v[cut]
                a = self._scratch[0][:ps.size]
                b = self._scratch[1][:ps.size]
                # m = m*b1 + (1-b1)*g
                ms *= b1
                np.multiply(1.0 - b1, gs, out=a)
                ms += a
                # v = v*b2 + ((1-b2)*g)*g
                vs *= b2
                np.multiply(1.0 - b2, gs, out=a)
                a *= gs
                vs += a
                # p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)
                np.divide(vs, c2, out=a)
                np.sqrt(a, out=a)
                a += eps
                np.divide(ms, c1, out=b)
                b *= lr
                b /= a
                ps -= b


def train_epoch(model, optimizer: Adam, rows: np.ndarray, batch_size: int,
                batch) -> float:
    """One epoch of minibatch BCE/Adam over rows, in batches of batch_size
    in their order, where batch(rows) gives a batch's inputs and targets
    (x, y); returns the mean loss per label cell."""
    total_loss = 0.0
    total_cells = 0
    for start in range(0, len(rows), batch_size):
        x, y = batch(rows[start:start + batch_size])
        loss, grad_logits = bce_loss(sigmoid(model.forward(x, train=True)),
                                     y)
        model.backward(grad_logits)
        optimizer.step(model.grads())
        total_loss += loss * y.size
        total_cells += y.size
    return total_loss / total_cells
