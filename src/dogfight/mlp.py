"""Small multilayer perceptrons with hand-written backprop and Adam.

Two hidden tanh layers, identity output.  The actor carries an extra
state-independent log-std vector for its diagonal Gaussian policy; the
critic has none.  All math is float64.

The public forward evaluates batches row by row: a BLAS matrix-matrix
product rounds differently from a matrix-vector product in the final bits,
and downstream consumers rely on a batch result being exactly the stack of
single-row results.  Training gradients go through an internal batched
product instead; they are exact gradients of the loss as that path
computes it.  That batched pass computes each layer into a buffer the
process reuses from call to call, one per (direction, layer, width),
grown to the largest row count seen, so a training minibatch allocates no
(rows, width) temporaries.  The outputs backprop hands its loss function
live in such a buffer and are valid only during the call; the gradients
it returns are fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_LOG_TAU = math.log(2.0 * math.pi)


class NonFiniteError(FloatingPointError):
    """A loss, gradient or parameter update produced a non-finite value."""


@dataclass
class MlpParams:
    """Per-layer weights and biases, plus the actor's log-std vector."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    log_std: Optional[np.ndarray] = None

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def tensors(self) -> list[np.ndarray]:
        ts = self.weights + self.biases
        if self.log_std is not None:
            ts.append(self.log_std)
        return ts

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights],
                         [b.copy() for b in self.biases],
                         None if self.log_std is None else self.log_std.copy())


@dataclass
class AdamState:
    """First and second moment accumulators, congruent to the parameters."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0


def init_params(seed: int, layer_sizes: tuple[int, ...] = (13, 256, 256, 4),
                with_log_std: bool = False) -> MlpParams:
    """Glorot-uniform weights, zero biases, zero log-std; deterministic per seed."""
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-lim, lim, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    log_std = np.zeros(layer_sizes[-1]) if with_log_std else None
    return MlpParams(weights, biases, log_std)


def adam_state_for(params: MlpParams) -> AdamState:
    ts = params.tensors()
    return AdamState([np.zeros_like(t) for t in ts],
                     [np.zeros_like(t) for t in ts], 0)


def _forward_row(params: MlpParams, x: np.ndarray) -> np.ndarray:
    last = len(params.weights) - 1
    h = x
    for j, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = np.dot(h, w) + b
        if j < last:
            h = np.tanh(h)
    return h


def forward(params: MlpParams, x) -> np.ndarray:
    """Evaluate the network on a single input vector or a batch of rows."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        if arr.shape[0] != params.in_dim:
            raise ValueError(f"expected input of size {params.in_dim}, got {arr.shape}")
        return _forward_row(params, np.ascontiguousarray(arr))
    if arr.ndim == 2:
        if arr.shape[1] != params.in_dim:
            raise ValueError(f"expected rows of size {params.in_dim}, got {arr.shape}")
        return np.stack([_forward_row(params, np.ascontiguousarray(arr[i]))
                         for i in range(arr.shape[0])])
    raise ValueError(f"input must be a vector or a batch of rows, got ndim={arr.ndim}")


LossFn = Callable[[np.ndarray, Optional[np.ndarray]],
                  tuple[float, np.ndarray, Optional[np.ndarray]]]


_SCRATCH: dict[tuple[str, int, int], np.ndarray] = {}


def _scratch(direction: str, layer: int, rows: int, width: int) -> np.ndarray:
    """The leading rows of this process's (direction, layer, width) buffer."""
    buf = _SCRATCH.get((direction, layer, width))
    if buf is None or buf.shape[0] < rows:
        buf = _SCRATCH[direction, layer, width] = np.empty((rows, width))
    return buf[:rows]


def backprop(params: MlpParams, inputs, loss_fn: LossFn) -> tuple[float, MlpParams]:
    """Loss value and exact reverse-mode gradients for every parameter.

    The gradients come back as an MlpParams congruent to params, in fresh
    arrays.

    loss_fn(outputs, log_std) must return (loss, dloss/doutputs,
    dloss/dlog_std or None); any normalization over the batch belongs in
    those derivatives.  outputs is a view of a reused buffer, valid only
    during the call: loss_fn may read it but must not keep it or write to
    it.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if x.shape[1] != params.in_dim:
        raise ValueError(f"expected rows of size {params.in_dim}, got {x.shape}")
    rows = x.shape[0]
    last = len(params.weights) - 1
    acts = [x]
    for j, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = np.matmul(acts[j], w, out=_scratch("forward", j, rows, w.shape[1]))
        h += b
        if j < last:
            np.tanh(h, out=h)
        acts.append(h)
    loss, d_out, d_log_std = loss_fn(acts[-1], params.log_std)
    loss = float(loss)
    if not math.isfinite(loss):
        raise NonFiniteError(f"non-finite loss {loss}")

    d_weights: list = [None] * (last + 1)
    d_biases: list = [None] * (last + 1)
    delta = np.asarray(d_out, dtype=np.float64)
    for j in range(last, -1, -1):
        d_weights[j] = acts[j].T @ delta
        d_biases[j] = delta.sum(axis=0)
        if j > 0:
            # acts[j] is spent once its weight gradient is taken; it
            # becomes the tanh derivative 1 - a*a in place.
            a = acts[j]
            np.multiply(a, a, out=a)
            np.subtract(1.0, a, out=a)
            delta = np.matmul(delta, params.weights[j].T,
                              out=_scratch("backward", j, rows, a.shape[1]))
            delta *= a

    if params.log_std is not None and d_log_std is None:
        d_log_std = np.zeros_like(params.log_std)
    grads = MlpParams(d_weights, d_biases,
                      None if params.log_std is None else np.asarray(d_log_std, dtype=np.float64))
    for g in grads.tensors():
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient (max abs {np.abs(g).max()})")
    return loss, grads


def adam_step(params: MlpParams, state: AdamState, grads: MlpParams,
              lr: float) -> None:
    """One in-place Adam update with bias correction.

    The actor's log-std is clamped to [-5, 2] after the update.  A
    non-finite update raises NonFiniteError before that tensor is stepped,
    but the failed step is half-applied: state.step has advanced, the
    moments up to and including that tensor have moved, and the tensors
    before it have been updated.  `ppo.train_iteration` steps copies, so a
    failure there leaves the caller's arrays unchanged.
    """
    p_ts = params.tensors()
    g_ts = grads.tensors()
    if len(p_ts) != len(g_ts) or len(p_ts) != len(state.m) or any(
            p.shape != g.shape for p, g in zip(p_ts, g_ts)):
        raise ValueError("gradient/optimizer state shapes do not match parameters")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for p, m, v, g in zip(p_ts, state.m, state.v, g_ts):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        update = lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        if not np.all(np.isfinite(update)):
            raise NonFiniteError("non-finite Adam update")
        p -= update
    if params.log_std is not None:
        np.clip(params.log_std, LOG_STD_MIN, LOG_STD_MAX, out=params.log_std)


def log_density(mean: np.ndarray, log_std: np.ndarray, action) -> np.ndarray:
    """Diagonal-Gaussian log density of raw actions; broadcasts over rows."""
    a = np.asarray(action, dtype=np.float64)
    z = (a - mean) / np.exp(log_std)
    k = log_std.shape[0]
    return -0.5 * np.sum(z * z, axis=-1) - np.sum(log_std) - 0.5 * k * _LOG_TAU


def sample_and_logprob(params: MlpParams, obs, rng: np.random.Generator
                       ) -> tuple[np.ndarray, float]:
    """Draw a raw action from the policy's Gaussian and report its log density."""
    if params.log_std is None:
        raise ValueError("sampling requires actor parameters with a log-std vector")
    mean = forward(params, obs)
    action = mean + np.exp(params.log_std) * rng.standard_normal(params.out_dim)
    return action, float(log_density(mean, params.log_std, action))


def entropy(log_std: np.ndarray) -> float:
    """Differential entropy of the diagonal Gaussian."""
    k = log_std.shape[0]
    return float(np.sum(log_std) + 0.5 * k * (1.0 + _LOG_TAU))
