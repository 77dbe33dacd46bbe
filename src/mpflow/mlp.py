"""Dense feed-forward networks with exact reverse-mode gradients and Adam.

Everything is float64. Forward and backward are pure functions. Parameters
travel as lists of arrays ordered [W1, b1, W2, b2, ...], the same order
`backward_batch` and `adam_step` use. An `Mlp` never rebinds its arrays, and
outside training nobody writes into them, so instances are safe to share
across threads.

During training every trainable parameter lives in one flat float64 vector:
each training `Mlp` holds reshaped views into it (bound once through
`mlp_with_params`), and Adam updates the vector in place. Those nets change
with every step until `train` returns; the net it returns is no longer written.

`forward_cached` is the one forward loop. Its cache holds activations only:
the input of every dense layer, produced by the same forward that computed the
output. `backward_batch` reads the activation derivatives off those values, so
a backward pass never repeats the forward.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericError
from .rng import Xoshiro256

ACTIVATIONS = ("sigmoid", "tanh", "relu")

# Global Lipschitz constant of each activation on the real line.
ACTIVATION_LIPSCHITZ = {"sigmoid": 0.25, "tanh": 1.0, "relu": 1.0}


def _sigmoid(z):
    # e = exp(-|z|) never overflows. For z >= 0 this is 1/(1+exp(-z)), for
    # z < 0 it is exp(z)/(1+exp(z)), the usual stable form for each sign, with
    # one exp. The steps run in place, so a batch never holds more than two
    # temporaries the size of z. The numerator, 1 where z >= 0 and e elsewhere,
    # is max(e, [z >= 0]), since e lies in [0, 1] or is nan (which maximum
    # returns as it is): the bits of a masked select at a fraction of its cost
    z = np.asarray(z, float)
    e = np.abs(z, out=np.empty(z.shape))  # an array even for 0-d z
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.greater_equal(z, 0.0, out=np.empty(z.shape), casting="unsafe")
    np.maximum(e, num, out=num)
    e += 1.0
    num /= e
    return num


def _act(name, z):
    if name == "sigmoid":
        return _sigmoid(z)
    if name == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _act_grad(name, a):
    # derivative at z from the activation a = act(z) alone, as a new array;
    # for relu, (a > 0) has the same bits as (z > 0)
    if name == "sigmoid":
        t = 1.0 - a
        t *= a
        return t
    if name == "tanh":
        return 1.0 - a * a
    return (a > 0.0).astype(float)


@dataclass(frozen=True)
class Mlp:
    """Perceptron with linear output layer; hidden layers share one activation."""

    layer_dims: tuple
    weights: tuple  # per layer, shape (out, in)
    biases: tuple  # per layer, shape (out,)
    activation: str

    @property
    def d_in(self):
        return self.layer_dims[0]

    @property
    def d_out(self):
        return self.layer_dims[-1]


def mlp_init(layer_dims, activation="sigmoid", seed=0) -> Mlp:
    """Glorot-uniform weights, zero biases, deterministic for a fixed seed."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ConfigError(f"layer_dims needs at least (d_in, d_out), got {dims}")
    if any(d < 1 for d in dims):
        raise ConfigError(f"layer_dims must be positive, got {dims}")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    rng = Xoshiro256(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform_array((fan_out, fan_in), -bound, bound)
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return Mlp(dims, tuple(weights), tuple(biases), activation)


def mlp_params(mlp: Mlp) -> list:
    """Parameter arrays in the canonical order [W1, b1, W2, b2, ...]."""
    out = []
    for w, b in zip(mlp.weights, mlp.biases):
        out.append(w)
        out.append(b)
    return out


def mlp_with_params(mlp: Mlp, params) -> Mlp:
    """New Mlp with the same shape carrying the given parameter list.

    float64 arrays are used as given, not copied: views stay views.
    """
    n = len(mlp.weights)
    if len(params) != 2 * n:
        raise ConfigError(f"expected {2 * n} parameter arrays, got {len(params)}")
    weights, biases = [], []
    for l in range(n):
        w, b = np.asarray(params[2 * l], float), np.asarray(params[2 * l + 1], float)
        if w.shape != mlp.weights[l].shape or b.shape != mlp.biases[l].shape:
            raise ConfigError(f"parameter shape mismatch at layer {l + 1}")
        weights.append(w)
        biases.append(b)
    return replace(mlp, weights=tuple(weights), biases=tuple(biases))


def forward_cached(mlp: Mlp, x: np.ndarray):
    """Forward of a batch (n, d_in) -> (n, d_out) or a point (d_in,) -> (d_out,),
    returning (output, cache).

    The cache is the list of each dense layer's input: x, then every hidden
    activation. `backward_batch` needs nothing else (for a batch's cache).
    """
    a = np.asarray(x, float)
    if a.ndim not in (1, 2) or a.shape[-1] != mlp.d_in:
        raise ConfigError(f"expected input of shape ({mlp.d_in},) or (n, {mlp.d_in}), got {a.shape}")
    acts = []
    last = len(mlp.weights) - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        acts.append(a)
        a = a @ w.T + b
        if l < last:
            a = _act(mlp.activation, a)
    return a, acts


def forward_batch(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """Apply the network to rows of x, shape (n, d_in) -> (n, d_out)."""
    return forward_cached(mlp, x)[0]


def backward_batch(mlp: Mlp, cache, upstream: np.ndarray):
    """Gradients of sum_i <upstream_i, mlp(x_i)> from a forward_cached pass.

    Returns (param_grads in [W1, b1, ...] order summed over the batch,
    input gradient of shape (n, d_in)).
    """
    delta = np.asarray(upstream, float)
    out_shape = (len(cache[0]), mlp.d_out)
    if delta.shape != out_shape:
        raise ConfigError(f"upstream shape {delta.shape} != output shape {out_shape}")
    n_layers = len(mlp.weights)
    grads = [None] * (2 * n_layers)
    for l in range(n_layers - 1, -1, -1):
        grads[2 * l] = delta.T @ cache[l]
        grads[2 * l + 1] = delta.sum(axis=0)
        delta = delta @ mlp.weights[l]
        if l > 0:
            delta *= _act_grad(mlp.activation, cache[l])  # delta is the fresh matmul
    return grads, delta


_B1, _B2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator guard


@dataclass
class AdamState:
    m: list
    v: list
    t: int
    lr: float


def adam_init(params, lr=0.001) -> AdamState:
    return AdamState([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params], 0, lr)


def adam_step(params, grads, state: AdamState):
    """One bias-corrected Adam update; returns (new params, new state)."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ConfigError("params, grads and state must have matching lengths")
    t = state.t + 1
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in array {i} at step {t}", step=t)
    c1 = 1.0 - _B1**t
    c2 = 1.0 - _B2**t
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = _B1 * m + (1.0 - _B1) * g
        v = _B2 * v + (1.0 - _B2) * g * g
        step = state.lr * (m / c1) / (np.sqrt(v / c2) + _EPS)
        new_params.append(p - step)
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(new_m, new_v, t, state.lr)
