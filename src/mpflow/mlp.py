"""Dense feed-forward networks with exact reverse-mode gradients and Adam.

Everything is float64. Parameters travel as lists of arrays ordered
[W1, b1, W2, b2, ...], the same order `backward_batch` and `adam_step` use. An
`Mlp` never rebinds its arrays, and outside training nobody writes into them,
so instances are safe to share across threads.

During training every trainable parameter lives in one flat float64 vector:
each training `Mlp` holds reshaped views into it (bound once through
`mlp_with_params`), and Adam updates the vector in place. Those nets change
with every step until `train` returns; the net it returns is no longer written.

`_forward` and `_backward` are the one forward and the one backward kernel.
The forward's cache holds activations only: the input of every dense layer,
produced by the same forward that computed the output. The backward reads the
activation derivatives off those values, so a backward pass never repeats the
forward. Each kernel, and `adam_step`, takes an optional `Workspace`. Only
`training.train` makes one; it lives for that one call, and every epoch writes
the same arrays again. Without a workspace, which is how every other caller
runs (`forward_cached`, `forward_batch` and `backward_batch` pass none), each
call allocates its results and leaves its inputs alone.

The dense products use `np.dot`, not `np.matmul`: numpy's matmul runs an
unblocked loop when the contracted dimension is 1 (a lower layer's
(n, 1) @ (1, width), an upper layer's output delta times W2), where np.dot
hands the product to BLAS at about a third of the cost; other shapes reach the
same BLAS call either way. BLAS may form u*w + 0.0 in one rounding, so an
underflowed product can keep its sign where matmul gives +0.0, and a product of
two nans may carry either nan. No result of train, rollout or verify shows
either: weights are finite, a trained bias is never -0.0 (biases start at +0.0,
and Adam's p - step is -0.0 only for p = -0.0), and BLAS sums and Adam absorb
the sign.
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
    """sigmoid(z) as a new array (also for 0-d z); z is left alone."""
    z = np.array(z, float)
    return _sigmoid_into(z, np.empty(z.shape))


def _sigmoid_into(z, e):
    # Writes sigmoid(z) over z, using e (z's shape) as scratch. e = exp(-|z|)
    # never overflows; abs then negative is -|z| bit for bit, nan payloads
    # included, and the two passes cost less than one copysign(z, -1). For
    # z >= 0 this is 1/(1+exp(-z)), for z < 0 it is exp(z)/(1+exp(z)), the
    # usual stable form for each sign, with one exp. The numerator, 1 where
    # z >= 0 and e elsewhere, is max(e, [z >= 0]), since e lies in [0, 1] or
    # is nan (which maximum returns as it is): the bits of a masked select at
    # a fraction of its cost
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(z, 0.0, out=z, casting="unsafe")
    np.maximum(e, z, out=z)
    e += 1.0
    z /= e
    return z


def _act(name, z):
    """The activation written over z (a float64 array), which is returned."""
    if name == "sigmoid":
        return _sigmoid_into(z, np.empty(z.shape))
    if name == "tanh":
        return np.tanh(z, out=z)
    return np.maximum(z, 0.0, out=z)


def _act_grad(name, a, out):
    # derivative at z from the activation a = act(z) alone, written to out (a
    # new array if None); for relu, (a > 0) has the same bits as (z > 0)
    if out is None:
        out = np.empty(a.shape)
    if name == "sigmoid":
        np.subtract(1.0, a, out=out)
        out *= a
        return out
    if name == "tanh":
        np.multiply(a, a, out=out)
        return np.subtract(1.0, out, out=out)
    return np.greater(a, 0.0, out=out, casting="unsafe")


class Workspace:
    """The arrays one `training.train` call writes again in every epoch.

    `array(key, shape)` returns the float64 array kept under (key, shape),
    allocated on its first request. A key that names a layer keeps that
    layer's values from the forward to the backward; a key that names only a
    role is scratch that every layer of that shape shares. `grads[tag]` is
    the [W1, b1, ...] list of arrays the backward of the MLP tagged `tag`
    writes its parameter gradients into.
    """

    def __init__(self, grads):
        self.grads = grads
        self._arrays = {}

    def array(self, key, shape):
        arr = self._arrays.get((key, shape))
        if arr is None:
            arr = self._arrays[(key, shape)] = np.empty(shape)
        return arr


def _buffer(ws, key, shape):
    """The workspace's array for (key, shape), or None (allocate) without one."""
    return None if ws is None else ws.array(key, shape)


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
    return _forward(mlp, x)


def _forward(mlp: Mlp, x, ws=None, tag=None):
    """`forward_cached` with an optional workspace: each hidden activation then
    lands in the array kept for (tag, layer), and the output in scratch that
    the next call with a workspace overwrites."""
    a = np.asarray(x, float)
    if a.ndim not in (1, 2) or a.shape[-1] != mlp.d_in:
        raise ConfigError(f"expected input of shape ({mlp.d_in},) or (n, {mlp.d_in}), got {a.shape}")
    acts = []
    last = len(mlp.weights) - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        acts.append(a)
        key = "mlp output" if l == last else (tag, l)
        # np.dot: matmul loops when the contracted dimension is 1 (see above)
        z = np.dot(a, w.T, out=_buffer(ws, key, a.shape[:-1] + w.shape[:1]))
        z += b
        a = z if l == last else _act(mlp.activation, z)
    return a, acts


def forward_batch(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """Apply the network to rows of x, shape (n, d_in) -> (n, d_out)."""
    return forward_cached(mlp, x)[0]


def backward_batch(mlp: Mlp, cache, upstream: np.ndarray):
    """Gradients of sum_i <upstream_i, mlp(x_i)> from a forward_cached pass.

    Returns (param_grads in [W1, b1, ...] order summed over the batch,
    input gradient of shape (n, d_in)).
    """
    return _backward(mlp, cache, upstream)


def _backward(mlp: Mlp, cache, upstream, ws=None, tag=None):
    """`backward_batch` with an optional workspace: the parameter gradients
    are then written into `ws.grads[tag]`, and the deltas and the input
    gradient into scratch that the next call with a workspace overwrites."""
    delta = np.asarray(upstream, float)
    out_shape = (len(cache[0]), mlp.d_out)
    if delta.shape != out_shape:
        raise ConfigError(f"upstream shape {delta.shape} != output shape {out_shape}")
    n_layers = len(mlp.weights)
    grads = [None] * (2 * n_layers) if ws is None else ws.grads[tag]
    for l in range(n_layers - 1, -1, -1):  # np.dot, as in _forward
        grads[2 * l] = np.dot(delta.T, cache[l], out=grads[2 * l])
        grads[2 * l + 1] = np.add.reduce(delta, axis=0, out=grads[2 * l + 1])  # delta.sum(axis=0)
        w = mlp.weights[l]
        delta = np.dot(delta, w, out=_buffer(ws, ("delta", l), (out_shape[0], w.shape[1])))
        if l > 0:
            delta *= _act_grad(mlp.activation, cache[l], _buffer(ws, "act grad", delta.shape))
    return grads, delta


_B1, _B2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator guard


@dataclass
class AdamState:
    m: list
    v: list
    t: int
    lr: float
    ws: object = None  # a Workspace: adam_step then updates params, m and v in place


def adam_init(params, lr=0.001, ws=None) -> AdamState:
    return AdamState([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params], 0, lr, ws)


def adam_step(params, grads, state: AdamState):
    """One bias-corrected Adam update; returns (new params, new state).

    With a workspace in the state, the params and the state's m and v are
    updated in place and returned; the steps use the workspace's scratch.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ConfigError("params, grads and state must have matching lengths")
    t = state.t + 1
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in array {i} at step {t}", step=t)
    c1 = 1.0 - _B1**t
    c2 = 1.0 - _B2**t
    ws = state.ws
    keep = ws is not None
    new_params, new_m, new_v = [], [], []
    for i, (p, g, m, v) in enumerate(zip(params, grads, state.m, state.v)):
        # m = B1 m + (1 - B1) g;  v = B2 v + (1 - B2) g g;  each operand order kept
        term = np.multiply(1.0 - _B1, g, out=_buffer(ws, ("adam step", i), p.shape))
        m = np.multiply(_B1, m, out=m if keep else None)
        m += term
        term = np.multiply(1.0 - _B2, g, out=term)
        term *= g
        v = np.multiply(_B2, v, out=v if keep else None)
        v += term
        # step = lr (m / c1) / (sqrt(v / c2) + eps)
        step = np.divide(m, c1, out=term)
        np.multiply(state.lr, step, out=step)
        den = np.divide(v, c2, out=_buffer(ws, ("adam denominator", i), p.shape))
        np.sqrt(den, out=den)
        den += _EPS
        step /= den
        new_params.append(np.subtract(p, step, out=p if keep else None))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(new_m, new_v, t, state.lr, ws)
