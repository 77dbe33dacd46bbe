"""Volume-preserving coupling layers, one-coordinate shears, and their stacks.

Conventions: the split `s` and the shear target `i` are 1-based, matching the
serialized format. With D components, an Upper layer adds a function of the
lower block x[s-1:] to the upper block x[:s-1]; a Lower layer adds a function
of the (unchanged) upper block to the lower block; a Shear adds a scalar
function of the other D-1 coordinates to component i. Each update touches a
block the shift does not read, so the Jacobian is unit-triangular and the
inverse is the same subtraction in closed form.

Layers and nets are immutable after construction; forward, inverse, and
backward are pure functions and safe for concurrent callers.

`_layer_apply_cached` is the one layer kernel, forward and inverse, for a point
(dim,) or a batch (n, dim). `layer_apply_batch` and `net_apply_batch` take
either shape; `layer_forward` and `net_forward` first check for one point.

Training runs each layer's forward once. `net_forward_collect` keeps, per
layer, the layer's input and the shift's cache: the MLP activations produced
by the forward that computed the output (None for a FixedShift).
`layer_backward_batch` consumes that pair and never recomputes the forward.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnsupportedError
from .mlp import backward_batch, forward_cached, mlp_params
from .shifts import FixedShift, MlpShift

UPPER = "upper"
LOWER = "lower"
SHEAR = "shear"


@dataclass(frozen=True)
class Layer:
    kind: str
    dim: int
    s: int = 0  # split, upper/lower only
    i: int = 0  # target coordinate, shear only
    shift: object = None


def upper_layer(dim, s, shift) -> Layer:
    _check_split(dim, s)
    _check_shift_dims(shift, dim - s + 1, s - 1, "upper")
    return Layer(UPPER, dim, s=s, shift=shift)


def lower_layer(dim, s, shift) -> Layer:
    _check_split(dim, s)
    _check_shift_dims(shift, s - 1, dim - s + 1, "lower")
    return Layer(LOWER, dim, s=s, shift=shift)


def shear_layer(dim, i, shift) -> Layer:
    if dim < 2:
        raise ConfigError(f"shear layers need dim >= 2, got {dim}")
    if not 1 <= i <= dim:
        raise ConfigError(f"shear target must satisfy 1 <= i <= {dim}, got {i}")
    _check_shift_dims(shift, dim - 1, 1, "shear")
    return Layer(SHEAR, dim, i=i, shift=shift)


def _check_split(dim, s):
    if dim < 2:
        raise ConfigError(f"coupling layers need dim >= 2, got {dim}")
    if not 2 <= s <= dim:
        raise ConfigError(f"split must satisfy 2 <= s <= {dim}, got {s}")


def _check_shift_dims(shift, in_dim, out_dim, kind):
    if shift.in_dim != in_dim or shift.out_dim != out_dim:
        raise ConfigError(
            f"{kind} shift must map dim {in_dim} -> {out_dim}, "
            f"got {shift.in_dim} -> {shift.out_dim}"
        )


def layer_forward(layer: Layer, x) -> np.ndarray:
    return _layer_apply_cached(layer, _check_point(layer.dim, x))[0]


@functools.lru_cache(maxsize=256)
def _shear_read(dim, j):
    # built once per (dim, j); an int array indexes far faster than a list
    read = np.delete(np.arange(dim), j)
    read.flags.writeable = False  # shared by every caller
    return read


def _columns(layer):
    """(read, written) 0-based columns: the shift reads x[..., read] and its
    output is added to x[..., written]."""
    k = layer.s - 1
    if layer.kind == UPPER:
        return slice(k, layer.dim), slice(0, k)
    if layer.kind == LOWER:
        return slice(0, k), slice(k, layer.dim)
    j = layer.i - 1
    return _shear_read(layer.dim, j), slice(j, j + 1)


def _layer_apply_cached(layer: Layer, x, inverse=False):
    """The one layer kernel: (output shaped like x, shift cache) for a point
    (dim,) or a batch (n, dim). Adds shift(x[..., read]) to x[..., written],
    or subtracts it for the closed-form inverse."""
    x = np.asarray(x, float)
    if x.ndim not in (1, 2) or x.shape[-1] != layer.dim:
        raise ConfigError(f"expected ({layer.dim},) point or (n, {layer.dim}) batch, got {x.shape}")
    read, written = _columns(layer)
    u = x[..., read]
    if isinstance(layer.shift, MlpShift):
        shifted, cache = forward_cached(layer.shift.mlp, u)
    else:
        shifted, cache = layer.shift.apply_batch(u), None
    out = x.copy()
    if inverse:
        out[..., written] -= shifted
    else:
        out[..., written] += shifted
    return out, cache


def layer_apply_batch(layer: Layer, x, inverse=False) -> np.ndarray:
    return _layer_apply_cached(layer, x, inverse)[0]


def _check_point(dim, x):
    x = np.asarray(x, float)
    if x.shape != (dim,):
        raise ConfigError(f"expected point of dim {dim}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class MPNet:
    """Ordered stack of layers sharing one dimension; empty stack = identity."""

    dim: int
    layers: tuple

    def __post_init__(self):
        for idx, layer in enumerate(self.layers):
            if layer.dim != self.dim:
                raise ConfigError(f"layer {idx} has dim {layer.dim}, net has dim {self.dim}")

    @property
    def n_layers(self):
        return len(self.layers)


def net_forward(net: MPNet, x) -> np.ndarray:
    return net_apply_batch(net, _check_point(net.dim, x))


def net_apply_batch(net: MPNet, x, inverse=False) -> np.ndarray:
    """The net (or its inverse) applied to a batch (n, dim) or a point (dim,)."""
    x = np.asarray(x, float)
    layers = reversed(net.layers) if inverse else net.layers
    for layer in layers:
        x = layer_apply_batch(layer, x, inverse=inverse)
    return x


def layer_backward_batch(layer: Layer, x, cache, upstream):
    """Chain rule through one layer for a batch of points.

    x is the layer's input and cache the shift cache its forward returned.
    Returns (shift parameter grads summed over the batch, gradient wrt x).
    FixedShift layers have no parameters; ones without an analytic Jacobian
    cannot propagate gradients and raise UnsupportedError.
    """
    g = np.asarray(upstream, float)
    read, written = _columns(layer)
    g_out = g[:, written]
    if isinstance(layer.shift, MlpShift):
        grads, du = backward_batch(layer.shift.mlp, cache, g_out)
    elif isinstance(layer.shift, FixedShift):
        jac = layer.shift.jacobian(np.asarray(x, float)[:, read])
        if jac is None:
            raise UnsupportedError(
                f"fixed shift {layer.shift.id!r} has no registered analytic Jacobian; "
                "gradients through it are not supported"
            )
        grads = []
        du = np.einsum("no,noi->ni", g_out, jac)
    else:
        raise ConfigError(f"unknown shift type {type(layer.shift)!r}")
    dx = g.copy()
    dx[:, read] += du
    return grads, dx


def net_forward_collect(net: MPNet, x):
    """Batched forward; returns (output, per-layer (input, shift cache) pairs)."""
    x = np.asarray(x, float)
    collected = []
    for layer in net.layers:
        out, cache = _layer_apply_cached(layer, x)
        collected.append((x, cache))
        x = out
    return x, collected


def net_backward_collected(net: MPNet, collected, upstream):
    g = np.asarray(upstream, float)
    per_layer = [None] * len(net.layers)
    for idx in range(len(net.layers) - 1, -1, -1):
        x, cache = collected[idx]
        per_layer[idx], g = layer_backward_batch(net.layers[idx], x, cache, g)
    return per_layer, g


def net_trainable_params(net: MPNet):
    """Flat parameter list over MlpShift layers, in layer order."""
    params = []
    for layer in net.layers:
        if isinstance(layer.shift, MlpShift):
            params.extend(mlp_params(layer.shift.mlp))
    return params
