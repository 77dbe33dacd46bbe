"""Volume-preserving coupling layers, one-coordinate shears, and their stacks.

Conventions: the split `s` and the shear target `i` are 1-based, matching the
serialized format. With D components, an Upper layer adds a function of the
lower block x[s-1:] to the upper block x[:s-1]; a Lower layer adds a function
of the (unchanged) upper block to the lower block; a Shear adds a scalar
function of the other D-1 coordinates to component i. Each update touches a
block the shift does not read, so the Jacobian is unit-triangular and the
inverse is the same subtraction in closed form.

This module alone knows which columns a layer reads and writes. Every `Layer`,
however built (a constructor, `Layer(...)`, `dataclasses.replace`), checks its
kind, dim, split or target and its shift's widths on construction and stores
its columns; layers of one geometry share them. Other modules take a shift's
widths from `shift_dims(kind, dim, pos)` instead of deriving them.

Layers and nets are immutable after construction. Forward, inverse and
backward allocate their results, never write their inputs, and are safe for
concurrent callers, except when given a workspace (below).

`_layer_apply_cached` is the one layer kernel, forward and inverse: it
updates, in place, a float point (dim,) or batch (n, dim) that its caller
owns and has checked. The public passes check and copy their input once:
`layer_apply_batch` and `net_apply_batch` take either shape, `layer_forward`
and `net_forward` one point, and a net pass runs every layer on that one
copy. A layer's shift is an `MlpShift`, a `FixedShift` or a `PairShear` (see
`shifts`); any other object is a ConfigError naming its type. A shear whose
shift is a `PairShear` zeroes its target column where it stands, hands the
shift the state's columns as a view, and writes the saved column plus the
result back; only a shear on the pair shear's coordinate row + 1 may hold
one, and no gradient passes it. Every other layer gathers its shift's input
x[..., read] and adds shift(u) to x[..., written].

Training runs each layer's forward once. `net_forward_collect` takes a
batch (n, dim) and keeps, per layer, the layer's input and the shift's
cache: the MLP activations produced by the forward that computed the output
(None for a FixedShift).
`layer_backward_batch` consumes that pair and never recomputes the forward.
Both take an optional `mlp.Workspace`, which only `training.train` makes and
which lives for that one call. With it, each layer's output and MLP
activations land in arrays kept per layer, the shifts' parameter gradients in
the workspace's gradient views, and the backward overwrites its upstream
array with the input gradient. Every other caller passes none, gets fresh
arrays and goes through the public `forward_cached` and `backward_batch`,
whose signatures the benchmark's tracer wraps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UnsupportedError
from .mlp import _backward, _forward, backward_batch, forward_cached, mlp_params
from .shifts import FixedShift, MlpShift, PairShear

UPPER = "upper"
LOWER = "lower"
SHEAR = "shear"


@dataclass(frozen=True, slots=True)
class Layer:
    """One layer; construction checks its geometry, its shift's kind and
    widths, and stores the columns the shift reads and the columns it writes."""

    kind: str
    dim: int
    s: int = 0  # split, upper/lower only
    i: int = 0  # target coordinate, shear only
    shift: object = None
    read: object = field(init=False, compare=False, repr=False)
    written: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_ints(dim=self.dim, s=self.s, i=self.i)
        pos = self.i if self.kind == SHEAR else self.s
        read, written, in_dim, out_dim = _geometry(self.kind, self.dim, pos)
        shift = self.shift
        if not isinstance(shift, (MlpShift, FixedShift, PairShear)):
            raise ConfigError("a layer's shift must be an MlpShift, a FixedShift or a PairShear, "
                              f"got {type(shift).__name__}")
        if (shift.in_dim, shift.out_dim) != (in_dim, out_dim):
            raise ConfigError(f"{self.kind} shift must map dim {in_dim} -> {out_dim}, "
                              f"got {shift.in_dim} -> {shift.out_dim}")
        if isinstance(shift, PairShear) and (self.kind != SHEAR or shift.row != self.i - 1):
            raise ConfigError(f"{shift!r} writes coordinate {shift.row + 1}; it can only "
                              f"be the shift of a shear on that coordinate, not of this {self.kind} layer")
        object.__setattr__(self, "read", read)
        object.__setattr__(self, "written", written)


_INT_NAMES = {"dim": "layer dim", "s": "split s", "i": "target i"}


def _check_ints(**values):
    """ConfigError naming the first of dim, s or i that is not an integer; a
    float split would build a layer whose first apply fails on its slices."""
    for name, v in values.items():
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise ConfigError(f"{_INT_NAMES[name]} must be an integer, got {v!r}")


@functools.lru_cache(maxsize=256)
def _geometry(kind, dim, pos):
    """(read, written, in_dim, out_dim) of a layer of this kind, integer dim and
    split or target: the shift reads x[..., read] and its output is added to
    x[..., written]. Cached, so layers of one geometry share their columns."""
    if kind == SHEAR:
        if dim < 2:
            raise ConfigError(f"shear layers need dim >= 2, got {dim}")
        if not 1 <= pos <= dim:
            raise ConfigError(f"shear target must satisfy 1 <= i <= {dim}, got {pos}")
        read = np.delete(np.arange(dim), pos - 1)  # an int array indexes far faster than a list
        read.flags.writeable = False  # shared by every layer of this geometry
        return read, slice(pos - 1, pos), dim - 1, 1
    if kind not in (UPPER, LOWER):
        raise ConfigError(f"layer kind must be {UPPER!r}, {LOWER!r} or {SHEAR!r}, got {kind!r}")
    if dim < 2:
        raise ConfigError(f"coupling layers need dim >= 2, got {dim}")
    if not 2 <= pos <= dim:
        raise ConfigError(f"split must satisfy 2 <= s <= {dim}, got {pos}")
    first, rest = slice(0, pos - 1), slice(pos - 1, dim)
    if kind == UPPER:
        return rest, first, dim - pos + 1, pos - 1
    return first, rest, pos - 1, dim - pos + 1


def shift_dims(kind, dim, pos):
    """(in_dim, out_dim) of the shift of a layer of this kind and dim, with
    split s (upper, lower) or target i (shear) pos; ConfigError if the layer
    cannot exist."""
    _check_ints(dim=dim, **{"i" if kind == SHEAR else "s": pos})
    return _geometry(kind, dim, pos)[2:]


def upper_layer(dim, s, shift) -> Layer:
    return Layer(UPPER, dim, s=s, shift=shift)


def lower_layer(dim, s, shift) -> Layer:
    return Layer(LOWER, dim, s=s, shift=shift)


def shear_layer(dim, i, shift) -> Layer:
    return Layer(SHEAR, dim, i=i, shift=shift)


def layer_forward(layer: Layer, x) -> np.ndarray:
    out = _check_point(layer.dim, x).copy()
    _layer_apply_cached(layer, out)
    return out


def _layer_apply_cached(layer: Layer, x, inverse=False, ws=None, tag=None):
    """The one layer kernel: updates x, a float point (dim,) or batch (n, dim)
    that the caller owns and has checked, in place, and returns the shift
    cache. Adds shift(x[..., read]) to x[..., written], or subtracts it for
    the closed-form inverse. A shear whose shift is a PairShear saves its
    target column, zeroes it, hands the shift x.T (a view of the state) and
    writes the saved column plus (or minus) the result back."""
    shift = layer.shift
    if isinstance(shift, PairShear):
        target = x[..., shift.row]  # a view, also of a point
        base = target.copy()
        target[...] = 0.0
        shifted, cache = shift(x.T), None
    else:
        target = base = x[..., layer.written]  # disjoint from the columns read
        u = x[..., layer.read]
        if isinstance(shift, FixedShift):
            shifted, cache = shift.apply_batch(u), None
        elif ws is None:
            shifted, cache = forward_cached(shift.mlp, u)
        else:
            shifted, cache = _forward(shift.mlp, u, ws, tag)
    (np.subtract if inverse else np.add)(base, shifted, out=target)
    return cache


def layer_apply_batch(layer: Layer, x, inverse=False) -> np.ndarray:
    out = _check_rows(layer.dim, x).copy()
    _layer_apply_cached(layer, out, inverse)
    return out


def _check_point(dim, x):
    x = np.asarray(x, float)
    if x.shape != (dim,):
        raise ConfigError(f"expected point of dim {dim}, got shape {x.shape}")
    return x


def _check_rows(dim, x):
    x = np.asarray(x, float)
    if x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ConfigError(f"expected ({dim},) point or (n, {dim}) batch, got {x.shape}")
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
    """The net (or its inverse) applied to a batch (n, dim) or a point (dim,):
    x is checked and copied once, and every layer updates that copy in place."""
    out = _check_rows(net.dim, x).copy()
    for layer in reversed(net.layers) if inverse else net.layers:
        _layer_apply_cached(layer, out, inverse)
    return out


def layer_backward_batch(layer: Layer, x, cache, upstream, ws=None, tag=None):
    """Chain rule through one layer for a batch of points.

    x is the layer's input and cache the shift cache its forward returned.
    Returns (shift parameter grads summed over the batch, gradient wrt x).
    With a workspace, the grads are `ws.grads[tag]` and the gradient wrt x
    is upstream itself, overwritten. FixedShift layers have no parameters
    and pass gradients through their exact Jacobian; a PairShear cannot
    propagate gradients and raises UnsupportedError.
    """
    g = np.asarray(upstream, float)
    g_out = g[:, layer.written]
    if isinstance(layer.shift, MlpShift):
        if ws is None:
            grads, du = backward_batch(layer.shift.mlp, cache, g_out)
        else:
            grads, du = _backward(layer.shift.mlp, cache, g_out, ws, tag)
    elif isinstance(layer.shift, FixedShift):
        jac = layer.shift.jacobian(np.asarray(x, float)[:, layer.read])
        grads = []
        du = np.einsum("no,noi->ni", g_out, jac)
    else:
        raise UnsupportedError(f"shift {layer.shift!r} has no analytic Jacobian; gradients "
                               "through it are not supported")
    dx = g.copy() if ws is None else g  # the columns read and written are disjoint
    dx[:, layer.read] += du
    return grads, dx


def net_forward_collect(net: MPNet, x, ws=None):
    """Batched forward; returns (output, collected) for `net_backward_collected`:
    collected holds the per-layer (input, shift cache) pairs and the workspace,
    which keeps layer idx's arrays under the tag idx. x is checked once, and
    must be a batch (n, dim), the only input the backward takes; each layer's
    output starts as a copy of its input, in the workspace's array for that
    layer when there is one, and the kernel updates it in place."""
    x = np.asarray(x, float)
    if x.ndim != 2 or x.shape[1] != net.dim:
        raise ConfigError(f"expected (n, {net.dim}) batch, got {x.shape}")
    pairs = []
    for idx, layer in enumerate(net.layers):
        if ws is None:
            out = x.copy()
        else:
            out = ws.array(("layer output", idx), x.shape)
            out[...] = x
        pairs.append((x, _layer_apply_cached(layer, out, ws=ws, tag=idx)))
        x = out
    return x, (pairs, ws)


def net_backward_collected(net: MPNet, collected, upstream):
    """(per-layer shift parameter grads, gradient wrt the net's input); with the
    workspace of the forward, upstream is overwritten (see layer_backward_batch)."""
    pairs, ws = collected
    g = np.asarray(upstream, float)
    per_layer = [None] * len(net.layers)
    for idx in range(len(net.layers) - 1, -1, -1):
        x, cache = pairs[idx]
        per_layer[idx], g = layer_backward_batch(net.layers[idx], x, cache, g, ws, idx)
    return per_layer, g


def net_trainable_params(net: MPNet):
    """Flat parameter list over MlpShift layers, in layer order."""
    params = []
    for layer in net.layers:
        if isinstance(layer.shift, MlpShift):
            params.extend(mlp_params(layer.shift.mlp))
    return params
