"""Shift functions used inside coupling and shear layers.

A shift is either a trainable `MlpShift` or a `FixedShift` naming an entry in
the analytic registry by string id plus a flat parameter vector, which keeps
nets with analytic shifts serializable. Registry entries may provide an
analytic Jacobian; shifts without one cannot take part in backpropagation.

Fixed shifts, like `mlp.forward_cached` for MLP shifts, take a point (in_dim,)
or a batch (n, in_dim), so one layer kernel in `coupling` serves both shapes.
A scalar registry shift may also carry a column function, `cols`, which takes
the state itself with the written coordinate zeroed; a shear on that
coordinate then calls it on its state's columns and never gathers the input u.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .mlp import Mlp, _sigmoid, forward_cached

_REGISTRY = {}
_FAMILIES = {}


def register_fixed_shift(shift_id, factory):
    """factory(params, in_dim, out_dim) -> (fn, jac_or_None) or
    (fn, jac_or_None, cols).

    fn(u) maps a point (in_dim,) or a batch (n, in_dim) to the same leading
    shape plus (out_dim,); jac(u) returns the leading shape plus (out_dim, in_dim).
    `FixedShift` raises ConfigError on any other result shape.

    The optional cols, for a scalar shift (out_dim 1), is the same function of
    the whole state: a callable with an int attribute `row`, the coordinate the
    shift is written to, such that cols(y) is fn(u)[..., 0] when y is the
    state's columns (in_dim + 1,) or (in_dim + 1, n) with y[row] = 0.0 and u
    the state without coordinate row. A shear on coordinate row + 1 calls it
    instead of fn (see `coupling`); a result of another shape than y[0]'s is a
    ConfigError there.
    """
    _REGISTRY[shift_id] = factory


def register_fixed_family(prefix, factory):
    """factory(suffix, params, in_dim, out_dim) -> (fn, jac_or_None) or
    (fn, jac_or_None, cols) for ids 'prefix:suffix'; fn, jac and cols as in
    `register_fixed_shift`."""
    _FAMILIES[prefix] = factory


def resolve_fixed(shift_id, params, in_dim, out_dim):
    if shift_id in _REGISTRY:
        return _REGISTRY[shift_id](params, in_dim, out_dim)
    if ":" in shift_id:
        prefix, suffix = shift_id.split(":", 1)
        if prefix in _FAMILIES:
            return _FAMILIES[prefix](suffix, params, in_dim, out_dim)
    raise ConfigError(f"unknown fixed-shift id {shift_id!r}")


@dataclass(frozen=True, eq=False)  # identity ==, hash: the params are arrays
class MlpShift:
    mlp: Mlp

    @property
    def in_dim(self):
        return self.mlp.d_in

    @property
    def out_dim(self):
        return self.mlp.d_out

    def __call__(self, u):
        return forward_cached(self.mlp, u)[0]


@dataclass(frozen=True, eq=False)  # identity ==, hash: params is an array
class FixedShift:
    """A registry shift. Calling it, or `apply_batch` (the same method), maps a
    point (in_dim,) to (out_dim,) and a batch (n, in_dim) to (n, out_dim) with
    one call of the registered function. `cols` is the registered column
    function, or None."""

    id: str
    params: np.ndarray
    in_dim: int
    out_dim: int
    _fn: object = field(repr=False)
    _jac: object = field(repr=False)
    cols: object = field(default=None, repr=False)

    def __call__(self, u):
        u = np.asarray(u, float)
        if u.ndim not in (1, 2) or u.shape[-1] != self.in_dim:
            raise ConfigError(
                f"shift {self.id!r} expects ({self.in_dim},) or (n, {self.in_dim}) input, got {u.shape}"
            )
        return self._checked(self._fn(u), u.shape[:-1] + (self.out_dim,), "fn")

    apply_batch = __call__

    def jacobian(self, u):
        """Analytic Jacobian, the leading shape of u plus (out_dim, in_dim), or
        None when not registered."""
        if self._jac is None:
            return None
        u = np.asarray(u, float)
        return self._checked(self._jac(u), u.shape[:-1] + (self.out_dim, self.in_dim), "jac")

    def _checked(self, value, shape, what):
        # exact: a point-only function given a batch must not reshape into place
        value = np.asarray(value, float)
        if value.shape != shape:
            raise ConfigError(
                f"shift {self.id!r}: registered {what} returned shape {value.shape}, "
                f"expected {shape}; registry functions map a point (in_dim,) or a "
                "batch (n, in_dim) to the same leading shape"
            )
        return value


def fixed_shift(shift_id, params, in_dim, out_dim) -> FixedShift:
    params = np.asarray(params, float)
    return FixedShift(shift_id, params, int(in_dim), int(out_dim),
                      *resolve_fixed(shift_id, params, in_dim, out_dim))


# --- built-in registry entries -------------------------------------------


def _constant_factory(params, in_dim, out_dim):
    if params.shape != (out_dim,):
        raise ConfigError(f"'constant' needs {out_dim} params, got {params.shape}")
    value = params.copy()
    return (
        (lambda u: np.broadcast_to(value, u.shape[:-1] + (out_dim,))),
        (lambda u: np.zeros(u.shape[:-1] + (out_dim, in_dim))),
    )


def _linear_factory(params, in_dim, out_dim):
    if params.size != out_dim * in_dim:
        raise ConfigError(
            f"'linear' needs {out_dim * in_dim} params (row-major matrix), got {params.size}"
        )
    mat = params.reshape(out_dim, in_dim).copy()
    return (lambda u: u @ mat.T), (lambda u: np.broadcast_to(mat, u.shape[:-1] + mat.shape))


def _scaled_sigmoid_factory(params, in_dim, out_dim):
    # a * sigmoid(w . u + b), params = [a, b, w_1 .. w_in]
    if out_dim != 1:
        raise ConfigError("'scaled_sigmoid' is scalar-valued (out_dim must be 1)")
    if params.size != 2 + in_dim:
        raise ConfigError(f"'scaled_sigmoid' needs {2 + in_dim} params, got {params.size}")
    a, b = params[0], params[1]
    w = params[2:].copy()

    def fn(u):
        return (a * _sigmoid(u @ w + b))[..., None]

    def jac(u):
        sig = _sigmoid(u @ w + b)
        return (a * sig * (1.0 - sig))[..., None, None] * w

    return fn, jac


register_fixed_shift("constant", _constant_factory)
register_fixed_shift("linear", _linear_factory)
register_fixed_shift("scaled_sigmoid", _scaled_sigmoid_factory)
