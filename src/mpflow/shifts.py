"""Shift functions used inside coupling and shear layers.

A shift is either a trainable `MlpShift` or a `FixedShift` naming an entry in
the analytic registry by string id plus a flat parameter vector, which keeps
nets with analytic shifts serializable. Registry entries may provide an
analytic Jacobian; shifts without one cannot take part in backpropagation.

Fixed shifts, like `mlp.forward_cached` for MLP shifts, take a point (in_dim,)
or a batch (n, in_dim), so one layer kernel in `coupling` serves both shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .mlp import Mlp, _sigmoid, forward_cached

_REGISTRY = {}
_FAMILIES = {}


def register_fixed_shift(shift_id, factory):
    """factory(params, in_dim, out_dim) -> (fn, jac_or_None).

    fn(u) maps a point (in_dim,) or a batch (n, in_dim) to the same leading
    shape plus (out_dim,); jac(u) returns the leading shape plus (out_dim, in_dim).
    `FixedShift` raises ConfigError on any other result shape.
    """
    _REGISTRY[shift_id] = factory


def register_fixed_family(prefix, factory):
    """factory(suffix, params, in_dim, out_dim) -> (fn, jac_or_None) for ids
    'prefix:suffix'; fn and jac as in `register_fixed_shift`."""
    _FAMILIES[prefix] = factory


def resolve_fixed(shift_id, params, in_dim, out_dim):
    if shift_id in _REGISTRY:
        return _REGISTRY[shift_id](params, in_dim, out_dim)
    if ":" in shift_id:
        prefix, suffix = shift_id.split(":", 1)
        if prefix in _FAMILIES:
            return _FAMILIES[prefix](suffix, params, in_dim, out_dim)
    raise ConfigError(f"unknown fixed-shift id {shift_id!r}")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class FixedShift:
    """A registry shift. Calling it, or `apply_batch` (the same method), maps a
    point (in_dim,) to (out_dim,) and a batch (n, in_dim) to (n, out_dim) with
    one call of the registered function."""

    id: str
    params: np.ndarray
    in_dim: int
    out_dim: int
    _fn: object = field(repr=False, compare=False, default=None)
    _jac: object = field(repr=False, compare=False, default=None)

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
    fn, jac = resolve_fixed(shift_id, params, in_dim, out_dim)
    return FixedShift(shift_id, params, int(in_dim), int(out_dim), fn, jac)


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
