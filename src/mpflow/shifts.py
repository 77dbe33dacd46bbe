"""Shift functions used inside coupling and shear layers.

A shift is either a trainable `MlpShift` or a `FixedShift` naming an entry in
the analytic registry by string id plus a flat parameter vector, which keeps
nets with analytic shifts serializable. Registry entries may provide an
analytic Jacobian; shifts without one cannot take part in backpropagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .mlp import Mlp, _sigmoid, mlp_forward

_REGISTRY = {}
_FAMILIES = {}


def register_fixed_shift(shift_id, factory):
    """factory(params, in_dim, out_dim) -> (fn, jac_or_None)."""
    _REGISTRY[shift_id] = factory


def register_fixed_family(prefix, factory):
    """factory(suffix, params, in_dim, out_dim) -> (fn, jac_or_None) for ids 'prefix:suffix'."""
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
        return mlp_forward(self.mlp, u)


@dataclass(frozen=True)
class FixedShift:
    id: str
    params: np.ndarray
    in_dim: int
    out_dim: int
    _fn: object = field(repr=False, compare=False, default=None)
    _jac: object = field(repr=False, compare=False, default=None)

    def __call__(self, u):
        u = np.asarray(u, float)
        if u.shape != (self.in_dim,):
            raise ConfigError(f"shift {self.id!r} expects input of dim {self.in_dim}, got {u.shape}")
        out = np.asarray(self._fn(u), float).reshape(self.out_dim)
        return out

    def apply_batch(self, u):
        u = np.asarray(u, float)
        return np.stack([self(row) for row in u])

    def jacobian(self, u):
        """Analytic (out_dim, in_dim) Jacobian, or None when not registered."""
        if self._jac is None:
            return None
        return np.asarray(self._jac(np.asarray(u, float)), float).reshape(self.out_dim, self.in_dim)


def fixed_shift(shift_id, params, in_dim, out_dim) -> FixedShift:
    params = np.asarray(params, float)
    fn, jac = resolve_fixed(shift_id, params, in_dim, out_dim)
    return FixedShift(shift_id, params, int(in_dim), int(out_dim), fn, jac)


# --- built-in registry entries -------------------------------------------


def _constant_factory(params, in_dim, out_dim):
    if params.shape != (out_dim,):
        raise ConfigError(f"'constant' needs {out_dim} params, got {params.shape}")
    value = params.copy()
    jac = np.zeros((out_dim, in_dim))
    return (lambda u: value), (lambda u: jac)


def _linear_factory(params, in_dim, out_dim):
    if params.size != out_dim * in_dim:
        raise ConfigError(
            f"'linear' needs {out_dim * in_dim} params (row-major matrix), got {params.size}"
        )
    mat = params.reshape(out_dim, in_dim).copy()
    return (lambda u: mat @ u), (lambda u: mat)


def _scaled_sigmoid_factory(params, in_dim, out_dim):
    # a * sigmoid(w . u + b), params = [a, b, w_1 .. w_in]
    if out_dim != 1:
        raise ConfigError("'scaled_sigmoid' is scalar-valued (out_dim must be 1)")
    if params.size != 2 + in_dim:
        raise ConfigError(f"'scaled_sigmoid' needs {2 + in_dim} params, got {params.size}")
    a, b = params[0], params[1]
    w = params[2:].copy()

    def fn(u):
        return np.array([a * _sigmoid(w @ u + b)])

    def jac(u):
        sig = _sigmoid(w @ u + b)
        return (a * sig * (1.0 - sig)) * w[None, :]

    return fn, jac


register_fixed_shift("constant", _constant_factory)
register_fixed_shift("linear", _linear_factory)
register_fixed_shift("scaled_sigmoid", _scaled_sigmoid_factory)
