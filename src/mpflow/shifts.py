"""Shift functions used inside coupling and shear layers.

A layer's shift is one of three kinds, and `coupling.Layer` accepts no other:
a trainable `MlpShift`; a `FixedShift`, an entry of the fixed table of
analytic shifts named by string id plus a flat parameter vector, which keeps
nets with analytic shifts serializable; and a `PairShear`, the shift of one
shear of a compiled flow (see `compiler`), which is not serialized shear by
shear. Every fixed shift has its exact Jacobian, so gradients pass it.

MLP and fixed shifts, like `mlp.forward_cached`, take a point (in_dim,) or a
batch (n, in_dim), so one layer kernel in `coupling` serves both shapes; a
pair shear takes the state's columns instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .mlp import Mlp, _sigmoid, forward_cached


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
    """An entry of the table of analytic shifts. Calling it, or `apply_batch`
    (the same method), maps a point (in_dim,) to (out_dim,) and a batch
    (n, in_dim) to (n, out_dim) with one call of the entry's function.
    Construction, `dataclasses.replace` included, checks the id and params,
    keeps a read-only copy of the params and builds the function from them."""

    id: str
    params: np.ndarray
    in_dim: int
    out_dim: int
    _fn: object = field(init=False, repr=False)
    _jac: object = field(init=False, repr=False)

    def __post_init__(self):
        if self.id not in _FACTORIES:
            raise ConfigError(f"unknown fixed-shift id {self.id!r}")
        params = np.array(self.params, float)
        params.flags.writeable = False
        for name in ("in_dim", "out_dim"):
            width = getattr(self, name)
            if not isinstance(width, (int, np.integer)) or isinstance(width, bool):
                raise ConfigError(f"fixed shift {name} must be an integer, got {width!r}")
        in_dim, out_dim = int(self.in_dim), int(self.out_dim)
        fn, jac = _FACTORIES[self.id](params, in_dim, out_dim)
        for name, value in (("params", params), ("in_dim", in_dim), ("out_dim", out_dim),
                            ("_fn", fn), ("_jac", jac)):
            object.__setattr__(self, name, value)

    def __call__(self, u):
        return self._fn(self._rows(u))

    apply_batch = __call__

    def jacobian(self, u):
        """Exact Jacobian, the leading shape of u plus (out_dim, in_dim)."""
        return self._jac(self._rows(u))

    def _rows(self, u):
        u = np.asarray(u, float)
        if u.ndim not in (1, 2) or u.shape[-1] != self.in_dim:
            raise ConfigError(
                f"shift {self.id!r} expects ({self.in_dim},) or (n, {self.in_dim}) input, got {u.shape}"
            )
        return u


def fixed_shift(shift_id, params, in_dim, out_dim) -> FixedShift:
    return FixedShift(shift_id, params, in_dim, out_dim)


class PairShear:
    """The shift of one compiled shear on coordinate row + 1: called with y, a
    view of the caller's state as columns (D, n) or a point (D,) with
    y[row] = 0.0, which a `ufn` must not write, it returns h * ufn(tau, y) in
    y[0]'s shape. A pinned-zero component has ufn None and is never called:
    `coupling`'s layer kernel adds h * 0.0 (signed like h) to its target
    column without evaluating the field. `recipe` is the FlowRecipe of the
    flow the shear belongs to, or None. No gradient passes it."""

    __slots__ = ("ufn", "row", "tau", "h", "in_dim", "recipe")
    out_dim = 1

    def __init__(self, ufn, row, tau, h, in_dim, recipe):
        self.ufn, self.row, self.tau, self.h = ufn, row, tau, h
        self.in_dim, self.recipe = in_dim, recipe

    def __call__(self, y):
        return self.h * self.ufn(self.tau, y)

    def __repr__(self):
        return f"<pair shear on coordinate {self.row + 1} at tau={self.tau!r}>"


# --- the fixed table ---------------------------------------------------------
# factory(params, in_dim, out_dim) -> (fn, jac): fn(u) maps a point (in_dim,)
# or a batch (n, in_dim) to the same leading shape plus (out_dim,), jac(u) to
# the leading shape plus (out_dim, in_dim); params is the shift's read-only copy


def _constant_factory(params, in_dim, out_dim):
    if params.shape != (out_dim,):
        raise ConfigError(f"'constant' needs {out_dim} params, got {params.shape}")
    return (
        (lambda u: np.broadcast_to(params, u.shape[:-1] + (out_dim,))),
        (lambda u: np.zeros(u.shape[:-1] + (out_dim, in_dim))),
    )


def _linear_factory(params, in_dim, out_dim):
    if params.size != out_dim * in_dim:
        raise ConfigError(
            f"'linear' needs {out_dim * in_dim} params (row-major matrix), got {params.size}"
        )
    mat = params.reshape(out_dim, in_dim)
    return (lambda u: u @ mat.T), (lambda u: np.broadcast_to(mat, u.shape[:-1] + mat.shape))


def _scaled_sigmoid_factory(params, in_dim, out_dim):
    # a * sigmoid(w . u + b), params = [a, b, w_1 .. w_in]
    if out_dim != 1:
        raise ConfigError("'scaled_sigmoid' is scalar-valued (out_dim must be 1)")
    if params.size != 2 + in_dim:
        raise ConfigError(f"'scaled_sigmoid' needs {2 + in_dim} params, got {params.size}")
    a, b, w = params[0], params[1], params[2:]

    def fn(u):
        return (a * _sigmoid(u @ w + b))[..., None]

    def jac(u):
        sig = _sigmoid(u @ w + b)
        return (a * sig * (1.0 - sig))[..., None, None] * w

    return fn, jac


_FACTORIES = {
    "constant": _constant_factory,
    "linear": _linear_factory,
    "scaled_sigmoid": _scaled_sigmoid_factory,
}
