"""Time-dependent vector fields, reference integrators, and pair datasets.

Registered fields, one `FIELDS` entry per id, with the config keys each reads
(a field config is {"id": ..., <keys>}; any other key is rejected):
  lorentz4d   no keys. Charged-particle benchmark in 4 dimensions,
              divergence-free, singular on the line y1 = y2 = 0 (evaluation
              there still computes, sampling excludes the disk of radius 0.05)
  harmonic2d  no keys. f = (-y2, y1)
  linear      matrix. f = A y for a square matrix A, which fixes the dim
  poly        dim, components. Per-component polynomial: one list of
              (coefficient, multi-index) terms per component

Field functions take y of shape (dim,) or (dim, n): they index y[0], y[1], ...
and compute elementwise, so a (dim, n) array evaluates n points as columns.
lorentz4d writes its arithmetic once, as a body over the coordinates that
takes `sqrt`: `_lorentz4d` calls it with `np.sqrt`, and `_rk4_point` with
`math.sqrt` on Python floats, so the two agree bit for bit.

`rk4_flow` takes one point (dim,) or a batch (n, dim). A lorentz4d point (a
field whose func is `_lorentz4d`) runs its substeps in `_rk4_point` on four
Python floats, which costs a fraction of numpy's per-call overhead on four
elements; every other input is integrated as one (dim, n) array state.
Either way finiteness is checked once per hop, at its end. A non-finite end
state, or a ZeroDivisionError that Python raises where numpy gives inf or
nan, reruns the hop on the array state with a check after every substep, so
the NumericError names the substep (and row) where the state first became
non-finite.
`partial_divergence_fd` takes a point or columns (dim, ...) and sends every
shifted copy through one field call. `field_eval`, `divergence_fd` and
`generate_trajectory` take single points.

All operations are pure; independent trajectories may be generated
concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericError
from .serialize import fmt17

SINGULAR_RADIUS = 0.05
FD_STEP = 1e-5  # central-difference step of every finite-difference check
MAX_EXPONENT = 2**53  # largest poly exponent the flat float encoding holds exactly


@dataclass(frozen=True)
class VectorField:
    dim: int
    fid: str
    func: object  # (t, y) -> array shaped like y: (dim,) or (dim, n) columns
    params: tuple = ()  # flat float encoding, see field_from_params
    singular: object = None  # (y) -> bool, or None


def _lorentz4d_body(y0, y1, y2, y3, sqrt):
    r2 = y0 * y0 + y1 * y1
    r = sqrt(r2)
    c = 100.0 * (r2 * r)
    return y2, y3, y0 / c + r * y3, y1 / c - r * y2


def _lorentz4d(t, y):
    return np.array(_lorentz4d_body(y[0], y[1], y[2], y[3], np.sqrt))  # indexing beats unpacking


def _harmonic2d(t, y):
    return np.array([-y[1], y[0]])


def _is_real(v):
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _poly_terms(components, dim):
    """Validate [(coef, multi_index), ...] per component; returns nested tuples.

    A coefficient must be a finite number and an exponent an integer in
    [0, MAX_EXPONENT]; integral floats count, since `field_from_params` decodes
    floats.
    """
    if len(components) != dim:
        raise ConfigError(f"poly field needs {dim} component term lists, got {len(components)}")
    parsed = []
    for c, terms in enumerate(components):
        if not isinstance(terms, (list, tuple)):
            raise ConfigError(f"poly component {c + 1} must be a list of terms, got {terms!r}")
        out = []
        for k, term in enumerate(terms):
            where = f"poly component {c + 1} term {k + 1}"
            if not isinstance(term, (list, tuple)) or len(term) != 2:
                raise ConfigError(f"{where} must be [coefficient, multi-index], got {term!r}")
            coef, exps = term
            if not (_is_real(coef) and abs(coef) <= sys.float_info.max):  # an int may exceed floats
                raise ConfigError(f"{where}: coefficient must be a finite number, got {coef!r}")
            if not (isinstance(exps, (list, tuple)) and len(exps) == dim
                    and all(_is_real(e) and e >= 0 and e % 1 == 0 for e in exps)):
                raise ConfigError(f"{where}: multi-index {exps!r} invalid for dim {dim}")
            if any(e > MAX_EXPONENT for e in exps):
                raise ConfigError(f"{where}: exponents must be at most 2**53, the largest "
                                  f"the float parameter encoding holds exactly")
            out.append((float(coef), tuple(int(e) for e in exps)))
        parsed.append(tuple(out))
    return tuple(parsed)


def _poly_eval(terms):
    def fn(t, y):
        out = np.zeros(y.shape)  # one term list per coordinate: (dim,) or (dim, n)
        for c, comp_terms in enumerate(terms):
            acc = 0.0
            for coef, exps in comp_terms:
                val = coef
                for j, e in enumerate(exps):
                    if e:
                        val *= y[j] ** e
                acc += val
            out[c] = acc
        return out

    return fn


def _linear_build(params, dim):
    mat = np.asarray(params, float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"linear field needs a square matrix, got shape {mat.shape}")
    return mat.shape[0], lambda t, y: mat @ y, tuple(mat.reshape(-1).tolist())


def _poly_build(params, dim):
    if dim is None:
        raise ConfigError("poly field needs an explicit dim")
    terms = _poly_terms(params, dim)
    flat = [len(terms)]
    for comp_terms in terms:
        flat.append(len(comp_terms))
        for coef, exps in comp_terms:
            flat += (coef, *exps)
    return dim, _poly_eval(terms), tuple(map(float, flat))


def _poly_decode(vals, dim):
    def count():
        n = next(vals)
        if not (n >= 0 and float(n).is_integer()):
            raise ConfigError(f"field 'poly' params hold a bad count {n}")
        return int(n)

    return [[(next(vals), [next(vals) for _ in range(dim)]) for _ in range(count())]
            for _ in range(count())]


class FieldSpec(NamedTuple):
    """One registered field id: see make_field and field_from_params."""

    build: object  # (params, dim or None) -> (dim, func, flat params); raises on bad params
    decode: object  # (iterator over the flat params, dim) -> params for build
    config: dict  # config key -> type it is read as; "dim" is the dim, any other key the params
    singular: object = None  # (y) -> bool, or None


FIELDS = {
    "lorentz4d": FieldSpec(lambda params, dim: (4, _lorentz4d, ()), lambda vals, dim: None, {},
                           lambda y: float(np.hypot(y[0], y[1])) < SINGULAR_RADIUS),
    "harmonic2d": FieldSpec(lambda params, dim: (2, _harmonic2d, ()), lambda vals, dim: None, {}),
    "linear": FieldSpec(_linear_build,
                        lambda vals, dim: [[next(vals) for _ in range(dim)] for _ in range(dim)],
                        {"matrix": np.ndarray}),
    "poly": FieldSpec(_poly_build, _poly_decode, {"dim": int, "components": list}),
}


def _spec(fid) -> FieldSpec:
    if fid not in FIELDS:
        raise ConfigError(f"unknown field id {fid!r}")
    return FIELDS[fid]


def make_field(fid, params=None, dim=None) -> VectorField:
    """Construct a registered vector field; unknown ids raise ConfigError."""
    spec = _spec(fid)
    d, func, flat = spec.build(params, dim)
    if dim is not None and dim != d:
        raise ConfigError(f"field {fid!r} has dim {d}, got {dim}")
    return VectorField(d, fid, func, flat, spec.singular)


def field_from_params(fid, dim, params) -> VectorField:
    """Rebuild a field from its flat parameter encoding (see VectorField.params)."""
    vals = iter(params)
    try:
        decoded = _spec(fid).decode(vals, dim)
    except StopIteration:
        raise ConfigError(f"field {fid!r} params are truncated") from None
    if next(vals, None) is not None:
        raise ConfigError(f"field {fid!r} params have values left over")
    return make_field(fid, decoded, dim)


def field_eval(field: VectorField, t, y) -> np.ndarray:
    y = np.asarray(y, float)
    if y.shape != (field.dim,):
        raise ConfigError(f"field {field.fid!r} expects points of dim {field.dim}, got {y.shape}")
    return np.asarray(field.func(t, y), float)


def partial_divergence_fd(field: VectorField, t, y, k):
    """Central-difference estimate, step FD_STEP, of sum_{d<k} df_d/dy_d at (t, y).

    y is a point (dim,), giving a 0-d array, or columns (dim, ...), giving the
    trailing shape. The 2k shifted copies of every column go through one
    `field.func` call as 2-d columns; the k quotients are summed in order from
    0.0, so a column has the bits of the same point on its own.
    """
    y = np.asarray(y, float)
    if y.ndim == 0 or y.shape[0] != field.dim:
        raise ConfigError(f"field {field.fid!r} expects points of dim {field.dim}, got {y.shape}")
    shifted = np.repeat(y.reshape(field.dim, 1, -1), 2 * k, axis=1)  # (dim, 2k, N)
    j = np.arange(k)
    shifted[j, j] += FD_STEP
    shifted[j, k + j] -= FD_STEP
    out = np.asarray(field.func(t, shifted.reshape(field.dim, -1)), float).reshape(shifted.shape)
    return sum((out[j, j] - out[j, k + j]) / (2.0 * FD_STEP)).reshape(y.shape[1:])


def divergence_fd(field: VectorField, t, y) -> float:
    """Central-difference estimate of sum_d df_d/dy_d at one point (t, y)."""
    y = np.asarray(y, float)
    if y.shape != (field.dim,):
        raise ConfigError(f"field {field.fid!r} expects points of dim {field.dim}, got {y.shape}")
    return float(partial_divergence_fd(field, t, y, field.dim))


def _rk4_single(func, t, h, y):
    k1 = func(t, y)
    k2 = func(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = func(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = func(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_point(n, h, y0, y1, y2, y3):
    """n substeps of _rk4_single on one lorentz4d point held as four Python
    floats, in its operation order, so the end state has its bits. lorentz4d
    is autonomous, so no time is kept. k1..k4 are (a0..a3) .. (d0..d3)."""
    hh, h6 = 0.5 * h, h / 6.0
    body, sqrt = _lorentz4d_body, math.sqrt
    for _ in range(n):
        a0, a1, a2, a3 = body(y0, y1, y2, y3, sqrt)
        b0, b1, b2, b3 = body(y0 + hh * a0, y1 + hh * a1, y2 + hh * a2, y3 + hh * a3, sqrt)
        c0, c1, c2, c3 = body(y0 + hh * b0, y1 + hh * b1, y2 + hh * b2, y3 + hh * b3, sqrt)
        d0, d1, d2, d3 = body(y0 + h * c0, y1 + h * c1, y2 + h * c2, y3 + h * c3, sqrt)
        y0 = y0 + h6 * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
        y1 = y1 + h6 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        y2 = y2 + h6 * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        y3 = y3 + h6 * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
    return y0, y1, y2, y3


def _rk4_plan(T, h_ref):
    """(substep count, substep size) covering a hop of length T at about h_ref."""
    if not 0 < h_ref < np.inf:
        raise ConfigError(f"h_ref must be a positive finite number, got {h_ref}")
    if not np.isfinite(T):
        raise ConfigError(f"T must be finite, got {T}")
    n = max(1, round(abs(T) / h_ref)) if T != 0 else 0
    return n, (T / n if n else 0.0)


def _rk4_substeps(func, tau, n, h, y):
    """The end state of n RK4 substeps from y, (dim,) or (dim, n), checked after
    each; a non-finite state raises NumericError naming its substep (and the
    first bad column of a batch)."""
    for k in range(n):
        y = _rk4_single(func, tau + k * h, h, y)
        if not np.isfinite(y).all():
            where = ""
            if y.ndim == 2:
                where = f" in row {np.flatnonzero(~np.isfinite(y).all(axis=0))[0]}"
            raise NumericError(f"rk4 state became non-finite at substep {k + 1}{where}", step=k + 1)
    return y


def rk4_flow(field: VectorField, tau, T, h_ref, x) -> np.ndarray:
    """Classic fourth-order Runge-Kutta flow over [tau, tau+T] with substep h_ref.

    x is one point (dim,) or a batch (n, dim). A lorentz4d point runs on
    four Python floats through `_rk4_point`, in the array loop's operation
    order, so it has the array loop's bits. Any other point, and every batch,
    is integrated as one (dim, n) array state; a batch returns as (n, dim).
    Each row then has exactly the bits of its own single-point run for fields
    that compute elementwise (lorentz4d, harmonic2d). For linear fields
    `mat @ Y` is a matrix product where a point takes a matrix-vector product,
    and for poly fields an array square is exact where a scalar one goes
    through pow, so rows can differ from single-point runs by an ulp or so.

    The float path checks finiteness once, at the end of the hop: an inf or
    nan entry stays non-finite through every later substep. If its end state
    is not finite, or it raises ZeroDivisionError where numpy would give inf
    or nan, the hop is rerun on the array state. The array state is checked
    after every substep, so a non-finite one raises NumericError naming the
    first non-finite substep (and row of a batch). numpy's floating-point
    warnings are silenced on the array state, so that error is the one report.
    """
    x = np.asarray(x, float)
    if x.shape != (field.dim,) and (x.ndim != 2 or x.shape[1] != field.dim):
        raise ConfigError(
            f"field {field.fid!r} expects points (dim,) or batches (n, dim) with dim "
            f"{field.dim}, got {x.shape}"
        )
    n, h = _rk4_plan(T, h_ref)
    if x.ndim == 1 and field.func is _lorentz4d:  # a replaced func keeps the array loop
        try:
            y = np.array(_rk4_point(n, h, *x.tolist()))
            if np.isfinite(y).all():
                return y
        except ZeroDivisionError:
            pass  # numpy would have gone non-finite: the checked loop reports it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _rk4_substeps(field.func, tau, n, h, x.T).T.copy()


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (n, dim)

    def __post_init__(self):
        t = np.asarray(self.times, float)
        s = np.asarray(self.states, float)
        if t.ndim != 1 or s.ndim != 2 or t.size != s.shape[0]:
            raise ConfigError(f"trajectory shapes disagree: {t.shape} vs {s.shape}")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ConfigError("trajectory times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    @property
    def dim(self):
        return self.states.shape[1]


@dataclass(frozen=True)
class PairDataset:
    x: np.ndarray  # (n, dim) states
    y: np.ndarray  # (n, dim) successor states

    def __post_init__(self):
        x = np.asarray(self.x, float)
        y = np.asarray(self.y, float)
        if x.shape != y.shape or x.ndim != 2:
            raise ConfigError(f"pair arrays must share shape (n, dim), got {x.shape}, {y.shape}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_pairs(self):
        return self.x.shape[0]

    @property
    def dim(self):
        return self.x.shape[1]


def generate_trajectory(field: VectorField, x0, h_data, n_states, h_ref=1e-3) -> Trajectory:
    """n_states coarse states spaced h_data apart, each hop integrated by RK4."""
    if n_states < 1:
        raise ConfigError(f"n_states must be >= 1, got {n_states}")
    if not 0 < h_data < np.inf:
        raise ConfigError(f"h_data must be a positive finite number, got {h_data}")
    x = np.asarray(x0, float)
    states = [x.copy()]
    for n in range(n_states - 1):
        x = rk4_flow(field, n * h_data, h_data, h_ref, x)
        states.append(x.copy())
    times = h_data * np.arange(n_states)
    return Trajectory(times, np.array(states))


def dataset_from_trajectory(traj: Trajectory) -> PairDataset:
    if traj.states.shape[0] < 2:
        raise ConfigError("need at least two states to form pairs")
    return PairDataset(traj.states[:-1].copy(), traj.states[1:].copy())


# --- CSV interfaces --------------------------------------------------------


def trajectory_to_csv(traj: Trajectory) -> str:
    dim = traj.dim
    lines = ["t," + ",".join(f"y{d + 1}" for d in range(dim))]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join([fmt17(t)] + [fmt17(v) for v in row]))
    return "\n".join(lines) + "\n"


def dataset_to_csv(ds: PairDataset) -> str:
    dim = ds.dim
    header = ",".join([f"x{d + 1}" for d in range(dim)] + [f"xp{d + 1}" for d in range(dim)])
    lines = [header]
    for a, b in zip(ds.x, ds.y):
        lines.append(",".join([fmt17(v) for v in a] + [fmt17(v) for v in b]))
    return "\n".join(lines) + "\n"


def dataset_from_csv(text: str) -> PairDataset:
    lines = [ln for ln in text.strip().split("\n") if ln]
    if not lines or not lines[0].startswith("x1,"):
        raise ConfigError("dataset CSV must start with header x1,...,xp1,...")
    n_cols = len(lines[0].split(","))
    if n_cols % 2:
        raise ConfigError("dataset CSV must have an even number of columns")
    dim = n_cols // 2
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    arr = np.array(rows)
    if arr.size == 0:
        raise ConfigError("dataset CSV has no rows")
    return PairDataset(arr[:, :dim], arr[:, dim:])
