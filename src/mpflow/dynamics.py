"""Time-dependent vector fields, reference integrators, and pair datasets.

Registered fields:
  lorentz4d   charged-particle benchmark in 4 dimensions, divergence-free,
              singular on the line y1 = y2 = 0 (evaluation there still
              computes, sampling excludes the disk of radius 0.05)
  harmonic2d  f = (-y2, y1)
  linear      f = A y for a caller-supplied square matrix
  poly        per-component polynomial, params = list of (coefficient,
              multi-index) terms per component

Field functions take y of shape (dim,) or (dim, n): they index y[0], y[1], ...
and compute elementwise, so a (dim, n) array evaluates n points as columns.
`rk4_flow` uses that: it takes one point (dim,) or a batch (n, dim) and
integrates the whole batch as one (dim, n) state. `partial_divergence_fd`
takes a point or columns (dim, ...) and sends every shifted copy through one
field call. `field_eval` and every other function here take single points.

All operations are pure; independent trajectories may be generated
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .serialize import fmt17

SINGULAR_RADIUS = 0.05
DEFAULT_FD_STEP = 1e-5  # central-difference step of every finite-difference check


@dataclass(frozen=True)
class VectorField:
    dim: int
    fid: str
    func: object  # (t, y) -> array shaped like y: (dim,) or (dim, n) columns
    params: tuple = ()  # flat float encoding, see field_from_params
    divergence_free: bool = False
    singular: object = None  # (y) -> bool, or None
    jacobian: object = None  # (t, y) -> ndarray(dim, dim), or None


def _lorentz4d(t, y):
    r2 = y[0] * y[0] + y[1] * y[1]
    r = np.sqrt(r2)
    r3 = r2 * r
    return np.array(
        [
            y[2],
            y[3],
            y[0] / (100.0 * r3) + r * y[3],
            y[1] / (100.0 * r3) - r * y[2],
        ]
    )


def _harmonic2d(t, y):
    return np.array([-y[1], y[0]])


def _linear_field(mat):
    return lambda t, y: mat @ y


def _poly_terms(components, dim):
    """Validate [(coef, multi_index), ...] per component; returns nested tuples."""
    if len(components) != dim:
        raise ConfigError(f"poly field needs {dim} component term lists, got {len(components)}")
    parsed = []
    for c, terms in enumerate(components):
        out = []
        for term in terms:
            coef, exps = term
            exps = tuple(int(e) for e in exps)
            if len(exps) != dim or any(e < 0 for e in exps):
                raise ConfigError(f"poly component {c + 1}: multi-index {exps} invalid for dim {dim}")
            out.append((float(coef), exps))
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


def make_field(fid, params=None, dim=None) -> VectorField:
    """Construct a registered vector field; unknown ids raise ConfigError."""
    if fid == "lorentz4d":
        return VectorField(
            4,
            fid,
            _lorentz4d,
            divergence_free=True,
            singular=lambda y: float(np.hypot(y[0], y[1])) < SINGULAR_RADIUS,
        )
    if fid == "harmonic2d":
        mat = np.array([[0.0, -1.0], [1.0, 0.0]])
        return VectorField(
            2, fid, _harmonic2d, divergence_free=True, jacobian=lambda t, y: mat
        )
    if fid == "linear":
        mat = np.asarray(params, float)
        if dim is not None and mat.size == dim * dim:
            mat = mat.reshape(dim, dim)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ConfigError(f"linear field needs a square matrix, got shape {mat.shape}")
        d = mat.shape[0]
        return VectorField(
            d,
            fid,
            _linear_field(mat),
            params=tuple(mat.reshape(-1).tolist()),
            divergence_free=bool(abs(np.trace(mat)) < 1e-14),
            jacobian=lambda t, y: mat,
        )
    if fid == "poly":
        if dim is None:
            raise ConfigError("poly field needs an explicit dim")
        terms = _poly_terms(params, dim)
        flat = [float(len(terms))]
        for comp_terms in terms:
            flat.append(float(len(comp_terms)))
            for coef, exps in comp_terms:
                flat.append(coef)
                flat.extend(float(e) for e in exps)
        return VectorField(dim, fid, _poly_eval(terms), params=tuple(flat))
    raise ConfigError(f"unknown field id {fid!r}")


def field_from_params(fid, dim, params) -> VectorField:
    """Rebuild a field from its flat parameter encoding (see VectorField.params)."""
    if fid in ("lorentz4d", "harmonic2d"):
        return make_field(fid)
    if fid == "linear":
        return make_field(fid, params=np.asarray(params, float), dim=dim)
    if fid == "poly":
        vals = list(params)
        n_comp = int(vals.pop(0))
        components = []
        for _ in range(n_comp):
            n_terms = int(vals.pop(0))
            terms = []
            for _ in range(n_terms):
                coef = vals.pop(0)
                exps = [int(vals.pop(0)) for _ in range(dim)]
                terms.append((coef, exps))
            components.append(terms)
        return make_field(fid, params=components, dim=dim)
    raise ConfigError(f"unknown field id {fid!r}")


def field_eval(field: VectorField, t, y) -> np.ndarray:
    y = np.asarray(y, float)
    if y.shape != (field.dim,):
        raise ConfigError(f"field {field.fid!r} expects points of dim {field.dim}, got {y.shape}")
    return np.asarray(field.func(t, y), float)


def partial_divergence_fd(field: VectorField, t, y, k, h_fd=DEFAULT_FD_STEP):
    """Central-difference estimate of sum_{d<k} df_d/dy_d at (t, y).

    y is a point (dim,), giving a 0-d array, or columns (dim, ...), giving the
    trailing shape. The 2k shifted copies of every column go through one
    `field.func` call as 2-d columns; the k quotients are summed in order from
    0.0, so a column has the bits of the same point on its own.
    """
    if h_fd <= 0:
        raise ConfigError(f"h_fd must be positive, got {h_fd}")
    y = np.asarray(y, float)
    if y.ndim == 0 or y.shape[0] != field.dim:
        raise ConfigError(f"field {field.fid!r} expects points of dim {field.dim}, got {y.shape}")
    shifted = np.repeat(y.reshape(field.dim, 1, -1), 2 * k, axis=1)  # (dim, 2k, N)
    j = np.arange(k)
    shifted[j, j] += h_fd
    shifted[j, k + j] -= h_fd
    out = np.asarray(field.func(t, shifted.reshape(field.dim, -1)), float).reshape(shifted.shape)
    return sum((out[j, j] - out[j, k + j]) / (2.0 * h_fd)).reshape(y.shape[1:])


def divergence_fd(field: VectorField, t, y, h_fd=DEFAULT_FD_STEP) -> float:
    """Central-difference estimate of sum_d df_d/dy_d at one point (t, y)."""
    y = np.asarray(y, float)
    if y.shape != (field.dim,):
        raise ConfigError(f"field {field.fid!r} expects points of dim {field.dim}, got {y.shape}")
    return float(partial_divergence_fd(field, t, y, field.dim, h_fd))


def euler_step(field: VectorField, tau, h, x) -> np.ndarray:
    if h < 0:
        raise ConfigError(f"step size must be >= 0, got {h}")
    x = np.asarray(x, float)
    return x + h * field_eval(field, tau, x)


def _rk4_single(func, t, h, y):
    k1 = func(t, y)
    k2 = func(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = func(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = func(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_substeps(field: VectorField, tau, T, h_ref, y):
    """Yield (time, state) after each RK4 substep from y, (dim,) or (dim, n)."""
    if h_ref <= 0:
        raise ConfigError(f"h_ref must be positive, got {h_ref}")
    n = max(1, round(abs(T) / h_ref)) if T != 0 else 0
    h = T / n if n else 0.0
    for k in range(n):
        y = _rk4_single(field.func, tau + k * h, h, y)
        if not np.isfinite(y).all():
            where = ""
            if y.ndim == 2:
                where = f" in row {np.flatnonzero(~np.isfinite(y).all(axis=0))[0]}"
            raise NumericError(f"rk4 state became non-finite at substep {k + 1}{where}", step=k + 1)
        yield tau + (k + 1) * h, y


def rk4_flow(field: VectorField, tau, T, h_ref, x) -> np.ndarray:
    """Classic fourth-order Runge-Kutta flow over [tau, tau+T] with substep h_ref.

    x is one point (dim,) or a batch (n, dim); the batch is integrated as one
    (dim, n) state and returned as (n, dim). Each row then has exactly the bits
    of its own single-point run for fields that compute elementwise (lorentz4d,
    harmonic2d). For linear fields `mat @ Y` is a matrix product where a point
    takes a matrix-vector product, and for poly fields an array square is exact
    where a scalar one goes through pow, so rows can differ from single-point
    runs by an ulp or so.
    """
    x = np.asarray(x, float)
    if x.shape != (field.dim,) and (x.ndim != 2 or x.shape[1] != field.dim):
        raise ConfigError(
            f"field {field.fid!r} expects points (dim,) or batches (n, dim) with dim "
            f"{field.dim}, got {x.shape}"
        )
    y = x.T
    for _, y in _rk4_substeps(field, tau, T, h_ref, y):
        pass
    return y.T.copy()


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


def rk4_trajectory(field: VectorField, tau, T, h_ref, x) -> Trajectory:
    """Like rk4_flow for one point, but keeps every substep state."""
    x = np.asarray(x, float)
    if x.shape != (field.dim,):
        raise ConfigError(f"field {field.fid!r} expects points of dim {field.dim}, got {x.shape}")
    times = [tau]
    states = [x.copy()]
    for t, y in _rk4_substeps(field, tau, T, h_ref, x):
        times.append(t)
        states.append(y.copy())
    return Trajectory(np.array(times), np.array(states))


def splitting_step(subflows, x) -> np.ndarray:
    """Compose point maps in the given order (first entry applied first)."""
    x = np.asarray(x, float)
    for flow in subflows:
        nxt = np.asarray(flow(x), float)
        if nxt.shape != x.shape:
            raise ConfigError(f"subflow changed dimension {x.shape} -> {nxt.shape}")
        x = nxt
    return x


@dataclass(frozen=True)
class PairDataset:
    x: np.ndarray  # (n, dim) states
    y: np.ndarray  # (n, dim) successor states
    h_data: float

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
    if h_data <= 0:
        raise ConfigError(f"h_data must be positive, got {h_data}")
    x = np.asarray(x0, float)
    states = [x.copy()]
    for n in range(n_states - 1):
        x = rk4_flow(field, n * h_data, h_data, h_ref, x)
        states.append(x.copy())
    times = h_data * np.arange(n_states)
    return Trajectory(times, np.array(states))


def dataset_from_trajectory(traj: Trajectory, h_data) -> PairDataset:
    if traj.states.shape[0] < 2:
        raise ConfigError("need at least two states to form pairs")
    return PairDataset(traj.states[:-1].copy(), traj.states[1:].copy(), float(h_data))


def generate_dataset(field: VectorField, x0, h_data, n_pairs, h_ref=1e-3) -> PairDataset:
    """(x_n, x_{n+1}) pairs along one trajectory; consecutive pairs chain."""
    if n_pairs < 1:
        raise ConfigError(f"n_pairs must be >= 1, got {n_pairs}")
    traj = generate_trajectory(field, x0, h_data, n_pairs + 1, h_ref)
    return dataset_from_trajectory(traj, h_data)


# --- CSV interfaces --------------------------------------------------------


def trajectory_to_csv(traj: Trajectory) -> str:
    dim = traj.dim
    lines = ["t," + ",".join(f"y{d + 1}" for d in range(dim))]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join([fmt17(t)] + [fmt17(v) for v in row]))
    return "\n".join(lines) + "\n"


def trajectory_from_csv(text: str) -> Trajectory:
    lines = [ln for ln in text.strip().split("\n") if ln]
    if not lines or not lines[0].startswith("t,"):
        raise ConfigError("trajectory CSV must start with header t,y1,...")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    arr = np.array(rows)
    return Trajectory(arr[:, 0], arr[:, 1:])


def dataset_to_csv(ds: PairDataset) -> str:
    dim = ds.dim
    header = ",".join([f"x{d + 1}" for d in range(dim)] + [f"xp{d + 1}" for d in range(dim)])
    lines = [header]
    for a, b in zip(ds.x, ds.y):
        lines.append(",".join([fmt17(v) for v in a] + [fmt17(v) for v in b]))
    return "\n".join(lines) + "\n"


def dataset_from_csv(text: str, h_data=0.0) -> PairDataset:
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
    return PairDataset(arr[:, :dim], arr[:, dim:], float(h_data))
