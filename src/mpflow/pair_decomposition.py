"""Split a divergence-free field into D-1 two-coordinate Hamiltonian pieces.

Pair d is supported on coordinates (d, d+1) only and satisfies
d(u_d)/dy_d + d(u_{d+1})/dy_{d+1} = 0. The construction is recursive: strip
pair d's first component straight off the running remainder and obtain the
second as the antiderivative -int_0^{y_{d+1}} d(remainder_d)/dy_d ds,
evaluated by Gauss-Legendre quadrature with finite-difference partials; the
last pair is whatever remainder is left on coordinates (D-1, D). When the
integrand is detected to vanish identically (sampled below tolerance), the
second component is pinned to exact zero, which keeps simple benchmark
fields fully closed-form.

Construction is single-threaded; the resulting pair fields are immutable and
safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import VectorField, divergence_fd, field_eval
from .errors import ConfigError, DecompositionError
from .verify import as_box, sample_points

DEFAULT_QUAD_NODES = 32
DEFAULT_FD_STEP = 1e-5
DEFAULT_TOL = 1e-6
_DETECT_SEED = 0x7A1D5EED
_DETECT_SAMPLES = 32


def _zero_component(t, y):
    return np.zeros_like(y[0])


@dataclass(frozen=True)
class PairField:
    """Field supported on coordinates (d, d+1).

    u1 and u2 are its two active components, (t, y) -> value, with the
    contract of `VectorField.func`: y is a point (D,), giving a scalar, or
    points as columns (D, n), giving (n,).
    """

    dim: int
    d: int  # 1-based index of the first active coordinate
    u1: object
    u2: object
    separable: str = "unknown"  # yes | no | unknown
    provenance: object = None  # DecompositionConfig when built by decompose

    def __post_init__(self):
        if not 1 <= self.d <= self.dim - 1:
            raise ConfigError(f"pair index must be in [1, {self.dim - 1}], got {self.d}")


@dataclass(frozen=True)
class DecompositionConfig:
    field: VectorField
    box_lo: tuple
    box_hi: tuple
    quad_nodes: int
    fd_step: float
    tol: float


@dataclass(frozen=True)
class Decomposition:
    field: VectorField
    pairs: tuple
    residual_max: float
    n_residual_samples: int
    config: DecompositionConfig


def pair_eval(pair: PairField, t, y) -> np.ndarray:
    y = np.asarray(y, float)
    if y.shape != (pair.dim,):
        raise ConfigError(f"pair expects points of dim {pair.dim}, got {y.shape}")
    out = np.zeros(pair.dim)
    out[pair.d - 1] = pair.u1(t, y)
    out[pair.d] = pair.u2(t, y)
    return out


def _fd_partial(fn, j, h):
    def dfn(t, y):
        yp = y.copy()
        yp[j] += h
        ym = y.copy()
        ym[j] -= h
        return (fn(t, yp) - fn(t, ym)) / (2.0 * h)

    return dfn


def _antiderivative(integrand, j, nodes, weights):
    """-int_0^{y[j]} integrand(t, y with coord j replaced by s) ds."""

    def u2(t, y):
        b = y[j]
        half = 0.5 * b
        acc = 0.0
        for xi, w in zip(nodes, weights):
            yy = y.copy()
            yy[j] = half * (xi + 1.0)
            acc += w * integrand(t, yy)
        # exactly +0.0 on an empty interval, whatever -half * acc rounds to
        return np.where(b == 0.0, 0.0, -half * acc)

    return u2


def _subtract(fn_a, fn_b):
    return lambda t, y: fn_a(t, y) - fn_b(t, y)


def _integrand_vanishes(integrand, detect_pts, tol):
    return max(abs(integrand(0.0, p)) for p in detect_pts) < tol


def build_pairs(field: VectorField, sample_box, quad_nodes=DEFAULT_QUAD_NODES,
                fd_step=DEFAULT_FD_STEP, tol=DEFAULT_TOL):
    """Construct the D-1 pair fields without running the residual diagnostic.

    Fully deterministic in (field, sample_box, quad_nodes, fd_step, tol), so
    pairs can be reconstructed bit for bit from a serialized configuration.
    """
    dim = field.dim
    if dim < 2:
        raise ConfigError(f"decomposition needs dim >= 2, got {dim}")
    lo, hi = as_box(sample_box)
    if lo.size != dim:
        raise ConfigError(f"sample box has dim {lo.size}, field has dim {dim}")
    nodes, weights = np.polynomial.legendre.leggauss(int(quad_nodes))
    detect_pts = sample_points((lo, hi), _DETECT_SAMPLES, _DETECT_SEED, exclude=field.singular)
    config = DecompositionConfig(
        field, tuple(lo.tolist()), tuple(hi.tolist()), int(quad_nodes), float(fd_step), float(tol)
    )

    comp = [(lambda t, y, j=j: field.func(t, y)[j]) for j in range(dim)]
    pairs = []
    for d0 in range(dim - 2):  # pairs 1 .. D-2, 0-based first active coordinate d0
        u1 = comp[d0]
        integrand = _fd_partial(u1, d0, fd_step)
        if _integrand_vanishes(integrand, detect_pts, tol):
            u2 = _zero_component
        else:
            u2 = _antiderivative(integrand, d0 + 1, nodes, weights)
            comp[d0 + 1] = _subtract(comp[d0 + 1], u2)
        pairs.append(PairField(dim, d0 + 1, u1, u2, provenance=config))
    pairs.append(PairField(dim, dim - 1, comp[dim - 2], comp[dim - 1], provenance=config))
    return pairs


def separability_check(pair: PairField, sample_box, n_samples=100, tol=DEFAULT_TOL,
                       fd_step=DEFAULT_FD_STEP, seed=_DETECT_SEED) -> str:
    """'yes' iff neither active component depends on its own coordinate.

    Checked by finite differences at sampled points; with the pair structure
    this is exactly the separability criterion.
    """
    exclude = pair.provenance.field.singular if pair.provenance is not None else None
    pts = sample_points(sample_box, n_samples, seed, exclude=exclude)
    d0 = pair.d - 1
    du1 = _fd_partial(pair.u1, d0, fd_step)
    du2 = _fd_partial(pair.u2, d0 + 1, fd_step)
    worst = 0.0
    for p in pts:
        worst = max(worst, abs(du1(0.0, p)), abs(du2(0.0, p)))
        if worst >= tol:
            return "no"
    return "yes"


def pair_divergence_fd(pair: PairField, t, y, h_fd=DEFAULT_FD_STEP) -> float:
    """FD estimate of d(u1)/dy_d + d(u2)/dy_{d+1}; zero for exact pairs."""
    y = np.asarray(y, float)
    d0 = pair.d - 1
    return float(
        _fd_partial(pair.u1, d0, h_fd)(t, y) + _fd_partial(pair.u2, d0 + 1, h_fd)(t, y)
    )


def decompose(field: VectorField, sample_box, quad_nodes=DEFAULT_QUAD_NODES,
              tol=DEFAULT_TOL, fd_step=DEFAULT_FD_STEP, n_residual=200,
              n_divergence=100, t=0.0) -> Decomposition:
    """Build, validate, and classify the pairwise decomposition of a field.

    Rejects fields whose sampled divergence exceeds tol; raises
    DecompositionError carrying the worst sample if the reconstruction
    residual max_x |f - sum of pairs| over n_residual samples exceeds tol.
    """
    lo, hi = as_box(sample_box)
    div_pts = sample_points((lo, hi), n_divergence, _DETECT_SEED + 1, exclude=field.singular)
    worst_div, worst_pt = 0.0, div_pts[0]
    for p in div_pts:
        dv = abs(divergence_fd(field, t, p, fd_step))
        if dv > worst_div:
            worst_div, worst_pt = dv, p
    if worst_div >= tol:
        raise DecompositionError(
            f"field {field.fid!r} is not divergence-free: |div|={worst_div:.3e} "
            f"at {worst_pt.tolist()}",
            worst_point=worst_pt,
            worst_residual=worst_div,
        )

    pairs = build_pairs(field, (lo, hi), quad_nodes, fd_step, tol)

    res_pts = sample_points((lo, hi), n_residual, _DETECT_SEED + 2, exclude=field.singular)
    residual_max, worst_pt = 0.0, res_pts[0]
    for p in res_pts:
        total = np.zeros(field.dim)
        for pair in pairs:
            total += pair_eval(pair, t, p)
        res = float(np.max(np.abs(field_eval(field, t, p) - total)))
        if res > residual_max:
            residual_max, worst_pt = res, p
    if residual_max >= tol:
        raise DecompositionError(
            f"decomposition residual {residual_max:.3e} exceeds tol {tol:.3e} "
            f"at {worst_pt.tolist()}",
            worst_point=worst_pt,
            worst_residual=residual_max,
        )

    pairs = tuple(
        replace(pair, separable=separability_check(pair, (lo, hi), tol=tol, fd_step=fd_step))
        for pair in pairs
    )
    config = pairs[0].provenance
    return Decomposition(field, pairs, residual_max, n_residual, config)
