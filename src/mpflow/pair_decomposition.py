"""Split a divergence-free field into D-1 two-coordinate Hamiltonian pieces.

Pair d is supported on coordinates (d, d+1) only and satisfies
d(u_d)/dy_d + d(u_{d+1})/dy_{d+1} = 0. Every pair comes straight from the
field (Feng & Shang's splitting): with P_d = sum_{k<=d} df_k/dy_k the partial
divergence, pair d's second component is u2_d = -int_0^{y_{d+1}} P_d ds
(y_{d+1} replaced by s), evaluated by Gauss-Legendre quadrature of the
central-difference P_d; its first component is u1_d = f_d - u2_{d-1}, and the
last pair's second component is f_D. A component at a point costs at most
two field calls, whatever D. When P_d is detected to vanish identically (sampled
below tolerance), u2_d is pinned to exact zero, which keeps every separable
pair, and so every compilable field, fully closed-form.

Pair components, like field functions, take a point (D,) or columns (D, n).
Construction is single-threaded; the resulting pair fields are immutable and
safe to evaluate concurrently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

# field_eval is unused here but stays bound: perfbench's harness self-test
# wraps it as pair_decomposition.field_eval
from .dynamics import DEFAULT_FD_STEP, VectorField, field_eval, partial_divergence_fd  # noqa: F401
from .errors import ConfigError, DecompositionError
from .verify import as_box, sample_points

DEFAULT_QUAD_NODES = 32
DEFAULT_TOL = 1e-6
_DETECT_SEED = 0x7A1D5EED
_DETECT_SAMPLES = 32
_QUAD_BLOCK = 4096  # values of y per integrand call in a quadrature


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
    """-int_0^{y[j]} integrand(t, y with coord j replaced by s) ds.

    All nodes of a block of columns go through one integrand call; the block
    holds _QUAD_BLOCK values of y, which bounds the temporaries at any n.
    """

    def u2(t, y):
        cols = y.reshape(y.shape[0], -1)
        out = np.empty(cols.shape[1])
        step = max(1, _QUAD_BLOCK // (nodes.size * cols.shape[0]))
        for start in range(0, out.size, step):
            c = cols[:, start : start + step]
            half = 0.5 * c[j]
            yy = np.repeat(c[:, None], nodes.size, axis=1)  # (D, Q, columns)
            yy[j] = np.multiply.outer(nodes + 1.0, half)
            acc = sum(w * v for w, v in zip(weights, integrand(t, yy)))  # node by node from 0.0
            # exactly +0.0 on an empty interval, whatever -half * acc rounds to
            out[start : start + step] = np.where(c[j] == 0.0, 0.0, -half * acc)
        return out.reshape(y.shape[1:])

    return u2


def _subtract(fn_a, fn_b):
    return lambda t, y: fn_a(t, y) - fn_b(t, y)


def _integrand_vanishes(integrand, detect_pts, tol):
    return np.max(np.abs(integrand(0.0, detect_pts.T))) < tol


def build_pairs(field: VectorField, sample_box, quad_nodes=DEFAULT_QUAD_NODES,
                fd_step=DEFAULT_FD_STEP, tol=DEFAULT_TOL):
    """Construct the D-1 pair fields without running the residual diagnostic.

    Pair d (0-based d0 = d-1) takes u1 = f_d - u2_{d-1}, or f_d itself when
    u2_{d-1} is pinned to zero, and u2 from the partial divergence P_d of the
    field, or f_D for the last pair. Fully deterministic in (field,
    sample_box, quad_nodes, fd_step, tol), so pairs can be reconstructed bit
    for bit from a serialized configuration.
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
    pairs, u2 = [], _zero_component
    for d0 in range(dim - 1):  # 0-based first active coordinate
        u1 = comp[d0] if u2 is _zero_component else _subtract(comp[d0], u2)
        if d0 == dim - 2:
            u2 = comp[dim - 1]
        else:
            integrand = functools.partial(partial_divergence_fd, field, k=d0 + 1, h_fd=fd_step)
            if _integrand_vanishes(integrand, detect_pts, tol):
                u2 = _zero_component
            else:
                u2 = _antiderivative(integrand, d0 + 1, nodes, weights)
        pairs.append(PairField(dim, d0 + 1, u1, u2, provenance=config))
    return pairs


def separability_check(pair: PairField, sample_box, n_samples=100, tol=DEFAULT_TOL,
                       fd_step=DEFAULT_FD_STEP, seed=_DETECT_SEED) -> str:
    """'yes' iff neither active component depends on its own coordinate.

    Checked by finite differences at sampled points; with the pair structure
    this is exactly the separability criterion.
    """
    exclude = pair.provenance.field.singular if pair.provenance is not None else None
    cols = sample_points(sample_box, n_samples, seed, exclude=exclude).T
    d0 = pair.d - 1
    du1 = _fd_partial(pair.u1, d0, fd_step)(0.0, cols)
    du2 = _fd_partial(pair.u2, d0 + 1, fd_step)(0.0, cols)
    return "yes" if max(np.max(np.abs(du1)), np.max(np.abs(du2))) < tol else "no"


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
    div = np.abs(partial_divergence_fd(field, t, div_pts.T, field.dim, fd_step))
    worst = int(np.argmax(div))  # the first worst point on ties
    if not div[worst] < tol:  # a nan fails too
        raise DecompositionError(
            f"field {field.fid!r} is not divergence-free: |div|={div[worst]:.3e} "
            f"at {div_pts[worst].tolist()}",
            worst_point=div_pts[worst],
            worst_residual=float(div[worst]),
        )

    pairs = build_pairs(field, (lo, hi), quad_nodes, fd_step, tol)

    res_pts = sample_points((lo, hi), n_residual, _DETECT_SEED + 2, exclude=field.singular)
    cols = res_pts.T
    total = np.zeros(cols.shape)
    for pair in pairs:
        total[pair.d - 1] += pair.u1(t, cols)
        total[pair.d] += pair.u2(t, cols)
    res = np.max(np.abs(np.asarray(field.func(t, cols), float) - total), axis=0)
    worst = int(np.argmax(res))
    residual_max = float(res[worst])
    if not residual_max < tol:
        raise DecompositionError(
            f"decomposition residual {residual_max:.3e} exceeds tol {tol:.3e} "
            f"at {res_pts[worst].tolist()}",
            worst_point=res_pts[worst],
            worst_residual=residual_max,
        )

    pairs = tuple(
        replace(pair, separable=separability_check(pair, (lo, hi), tol=tol, fd_step=fd_step))
        for pair in pairs
    )
    config = pairs[0].provenance
    return Decomposition(field, pairs, residual_max, n_residual, config)
