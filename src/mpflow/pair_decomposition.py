"""Split a divergence-free field into D-1 two-coordinate Hamiltonian pieces.

Pair d is supported on coordinates (d, d+1) only and satisfies
d(u_d)/dy_d + d(u_{d+1})/dy_{d+1} = 0. Every pair comes straight from the
field (Feng & Shang's splitting): with P_d = sum_{k<=d} df_k/dy_k the partial
divergence, pair d's second component is u2_d = -int_0^{y_{d+1}} P_d ds
(y_{d+1} replaced by s), evaluated by Gauss-Legendre quadrature of the
central-difference P_d; its first component is u1_d = f_d - u2_{d-1}, and the
last pair's second component is f_D. P_d has d terms, one per coordinate
k <= d, and each term is one call of the field's component k on the two
shifted copies of every quadrature node of a block of columns: u2_d at a point
makes d component calls and no whole-field call. When P_d is detected to
vanish identically (sampled below tolerance), u2_d is pinned to exact zero,
which keeps every separable pair, and so every compilable field, fully
closed-form. Detection is one running sum of those terms over the sample, so
P_1 ... P_{D-2} cost D-2 component calls. Gauss-Legendre nodes are computed
only when a pair needs them, by one `np.linalg.eigvalsh` and numpy's
`leggauss` arithmetic, step for step, without importing leggauss's package.

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
from .dynamics import FD_STEP, VectorField, field_eval  # noqa: F401
from .dynamics import partial_divergence_fd, partial_divergences_fd
from .errors import ConfigError, DecompositionError
from .verify import as_box, sample_points

DEFAULT_QUAD_NODES = 32
MAX_QUAD_NODES = 1024  # the nodes took about 0.1 s at 1024 and 0.6 s at 2048 (2-core host)
DEFAULT_TOL = 1e-6
_DETECT_SEED = 0x7A1D5EED
_DETECT_SAMPLES = 32
_CHECK_SAMPLES = 100  # points of the divergence gate and of each separability check
# values of the integrand's work array, the (D, 2, Q * columns) shifted copies,
# per integrand call in a quadrature
_QUAD_BLOCK = 65536


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
    tol: float


@dataclass(frozen=True)
class Decomposition:
    pairs: tuple
    residual_max: float
    config: DecompositionConfig


def pair_eval(pair: PairField, t, y) -> np.ndarray:
    y = np.asarray(y, float)
    if y.shape != (pair.dim,):
        raise ConfigError(f"pair expects points of dim {pair.dim}, got {y.shape}")
    out = np.zeros(pair.dim)
    out[pair.d - 1] = pair.u1(t, y)
    out[pair.d] = pair.u2(t, y)
    return out


def _antiderivative(integrand, j, nodes, weights):
    """-int_0^{y[j]} integrand(t, y with coord j replaced by s) ds.

    All nodes of a block of columns go through one integrand call, whose two
    shifted copies of the block's (D, Q, columns) values hold _QUAD_BLOCK
    values, which bounds the temporaries at any n. Blocks only split columns,
    so the block size moves no bit.
    """

    def u2(t, y):
        cols = y.reshape(y.shape[0], -1)
        out = np.empty(cols.shape[1])
        step = max(1, _QUAD_BLOCK // (2 * nodes.size * cols.shape[0]))
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


def _field_box(field, sample_box):
    lo, hi = as_box(sample_box)
    if lo.size != field.dim:
        raise ConfigError(f"sample box has dim {lo.size}, field has dim {field.dim}")
    return lo, hi


def _subtract(fn_a, fn_b):
    return lambda t, y: fn_a(t, y) - fn_b(t, y)


def _legval(x, c):
    """Clenshaw sum of the Legendre series c at x, operation for operation as
    numpy 2.4.6's `legval` (the bits of `_gauss_legendre` rest on this order)."""
    c0, c1 = (c[0], 0) if len(c) == 1 else (c[-2], c[-1])
    nd = len(c)
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _gauss_legendre(n):
    """(nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1].

    numpy's `leggauss` step by step, without importing its package (a cold
    import that costs milliseconds per process): the nodes are the
    eigenvalues of the symmetric tridiagonal companion matrix of L_n (Golub &
    Welsch), improved by one Newton step; the weights are 1 / (L_{n-1} L_n')
    scaled to sum to 2, and both are symmetrised. The companion matrix's last
    column loses (c[:-1] / c[-1]) * ... = 0, which moves no bit, so it is left
    out (at n = 1 that matrix is [[-0.0]], and the symmetrised node is +0.0
    either way); L_n' has the exact coefficients 2k + 1 at k = n - 1, n - 3,
    ... that `legder` computes.
    """
    c = np.zeros(n + 1)
    c[n] = 1.0
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    mat = np.zeros((n, n))
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    mat.reshape(-1)[1::n + 1] = off  # the super- and the subdiagonal
    mat.reshape(-1)[n::n + 1] = off
    x = np.linalg.eigvalsh(mat)
    der = np.zeros(n)
    der[n - 1::-2] = 2 * np.arange(n - 1, -1, -2) + 1
    df = _legval(x, der)
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def build_pairs(field: VectorField, sample_box, quad_nodes=DEFAULT_QUAD_NODES, tol=DEFAULT_TOL):
    """Construct the D-1 pair fields without running the residual diagnostic.

    Pair d (0-based d0 = d-1) takes u1 = f_d - u2_{d-1}, or f_d itself when
    u2_{d-1} is pinned to zero, and u2 from the partial divergence P_d of the
    field, or f_D for the last pair. Fully deterministic in (field,
    sample_box, quad_nodes, tol), so pairs can be reconstructed bit
    for bit from a serialized configuration.
    """
    dim = field.dim
    if dim < 2:
        raise ConfigError(f"decomposition needs dim >= 2, got {dim}")
    lo, hi = _field_box(field, sample_box)
    if quad_nodes < 1:
        raise ConfigError(f"quad_nodes must be >= 1, got {quad_nodes}")
    if quad_nodes > MAX_QUAD_NODES:
        raise ConfigError(f"quad_nodes must be <= {MAX_QUAD_NODES}, got {quad_nodes}")
    detect_pts = sample_points((lo, hi), _DETECT_SAMPLES, _DETECT_SEED, exclude=field.singular)
    config = DecompositionConfig(field, tuple(lo.tolist()), tuple(hi.tolist()), int(quad_nodes), float(tol))

    comp = field.components
    # P_1 ... P_{D-2} at the detection points: one running sum, D - 2 component calls
    detected = partial_divergences_fd(field, 0.0, detect_pts.T, dim - 2)
    pairs, u2, quad = [], _zero_component, None
    for d0 in range(dim - 1):  # 0-based first active coordinate
        u1 = comp[d0] if u2 is _zero_component else _subtract(comp[d0], u2)
        if d0 == dim - 2:
            u2 = comp[dim - 1]
        elif np.max(np.abs(next(detected))) < tol:
            u2 = _zero_component
        else:
            if quad is None:  # (nodes, weights), first needed here
                quad = _gauss_legendre(int(quad_nodes))
            integrand = functools.partial(partial_divergence_fd, field, k=d0 + 1)
            u2 = _antiderivative(integrand, d0 + 1, *quad)
        pairs.append(PairField(dim, d0 + 1, u1, u2, provenance=config))
    return pairs


def separability_check(pair: PairField, sample_box, tol=DEFAULT_TOL) -> str:
    """'yes' iff neither active component depends on its own coordinate.

    Checked by finite differences at sampled points; with the pair structure
    this is exactly the separability criterion.
    """
    exclude = pair.provenance.field.singular if pair.provenance is not None else None
    return _separable([pair], _separability_cols(sample_box, exclude), tol)[0]


def _separability_cols(sample_box, exclude):
    return sample_points(sample_box, _CHECK_SAMPLES, _DETECT_SEED, exclude=exclude).T


def _separable(pairs, cols, tol) -> list:
    """'yes' per pair whose u1 in y_d and u2 in y_{d+1} have central differences
    below tol at the columns; row j of one copy of them is shifted in place."""
    shifted = cols.copy()

    def partial(fn, j):
        shifted[j] = cols[j] + FD_STEP
        plus = np.array(fn(0.0, shifted))  # a copy: fn may return a view of shifted
        shifted[j] = cols[j] - FD_STEP
        minus = fn(0.0, shifted)
        shifted[j] = cols[j]
        return np.max(np.abs((plus - minus) / (2.0 * FD_STEP)))

    return ["yes" if max(partial(p.u1, p.d - 1), partial(p.u2, p.d)) < tol else "no" for p in pairs]


def decompose(field: VectorField, sample_box, quad_nodes=DEFAULT_QUAD_NODES,
              tol=DEFAULT_TOL, n_residual=200) -> Decomposition:
    """Build, validate, and classify the pairwise decomposition of a field.

    Rejects fields whose sampled divergence exceeds tol; raises
    DecompositionError carrying the worst sample if the reconstruction
    residual max_x |f - sum of pairs| over n_residual samples exceeds tol.
    Every check evaluates the field at t = 0.
    """
    if not 0 < tol < np.inf:  # a nan fails too
        raise ConfigError(f"tol must be a positive finite number, got {tol}")
    if n_residual < 1:
        raise ConfigError(f"n_residual must be >= 1, got {n_residual}")
    lo, hi = _field_box(field, sample_box)
    div_pts = sample_points((lo, hi), _CHECK_SAMPLES, _DETECT_SEED + 1, exclude=field.singular)
    div = np.abs(partial_divergence_fd(field, 0.0, div_pts.T, field.dim))
    worst = int(np.argmax(div))  # the first worst point on ties
    if not div[worst] < tol:  # a nan fails too
        raise DecompositionError(
            f"field {field.fid!r} is not divergence-free: |div|={div[worst]:.3e} "
            f"at {div_pts[worst].tolist()}",
            worst_point=div_pts[worst],
            worst_residual=float(div[worst]),
        )

    pairs = build_pairs(field, (lo, hi), quad_nodes, tol)

    res_pts = sample_points((lo, hi), n_residual, _DETECT_SEED + 2, exclude=field.singular)
    cols = res_pts.T
    total = np.zeros(cols.shape)
    for pair in pairs:
        total[pair.d - 1] += pair.u1(0.0, cols)
        total[pair.d] += pair.u2(0.0, cols)
    res = np.max(np.abs(np.asarray(field.func(0.0, cols), float) - total), axis=0)
    worst = int(np.argmax(res))
    residual_max = float(res[worst])
    if not residual_max < tol:
        raise DecompositionError(
            f"decomposition residual {residual_max:.3e} exceeds tol {tol:.3e} "
            f"at {res_pts[worst].tolist()}",
            worst_point=res_pts[worst],
            worst_residual=residual_max,
        )

    sep_cols = _separability_cols((lo, hi), field.singular)  # one sample checks every pair
    pairs = tuple(replace(pair, separable=sep) for pair, sep in zip(pairs, _separable(pairs, sep_cols, tol)))
    return Decomposition(pairs, residual_max, pairs[0].provenance)
