"""Numerical verification utilities: Jacobian determinants, L^p distances,
round-trip errors, and box sampling.

Every check evaluates its maps on whole batches: `fd_jacobian_det` hands all
perturbed rows of all its points to one call of a map from rows (m, dim) to
rows (m, dim), and `lp_error` hands both maps the whole (n, dim) sample.
"""

from __future__ import annotations

import numpy as np

from .coupling import MPNet, net_apply_batch
from .dynamics import FD_STEP
from .errors import ConfigError, NumericError
from .rng import Xoshiro256


def as_box(box):
    """Normalize (lo, hi) into float arrays and reject non-finite bounds and
    empty boxes."""
    lo, hi = box
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ConfigError(f"box bounds must be 1-d arrays of equal length, got {lo.shape}, {hi.shape}")
    for name, bound in (("lo", lo), ("hi", hi)):
        finite = np.isfinite(bound)
        if not finite.all():
            j = int(finite.argmin())
            raise ConfigError(f"box bound {name}[{j}] must be a finite number, got {bound[j]}")
    if np.any(hi <= lo):
        raise ConfigError("empty box: every upper bound must exceed its lower bound")
    return lo, hi


def sample_points(box, n, seed, exclude=None) -> np.ndarray:
    """n uniform points in the box from a Xoshiro256 stream seeded with seed,
    resampling any that `exclude` flags.

    Point by point, the stream gives coordinates 1..dim; the points are the
    first n draws `exclude` accepts, and 10000 rejected draws in a row raise
    ConfigError. The draws come in batches of as many points as are missing,
    scaled by one expression, so each point has the bits of one
    `Xoshiro256.uniform` call per coordinate.
    """
    lo, hi = as_box(box)
    rng = Xoshiro256(seed)
    dim = lo.size
    kept, rejected = [], 0
    while True:
        need = n - len(kept)
        pts = lo + (hi - lo) * rng.units(need * dim).reshape(need, dim)
        if exclude is None:
            return pts
        for pt in pts:
            if not exclude(pt):
                kept.append(pt)
                rejected = 0
            else:
                rejected += 1
                if rejected == 10000:
                    raise ConfigError("box sampling failed: exclusion predicate rejected 10000 draws")
        if len(kept) == n:
            return np.array(kept).reshape(n, dim)


def fd_jacobian_det(map_fn, x):
    """Central-difference Jacobian determinant of a map at a point or points.

    `x` is a point (dim,), giving a float, or points (n, dim), giving (n,).
    `map_fn` maps rows (m, dim) to rows (m, dim) and is called once, on all
    2·dim·n rows x ± FD_STEP·e_j; a result of any other shape raises ConfigError.
    A non-finite Jacobian entry or determinant raises NumericError naming the
    first such point.
    """
    x = np.asarray(x, float)
    if x.ndim not in (1, 2):
        raise ConfigError(f"fd_jacobian_det takes a point (dim,) or points (n, dim), got {x.shape}")
    pts = np.atleast_2d(x)
    n, dim = pts.shape
    step = FD_STEP * np.eye(dim)
    rows = np.stack([pts[:, None, :] + step, pts[:, None, :] - step], axis=1)
    out = np.asarray(map_fn(rows.reshape(-1, dim)), float)
    if out.shape != (2 * dim * n, dim):
        raise ConfigError(f"fd_jacobian_det map must return shape {(2 * dim * n, dim)}, got {out.shape}")
    out = out.reshape(n, 2, dim, dim)
    # out[:, 0, j] is the image of x + h·e_j, so column j of the Jacobian
    jac = np.swapaxes((out[:, 0] - out[:, 1]) / (2.0 * FD_STEP), 1, 2)
    _check_points_finite(jac.reshape(n, -1), pts, "non-finite Jacobian entries")
    det = np.linalg.det(jac)
    _check_points_finite(det[:, None], pts, "non-finite determinant")
    return float(det[0]) if x.ndim == 1 else det


def _check_points_finite(values, pts, what):
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise NumericError(f"{what} at x={pts[bad.argmax()].tolist()}")


def max_det_deviation(net: MPNet, points):
    """(max |det J - 1|, worst point) over the points (n, dim), or a point
    (dim,) taken as one row, J the finite-difference Jacobian of the net from
    one batched pass; ties keep the earlier point, and no rows give (0.0, None)."""
    points = np.asarray(points, float)
    if points.size == 0:
        return 0.0, None
    points = np.atleast_2d(points)
    devs = np.abs(fd_jacobian_det(lambda rows: net_apply_batch(net, rows), points) - 1.0)
    worst = int(np.argmax(devs))
    return float(devs[worst]), points[worst]


def lp_error(map_a, map_b, box, p, n_samples, seed) -> float:
    """Monte Carlo estimate of sum_d (integral_U |a_d - b_d|^p)^(1/p).

    Both maps take the whole (n_samples, dim) batch of sample points and
    return the (n_samples, dim) batch of images. Uniform sampling over the
    box, volume weighted; deterministic in the seed.
    """
    if not 1.0 <= p < np.inf:
        raise ConfigError(f"p must be in [1, inf), got {p}")
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
    lo, hi = as_box(box)
    volume = float(np.prod(hi - lo))
    pts = sample_points((lo, hi), n_samples, seed)
    diff = np.asarray(map_a(pts), float) - np.asarray(map_b(pts), float)
    if diff.shape != pts.shape:
        raise ConfigError(f"lp_error maps must return {pts.shape} batches, got {diff.shape}")
    comp_means = np.mean(np.abs(diff) ** p, axis=0) * volume
    return float(np.sum(comp_means ** (1.0 / p)))


def roundtrip_error(net: MPNet, points) -> float:
    """Max sup-norm error of inverse(forward(x)) - x over the points, each map one
    net_apply_batch call (inverse=True for the inverse); 0.0 for zero rows in
    any form ([], (0,) or (0, dim))."""
    points = np.asarray(points, float)
    if points.size == 0:
        return 0.0
    points = np.atleast_2d(points)
    back = net_apply_batch(net, net_apply_batch(net, points), inverse=True)
    return float(np.max(np.abs(back - points), initial=0.0))
