"""Numerical verification utilities: Jacobian determinants, L^p distances,
round-trip errors, and box sampling.
"""

from __future__ import annotations

import numpy as np

from .coupling import MPNet, net_apply_batch, net_forward
from .dynamics import DEFAULT_FD_STEP
from .errors import ConfigError, NumericError
from .rng import Xoshiro256


def as_box(box):
    """Normalize (lo, hi) into float arrays and reject empty boxes."""
    lo, hi = box
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ConfigError(f"box bounds must be 1-d arrays of equal length, got {lo.shape}, {hi.shape}")
    if np.any(hi <= lo):
        raise ConfigError("empty box: every upper bound must exceed its lower bound")
    return lo, hi


def sample_points(box, n, rng, exclude=None) -> np.ndarray:
    """n uniform points in the box, resampling any that `exclude` flags."""
    lo, hi = as_box(box)
    if isinstance(rng, (int, np.integer)):
        rng = Xoshiro256(rng)
    dim = lo.size
    out = np.empty((n, dim))
    for row in range(n):
        for _ in range(10000):
            pt = np.array([rng.uniform(lo[d], hi[d]) for d in range(dim)])
            if exclude is None or not exclude(pt):
                out[row] = pt
                break
        else:
            raise ConfigError("box sampling failed: exclusion predicate rejected 10000 draws")
    return out


def fd_jacobian(map_fn, x, h_fd=DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference Jacobian estimate of a vector map at x."""
    x = np.asarray(x, float)
    dim = x.size
    jac = np.empty((dim, dim))
    for j in range(dim):
        step = np.zeros(dim)
        step[j] = h_fd
        fp = np.asarray(map_fn(x + step), float)
        fm = np.asarray(map_fn(x - step), float)
        jac[:, j] = (fp - fm) / (2.0 * h_fd)
    return jac


def fd_jacobian_det(map_fn, x, h_fd=DEFAULT_FD_STEP) -> float:
    if h_fd <= 0:
        raise ConfigError(f"h_fd must be positive, got {h_fd}")
    jac = fd_jacobian(map_fn, x, h_fd)
    if not np.all(np.isfinite(jac)):
        raise NumericError(f"non-finite Jacobian entries at x={np.asarray(x, float).tolist()}")
    det = float(np.linalg.det(jac))
    if not np.isfinite(det):
        raise NumericError(f"non-finite determinant at x={np.asarray(x, float).tolist()}")
    return det


def max_det_deviation(net: MPNet, points):
    """(max |det J - 1|, worst point) over the points, J the finite-difference
    Jacobian of `net_forward` at one point at a time; ties keep the earlier."""
    dev, worst = 0.0, points[0] if len(points) else None
    for p in points:
        d = abs(fd_jacobian_det(lambda q: net_forward(net, q), p) - 1.0)
        if d > dev:
            dev, worst = d, p
    return dev, worst


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
    pts = sample_points((lo, hi), n_samples, Xoshiro256(seed))
    diff = np.asarray(map_a(pts), float) - np.asarray(map_b(pts), float)
    if diff.shape != pts.shape:
        raise ConfigError(f"lp_error maps must return {pts.shape} batches, got {diff.shape}")
    comp_means = np.mean(np.abs(diff) ** p, axis=0) * volume
    return float(np.sum(comp_means ** (1.0 / p)))


def roundtrip_error(net: MPNet, points) -> float:
    """Max sup-norm error of net_inverse(net_forward(x)) - x over the points."""
    points = np.atleast_2d(np.asarray(points, float))
    back = net_apply_batch(net, net_apply_batch(net, points), inverse=True)
    return float(np.max(np.abs(back - points)))
