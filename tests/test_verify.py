import hashlib
import re

import numpy as np
import pytest

from mpflow.compiler import compile_flow
from mpflow.coupling import net_apply_batch, net_forward
from mpflow.dynamics import FD_STEP, make_field
from mpflow.errors import ConfigError, NumericError
from mpflow.rng import Xoshiro256
from mpflow.verify import as_box, fd_jacobian_det, lp_error, max_det_deviation, roundtrip_error, sample_points

from test_coupling import random_net
from test_pair_decomposition import BOX4


def test_identity_det_one():
    det = fd_jacobian_det(lambda x: x, np.array([0.3, -0.7, 1.2]))
    assert abs(det - 1.0) < 1e-9


def test_diagonal_maps_analytic_det():
    d1 = fd_jacobian_det(lambda x: np.stack([2.0 * x[:, 0], 0.5 * x[:, 1]], axis=1), np.array([0.1, 0.2]))
    d2 = fd_jacobian_det(lambda x: np.stack([2.0 * x[:, 0], x[:, 1]], axis=1), np.array([0.1, 0.2]))
    assert abs(d1 - 1.0) < 1e-8
    assert abs(d2 - 2.0) < 1e-8


def test_coupling_nets_unit_det():
    rng = Xoshiro256(14)
    for dim in (2, 4):
        net = random_net(dim, 5, seed=dim)
        for _ in range(10):
            x = rng.uniform_array(dim, -2, 2)
            det = fd_jacobian_det(lambda rows: net_apply_batch(net, rows), x)
            assert abs(det - 1.0) < 1e-6


def _point_loop_det(map_fn, x):
    # the reference: one point at a time, two map calls per Jacobian column
    dim = x.size
    jac = np.empty((dim, dim))
    for j in range(dim):
        step = np.zeros(dim)
        step[j] = FD_STEP
        jac[:, j] = (map_fn(x + step) - map_fn(x - step)) / (2.0 * FD_STEP)
    return float(np.linalg.det(jac))


def test_max_det_deviation_matches_point_loop():
    field = make_field("lorentz4d")
    net = compile_flow(field, 0.0, 0.2, 5, BOX4).net
    pts = sample_points(BOX4, 37, 32, exclude=field.singular)
    ref_dev, ref_worst = 0.0, pts[0]
    for p in pts:
        d = abs(_point_loop_det(lambda q: net_forward(net, q), p) - 1.0)
        if d > ref_dev:
            ref_dev, ref_worst = d, p
    dev, worst = max_det_deviation(net, pts)
    assert dev == ref_dev
    assert np.array_equal(worst, ref_worst)


def test_max_det_deviation_of_no_points():
    assert max_det_deviation(random_net(3, 2, seed=1), np.empty((0, 3))) == (0.0, None)


def test_max_det_deviation_takes_a_point_as_one_row():
    net = random_net(3, 2, seed=1)
    pts = Xoshiro256(4).uniform_array((5, 3), -1, 1)
    for p in pts:
        dev, worst = max_det_deviation(net, p)
        assert (dev, worst.tolist()) == (max_det_deviation(net, p[None])[0], p.tolist())


@pytest.mark.parametrize("points", [[], np.empty(0)], ids=["list", "flat"])
def test_max_det_deviation_of_zero_rows_in_any_form(points):
    assert max_det_deviation(random_net(3, 2, seed=1), points) == (0.0, None)
    assert roundtrip_error(random_net(3, 2, seed=1), points) == 0.0
    assert roundtrip_error(random_net(3, 2, seed=1), np.empty((0, 3))) == 0.0


def test_det_makes_one_map_call_for_all_points():
    calls = []

    def counting(rows):
        calls.append(rows.shape)
        return rows * np.array([2.0, 0.5, 1.0])

    pts = Xoshiro256(40).uniform_array((5, 3), -1, 1)
    dets = fd_jacobian_det(counting, pts)
    assert calls == [(2 * 3 * 5, 3)]
    assert dets.shape == (5,)
    np.testing.assert_allclose(dets, 1.0, atol=1e-8)
    assert isinstance(fd_jacobian_det(counting, pts[0]), float)


def test_det_nonfinite_raises():
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError):
            fd_jacobian_det(lambda x: np.stack([np.full(len(x), np.inf), x[:, 1]], axis=1),
                            np.array([1.0, 1.0]))


@pytest.mark.parametrize("scale, what", [(np.inf, "Jacobian entries"), (1e300, "determinant")])
def test_det_nonfinite_names_the_point(scale, what):
    # only the rows around the third of five points are scaled: an infinite
    # image spoils its Jacobian entries, a huge finite one its determinant
    pts = Xoshiro256(41).uniform_array((5, 3), -1, 1)

    def spoiled(rows):
        near = np.all(np.abs(rows - pts[2]) <= 2 * FD_STEP, axis=1)
        return np.where(near[:, None], scale * rows, rows)

    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=f"non-finite {what} at x={re.escape(str(pts[2].tolist()))}"):
            fd_jacobian_det(spoiled, pts)


def test_point_only_map_given_rows_raises():
    with pytest.raises(ConfigError, match=re.escape("(4, 2)")):
        fd_jacobian_det(lambda x: np.array([2.0 * x[0], 0.5 * x[1]]), np.array([0.1, 0.2]))


# --- lp_error ---------------------------------------------------------------


def test_lp_error_self_is_zero():
    f = lambda x: np.stack([x[:, 0] + 1.0, x[:, 1] ** 2], axis=1)
    box = (np.zeros(2), np.ones(2))
    assert lp_error(f, f, box, p=2, n_samples=100, seed=0) == 0.0


def test_lp_error_shift_by_one_analytic():
    # |(x+1) - x| = 1 per component on the unit square: each integral is 1
    box = (np.zeros(2), np.ones(2))
    val = lp_error(lambda x: x + 1.0, lambda x: x, box, p=1, n_samples=2000, seed=3)
    assert abs(val - 2.0) < 1e-12


def test_lp_error_p2_analytic():
    # integral over [0,1] of x^2 is 1/3; one component, p=2 -> sqrt(1/3)
    box = (np.zeros(1), np.ones(1))
    val = lp_error(lambda x: x, lambda x: np.zeros(1), box, p=2, n_samples=200000, seed=5)
    assert abs(val - np.sqrt(1.0 / 3.0)) < 5e-3


def test_lp_error_volume_weighting():
    # |1| integrated over [0,2]^2 is 4 per component, p=1
    box = (np.zeros(2), 2.0 * np.ones(2))
    val = lp_error(lambda x: x + 1.0, lambda x: x, box, p=1, n_samples=500, seed=1)
    assert abs(val - 8.0) < 1e-12


def test_lp_error_seed_deterministic():
    box = (np.zeros(2), np.ones(2))
    f = lambda x: np.stack([x[:, 0] ** 2, x[:, 1]], axis=1)
    g = lambda x: np.zeros(2)
    a = lp_error(f, g, box, p=1, n_samples=500, seed=9)
    b = lp_error(f, g, box, p=1, n_samples=500, seed=9)
    c = lp_error(f, g, box, p=1, n_samples=500, seed=10)
    assert a == b
    assert a != c


def test_lp_error_mc_standard_error_scaling():
    # doubling n_samples shrinks the spread of estimates by about sqrt(2)
    box = (np.zeros(2), np.ones(2))
    f = lambda x: np.stack([x[:, 0] ** 3, np.sin(3.0 * x[:, 1])], axis=1)
    g = lambda x: np.zeros(2)
    small = np.array([lp_error(f, g, box, p=1, n_samples=400, seed=s) for s in range(60)])
    large = np.array([lp_error(f, g, box, p=1, n_samples=800, seed=1000 + s) for s in range(60)])
    ratio = small.std() / large.std()
    assert 1.15 < ratio < 1.75


def test_lp_error_validation():
    box = (np.zeros(2), np.ones(2))
    with pytest.raises(ConfigError):
        lp_error(lambda x: x, lambda x: x, box, p=0.5, n_samples=10, seed=0)
    with pytest.raises(ConfigError):
        lp_error(lambda x: x, lambda x: x, box, p=1, n_samples=0, seed=0)
    with pytest.raises(ConfigError):
        lp_error(lambda x: x, lambda x: x, (np.ones(2), np.ones(2)), p=1, n_samples=10, seed=0)


def test_sample_points_respects_box_and_exclusion():
    box = (np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    pts = sample_points(box, 200, 4, exclude=lambda p: p[0] < -0.5)
    assert pts.shape == (200, 2)
    assert np.all(pts[:, 0] >= -0.5) and np.all(pts[:, 0] <= 1.0)
    assert np.all(pts[:, 1] >= 0.0) and np.all(pts[:, 1] <= 2.0)


@pytest.mark.parametrize(
    "box, message",
    [(([np.nan, 0.0], [1.0, 1.0]), "box bound lo[0] must be a finite number, got nan"),
     (([0.0, 0.0], [1.0, np.inf]), "box bound hi[1] must be a finite number, got inf"),
     (([-np.inf, 0.0], [np.inf, 1.0]), "box bound lo[0] must be a finite number, got -inf")],
    ids=["lo-nan", "hi-inf", "both-inf"],
)
def test_as_box_rejects_non_finite_bounds_naming_the_bound(box, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        as_box(box)
    # compile_flow used to report a NaN box as "not divergence-free: |div|=nan"
    lo, hi = (np.resize(np.asarray(b, float), 4) for b in box)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        compile_flow(make_field("lorentz4d"), 0.0, 0.2, 1, (lo, hi))


def _sample_one_draw_at_a_time(box, n, seed, exclude=None):
    # the reference sampler: one Xoshiro256.uniform call per coordinate, and a
    # rejected point redrawn at once, at most 10000 draws per point
    lo, hi = as_box(box)
    rng = Xoshiro256(seed)
    out = np.empty((n, lo.size))
    for row in range(n):
        for _ in range(10000):
            pt = np.array([rng.uniform(lo[d], hi[d]) for d in range(lo.size)])
            if exclude is None or not exclude(pt):
                out[row] = pt
                break
        else:
            raise ConfigError("box sampling failed: exclusion predicate rejected 10000 draws")
    return out


LORENTZ_SINGULAR = make_field("lorentz4d").singular
# about a fifth of this box lies within the lorentz4d singular radius
NEAR_SINGULAR_BOX = (np.full(4, -0.1), np.full(4, 0.1))


@pytest.mark.parametrize("n", [0, 1, 333])
@pytest.mark.parametrize(
    "box, exclude",
    [((np.array([-1.0, 0.0, 2.0]), np.array([1.0, 2.0, 2.5])), None),
     ((np.array([-1.0, 0.0, 2.0]), np.array([1.0, 2.0, 2.5])), lambda p: p[0] < -0.5),
     (NEAR_SINGULAR_BOX, LORENTZ_SINGULAR)],
    ids=["no-exclusion", "half-box-excluded", "lorentz-singular"],
)
def test_sample_points_has_the_bits_of_one_draw_at_a_time(n, box, exclude):
    got = sample_points(box, n, 29, exclude=exclude)
    want = _sample_one_draw_at_a_time(box, n, 29, exclude)
    assert got.shape == want.shape == (n, box[0].size)
    assert got.tobytes() == want.tobytes()


def test_sample_points_bytes_are_pinned():
    pts = sample_points(NEAR_SINGULAR_BOX, 50, 7, exclude=LORENTZ_SINGULAR)
    assert hashlib.sha256(pts.tobytes()).hexdigest() == (
        "268b962f4d5f221ef5614bd2f2e71e3d629bd89cfbf4536036b190c290bb0915")


class RejectFirst:
    """An exclusion predicate that rejects every draw but each period-th."""

    def __init__(self, period):
        self.period, self.calls = period, 0

    def __call__(self, pt):
        self.calls += 1
        return self.calls % self.period != 0


def test_sample_points_takes_9999_rejections_in_a_row_per_point():
    box = (np.zeros(2), np.ones(2))
    got = sample_points(box, 2, 3, exclude=RejectFirst(10000))
    assert got.tobytes() == _sample_one_draw_at_a_time(box, 2, 3, RejectFirst(10000)).tobytes()


@pytest.mark.parametrize("exclude", [lambda p: True, RejectFirst(10001)], ids=["always", "10000-then-one"])
def test_sample_points_raises_at_10000_rejections_in_a_row(exclude):
    message = "box sampling failed: exclusion predicate rejected 10000 draws"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        sample_points((np.zeros(2), np.ones(2)), 1, 3, exclude=exclude)
