import numpy as np
import pytest

from mpflow.coupling import net_forward
from mpflow.errors import ConfigError, NumericError
from mpflow.rng import Xoshiro256
from mpflow.verify import fd_jacobian_det, lp_error, max_det_deviation, sample_points

from test_coupling import random_net


def test_identity_det_one():
    det = fd_jacobian_det(lambda x: x, np.array([0.3, -0.7, 1.2]))
    assert abs(det - 1.0) < 1e-9


def test_diagonal_maps_analytic_det():
    d1 = fd_jacobian_det(lambda x: np.array([2.0 * x[0], 0.5 * x[1]]), np.array([0.1, 0.2]))
    d2 = fd_jacobian_det(lambda x: np.array([2.0 * x[0], x[1]]), np.array([0.1, 0.2]))
    assert abs(d1 - 1.0) < 1e-8
    assert abs(d2 - 2.0) < 1e-8


def test_coupling_nets_unit_det():
    rng = Xoshiro256(14)
    for dim in (2, 4):
        net = random_net(dim, 5, seed=dim)
        for _ in range(10):
            x = rng.uniform_array(dim, -2, 2)
            det = fd_jacobian_det(lambda q: net_forward(net, q), x)
            assert abs(det - 1.0) < 1e-6


def test_max_det_deviation_matches_point_loop():
    net = random_net(3, 6, seed=31)
    pts = Xoshiro256(32).uniform_array((12, 3), -2, 2)
    devs = [abs(fd_jacobian_det(lambda q: net_forward(net, q), p) - 1.0) for p in pts]
    dev, worst = max_det_deviation(net, pts)
    assert dev == max(devs)
    assert np.array_equal(worst, pts[int(np.argmax(devs))])


def test_det_nonfinite_raises():
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError):
            fd_jacobian_det(lambda x: np.array([np.inf, x[1]]), np.array([1.0, 1.0]))


def test_fd_step_validation():
    with pytest.raises(ConfigError):
        fd_jacobian_det(lambda x: x, np.zeros(2), h_fd=0.0)


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
