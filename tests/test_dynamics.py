import numpy as np
import pytest

from mpflow.dynamics import (
    Trajectory,
    dataset_from_csv,
    dataset_from_trajectory,
    dataset_to_csv,
    divergence_fd,
    euler_step,
    field_eval,
    field_from_params,
    generate_dataset,
    generate_trajectory,
    make_field,
    partial_divergence_fd,
    rk4_flow,
    rk4_trajectory,
    splitting_step,
    trajectory_from_csv,
    trajectory_to_csv,
)
from mpflow.errors import ConfigError, NumericError
from mpflow.rng import Xoshiro256
from mpflow.verify import sample_points

# Independently evaluated benchmark values at y = (0.1, 1, 1.1, 0.5):
# r^2 = 1.01, f3 = 0.1/(100 r^3) + r*0.5, f4 = 1/(100 r^3) - r*1.1
LORENTZ_TEST_POINT = np.array([0.1, 1.0, 1.1, 0.5])
LORENTZ_F3 = 0.503478966392886
LORENTZ_F4 = -1.0956344649548821


def zero_field(dim=2):
    return make_field("linear", params=np.zeros((dim, dim)))


# --- field evaluation ---------------------------------------------------


def test_harmonic_axis_point():
    f = make_field("harmonic2d")
    assert np.array_equal(field_eval(f, 0.0, np.array([1.0, 0.0])), np.array([0.0, 1.0]))


def test_lorentz_benchmark_point():
    f = make_field("lorentz4d")
    val = field_eval(f, 0.0, LORENTZ_TEST_POINT)
    np.testing.assert_allclose(val, [1.1, 0.5, LORENTZ_F3, LORENTZ_F4], rtol=0, atol=1e-12)


def test_linear_zero_matrix():
    f = zero_field(3)
    assert np.array_equal(field_eval(f, 0.0, np.ones(3)), np.zeros(3))


def test_poly_field_eval():
    # f = (y2, y3, y1)
    f = make_field("poly", params=[[(1.0, (0, 1, 0))], [(1.0, (0, 0, 1))], [(1.0, (1, 0, 0))]], dim=3)
    y = np.array([0.5, -2.0, 3.0])
    assert np.array_equal(field_eval(f, 0.0, y), np.array([-2.0, 3.0, 0.5]))


def test_unknown_field_id():
    with pytest.raises(ConfigError):
        make_field("vortex9000")


def test_field_params_roundtrip():
    for f in [
        make_field("lorentz4d"),
        make_field("harmonic2d"),
        make_field("linear", params=np.array([[0.0, 1.0], [-1.0, 0.0]])),
        make_field("poly", params=[[(2.0, (1, 1))], [(-1.0, (0, 2))]], dim=2),
    ]:
        g = field_from_params(f.fid, f.dim, list(f.params))
        y = sample_points((np.full(f.dim, 0.5), np.full(f.dim, 1.5)), 5, 0)[0]
        assert np.array_equal(field_eval(f, 0.3, y), field_eval(g, 0.3, y))


# --- divergence ---------------------------------------------------------


def test_lorentz_divergence_free():
    f = make_field("lorentz4d")
    pts = sample_points(
        (np.full(4, -2.0), np.full(4, 2.0)), 100, 6,
        exclude=lambda y: np.hypot(y[0], y[1]) < 0.1,
    )
    for p in pts:
        assert abs(divergence_fd(f, 0.0, p)) < 1e-6


def test_partial_divergence_columns_have_the_bits_of_points():
    # one kernel for a point and for columns (dim, ...): each column, at any
    # k, equals its own point call, and k = dim is divergence_fd
    f = make_field("lorentz4d")
    pts = sample_points((np.full(4, -2.0), np.full(4, 2.0)), 24, 3, exclude=f.singular)
    for k in (1, 2, 4):
        cols = partial_divergence_fd(f, 0.0, pts.T.reshape(4, 6, 4), k)
        assert cols.shape == (6, 4)
        assert np.array_equal(cols.reshape(-1), [partial_divergence_fd(f, 0.0, p, k) for p in pts])
    assert np.array_equal(cols.reshape(-1), [divergence_fd(f, 0.0, p) for p in pts])


def test_identity_field_divergence_is_dim():
    f = make_field("linear", params=np.eye(4))
    assert abs(divergence_fd(f, 0.0, np.array([0.3, 0.1, -0.2, 0.9])) - 4.0) < 1e-6


def test_constant_field_divergence_zero():
    f = make_field("poly", params=[[(1.5, (0, 0))], [(-0.7, (0, 0))]], dim=2)
    assert abs(divergence_fd(f, 0.0, np.array([0.4, -0.9]))) < 1e-12


def test_registered_divergence_free_fields_pass_fd():
    for fid in ("lorentz4d", "harmonic2d"):
        f = make_field(fid)
        assert f.divergence_free
        pts = sample_points((np.full(f.dim, -2.0), np.full(f.dim, 2.0)), 100, 1,
                            exclude=f.singular)
        for p in pts:
            assert abs(divergence_fd(f, 0.0, p)) < 1e-6


# --- integrators ----------------------------------------------------------


def test_euler_hand_example():
    f = make_field("harmonic2d")
    out = euler_step(f, 0.0, 0.1, np.array([1.0, 0.0]))
    assert np.array_equal(out, np.array([1.0, 0.1]))


def test_euler_zero_step_and_zero_field():
    f = make_field("harmonic2d")
    x = np.array([0.4, -0.3])
    assert np.array_equal(euler_step(f, 0.0, 0.0, x), x)
    assert np.array_equal(euler_step(zero_field(), 0.0, 0.5, x), x)


def test_euler_first_order_convergence():
    f = make_field("harmonic2d")
    x0 = np.array([1.0, 0.0])
    exact = np.array([np.cos(1.0), np.sin(1.0)])
    errors = []
    for h in (0.1, 0.05, 0.025, 0.0125):
        n = round(1.0 / h)
        x = x0
        for k in range(n):
            x = euler_step(f, k * h, h, x)
        errors.append(np.max(np.abs(x - exact)))
    slope = np.polyfit(np.log2([0.1, 0.05, 0.025, 0.0125]), np.log2(errors), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_rk4_period_return():
    f = make_field("harmonic2d")
    out = rk4_flow(f, 0.0, 2.0 * np.pi, 1e-3, np.array([1.0, 0.0]))
    assert np.max(np.abs(out - np.array([1.0, 0.0]))) < 1e-9


def test_rk4_zero_field():
    x = np.array([0.7, -0.2, 1.1])
    assert np.array_equal(rk4_flow(zero_field(3), 0.0, 5.0, 0.01, x), x)


def test_rk4_fourth_order():
    f = make_field("harmonic2d")
    x0 = np.array([1.0, 0.0])
    exact = np.array([np.cos(1.0), np.sin(1.0)])
    e1 = np.max(np.abs(rk4_flow(f, 0.0, 1.0, 0.02, x0) - exact))
    e2 = np.max(np.abs(rk4_flow(f, 0.0, 1.0, 0.01, x0) - exact))
    assert 12.0 < e1 / e2 < 20.0


def test_rk4_blowup_raises_with_step():
    f = make_field("poly", params=[[(1.0, (2,))]], dim=1)  # dy/dt = y^2 from 2
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError) as err:
            rk4_flow(f, 0.0, 1.0, 1e-3, np.array([2.0]))
    assert err.value.step is not None


def _batch_and_points(f, box):
    x = sample_points(box, 37, 11, exclude=f.singular)
    batch = rk4_flow(f, 0.0, 0.2, 1e-3, x)
    points = np.stack([rk4_flow(f, 0.0, 0.2, 1e-3, row) for row in x])
    assert batch.shape == x.shape
    return batch, points


@pytest.mark.parametrize(
    "fid, box",
    [
        ("lorentz4d", (np.array([-0.4, 0.5, 0.6, 0.0]), np.array([0.6, 1.5, 1.6, 1.0]))),
        ("harmonic2d", (-np.ones(2), np.ones(2))),
    ],
)
def test_rk4_batch_rows_equal_points_bitwise(fid, box):
    # elementwise fields: one (dim, n) state runs the same arithmetic per row
    batch, points = _batch_and_points(make_field(fid), box)
    assert np.array_equal(batch, points)


def test_rk4_batch_rows_match_points_within_ulps_linear_and_poly():
    # linear: mat @ Y is a matrix product where a point takes a matrix-vector
    # product; poly: an array square is exact where a scalar one uses pow
    box = (-np.ones(3), np.ones(3))
    linear = make_field("linear", params=Xoshiro256(3).uniform_array((3, 3), -1, 1))
    poly = make_field(
        "poly",
        params=[
            [(1.0, (0, 2, 0)), (0.5, (1, 1, 0))],
            [(-1.0, (2, 0, 0)), (0.3, (0, 0, 3))],
            [(0.7, (1, 0, 1)), (-0.2, (0, 2, 1))],
        ],
        dim=3,
    )
    for f in (linear, poly):
        batch, points = _batch_and_points(f, box)
        np.testing.assert_array_max_ulp(batch, points, maxulp=4)


def test_rk4_batch_blowup_names_row():
    f = make_field("poly", params=[[(1.0, (2,))]], dim=1)  # dy/dt = y^2
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="in row 0") as err:
            rk4_flow(f, 0.0, 1.0, 1e-3, np.array([[2.0], [0.1]]))
    assert err.value.step is not None


def test_rk4_rejects_wrong_shapes():
    f = make_field("harmonic2d")
    for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(ConfigError):
            rk4_flow(f, 0.0, 1.0, 1e-2, bad)


def test_rk4_trajectory_keeps_substeps():
    f = make_field("harmonic2d")
    traj = rk4_trajectory(f, 0.0, 0.1, 0.01, np.array([1.0, 0.0]))
    assert traj.states.shape == (11, 2)
    assert traj.times[0] == 0.0 and abs(traj.times[-1] - 0.1) < 1e-15
    assert np.array_equal(traj.states[-1], rk4_flow(f, 0.0, 0.1, 0.01, np.array([1.0, 0.0])))


# --- splitting -------------------------------------------------------------


def test_splitting_single_subflow():
    out = splitting_step([lambda x: x + 2.0], np.zeros(2))
    assert np.array_equal(out, np.full(2, 2.0))


def test_splitting_two_translations():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 3.0])
    out = splitting_step([lambda x: x + a, lambda x: x + b], np.array([0.5, 0.5]))
    assert np.array_equal(out, np.array([1.5, 3.5]))


def test_splitting_shear_pair_hand_example():
    # p-update then q-update with g1 = -q, g2 = p, h = 0.1 from (1, 0)
    h = 0.1
    phi1 = lambda x: np.array([x[0] + h * (-x[1]), x[1]])
    phi2 = lambda x: np.array([x[0], x[1] + h * x[0]])
    out = splitting_step([phi1, phi2], np.array([1.0, 0.0]))
    assert np.array_equal(out, np.array([1.0, 0.1]))


# --- datasets ---------------------------------------------------------------


def test_generate_dataset_lorentz_chained():
    f = make_field("lorentz4d")
    ds = generate_dataset(f, LORENTZ_TEST_POINT, 0.2, 25, 1e-2)
    assert ds.n_pairs == 25
    assert np.array_equal(ds.x[1:], ds.y[:-1])


def test_generate_dataset_zero_field():
    ds = generate_dataset(zero_field(), np.array([0.3, 0.4]), 0.5, 4, 1e-2)
    for k in range(4):
        assert np.array_equal(ds.x[k], np.array([0.3, 0.4]))
        assert np.array_equal(ds.y[k], np.array([0.3, 0.4]))


def test_generate_dataset_periodic_pair():
    f = make_field("harmonic2d")
    ds = generate_dataset(f, np.array([1.0, 0.0]), 2.0 * np.pi, 1, 1e-3)
    assert ds.n_pairs == 1
    assert np.max(np.abs(ds.y[0] - ds.x[0])) < 1e-8


def test_generate_dataset_validation():
    with pytest.raises(ConfigError):
        generate_dataset(zero_field(), np.zeros(2), 0.2, 0, 1e-3)


def test_trajectory_validation():
    with pytest.raises(ConfigError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        Trajectory(np.array([0.0]), np.zeros((2, 2)))


# --- CSV --------------------------------------------------------------------


def test_trajectory_csv_roundtrip():
    f = make_field("harmonic2d")
    traj = generate_trajectory(f, np.array([1.0, 0.0]), 0.3, 5, 1e-2)
    text = trajectory_to_csv(traj)
    assert text.startswith("t,y1,y2\n")
    back = trajectory_from_csv(text)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)
    assert trajectory_to_csv(back) == text


def test_dataset_csv_roundtrip():
    f = make_field("lorentz4d")
    ds = generate_dataset(f, LORENTZ_TEST_POINT, 0.2, 3, 1e-2)
    text = dataset_to_csv(ds)
    assert text.startswith("x1,x2,x3,x4,xp1,xp2,xp3,xp4\n")
    back = dataset_from_csv(text, h_data=0.2)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)
    assert dataset_to_csv(back) == text


def test_dataset_from_trajectory_chaining():
    traj = Trajectory(np.arange(4.0), np.arange(8.0).reshape(4, 2))
    ds = dataset_from_trajectory(traj, 1.0)
    assert ds.n_pairs == 3
    assert np.array_equal(ds.x[1:], ds.y[:-1])
