import hashlib
import math
import re

import numpy as np
import pytest

from mpflow.coupling import MPNet, net_apply_batch, shear_layer
from mpflow.dynamics import (
    FD_STEP,
    FIELDS,
    Trajectory,
    _lorentz4d_body,
    csv_text,
    dataset_from_csv,
    dataset_from_trajectory,
    dataset_to_csv,
    divergence_fd,
    field_eval,
    generate_trajectory,
    make_field,
    partial_divergence_fd,
    partial_divergences_fd,
    rk4_flow,
    trajectory_to_csv,
)
from mpflow.errors import ConfigError, NumericError
from mpflow.rng import Xoshiro256
from mpflow.shifts import fixed_shift
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


def _lorentz4d_reference(y):
    """The earlier lorentz4d expression, kept as the bit-exact reference."""
    r2 = y[0] * y[0] + y[1] * y[1]
    r = np.sqrt(r2)
    r3 = r2 * r
    return np.array(
        [y[2], y[3], y[0] / (100.0 * r3) + r * y[3], y[1] / (100.0 * r3) - r * y[2]]
    )


def test_lorentz_bit_exact_against_reference_on_points_and_columns():
    f = make_field("lorentz4d")
    cols = Xoshiro256(21).uniform_array((4, 300), -2.0, 2.0)
    cols[:2, :100] *= 1e-7  # near the singular line
    cols[:, 100:200] *= 1e5
    cols[:, 200:] *= 1e-200  # r2 underflows to 0: inf and nan entries
    cols[:, 0] = [0.0, -0.0, 1.0, -1.0]
    with np.errstate(all="ignore"):
        want = _lorentz4d_reference(cols)
        assert np.array_equal(f.func(0.0, cols), want, equal_nan=True)
        for j in range(0, cols.shape[1], 7):
            assert np.array_equal(f.func(0.0, cols[:, j]), want[:, j], equal_nan=True)
    assert not np.isfinite(want[:, 200:]).all()
    # the Python-float form on every finite column, as bytes so signed zeros
    # count (on the others Python raises where numpy yields inf or nan)
    finite = np.flatnonzero(np.isfinite(want).all(axis=0))
    assert finite.size >= 199
    for j in finite:
        got = _lorentz4d_body(*cols[:, j].tolist(), math.sqrt)
        assert np.array(got).tobytes() == want[:, j].tobytes()


def test_linear_zero_matrix():
    f = zero_field(3)
    assert np.array_equal(field_eval(f, 0.0, np.ones(3)), np.zeros(3))


def test_a_linear_field_keeps_its_own_copy_of_the_matrix():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    f = make_field("linear", m)
    m[0, 1] = 3.0  # the caller's later edit reaches neither the field nor its params
    y = np.ones(2)
    rebuilt = make_field(f.fid, f.params, f.dim)
    assert field_eval(f, 0.0, y).tolist() == field_eval(rebuilt, 0.0, y).tolist() == [1.0, -1.0]
    assert f.components[0](0.0, y) == 1.0


def test_poly_field_eval():
    # f = (y2, y3, y1)
    f = make_field("poly", params=[[(1.0, (0, 1, 0))], [(1.0, (0, 0, 1))], [(1.0, (1, 0, 0))]], dim=3)
    y = np.array([0.5, -2.0, 3.0])
    assert np.array_equal(field_eval(f, 0.0, y), np.array([-2.0, 3.0, 0.5]))


def test_unknown_field_id():
    with pytest.raises(ConfigError):
        make_field("vortex9000")


# make_field arguments of one field per registered id
FIELD_EXAMPLES = {
    "lorentz4d": {},
    "harmonic2d": {},
    "linear": {"params": np.array([[0.0, 1.0], [-1.0, 0.0]])},
    "poly": {"params": [[(2.0, (1, 1))], [(-1.0, (0, 2))]], "dim": 2},
}


def test_field_params_roundtrip():
    # make_field rebuilds a field from its id, params and dim, as compile_flow
    # and a model load do; the params are nested tuples, so a field hashes
    assert FIELD_EXAMPLES.keys() == FIELDS.keys()  # a new field id needs an example here
    for fid, kwargs in FIELD_EXAMPLES.items():
        f = make_field(fid, **kwargs)
        g = make_field(f.fid, f.params, f.dim)
        assert g.params == f.params and hash(g.params) == hash(f.params)
        hash(f)
        y = sample_points((np.full(f.dim, 0.5), np.full(f.dim, 1.5)), 5, 0)[0]
        assert np.array_equal(field_eval(f, 0.3, y), field_eval(g, 0.3, y))


# every special a coordinate can take: signed zeros, subnormals, infinities, nan
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, np.inf, -np.inf, np.nan)


def special_columns(dim, seed):
    """Columns (dim, n): random ones, each special in each coordinate, all
    specials mixed, and the first two coordinates on the lorentz4d singular line."""
    rng = Xoshiro256(seed)
    base = rng.uniform_array((dim, 8), -2.0, 2.0)
    one_special = np.repeat(rng.uniform_array((dim, 1), -2.0, 2.0), dim * len(SPECIALS), axis=1)
    for d in range(dim):
        one_special[d, d * len(SPECIALS) : (d + 1) * len(SPECIALS)] = SPECIALS
    mixed = np.array([[SPECIALS[rng.next_u64() % len(SPECIALS)] for _ in range(32)]
                      for _ in range(dim)])
    singular = rng.uniform_array((dim, 4), -2.0, 2.0)
    singular[:2] = [[0.0, -0.0, 0.0, -0.0], [0.0, 0.0, -0.0, -0.0]]
    return np.concatenate([base, one_special, mixed, singular], axis=1)


# a poly field with a constant term and a component with no terms
COMPONENT_EXAMPLES = [(fid, kwargs) for fid, kwargs in FIELD_EXAMPLES.items()] + [
    ("poly", {"params": [[(2.0, (1, 1, 0)), (0.5, (0, 0, 0))], [], [(-1.5, (0, 2, 1))]],
              "dim": 3}),
]


@pytest.mark.parametrize("fid, kwargs", COMPONENT_EXAMPLES,
                         ids=[f"{fid}-{k}" for k, (fid, _) in enumerate(COMPONENT_EXAMPLES)])
def test_components_have_the_bits_of_the_whole_field(fid, kwargs):
    f = make_field(fid, **kwargs)
    cols = special_columns(f.dim, 41)
    components = f.components
    assert len(components) == f.dim
    with np.errstate(all="ignore"):
        for y in [cols] + [cols[:, k] for k in range(cols.shape[1])]:
            whole = f.func(0.3, y)
            for j, comp in enumerate(components):
                got, want = comp(0.3, y), whole[j]
                assert np.shape(got) == np.shape(want) == y.shape[1:]
                assert np.asarray(got).dtype == np.asarray(want).dtype
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                assert not np.shares_memory(got, y)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_field("linear", params=[[0.0, 1.0, -1.0]]),
         re.escape("linear field needs a square matrix, got shape (1, 3)")),
        (lambda: make_field("linear", params=[[0.0, 1.0], [-1.0, 0.0], [0.0, 0.0]]),
         re.escape("linear field needs a square matrix, got shape (3, 2)")),
        (lambda: make_field("harmonic2d", dim=3), "field 'harmonic2d' has dim 2, got 3"),
        (lambda: make_field("lorentz4d", dim=3), "field 'lorentz4d' has dim 4, got 3"),
        (lambda: make_field("linear", params=np.eye(3), dim=2), "field 'linear' has dim 3, got 2"),
    ],
    ids=["linear-truncated", "linear-left-over", "harmonic2d-dim", "lorentz4d-dim", "linear-dim"],
)
def test_field_construction_rejects_params_and_dims_that_disagree(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


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


def _whole_field_partial_divergence(field, t, y, k):
    # the earlier kernel: all 2k shifted copies of every column through one
    # field.func call, one row kept from each copy
    y = np.asarray(y, float)
    shifted = np.repeat(y.reshape(field.dim, 1, -1), 2 * k, axis=1)  # (dim, 2k, N)
    j = np.arange(k)
    shifted[j, j] += FD_STEP
    shifted[j, k + j] -= FD_STEP
    out = np.asarray(field.func(t, shifted.reshape(field.dim, -1)), float).reshape(shifted.shape)
    return sum((out[j, j] - out[j, k + j]) / (2.0 * FD_STEP)).reshape(y.shape[1:])


# one field per registered id, plus a 5x5 linear field, where BLAS has room
# to round a matrix-vector product differently from a matrix product
DIVERGENCE_EXAMPLES = COMPONENT_EXAMPLES + [
    ("linear", {"params": Xoshiro256(5).uniform_array((5, 5), -2.0, 2.0)}),
]


@pytest.mark.parametrize("fid, kwargs", DIVERGENCE_EXAMPLES,
                         ids=[f"{fid}-{k}" for k, (fid, _) in enumerate(DIVERGENCE_EXAMPLES)])
def test_partial_divergence_has_the_bits_of_the_whole_field_formula(fid, kwargs):
    # one component call per term gives every byte the whole-field call gave,
    # on a point, columns (dim, N), one column (dim, 1) and quadrature blocks (dim, Q, N)
    f = make_field(fid, **kwargs)
    cols = Xoshiro256(17).uniform_array((f.dim, 12), -2.0, 2.0)
    inputs = [cols[:, 0], cols, cols[:, :1], cols.reshape(f.dim, 3, 4), special_columns(f.dim, 43)]
    with np.errstate(all="ignore"):
        for y in inputs:
            for k in range(1, f.dim + 1):
                got = partial_divergence_fd(f, 0.3, y, k)
                want = _whole_field_partial_divergence(f, 0.3, y, k)
                assert got.shape == want.shape == y.shape[1:]
                assert got.tobytes() == want.tobytes()


def test_partial_divergence_at_k_0_is_zeros_of_the_trailing_shape():
    # the empty sum: a 0-d array for a point, the columns' trailing shape else
    f = make_field("lorentz4d")
    for y in (np.ones(4), np.ones((4, 3)), np.ones((4, 2, 5))):
        got = partial_divergence_fd(f, 0.0, y, 0)
        assert got.shape == y.shape[1:]
        assert got.tobytes() == np.zeros(y.shape[1:]).tobytes()
    assert list(partial_divergences_fd(f, 0.0, np.ones((4, 3)), 0)) == []
    with pytest.raises(ConfigError, match="expects points of dim 4"):
        partial_divergence_fd(f, 0.0, np.ones((3, 3)), 0)


@pytest.mark.parametrize("k", [-1, 5, 2.0, True, False, "1", None],
                         ids=["minus-1", "dim-plus-1", "float", "true", "false", "str", "none"])
def test_partial_divergence_k_outside_0_to_dim_is_a_config_error_naming_k_and_the_dim(k):
    f = make_field("lorentz4d")
    y = np.ones((4, 3))
    message = f"k must be an integer in 0..4, the field's dim, got {re.escape(repr(k))}"
    with pytest.raises(ConfigError, match=message):
        partial_divergence_fd(f, 0.0, y, k)
    with pytest.raises(ConfigError, match=message):
        next(partial_divergences_fd(f, 0.0, y, k))


def test_partial_divergence_takes_numpy_integer_k():
    f = make_field("lorentz4d")
    y = np.full((4, 3), 0.5)
    assert partial_divergence_fd(f, 0.0, y, np.int64(4)).tobytes() == (
        partial_divergence_fd(f, 0.0, y, 4).tobytes())


def test_identity_field_divergence_is_dim():
    f = make_field("linear", params=np.eye(4))
    assert abs(divergence_fd(f, 0.0, np.array([0.3, 0.1, -0.2, 0.9])) - 4.0) < 1e-6


def test_constant_field_divergence_zero():
    f = make_field("poly", params=[[(1.5, (0, 0))], [(-0.7, (0, 0))]], dim=2)
    assert abs(divergence_fd(f, 0.0, np.array([0.4, -0.9]))) < 1e-12


def test_registered_divergence_free_fields_pass_fd():
    for fid in ("lorentz4d", "harmonic2d"):
        f = make_field(fid)
        pts = sample_points((np.full(f.dim, -2.0), np.full(f.dim, 2.0)), 100, 1,
                            exclude=f.singular)
        for p in pts:
            assert abs(divergence_fd(f, 0.0, p)) < 1e-6


# --- integrators ----------------------------------------------------------


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


def _checked_rk4_reference(field, tau, T, h_ref, x):
    """The per-substep checked RK4 loop, kept as the reference: (end state,
    None, None), or (None, first non-finite substep, its first bad row or None)."""
    n = max(1, round(abs(T) / h_ref)) if T != 0 else 0
    h = T / n if n else 0.0
    y = np.asarray(x, float).T
    for k in range(n):
        t = tau + k * h
        k1 = field.func(t, y)
        k2 = field.func(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = field.func(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = field.func(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            row = np.flatnonzero(~np.isfinite(y).all(axis=0))[0] if y.ndim == 2 else None
            return None, k + 1, row
    return y.T, None, None


SQUARE_FIELD = make_field("poly", params=[[(1.0, (2,))]], dim=1)  # dy/dt = y^2


def test_rk4_blowup_raises_with_step():
    x = np.array([2.0])  # blows up at t = 0.5
    with np.errstate(all="ignore"):
        _, step, _ = _checked_rk4_reference(SQUARE_FIELD, 0.0, 1.0, 1e-3, x)
        with pytest.raises(NumericError, match=f"at substep {step}$") as err:
            rk4_flow(SQUARE_FIELD, 0.0, 1.0, 1e-3, x)
    assert step is not None and 400 < step < 1000
    assert err.value.step == step


@pytest.mark.parametrize("x0", [[0.0, 0.0, 1.0, 1.0], [1e-200, 1e-200, 1.0, 1.0]],
                         ids=["origin", "underflow"])
def test_lorentz_singular_start_raises_at_substep_1(x0):
    # on the singular line Python floats raise ZeroDivisionError; the hop is
    # rerun on arrays, so the error is numpy's NumericError with its step
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="^rk4 state became non-finite at substep 1$") as err:
            rk4_flow(make_field("lorentz4d"), 0.0, 0.2, 1e-3, np.array(x0))
    assert err.value.step == 1


@pytest.mark.parametrize(
    "fid, box",
    [
        ("lorentz4d", (np.array([-0.4, 0.5, 0.6, 0.0]), np.array([0.6, 1.5, 1.6, 1.0]))),
        ("harmonic2d", (-np.ones(2), np.ones(2))),
    ],
)
def test_rk4_flow_matches_checked_reference_bits(fid, box):
    f = make_field(fid)
    x = sample_points(box, 9, 3, exclude=f.singular)
    starts = (x, x[0], LORENTZ_TEST_POINT) if fid == "lorentz4d" else (x, x[0])  # + gen-data's start
    for start in starts:
        want, step, _ = _checked_rk4_reference(f, 0.3, 0.2, 1e-3, start)
        assert step is None
        assert np.array_equal(rk4_flow(f, 0.3, 0.2, 1e-3, start), want)


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
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="in row 0") as err:
            rk4_flow(SQUARE_FIELD, 0.0, 1.0, 1e-3, np.array([[2.0], [0.1]]))
    assert err.value.step is not None


def test_rk4_batch_blowup_in_a_later_row_names_step_and_row():
    # rows 0 and 1 stay finite; row 2 blows up first (t = 0.4), row 3 later (t = 0.5)
    x = np.array([[0.1], [-3.0], [2.5], [2.0]])
    with np.errstate(all="ignore"):
        _, step, row = _checked_rk4_reference(SQUARE_FIELD, 0.0, 1.0, 1e-3, x)
        with pytest.raises(NumericError, match=f"at substep {step} in row {row}$") as err:
            rk4_flow(SQUARE_FIELD, 0.0, 1.0, 1e-3, x)
    assert row == 2
    assert err.value.step == step


@pytest.mark.parametrize("h_ref", [0.0, -1e-3, np.nan, np.inf])
def test_rk4_rejects_bad_substep(h_ref):
    f = make_field("harmonic2d")
    x = np.array([1.0, 0.0])
    with pytest.raises(ConfigError, match="h_ref must be a positive finite number"):
        rk4_flow(f, 0.0, 1.0, h_ref, x)
    with pytest.raises(ConfigError, match="h_ref"):
        generate_trajectory(f, x, 0.1, 3, h_ref=h_ref)


@pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf])
def test_rk4_rejects_non_finite_span(T):
    with pytest.raises(ConfigError, match="T must be finite"):
        rk4_flow(make_field("harmonic2d"), 0.0, T, 1e-3, np.array([1.0, 0.0]))


@pytest.mark.parametrize("h_data", [0.0, -0.1, np.nan, np.inf])
def test_generate_trajectory_rejects_bad_h_data(h_data):
    with pytest.raises(ConfigError, match="h_data must be a positive finite number"):
        generate_trajectory(make_field("harmonic2d"), [1.0, 0.0], h_data, 3)


def test_rk4_rejects_wrong_shapes():
    f = make_field("harmonic2d")
    for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(ConfigError):
            rk4_flow(f, 0.0, 1.0, 1e-2, bad)


# --- splitting -------------------------------------------------------------


def test_splitting_shear_pair_hand_example():
    # p-update then q-update with g1 = -q, g2 = p, h = 0.1 from (1, 0), as the
    # two-shear net that applies the splitting step
    h = 0.1
    net = MPNet(2, (shear_layer(2, 1, fixed_shift("linear", [-h], 1, 1)),
                    shear_layer(2, 2, fixed_shift("linear", [h], 1, 1))))
    out = net_apply_batch(net, np.array([1.0, 0.0]))
    assert np.array_equal(out, np.array([1.0, 0.1]))


# --- datasets ---------------------------------------------------------------


def _dataset(field, x0, h_data, n_pairs, h_ref):
    """gen-data's pairs: n_pairs chained hops along one trajectory."""
    return dataset_from_trajectory(generate_trajectory(field, x0, h_data, n_pairs + 1, h_ref))


def test_generate_dataset_lorentz_chained():
    f = make_field("lorentz4d")
    ds = _dataset(f, LORENTZ_TEST_POINT, 0.2, 25, 1e-2)
    assert ds.n_pairs == 25
    assert np.array_equal(ds.x[1:], ds.y[:-1])


def test_generate_dataset_zero_field():
    ds = _dataset(zero_field(), np.array([0.3, 0.4]), 0.5, 4, 1e-2)
    for k in range(4):
        assert np.array_equal(ds.x[k], np.array([0.3, 0.4]))
        assert np.array_equal(ds.y[k], np.array([0.3, 0.4]))


def test_generate_dataset_periodic_pair():
    f = make_field("harmonic2d")
    ds = _dataset(f, np.array([1.0, 0.0]), 2.0 * np.pi, 1, 1e-3)
    assert ds.n_pairs == 1
    assert np.max(np.abs(ds.y[0] - ds.x[0])) < 1e-8


def test_generate_dataset_validation():
    with pytest.raises(ConfigError):
        _dataset(zero_field(), np.zeros(2), 0.2, 0, 1e-3)


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
    arr = np.array([[float(v) for v in ln.split(",")] for ln in text.strip().split("\n")[1:]])
    back = Trajectory(arr[:, 0], arr[:, 1:])
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)
    assert trajectory_to_csv(back) == text


def test_dataset_csv_roundtrip():
    f = make_field("lorentz4d")
    ds = _dataset(f, LORENTZ_TEST_POINT, 0.2, 3, 1e-2)
    text = dataset_to_csv(ds)
    assert text.startswith("x1,x2,x3,x4,xp1,xp2,xp3,xp4\n")
    back = dataset_from_csv(text)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)
    assert dataset_to_csv(back) == text


def test_csv_writers_keep_their_bytes():
    # sha256 of both writers on a short harmonic2d trajectory (elementwise
    # arithmetic, so no BLAS build moves them), taken before they shared csv_text
    traj = generate_trajectory(make_field("harmonic2d"), [1.0, 0.5], 0.1, 6)
    text = trajectory_to_csv(traj)
    assert text.startswith("t,y1,y2\n0,1,0.5\n0.10000000000000001,0.9450874569546116,")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4aa606aea1d7bd0724bda34fad7dad796e887d7c94f9a6242d89fc29aebf6c83")
    assert hashlib.sha256(dataset_to_csv(dataset_from_trajectory(traj)).encode()).hexdigest() == (
        "2816853c4e41f87fe025429841770a21a0858e534a142c41cd07137e197d83ae")


def test_csv_text_writes_each_number_with_fmt17():
    rows = [(0, 1.0 / 3.0), (10, -0.0), (2**53, np.float64(2.5e-300))]
    assert csv_text(["epoch", "mse"], rows) == (
        "epoch,mse\n0,0.33333333333333331\n10,-0.0\n9007199254740992,2.5e-300\n")
    assert csv_text(["a", "b"], []) == "a,b\n"


def test_dataset_from_trajectory_chaining():
    traj = Trajectory(np.arange(4.0), np.arange(8.0).reshape(4, 2))
    ds = dataset_from_trajectory(traj)
    assert ds.n_pairs == 3
    assert np.array_equal(ds.x[1:], ds.y[:-1])
