import numpy as np
import pytest

from mpflow.errors import ConfigError
from mpflow.rng import Xoshiro256
from mpflow.shifts import fixed_shift, register_fixed_shift


def test_apply_batch_calls_the_registered_function_once():
    calls = []

    def factory(params, in_dim, out_dim):
        def fn(u):
            calls.append(u.shape)
            return 2.0 * u

        return fn, None

    register_fixed_shift("counted_double", factory)
    shift = fixed_shift("counted_double", [], 3, 3)
    u = Xoshiro256(1).uniform_array((37, 3), -1, 1)
    out = shift.apply_batch(u)
    assert calls == [(37, 3)]
    assert np.array_equal(out, 2.0 * u)


@pytest.mark.parametrize(
    "shift_id, n_params, out_dim",
    [("constant", lambda i, o: o, 3), ("linear", lambda i, o: o * i, 3),
     ("scaled_sigmoid", lambda i, o: 2 + i, 1)],
)
@pytest.mark.parametrize("in_dim", [1, 2, 5])
def test_builtin_shift_batch_rows_match_point_calls(shift_id, n_params, out_dim, in_dim):
    rng = Xoshiro256(in_dim)
    shift = fixed_shift(shift_id, rng.uniform_array(n_params(in_dim, out_dim), -2, 2), in_dim, out_dim)
    u = rng.uniform_array((37, in_dim), -2, 2)
    out = shift.apply_batch(u)
    jac = shift.jacobian(u)
    assert out.shape == (37, out_dim)
    assert jac.shape == (37, out_dim, in_dim)
    for row, row_jac, x in zip(out, jac, u):
        # a batch is one matrix product where a point takes a dot product, so
        # rows may differ from point calls in the last bits
        np.testing.assert_allclose(row, shift(x), rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(row_jac, shift.jacobian(x), rtol=1e-13, atol=1e-14)
        assert shift(x).shape == (out_dim,)
        assert shift.jacobian(x).shape == (out_dim, in_dim)


def test_fixed_shift_rejects_wrong_shapes():
    shift = fixed_shift("constant", [1.0], 2, 1)
    for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2)), np.zeros(())):
        with pytest.raises(ConfigError):
            shift(bad)


def test_point_only_function_given_a_batch_raises():
    # written for a point: given a (2, 2) batch, u[0] is row 0, and (1, 2)
    # would reshape into the expected (2, 1) without complaint
    register_fixed_shift(
        "point_only_square",
        lambda params, i, o: ((lambda u: np.array([u[0] ** 2])), (lambda u: np.array([[2.0, 0.0]]) * u[0])),
    )
    shift = fixed_shift("point_only_square", [], 2, 1)
    u = np.array([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(shift(u[0]), [9.0])
    assert np.array_equal(shift.jacobian(u[0]), [[6.0, 0.0]])
    with pytest.raises(ConfigError, match=r"returned shape \(1, 2\), expected \(2, 1\)"):
        shift.apply_batch(u)
    with pytest.raises(ConfigError, match=r"returned shape \(1, 2\), expected \(2, 1, 2\)"):
        shift.jacobian(u)
