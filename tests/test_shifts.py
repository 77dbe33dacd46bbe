import re
from dataclasses import replace

import numpy as np
import pytest

from mpflow import shifts
from mpflow.errors import ConfigError
from mpflow.rng import Xoshiro256
from mpflow.shifts import FixedShift, fixed_shift


def test_apply_batch_calls_the_registered_function_once(monkeypatch):
    shift = fixed_shift("linear", 2.0 * np.eye(3).reshape(-1), 3, 3)
    calls = []

    def counted_linear(params, in_dim, out_dim):
        fn, jac = linear(params, in_dim, out_dim)
        return (lambda u: calls.append(u.shape) or fn(u)), jac

    linear = shifts._FACTORIES["linear"]
    monkeypatch.setitem(shifts._FACTORIES, "linear", counted_linear)
    counted = replace(shift)  # rebuilds its function from the table
    u = Xoshiro256(1).uniform_array((37, 3), -1, 1)
    out = counted.apply_batch(u)
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
        for call in (shift, shift.jacobian):
            with pytest.raises(ConfigError, match=r"shift 'constant' expects \(2,\) or \(n, 2\) input"):
                call(bad)


def test_an_unknown_id_is_rejected_by_the_constructor_too():
    for build in (fixed_shift, FixedShift):
        with pytest.raises(ConfigError, match="unknown fixed-shift id 'cube'"):
            build("cube", [], 1, 1)


def test_replace_rebuilds_the_shift_function():
    shift = fixed_shift("linear", [2.0], 1, 1)
    moved = replace(shift, params=[5.0])
    assert moved.params.tolist() == [5.0]
    assert moved([1.0]).tolist() == [5.0] and moved.jacobian([1.0]).tolist() == [[5.0]]
    assert shift([1.0]).tolist() == [2.0]
    with pytest.raises(ConfigError, match="'linear' needs 1 params"):
        replace(shift, params=[1.0, 2.0])


def test_a_width_that_is_not_an_integer_is_a_config_error_naming_it():
    for bad in (1.5, 2.0, True, "2", None):
        for build in (fixed_shift, FixedShift):
            for name, widths in (("in_dim", (bad, 1)), ("out_dim", (1, bad))):
                message = f"fixed shift {name} must be an integer, got {bad!r}"
                with pytest.raises(ConfigError, match=re.escape(message)):
                    build("constant", [1.0], *widths)
        with pytest.raises(ConfigError, match="fixed shift in_dim must be an integer"):
            replace(fixed_shift("constant", [1.0], 1, 1), in_dim=bad)
    shift = fixed_shift("linear", [2.0, 3.0], np.int64(2), np.int32(1))
    assert (shift.in_dim, shift.out_dim) == (2, 1)
    assert type(shift.in_dim) is int and type(shift.out_dim) is int
    assert shift([1.0, 1.0]).tolist() == [5.0]
