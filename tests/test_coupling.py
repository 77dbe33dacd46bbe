import copy
import functools
import re
from dataclasses import replace

import numpy as np
import pytest

from mpflow import shifts
from mpflow.compiler import compile_flow
from mpflow.coupling import (
    LOWER,
    SHEAR,
    UPPER,
    Layer,
    MPNet,
    layer_apply_batch,
    layer_forward,
    lower_layer,
    net_apply_batch,
    net_backward_collected,
    net_forward,
    net_forward_collect,
    shear_layer,
    shift_dims,
    upper_layer,
)
from mpflow.dynamics import dataset_from_trajectory, generate_trajectory, make_field
from mpflow.errors import ConfigError
from mpflow.mlp import Workspace, mlp_init
from mpflow.rng import Xoshiro256
from mpflow.shifts import MlpShift, PairShear, fixed_shift
from mpflow.training import TrainConfig, train
from mpflow.verify import roundtrip_error, sample_points


def install_power_shift(monkeypatch, shift_id, k):
    """Install, for one test, the fixed shift u -> u[..., :1] ** k (scalar
    out, for a point or a batch) with its exact Jacobian under shift_id."""

    def factory(params, in_dim, out_dim):
        def jac(u):
            first = k * u[..., :1] ** (k - 1)
            return np.concatenate([first, np.zeros_like(u[..., 1:])], axis=-1)[..., None, :]

        return (lambda u: u[..., :1] ** k), jac

    monkeypatch.setitem(shifts._FACTORIES, shift_id, factory)


@pytest.fixture
def usquared(monkeypatch):
    install_power_shift(monkeypatch, "usquared", 2)


def point_backward(net, x, upstream):
    """(per-layer parameter grads, input gradient) at one point, through the
    batched forward and backward passes training uses."""
    _, collected = net_forward_collect(net, np.asarray(x, float)[None, :])
    per_layer, dx = net_backward_collected(net, collected, np.asarray(upstream, float)[None, :])
    return per_layer, dx[0]


def random_net(dim, n_layers, seed, width=5):
    """Mixed upper/lower/shear stack with random small MLPs."""
    rng = Xoshiro256(seed)
    layers = []
    for l in range(n_layers):
        kind = rng.next_u64() % 3
        if kind == 0:
            s = 2 + rng.next_u64() % (dim - 1)
            mlp = mlp_init((dim - s + 1, width, s - 1), "sigmoid", rng.next_u64())
            layers.append(upper_layer(dim, s, MlpShift(mlp)))
        elif kind == 1:
            s = 2 + rng.next_u64() % (dim - 1)
            mlp = mlp_init((s - 1, width, dim - s + 1), "tanh", rng.next_u64())
            layers.append(lower_layer(dim, s, MlpShift(mlp)))
        else:
            i = 1 + rng.next_u64() % dim
            mlp = mlp_init((dim - 1, width, 1), "sigmoid", rng.next_u64())
            layers.append(shear_layer(dim, int(i), MlpShift(mlp)))
    return MPNet(dim, tuple(layers))


# --- layer forward/inverse ----------------------------------------------


def test_upper_constant_shift():
    layer = upper_layer(4, 2, fixed_shift("constant", [1.0], 3, 1))
    out = layer_forward(layer, np.zeros(4))
    assert np.array_equal(out, np.array([1.0, 0.0, 0.0, 0.0]))
    back = layer_apply_batch(layer, out, inverse=True)
    assert np.array_equal(back, np.zeros(4))


def test_lower_square_shift_hand_example(usquared):
    # D=2, s=2: lower block is x[2], shifted by f(x[1]) = x[1]^2: (2,3) -> (2,7)
    layer = lower_layer(2, 2, fixed_shift("usquared", [], 1, 1))
    out = layer_forward(layer, np.array([2.0, 3.0]))
    assert np.array_equal(out, np.array([2.0, 7.0]))


def test_zero_shift_is_identity():
    for layer in [
        upper_layer(3, 2, fixed_shift("constant", [0.0], 2, 1)),
        lower_layer(3, 3, fixed_shift("constant", [0.0], 2, 1)),
        shear_layer(3, 2, fixed_shift("constant", [0.0], 2, 1)),
    ]:
        x = np.array([0.4, -1.1, 2.2])
        assert np.array_equal(layer_forward(layer, x), x)
        assert np.array_equal(layer_apply_batch(layer, x, inverse=True), x)


def _signed_shift_reference(x, read, written, shift, sign):
    """The earlier sign-multiplying layer update, kept as the bit-exact reference."""
    out = x.copy()
    out[..., written] += sign * shift(x[..., read])
    return out


def test_layer_add_and_subtract_bit_exact_against_sign_form():
    rng = Xoshiro256(8)
    cases = [
        (upper_layer(4, 2, MlpShift(mlp_init((3, 6, 1), "sigmoid", 1))), slice(1, 4), slice(0, 1)),
        (lower_layer(4, 3, MlpShift(mlp_init((2, 6, 2), "tanh", 2))), slice(0, 2), slice(2, 4)),
        (shear_layer(4, 2, MlpShift(mlp_init((3, 6, 1), "sigmoid", 3))), [0, 2, 3], slice(1, 2)),
    ]
    inverse = functools.partial(layer_apply_batch, inverse=True)
    for layer, read, written in cases:
        for x in (rng.uniform_array((13, 4), -3, 3), rng.uniform_array(4, -3, 3)):
            for sign, apply in ((1.0, layer_forward), (-1.0, inverse)):
                want = _signed_shift_reference(x, read, written, layer.shift, sign)
                if x.ndim == 1:
                    assert np.array_equal(apply(layer, x), want)
                assert np.array_equal(net_apply_batch(MPNet(4, (layer,)), np.atleast_2d(x),
                                                      inverse=sign < 0), np.atleast_2d(want))


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_layer_inverse_signed_zeros_match_sign_form(zero):
    layer = upper_layer(3, 2, fixed_shift("constant", [zero], 2, 1))
    x = np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [5.0, 0.0, 0.0]])
    want = _signed_shift_reference(x, slice(1, 3), slice(0, 1), layer.shift, -1.0)
    got = net_apply_batch(MPNet(3, (layer,)), x, inverse=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(got, want)
    for row, want_row in zip(x, want):
        back = layer_apply_batch(layer, row, inverse=True)
        assert np.array_equal(back, want_row)
        assert np.array_equal(np.signbit(back), np.signbit(want_row))


def test_shear_modifies_only_target():
    mlp = mlp_init((3, 4, 1), "sigmoid", 3)
    layer = shear_layer(4, 3, MlpShift(mlp))
    x = np.array([0.1, 0.2, 0.3, 0.4])
    out = layer_forward(layer, x)
    assert np.array_equal(out[[0, 1, 3]], x[[0, 1, 3]])
    assert out[2] != x[2]


def test_layer_roundtrip_random():
    rng = Xoshiro256(5)
    for seed in range(10):
        net = random_net(4, 1, seed)
        layer = net.layers[0]
        for _ in range(10):
            x = rng.uniform_array(4, -3, 3)
            back = layer_apply_batch(layer, layer_forward(layer, x), inverse=True)
            err = np.max(np.abs(back - x))
            assert err < 1e-12


def test_lower_shift_reads_preimage_block():
    # Reference implementation reading the (unchanged) upper block from the input
    mlp = mlp_init((2, 5, 2), "sigmoid", 9)
    layer = lower_layer(4, 3, MlpShift(mlp))
    x = Xoshiro256(2).uniform_array(4, -1, 1)
    ref = x.copy()
    ref[2:] = x[2:] + MlpShift(mlp)(x[:2])
    assert np.array_equal(layer_forward(layer, x), ref)


def test_layer_dim_validation():
    mlp = mlp_init((2, 3, 1), "sigmoid", 0)
    with pytest.raises(ConfigError):
        upper_layer(3, 4, MlpShift(mlp))  # s out of range
    with pytest.raises(ConfigError):
        upper_layer(3, 3, MlpShift(mlp))  # shift dims wrong for s=3
    with pytest.raises(ConfigError):
        shear_layer(3, 0, MlpShift(mlp))
    layer = upper_layer(3, 2, MlpShift(mlp))
    with pytest.raises(ConfigError):
        layer_forward(layer, np.zeros(4))


GEOMETRIES = [
    (kind, dim, pos)
    for dim in range(2, 6)
    for kind, first in ((UPPER, 2), (LOWER, 2), (SHEAR, 1))
    for pos in range(first, dim + 1)
]


def _layer(kind, dim, pos, shift):
    return Layer(kind, dim, shift=shift, **{"i" if kind == SHEAR else "s": pos})


@pytest.mark.parametrize("kind, dim, pos", GEOMETRIES)
def test_every_geometry_keeps_its_shift_widths_and_inverts_exactly(kind, dim, pos):
    d_in, d_out = shift_dims(kind, dim, pos)
    # eighths and small integers: every sum and product below is exact
    rng = Xoshiro256(100 * dim + pos)
    mat = np.floor(rng.uniform_array(d_out * d_in, -4, 4))
    x = np.floor(rng.uniform_array((7, dim), -16, 16)) / 8
    layer = _layer(kind, dim, pos, fixed_shift("linear", mat, d_in, d_out))
    cols = np.arange(dim)
    read, written = cols[layer.read], cols[layer.written]
    assert (read.size, written.size) == (d_in, d_out)
    assert sorted(read.tolist() + written.tolist()) == cols.tolist()
    # layers of one geometry share their column objects
    twin = _layer(kind, dim, pos, fixed_shift("constant", np.zeros(d_out), d_in, d_out))
    assert twin.read is layer.read and twin.written is layer.written
    y = layer_apply_batch(layer, x)
    assert np.array_equal(y[:, read], x[:, read])
    assert np.array_equal(y[:, written], x[:, written] + x[:, read] @ mat.reshape(d_out, d_in).T)
    assert np.array_equal(layer_apply_batch(layer, y, inverse=True), x)


@pytest.mark.parametrize(
    "kind, dim, pos, message",
    [
        (UPPER, 4, 1, "split must satisfy 2 <= s <= 4, got 1"),
        (LOWER, 4, 5, "split must satisfy 2 <= s <= 4, got 5"),
        (SHEAR, 3, 0, "shear target must satisfy 1 <= i <= 3, got 0"),
        (SHEAR, 3, 4, "shear target must satisfy 1 <= i <= 3, got 4"),
        (UPPER, 1, 2, "coupling layers need dim >= 2, got 1"),
        (SHEAR, 1, 1, "shear layers need dim >= 2, got 1"),
        ("diag", 3, 2, "layer kind must be 'upper', 'lower' or 'shear', got 'diag'"),
    ],
)
def test_bad_geometry_raises_config_error(kind, dim, pos, message):
    with pytest.raises(ConfigError, match=message):
        shift_dims(kind, dim, pos)
    with pytest.raises(ConfigError, match=message):
        _layer(kind, dim, pos, fixed_shift("constant", [0.0], 1, 1))


@pytest.mark.parametrize(
    "kind, name, value",
    [
        (UPPER, "s", 2.0),
        (LOWER, "s", True),
        (SHEAR, "i", 1.0),
        (SHEAR, "i", "1"),
        (UPPER, "dim", 4.0),
        (SHEAR, "dim", False),
        (UPPER, "i", 0.5),  # unused by the kind
        (SHEAR, "s", np.float64(3.0)),
    ],
)
def test_non_integer_geometry_raises_config_error_naming_the_value(kind, name, value):
    label = {"dim": "layer dim", "s": "split s", "i": "target i"}[name]
    message = f"{label} must be an integer, got {value!r}"
    geometry = {"dim": 4, "s": 0 if kind == SHEAR else 2, "i": 1 if kind == SHEAR else 0}
    pos_name = "i" if kind == SHEAR else "s"
    d_in, d_out = shift_dims(kind, 4, geometry[pos_name])
    shift = fixed_shift("constant", np.zeros(d_out), d_in, d_out)
    good = Layer(kind, shift=shift, **geometry)
    bad = dict(geometry, **{name: value})
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        replace(good, **{name: value})
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        Layer(kind, shift=shift, **bad)
    if name in ("dim", pos_name):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            shift_dims(kind, bad["dim"], bad[pos_name])


def test_numpy_integer_geometry_builds_a_working_layer():
    layer = upper_layer(np.int64(4), np.int64(2), fixed_shift("linear", [1.0, 0.0, 0.0], 3, 1))
    assert shift_dims(UPPER, np.int64(4), np.int64(2)) == (3, 1)
    assert np.array_equal(layer_forward(layer, np.array([1.0, 2.0, 3.0, 4.0])), [3.0, 2.0, 3.0, 4.0])


def test_layers_and_nets_compare_and_hash_without_raising():
    # shifts compare by identity: their params are arrays, which have no
    # single truth value and no hash
    mlp = mlp_init((1, 4, 1), "sigmoid", seed=0)
    for make in (lambda: upper_layer(2, 2, MlpShift(mlp)),
                 lambda: shear_layer(3, 1, fixed_shift("linear", [1.0, 2.0], 2, 1))):
        layer = make()
        for twin in (copy.deepcopy(layer), make()):
            assert layer == layer and layer != twin
            assert hash(layer) == hash(layer) and isinstance(hash(twin), int)
            net = MPNet(layer.dim, (layer,))
            assert net == MPNet(layer.dim, (layer,)) and net != MPNet(layer.dim, (twin,))
            assert net != copy.deepcopy(net)
            assert len({net, MPNet(layer.dim, (layer,)), MPNet(layer.dim, (twin,))}) == 2
            assert layer.shift == layer.shift and layer.shift != twin.shift


def test_direct_construction_and_replace_check_the_shift_widths():
    # a lower layer at s=3 of dim 4 writes two columns; a 1-wide shift must
    # not broadcast into both
    narrow = fixed_shift("linear", [1.0, 1.0], 2, 1)
    with pytest.raises(ConfigError, match="lower shift must map dim 2 -> 2, got 2 -> 1"):
        Layer(LOWER, 4, s=3, shift=narrow)
    layer = lower_layer(4, 3, fixed_shift("linear", np.ones(4), 2, 2))
    with pytest.raises(ConfigError, match="lower shift must map dim 2 -> 2, got 2 -> 1"):
        replace(layer, shift=narrow)
    with pytest.raises(ConfigError, match="lower shift must map dim 1 -> 3, got 2 -> 2"):
        replace(layer, s=2)


# --- nets ------------------------------------------------------------------


def test_empty_net_is_identity():
    net = MPNet(3, ())
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(net_forward(net, x), x)
    assert np.array_equal(net_apply_batch(net, x, inverse=True), x)


def test_a_net_pass_checks_its_input_and_returns_a_new_array():
    for net in (MPNet(2, ()), random_net(2, 3, seed=5)):
        for x in (np.array([0.5, -1.0]), Xoshiro256(4).uniform_array((5, 2), -1, 1)):
            for inverse in (False, True):
                y = net_apply_batch(net, x, inverse=inverse)
                assert y.shape == x.shape and not np.shares_memory(y, x)
        for bad in (np.zeros(3), np.zeros((5, 3)), np.zeros((2, 2, 2)), 1.0):
            with pytest.raises(ConfigError, match=re.escape(
                    f"expected (2,) point or (n, 2) batch, got {np.shape(bad)}")):
                net_apply_batch(net, bad)
    assert np.array_equal(net_apply_batch(MPNet(2, ()), [[1.0, 2.0]]), [[1.0, 2.0]])


def test_translation_two_layer_construction_exact():
    # Upper layer adds a[:s-1], lower layer adds a[s-1:]: composition is x + a
    for dim, s in [(2, 2), (4, 2), (4, 3), (5, 5)]:
        a = Xoshiro256(dim * 10 + s).uniform_array(dim, -2, 2)
        m1 = upper_layer(dim, s, fixed_shift("constant", a[: s - 1], dim - s + 1, s - 1))
        m2 = lower_layer(dim, s, fixed_shift("constant", a[s - 1 :], s - 1, dim - s + 1))
        net = MPNet(dim, (m1, m2))
        for seed in range(5):
            x = Xoshiro256(seed).uniform_array(dim, -4, 4)
            assert np.array_equal(net_forward(net, x), x + a)


def test_net_roundtrip_8_layers():
    net = random_net(4, 8, seed=21)
    pts = Xoshiro256(3).uniform_array((100, 4), -2, 2)
    assert roundtrip_error(net, pts) < 1e-11


def test_composition_closure_exact():
    net_a = random_net(3, 3, seed=31)
    net_b = random_net(3, 4, seed=32)
    combined = MPNet(3, net_a.layers + net_b.layers)
    for seed in range(10):
        x = Xoshiro256(seed).uniform_array(3, -2, 2)
        assert np.array_equal(net_forward(combined, x), net_forward(net_b, net_forward(net_a, x)))


def test_net_batch_matches_single():
    net = random_net(3, 5, seed=77)
    pts = Xoshiro256(8).uniform_array((20, 3), -2, 2)
    batch = net_apply_batch(net, pts)
    for row, x in zip(batch, pts):
        np.testing.assert_allclose(row, net_forward(net, x), rtol=1e-13, atol=1e-14)


# --- gradients ---------------------------------------------------------------


def _fd_net_input_grad(net, x, up, h=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (up @ net_forward(net, x + e) - up @ net_forward(net, x - e)) / (2 * h)
    return g


def test_net_backward_zero_upstream():
    net = random_net(3, 4, seed=50)
    per_layer, dx = point_backward(net, np.zeros(3), np.zeros(3))
    assert np.all(dx == 0.0)
    assert all(np.all(g == 0.0) for grads in per_layer for g in grads)


def test_single_upper_layer_input_grad_has_jacobian_term():
    mlp = mlp_init((2, 6, 1), "sigmoid", 13)
    net = MPNet(3, (upper_layer(3, 2, MlpShift(mlp)),))
    x = np.array([0.3, -0.8, 1.1])
    up = np.array([1.0, 0.0, 0.0])  # only the shifted block sees upstream
    _, dx = point_backward(net, x, up)
    fd = _fd_net_input_grad(net, x, up)
    np.testing.assert_allclose(dx, fd, rtol=1e-5, atol=1e-8)
    assert np.any(dx[1:] != 0.0)  # shift Jacobian feeds the unchanged block


def test_net_backward_matches_fd_composed():
    from dataclasses import replace

    from mpflow.mlp import mlp_params, mlp_with_params

    net = random_net(4, 5, seed=61)
    rng = Xoshiro256(62)
    x = rng.uniform_array(4, -1, 1)
    up = rng.uniform_array(4, -1, 1)
    per_layer, dx = point_backward(net, x, up)
    np.testing.assert_allclose(dx, _fd_net_input_grad(net, x, up), rtol=1e-5, atol=1e-8)
    # parameter grads of every layer against finite differences
    h = 1e-6
    for li, layer in enumerate(net.layers):
        params = mlp_params(layer.shift.mlp)
        for pi, p in enumerate(params):
            fd = np.zeros_like(p)
            for j in range(p.size):
                pp = [q.copy() for q in params]
                pp[pi].reshape(-1)[j] += h
                pm = [q.copy() for q in params]
                pm[pi].reshape(-1)[j] -= h
                lay_p = replace(layer, shift=MlpShift(mlp_with_params(layer.shift.mlp, pp)))
                lay_m = replace(layer, shift=MlpShift(mlp_with_params(layer.shift.mlp, pm)))
                net_p = MPNet(4, net.layers[:li] + (lay_p,) + net.layers[li + 1 :])
                net_m = MPNet(4, net.layers[:li] + (lay_m,) + net.layers[li + 1 :])
                fd.reshape(-1)[j] = (up @ net_forward(net_p, x) - up @ net_forward(net_m, x)) / (2 * h)
            np.testing.assert_allclose(per_layer[li][pi], fd, rtol=1e-5, atol=1e-8)


def test_fixed_shift_with_jacobian_backprops(usquared):
    layer = lower_layer(2, 2, fixed_shift("usquared", [], 1, 1))
    net = MPNet(2, (layer,))
    x = np.array([1.5, 0.2])
    up = np.array([0.0, 1.0])
    per_layer, dx = point_backward(net, x, up)
    assert per_layer[0] == []
    np.testing.assert_allclose(dx, [2.0 * 1.5, 1.0], rtol=1e-12)


def test_fixed_shift_batch_backward_matches_fd(usquared):
    # several rows through analytic Jacobians of shape (n, out, in)
    net = MPNet(
        3,
        (
            shear_layer(3, 2, fixed_shift("usquared", [], 2, 1)),
            upper_layer(3, 2, fixed_shift("usquared", [], 2, 1)),
            lower_layer(3, 3, fixed_shift("usquared", [], 2, 1)),
        ),
    )
    rng = Xoshiro256(23)
    x = rng.uniform_array((5, 3), -1, 1)
    up = rng.uniform_array((5, 3), -1, 1)
    per_layer, dx = net_backward_collected(net, net_forward_collect(net, x)[1], up)
    assert per_layer == [[], [], []]
    for row, xi, ui in zip(dx, x, up):
        np.testing.assert_allclose(row, _fd_net_input_grad(net, xi, ui), rtol=1e-6, atol=1e-9)


def test_net_inverse_of_forward_many_dims():
    for dim in (2, 3, 4, 6):
        net = random_net(dim, 6, seed=dim * 7)
        pts = Xoshiro256(dim).uniform_array((30, dim), -2, 2)
        assert roundtrip_error(net, pts) < 1e-11


def test_net_roundtrip_64_layers():
    net = random_net(4, 64, seed=640)
    pts = Xoshiro256(64).uniform_array((50, 4), -2, 2)
    assert roundtrip_error(net, pts) < 1e-11


# --- a net pass against its layers -----------------------------------------

# the benchmark's lorentz4d box, clear of the singular line y1 = y2 = 0
LORENTZ_BOX = (np.array([-0.4, 0.5, 0.6, 0.0]), np.array([0.6, 1.5, 1.6, 1.0]))


def trained_lorentz_net():
    traj = generate_trajectory(make_field("lorentz4d"), [0.1, 1.0, 1.1, 0.5], 0.2, 21)
    config = TrainConfig(n_layers=4, width=8, epochs=20, log_stride=20, seed=3)
    return train(dataset_from_trajectory(traj), config)[0]


def compiled_lorentz_net():
    return compile_flow(make_field("lorentz4d"), 0.0, 0.2, 2, LORENTZ_BOX).net


def chained_layers(net, x, inverse):
    for layer in reversed(net.layers) if inverse else net.layers:
        x = layer_apply_batch(layer, x, inverse=inverse)
    return x


@pytest.mark.parametrize("make_net", [trained_lorentz_net, compiled_lorentz_net])
def test_net_pass_has_the_bits_of_its_chained_layers(make_net):
    net = make_net()
    pts = sample_points(LORENTZ_BOX, 20, 5)
    for x in (pts, pts[7]):
        before = x.copy()
        for inverse in (False, True):
            got = net_apply_batch(net, x, inverse=inverse)
            assert got.shape == x.shape
            assert got.tobytes() == chained_layers(net, x, inverse).tobytes()
            assert np.array_equal(x, before)
    assert net_forward(net, pts[7]).tobytes() == chained_layers(net, pts[7], False).tobytes()


def lorenz96(dim):
    """Inviscid Lorenz-96, f_k = x_{k+1} x_{k-1} - x_{k-2} x_{k-1} with indices
    mod dim, as a poly field; f_k does not read x_k, so it is divergence-free
    and every pair is separable."""

    def term(coef, a, b):
        exps = [0] * dim
        exps[a % dim] += 1
        exps[b % dim] += 1
        return coef, tuple(exps)

    return make_field("poly", [[term(1.0, k + 1, k - 1), term(-1.0, k - 2, k - 1)]
                               for k in range(dim)], dim)


def _raising_ufn(t, y):
    raise FloatingPointError("ufn failed")


def _every_pass(net, x):
    # each public pass over a net or one of its layers, on x or its first row
    passes = [
        lambda: net_apply_batch(net, x),
        lambda: net_apply_batch(net, x, inverse=True),
        lambda: net_forward(net, x[0]),
        lambda: net_forward_collect(net, x),
        lambda: net_forward_collect(net, x, Workspace({})),
    ]
    for layer in net.layers:
        passes += [functools.partial(layer_apply_batch, layer, x),
                   functools.partial(layer_apply_batch, layer, x[0], inverse=True),
                   functools.partial(layer_forward, layer, x[0])]
    return passes


def test_passes_never_write_the_callers_array():
    box = (np.full(4, -1.0), np.full(4, 1.0))
    compiled = compile_flow(lorenz96(4), 0.0, 0.2, 1, box).net
    net = MPNet(4, compiled.layers + random_net(4, 4, seed=9).layers
                + (shear_layer(4, 2, fixed_shift("linear", [0.5, -0.25, 2.0], 3, 1)),))
    x = sample_points(box, 7, 4)
    x[3, 1] = -0.0
    before = x.copy()
    for call in _every_pass(net, x):
        call()
        assert x.tobytes() == before.tobytes()


def test_a_pair_shear_that_raises_mid_pass_leaves_the_callers_array_as_it_was():
    box = (np.full(4, -1.0), np.full(4, 1.0))
    layers = list(compile_flow(lorenz96(4), 0.0, 0.2, 2, box).net.layers)
    mid = len(layers) // 2
    shift = layers[mid].shift
    layers[mid] = replace(layers[mid], shift=PairShear(_raising_ufn, shift.row, shift.tau, shift.h,
                                                       shift.in_dim, None))
    net = MPNet(4, tuple(layers))
    x = sample_points(box, 5, 6)
    before = x.copy()
    raised = 0
    for call in _every_pass(net, x):
        try:
            call()
        except FloatingPointError as exc:
            assert str(exc) == "ufn failed"
            raised += 1
        assert x.tobytes() == before.tobytes()
    assert raised == 5 + 3  # every net pass, and each pass of the raising layer


def test_net_forward_collect_rejects_a_batch_of_another_dim():
    net = random_net(4, 3, seed=2)
    for bad in (np.zeros((5, 3)), np.zeros(5), np.zeros((2, 2, 4))):
        with pytest.raises(ConfigError, match=re.escape(f"expected (n, 4) batch, got {bad.shape}")):
            net_forward_collect(net, bad)


def test_net_forward_collect_rejects_a_single_point():
    # the backward indexes a batch's columns, so a point must fail here, by shape,
    # and not inside net_backward_collected
    from mpflow.training import build_training_net

    net = build_training_net(3, TrainConfig(n_layers=1, width=4))
    x = sample_points((np.full(3, -1.0), np.full(3, 1.0)), 1, 3)
    with pytest.raises(ConfigError, match=re.escape("expected (n, 3) batch, got (3,)")):
        net_forward_collect(net, x[0])
    out, collected = net_forward_collect(net, x)  # the same point as a batch of one
    _, dx = net_backward_collected(net, collected, np.ones_like(out))
    assert dx.shape == (1, 3)
