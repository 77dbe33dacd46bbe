import hashlib
import json
import operator
import re
from dataclasses import replace

import numpy as np
import pytest

from mpflow import compiler
from mpflow.compiler import (
    _check_finite,
    compile_flow,
    convergence_study,
    shear_pair,
    shear_rewrite_bound,
    shear_to_couplings,
)
from mpflow.coupling import (
    MPNet,
    layer_apply_batch,
    layer_backward_batch,
    layer_forward,
    lower_layer,
    net_apply_batch,
    net_forward,
    shear_layer,
    upper_layer,
)
from mpflow.dynamics import FIELDS, FieldSpec, make_field, rk4_flow
from mpflow.errors import ConfigError, NumericError, ParseError, UnsupportedError
from mpflow.mlp import Mlp
from mpflow.pair_decomposition import _zero_component, decompose
from mpflow.rng import Xoshiro256
from mpflow.serialize import dump_json, load_net, save_net, serialize
from mpflow.shifts import MlpShift, PairShear, fixed_shift
from mpflow.verify import fd_jacobian_det, max_det_deviation, roundtrip_error, sample_points

from test_coupling import install_power_shift, lorenz96
from test_pair_decomposition import BOX3, BOX4, quadrature_field

BOXH = (np.full(2, -1.0), np.full(2, 1.0))
BOX_UNIT3 = (np.full(3, -1.0), np.full(3, 1.0))

# (field, T, n_steps, box, maxulp): maxulp bounds how far batch rows may be
# from point calls. A batch reaches linear and poly fields as (D, n) columns:
# linear takes a matrix product where a point takes a matrix-vector one, and
# poly squares an array exactly where a point goes through scalar pow
# (measured over 32 layers: linear 8 ulp, poly 1 ulp)
COMPILED_FIELDS = [
    (make_field("lorentz4d"), 0.2, 5, BOX4, 0),
    (make_field("harmonic2d"), 1.0, 8, BOXH, 0),
    (make_field("linear", params=np.array([[0.0, 0.7, 0.2], [-1.3, 0.0, 0.4], [0.3, -0.5, 0.0]])),
     1.0, 8, BOX_UNIT3, 16),
    (make_field("poly", params=[[(1.0, (0, 2, 0))], [(-1.0, (3, 0, 0)), (0.3, (0, 0, 2))],
                                [(0.6, (1, 0, 0))]], dim=3),
     1.0, 8, BOX_UNIT3, 16),
]
COMPILED_IDS = ["lorentz4d", "harmonic2d", "linear", "poly"]


def zero_field3():
    return make_field("linear", params=np.zeros((3, 3)))


def sigmoid_shear(dim, width, seed, scale=1.0):
    """Shear on coordinate 1 with shift a . sigmoid(K u + b), zero output bias."""
    rng = Xoshiro256(seed)
    K = rng.uniform_array((width, dim - 1), -1.5, 1.5)
    b = rng.uniform_array(width, -1.0, 1.0)
    a = rng.uniform_array((1, width), -scale, scale)
    mlp = Mlp((dim - 1, width, 1), (K, a), (b, np.zeros(1)), "sigmoid")
    return shear_layer(dim, 1, MlpShift(mlp))


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


# --- shear_pair ---------------------------------------------------------------


def test_shear_pair_harmonic_hand_example():
    deco = decompose(make_field("harmonic2d"), BOXH, tol=1e-9)
    first, second = shear_pair(deco.pairs[0], 0.0, 0.1)
    x = np.array([1.0, 0.0])
    after1 = layer_forward(first, x)
    assert np.array_equal(after1, np.array([1.0, 0.0]))  # g1 = -q = 0 here
    after2 = layer_forward(second, after1)
    np.testing.assert_allclose(after2, [1.0, 0.1], atol=1e-15)


def test_shear_pair_zero_step_identity():
    deco = decompose(make_field("harmonic2d"), BOXH, tol=1e-9)
    first, second = shear_pair(deco.pairs[0], 0.0, 0.0)
    for seed in range(5):
        x = Xoshiro256(seed).uniform_array(2, -1, 1)
        assert np.array_equal(layer_forward(second, layer_forward(first, x)), x)


def test_shear_pair_layers_unit_det():
    deco = decompose(make_field("lorentz4d"), BOX4, tol=1e-9)
    pts = sample_points(BOX4, 10, 5, exclude=deco.config.field.singular)
    for pair in deco.pairs:
        for layer in shear_pair(pair, 0.1, 0.05):
            for p in pts[:5]:
                det = fd_jacobian_det(lambda rows: layer_apply_batch(layer, rows), p)
                assert abs(det - 1.0) < 1e-6


def test_shear_pair_rejects_nonseparable():
    deco = decompose(quadrature_field(), BOX3, tol=1e-6)
    with pytest.raises(UnsupportedError):
        shear_pair(deco.pairs[0], 0.0, 0.1)


# --- compile_flow --------------------------------------------------------------


def test_compile_lorentz_layer_count_and_det():
    f = make_field("lorentz4d")
    compiled = compile_flow(f, 0.0, 0.2, 20, BOX4)
    assert compiled.net.n_layers == 120  # 20 steps x 3 pairs x 2 shears
    pts = sample_points(BOX4, 10, 8, exclude=f.singular)
    for p in pts:
        det = fd_jacobian_det(lambda rows: net_apply_batch(compiled.net, rows), p)
        assert abs(det - 1.0) < 1e-6


def test_compile_zero_field_identity():
    compiled = compile_flow(zero_field3(), 0.0, 1.0, 4, BOX3)
    for seed in range(5):
        x = Xoshiro256(seed).uniform_array(3, -2, 2)
        assert np.array_equal(net_forward(compiled.net, x), x)


def test_compile_rejects_nonseparable_field():
    with pytest.raises(UnsupportedError) as err:
        compile_flow(quadrature_field(), 0.0, 0.5, 4, BOX3)
    assert "not implemented" in str(err.value)


def test_compiled_net_equals_explicit_splitting():
    f = make_field("lorentz4d")
    compiled = compile_flow(f, 0.0, 0.2, 5, BOX4)
    pts = sample_points(BOX4, 100, 12, exclude=f.singular)
    for p in pts:
        a = net_forward(compiled.net, p)
        b = p
        for layer in compiled.net.layers:
            b = layer_forward(layer, b)
        assert np.max(np.abs(a - b)) < 1e-12


def test_compiled_net_invertible():
    f = make_field("lorentz4d")
    compiled = compile_flow(f, 0.0, 0.2, 10, BOX4)
    pts = sample_points(BOX4, 20, 14, exclude=f.singular)
    assert roundtrip_error(compiled.net, pts) < 1e-11


@pytest.mark.parametrize("field, T, n_steps, box, maxulp", COMPILED_FIELDS, ids=COMPILED_IDS)
def test_compiled_net_serialization_reproduces_bitwise(tmp_path, field, T, n_steps, box, maxulp):
    net = compile_flow(field, 0.0, T, n_steps, box).net
    save_net(net, tmp_path / "model.json")
    data = (tmp_path / "model.json").read_bytes()
    (entry,) = json.loads(data)["layers"]
    assert entry["kind"] == "compiled"
    # the field is stored as its config: the id plus each key the field reads
    keys = {key: field.dim if key == "dim" else field.params for key in FIELDS[field.fid].config}
    assert entry["field"] == json.loads(dump_json({"id": field.fid, **keys}))
    restored = load_net(tmp_path / "model.json")
    pts = sample_points(box, 10, 15, exclude=field.singular)
    for inverse in (False, True):
        want = net_apply_batch(net, pts, inverse=inverse)
        assert net_apply_batch(restored, pts, inverse=inverse).tobytes() == want.tobytes()
    assert serialize(restored) == data


def test_pinned_zero_shift_adds_h_times_zero_without_the_field():
    # lorentz4d pins u2 of pairs 1 and 2 to zero; with T < 0 each such shear
    # adds h * 0.0 = -0.0, which the field path computed as h * zeros. On a
    # target of -0.0 the forward keeps the sign only if it added -0.0, and the
    # inverse clears it only if it subtracted -0.0
    field = make_field("lorentz4d")
    net = compile_flow(field, 0.0, -0.2, 2, BOX4).net
    pinned = [layer for layer in net.layers if layer.shift.ufn is None]
    assert [layer.i for layer in pinned] == [2, 3, 2, 3]  # pairs 1 and 2, second shear
    pts = sample_points(BOX4, 6, 9, exclude=field.singular)
    for layer in pinned:
        shift = layer.shift
        via_field = replace(layer, shift=PairShear(_zero_component, shift.row, shift.tau, shift.h,
                                                   shift.in_dim, None))
        x = pts.copy()
        x[:, shift.row] = -0.0
        others = np.arange(4) != shift.row
        for x, shape in ((x[0], (4,)), (x, (6, 4))):
            for inverse in (False, True):
                got = layer_apply_batch(layer, x, inverse)
                assert got.shape == shape and got.dtype == np.float64
                target = got[..., shift.row]
                assert np.all(target == 0.0) and np.all(np.signbit(target) != inverse)
                assert got[..., others].tobytes() == x[..., others].tobytes()
                assert got.tobytes() == layer_apply_batch(via_field, x, inverse).tobytes()
        assert layer_apply_batch(layer, pts).tobytes() == pts.tobytes()  # x + -0.0 is x


def test_compile_rejects_a_field_id_the_registry_cannot_rebuild():
    # compile_flow rebuilds the field from its params, as a load does, so a
    # field that a load could not rebuild cannot be compiled either
    field = replace(make_field("harmonic2d"), fid="custom")
    with pytest.raises(ConfigError, match="unknown field id 'custom'"):
        compile_flow(field, 0.0, 1.0, 2, BOXH)


def test_compile_approaches_rk4_flow():
    f = make_field("harmonic2d")
    compiled = compile_flow(f, 0.0, 1.0, 200, BOXH)
    x = np.array([0.6, -0.3])
    ref = rk4_flow(f, 0.0, 1.0, 1e-3, x)
    assert np.max(np.abs(net_forward(compiled.net, x) - ref)) < 5e-3


# --- shear_to_couplings ---------------------------------------------------------


def test_rewrite_zero_outer_weights_exact_identity():
    shear = sigmoid_shear(3, 4, seed=2, scale=1.0)
    mlp = shear.shift.mlp
    zeroed = Mlp(mlp.layer_dims, (mlp.weights[0], np.zeros_like(mlp.weights[1])),
                 mlp.biases, "sigmoid")
    shear0 = shear_layer(3, 1, MlpShift(zeroed))
    net = shear_to_couplings(shear0, s=2, delta=1e-3)
    for seed in range(5):
        x = Xoshiro256(seed).uniform_array(3, -1, 1)
        assert np.array_equal(net_forward(net, x), x)


def test_rewrite_layer_count_and_kinds():
    shear = sigmoid_shear(4, 5, seed=3)
    net = shear_to_couplings(shear, s=3, delta=1e-3)
    assert net.n_layers == 15
    kinds = [layer.kind for layer in net.layers]
    assert kinds == ["lower", "upper", "lower"] * 5


def test_rewrite_composition_identity_exact():
    # The composed net must equal the target with its s-th input argument
    # perturbed by delta * x_s, to rounding.
    for dim, s, width, seed in [(3, 2, 1, 5), (4, 3, 4, 6), (5, 2, 3, 7), (4, 4, 2, 8)]:
        shear = sigmoid_shear(dim, width, seed)
        delta = 1e-3
        net = shear_to_couplings(shear, s=s, delta=delta)
        K = shear.shift.mlp.weights[0]
        b = shear.shift.mlp.biases[0]
        a = shear.shift.mlp.weights[1][0]
        pts = sample_points((np.full(dim, -1.0), np.full(dim, 1.0)), 50, seed)
        for x in pts:
            out = net_forward(net, x)
            pred = x.copy()
            z = K @ x[1:] + b + delta * x[s - 1]
            pred[0] += a @ _sigmoid(z)
            np.testing.assert_allclose(out, pred, rtol=0, atol=1e-12)


def test_rewrite_hand_example_bound():
    # W=1, D=3, s=2, K=(1,1), b=0, a=1, delta=1e-3 on [-1,1]^3:
    # bound = 1 * (1/4) * 1e-3 * 1 = 2.5e-4
    K = np.array([[1.0, 1.0]])
    mlp = Mlp((2, 1, 1), (K, np.array([[1.0]])), (np.zeros(1), np.zeros(1)), "sigmoid")
    shear = shear_layer(3, 1, MlpShift(mlp))
    box = (np.full(3, -1.0), np.full(3, 1.0))
    net = shear_to_couplings(shear, s=2, delta=1e-3)
    bound = shear_rewrite_bound(shear, 2, 1e-3, box)
    assert bound == pytest.approx(2.5e-4)
    pts = sample_points(box, 500, 21)
    measured = max(abs(net_forward(net, p)[0] - layer_forward(shear, p)[0]) for p in pts)
    assert measured <= bound


def test_rewrite_error_linear_in_delta():
    shear = sigmoid_shear(3, 3, seed=9)
    box = (np.full(3, -1.0), np.full(3, 1.0))
    pts = sample_points(box, 300, 22)

    def sup_err(delta):
        net = shear_to_couplings(shear, s=2, delta=delta)
        return max(abs(net_forward(net, p)[0] - layer_forward(shear, p)[0]) for p in pts)

    e1, e2 = sup_err(1e-3), sup_err(5e-4)
    assert 0.45 <= e2 / e1 <= 0.55


def test_rewrite_validation():
    shear = sigmoid_shear(3, 2, seed=10)
    with pytest.raises(ConfigError):
        shear_to_couplings(shear, s=7, delta=1e-3)
    with pytest.raises(ConfigError):
        shear_to_couplings(shear, s=2, delta=0.0)
    wrong_target = shear_layer(3, 2, shear.shift)
    with pytest.raises(UnsupportedError):
        shear_to_couplings(wrong_target, s=2, delta=1e-3)
    # tanh activation unsupported
    m = shear.shift.mlp
    tanh_shift = MlpShift(Mlp(m.layer_dims, m.weights, m.biases, "tanh"))
    with pytest.raises(UnsupportedError):
        shear_to_couplings(shear_layer(3, 1, tanh_shift), s=2, delta=1e-3)


def _fixed_shear():
    return shear_layer(3, 1, fixed_shift("scaled_sigmoid", [1.0, 0.0, 0.5, 0.5], 2, 1))


@pytest.mark.parametrize(
    "shear, s, delta, error",
    [
        (_fixed_shear, 2, 1e-3, UnsupportedError),
        (lambda: sigmoid_shear(3, 2, seed=10), 1, 1e-3, ConfigError),
        (lambda: sigmoid_shear(3, 2, seed=10), 4, 1e-3, ConfigError),
        (lambda: sigmoid_shear(3, 2, seed=10), 2, -1.0, ConfigError),
        (lambda: sigmoid_shear(3, 2, seed=10), 2, float("nan"), ConfigError),
        (lambda: sigmoid_shear(3, 2, seed=10), 2, float("inf"), ConfigError),
        (lambda: shear_layer(3, 2, sigmoid_shear(3, 2, seed=10).shift), 2, 1e-3, UnsupportedError),
    ],
    ids=["fixed-shift", "s=1", "s=4", "delta=-1", "delta=nan", "delta=inf", "target-2"],
)
def test_rewrite_and_its_bound_reject_the_same_inputs(shear, s, delta, error):
    box = (np.full(3, -1.0), np.full(3, 1.0))
    with pytest.raises(error) as rewrite:
        shear_to_couplings(shear(), s=s, delta=delta)
    with pytest.raises(error) as bound:
        shear_rewrite_bound(shear(), s, delta, box)
    assert type(rewrite.value) is type(bound.value) and str(rewrite.value) == str(bound.value)


@pytest.mark.parametrize("s", [2, 3])
def test_bound_rejects_a_box_of_another_dim(s):
    # a 2-d box gave a bound at s=2 and an IndexError at s=3 for a 3-d shear
    with pytest.raises(ConfigError, match=r"^box has dim 2, the shear has dim 3$"):
        shear_rewrite_bound(sigmoid_shear(3, 2, seed=10), s, 1e-3, (np.full(2, -1.0), np.full(2, 1.0)))


def test_rewrite_degenerate_delta_rejected():
    K = np.array([[-1e-3, 0.5]])
    mlp = Mlp((2, 1, 1), (K, np.array([[1.0]])), (np.zeros(1), np.zeros(1)), "sigmoid")
    shear = shear_layer(3, 1, MlpShift(mlp))
    with pytest.raises(ConfigError, match="degenerate delta"):
        shear_to_couplings(shear, s=2, delta=1e-3)  # K[w][s-1] + delta == 0
    with pytest.raises(ConfigError, match="degenerate delta"):
        shear_rewrite_bound(shear, 2, 1e-3, (np.full(3, -1.0), np.full(3, 1.0)))


def test_rewrite_net_unit_det_and_invertible():
    shear = sigmoid_shear(4, 3, seed=12)
    net = shear_to_couplings(shear, s=3, delta=1e-3)
    pts = sample_points((np.full(4, -1.0), np.full(4, 1.0)), 10, 23)
    assert roundtrip_error(net, pts) < 1e-11
    for p in pts[:5]:
        assert abs(fd_jacobian_det(lambda rows: net_apply_batch(net, rows), p) - 1.0) < 1e-6


# --- convergence_study -----------------------------------------------------------


def test_convergence_harmonic_first_order():
    rep = convergence_study(make_field("harmonic2d"), 0.0, 1.0, [10, 20, 40, 80],
                            BOXH, n_samples=30)
    assert not rep.exact
    assert 0.8 <= rep.slope <= 1.2
    assert rep.h_values == (0.1, 0.05, 0.025, 0.0125)
    assert all(a > b for a, b in zip(rep.errors, rep.errors[1:]))


def test_convergence_zero_field_exact():
    rep = convergence_study(zero_field3(), 0.0, 1.0, [5, 10], BOX3, n_samples=10)
    assert rep.exact
    assert rep.slope is None
    assert all(e < 1e-12 for e in rep.errors)


def test_convergence_validation():
    with pytest.raises(ConfigError):
        convergence_study(make_field("harmonic2d"), 0.0, 1.0, [10], BOXH)
    with pytest.raises(ConfigError):
        convergence_study(make_field("harmonic2d"), 0.0, 1.0, [20, 10], BOXH)


# --- one layer kernel for a point and a batch ------------------------------------


def _with_signed_zeros(x):
    # row k holds +0.0 (k even) or -0.0 (k odd) in column k mod D
    x = x.copy()
    for k in range(len(x)):
        x[k, k % x.shape[1]] = -0.0 if k % 2 else 0.0
    return x


def _add_column_shift(layer, x, inverse):
    # the layer as its column shift defines it: x with column i - 1 plus (or
    # minus) the shift of x's columns with that column zeroed; a pinned-zero
    # shift, which is never called, through the field path of its zero component
    shift = layer.shift
    if shift.ufn is None:
        shift = PairShear(_zero_component, shift.row, shift.tau, shift.h, shift.in_dim, None)
    y = x.T.copy()
    y[layer.i - 1] = 0.0
    out = x.copy()
    if inverse:
        out[..., layer.i - 1] -= shift(y)
    else:
        out[..., layer.i - 1] += shift(y)
    return out


@pytest.mark.parametrize("field, T, n_steps, box, maxulp", COMPILED_FIELDS, ids=COMPILED_IDS)
def test_compiled_layers_add_their_column_shift_bit_for_bit(field, T, n_steps, box, maxulp):
    net = compile_flow(field, 0.0, T, n_steps, box).net
    x = _with_signed_zeros(sample_points(box, 9, 23, exclude=field.singular))
    with np.errstate(all="ignore"):  # a lorentz4d row with y1 = 0 may come near its singular line
        for layer in net.layers:
            assert isinstance(layer.shift, PairShear)  # the kernel's column path
            for pts in (x, x[0], x[1]):
                for inverse in (False, True):
                    got = layer_apply_batch(layer, pts, inverse)
                    assert got.tobytes() == _add_column_shift(layer, pts, inverse).tobytes()


def test_compiled_lorenz96_matches_the_copied_column_form_bit_for_bit():
    # D = 16: each shear zeroes its target in the state itself and hands its
    # shift a view; the reference copies the state's columns for every layer
    box = (np.full(16, -1.0), np.full(16, 1.0))
    net = compile_flow(lorenz96(16), 0.0, 0.2, 2, box).net
    assert net.n_layers == 60
    x = _with_signed_zeros(sample_points(box, 40, 31))
    for inverse in (False, True):
        layers = net.layers[::-1] if inverse else net.layers
        for pts in (x, x[0], x[17]):
            want = pts
            for layer in layers:
                want = _add_column_shift(layer, want, inverse)
            assert net_apply_batch(net, pts, inverse).tobytes() == want.tobytes()
        state = x
        for layer in layers:
            # every row holds +0.0 or -0.0 in this layer's target column
            pts = state.copy()
            pts[:, layer.i - 1] = np.where(np.arange(len(pts)) % 2, -0.0, 0.0)
            for rows in (pts, pts[0], pts[1]):
                want = _add_column_shift(layer, rows, inverse)
                assert layer_apply_batch(layer, rows, inverse).tobytes() == want.tobytes()
            state = _add_column_shift(layer, state, inverse)
    assert net_forward(net, x[5]).tobytes() == net_apply_batch(net, x[5]).tobytes()


def test_a_pair_shear_on_another_target_is_a_config_error():
    layer = compile_flow(make_field("lorentz4d"), 0.0, 0.2, 1, BOX4).net.layers[4]
    assert (layer.i, layer.shift.row) == (3, 2)
    for changes in ({"i": 4}, {"kind": "upper", "s": 2, "i": 0}):
        with pytest.raises(ConfigError, match=r"writes coordinate 3; it can only be the shift of a shear"):
            replace(layer, **changes)


class _WholeStateCols:
    # a stand-in column shift: widths and a row, but none of the three kinds
    row, in_dim, out_dim = 0, 2, 1

    def __call__(self, y):
        return 2.0 * y


def test_a_shift_of_another_type_is_a_config_error_naming_it():
    match = "a layer's shift must be an MlpShift, a FixedShift or a PairShear, got _WholeStateCols"
    with pytest.raises(ConfigError, match=match):
        shear_layer(3, 1, _WholeStateCols())
    layer = shear_layer(3, 1, fixed_shift("constant", [0.5], 2, 1))
    with pytest.raises(ConfigError, match=match):
        replace(layer, shift=_WholeStateCols())
    with pytest.raises(ConfigError, match="got NoneType"):
        replace(layer, shift=None)


def test_compiled_lorentz4d_images_are_pinned():
    # only +, -, *, / and sqrt reach these bytes, each correctly rounded, so
    # they are the same on every platform; pinned before the column path
    box = ([-0.4, 0.5, 0.6, 0.0], [0.6, 1.5, 1.6, 1.0])  # the README's verify box
    net = compile_flow(make_field("lorentz4d"), 0.0, 0.2, 2, box).net
    pts = sample_points(box, 16, 3)
    images = {inverse: net_apply_batch(net, pts, inverse=inverse).tobytes() for inverse in (False, True)}
    assert hashlib.sha256(images[False]).hexdigest() == (
        "a264b43089d1a498bd53cb2bbfae72defdbfd831cc6c4893b57b0f8917043eff")
    assert hashlib.sha256(images[True]).hexdigest() == (
        "9d9c83381b98b7c8b5ee12e1df6a65345f3b30cd0e54888e833c53448adc5a71")


README_BOX = ([-0.4, 0.5, 0.6, 0.0], [0.6, 1.5, 1.6, 1.0])


def _sha(*arrays):
    return hashlib.sha256(b"".join(np.asarray(a, float).tobytes() for a in arrays)).hexdigest()


@pytest.mark.parametrize("T, forward, inverse, stencil, det_dev, worst", [
    (0.2, "431edd778affe7bbfc311a412b278692c61946293b54f8cfbb57079366d23cb5",
     "91cbee89c48ef3745a44e41de304b939d9745241eb97616629f92825f1809d69",
     "31365b3451fdc2176b73b5db22e9950f6dadd01649ea1c551d38d6759f8f01c8", 2.8296812004668936e-08, 5),
    (-0.2, "880d4fef3a8826c6a1a0e79ef48a12f58eb951fcc34138d41630808c6aa85fea",
     "48a5d120a0f2aef215dec2f41e667ee82ae041994fe6195961db07fac2b3c239",
     "e746abcc13e663ab4671e14597b17a251b2e6d6bd1d35f7914cf2f6b02ea7f20", 7.844904725828883e-10, 9),
], ids=["T+0.2", "T-0.2"])
def test_compiled_lorentz4d_200_step_outputs_are_pinned(T, forward, inverse, stencil, det_dev, worst):
    # compile-lorentz's net, pinned before its steps shared their shears and its
    # pinned-zero shears became one add. Each image sha covers the batch, whose
    # rows hold signed zeros, then its second row as a point; the stencil sha
    # covers the rows the determinant check maps. Only +, -, *, / and sqrt reach
    # those bytes; the determinant itself is a LAPACK LU, whose last bits may
    # depend on the BLAS build
    net = compile_flow(make_field("lorentz4d"), 0.0, T, 200, README_BOX).net
    assert net.n_layers == 1200
    pts = _with_signed_zeros(sample_points(README_BOX, 16, 7))
    for inv, want in ((False, forward), (True, inverse)):
        assert _sha(net_apply_batch(net, pts, inv), net_apply_batch(net, pts[1], inv)) == want
    images = []
    fd_jacobian_det(lambda rows: images.append(net_apply_batch(net, rows)) or images[0], pts)
    assert _sha(images[0]) == stencil
    dev, at = max_det_deviation(net, pts)
    assert dev == pytest.approx(det_dev, rel=0, abs=1e-14)
    assert at.tobytes() == pts[worst].tobytes()


def test_compiled_lorenz96_d16_outputs_are_pinned():
    box = (np.full(16, -1.0), np.full(16, 1.0))
    net = compile_flow(lorenz96(16), 0.0, 0.2, 20, box).net
    assert net.n_layers == 600
    pts = _with_signed_zeros(sample_points(box, 40, 31))
    images = {inv: _sha(net_apply_batch(net, pts, inv), net_apply_batch(net, pts[1], inv))
              for inv in (False, True)}
    assert images[False] == "f58b72fe503afb503f49a959ec3aa951b4825114bd73183f35be193a6e7e0d30"
    assert images[True] == "74d3b1ce3116731173b73bf202e3239fb8f3d74b2609dbec8d1af87ff39ebbc7"


def test_every_registered_field_is_autonomous():
    assert {fid: spec.autonomous for fid, spec in FIELDS.items()} == dict.fromkeys(FIELDS, True)


@pytest.mark.parametrize("field, box, n_steps", [
    (make_field("lorentz4d"), README_BOX, 200),
    (lorenz96(16), (np.full(16, -1.0), np.full(16, 1.0)), 5),
], ids=["lorentz4d", "lorenz96-16"])
def test_an_autonomous_flow_repeats_one_steps_shears(field, box, n_steps):
    layers = compile_flow(field, 0.3, 0.2, n_steps, box).net.layers
    per_step = 2 * (field.dim - 1)
    assert len(layers) == n_steps * per_step
    assert len({id(layer) for layer in layers}) == per_step
    step = layers[:per_step]
    assert all(map(operator.is_, layers, step * n_steps))
    assert {layer.shift.tau for layer in step} == {0.3}


# a time-dependent ABC field on [-1, 1]^3, f_k free of y_k, so divergence-free
# and both pairs separable: f = (a(t) sin z + C cos y, B sin x + a(t) cos z,
# C sin y + B cos x), a(t) = 1 + 0.3 sin 2t (Dombre et al., J. Fluid Mech. 167, 1986)
ABC_B, ABC_C = 0.7, 0.43


def _abc_components():
    def a(t):
        return 1.0 + 0.3 * np.sin(2.0 * t)

    return (lambda t, y: a(t) * np.sin(y[2]) + ABC_C * np.cos(y[1]),
            lambda t, y: ABC_B * np.sin(y[0]) + a(t) * np.cos(y[2]),
            lambda t, y: ABC_C * np.sin(y[1]) + ABC_B * np.cos(y[0]))


@pytest.fixture
def abc_field(monkeypatch):
    components = _abc_components()

    def build(params, dim):
        return 3, lambda t, y: np.array([c(t, y) for c in components]), components, None

    monkeypatch.setitem(FIELDS, "abc_t", FieldSpec(build, {}, autonomous=False))
    return make_field("abc_t")


def test_a_non_autonomous_flow_is_built_step_by_step_from_its_own_tau(abc_field, tmp_path):
    T, n_steps = 1.0, 40
    h = T / n_steps
    nets = {tau: compile_flow(abc_field, tau, T, n_steps, BOX_UNIT3).net for tau in (0.0, 0.7)}
    for tau, net in nets.items():
        assert net.n_layers == n_steps * 4
        assert len({id(layer) for layer in net.layers}) == n_steps * 4
        assert [layer.shift.tau for layer in net.layers[::4]] == [tau + k * h for k in range(n_steps)]
        save_net(net, tmp_path / "model.json")
        assert serialize(load_net(tmp_path / "model.json")) == (tmp_path / "model.json").read_bytes()
    pts = sample_points(BOX_UNIT3, 20, 5)
    out = {tau: net_apply_batch(net, pts) for tau, net in nets.items()}
    refs = {tau: rk4_flow(abc_field, tau, T, 1e-3, pts) for tau in nets}
    err = {(net_tau, ref_tau): np.max(np.abs(out[net_tau] - refs[ref_tau]))
           for net_tau in nets for ref_tau in nets}
    # each net follows the flow from its own tau at first order, and misses the other's
    assert err[0.0, 0.0] < 0.03 and err[0.7, 0.7] < 0.03
    assert err[0.0, 0.7] > 0.05 and err[0.7, 0.0] > 0.05


@pytest.mark.parametrize("field, T, n_steps, box, maxulp", COMPILED_FIELDS, ids=COMPILED_IDS)
def test_compiled_net_batch_rows_match_point_calls(field, T, n_steps, box, maxulp):
    net = compile_flow(field, 0.0, T, n_steps, box).net
    pts = sample_points(box, 37, 21, exclude=field.singular)
    for inverse in (False, True):
        rows = np.array([net_apply_batch(net, p, inverse=inverse) for p in pts])
        np.testing.assert_array_max_ulp(net_apply_batch(net, pts, inverse=inverse), rows, maxulp=maxulp)
    for layer in net.layers[:4]:
        rows = np.array([layer_apply_batch(layer, p, inverse=True) for p in pts])
        np.testing.assert_array_max_ulp(layer_apply_batch(layer, pts, inverse=True), rows, maxulp=maxulp)


def test_a_net_holding_a_compiled_flow_twice_saves_two_entries(tmp_path):
    flow = compile_flow(make_field("harmonic2d"), 0.0, 1.0, 3, BOXH).net
    twice = MPNet(2, flow.layers + flow.layers)
    save_net(twice, tmp_path / "model.json")
    data = (tmp_path / "model.json").read_bytes()
    doc = json.loads(data)
    assert [layer["kind"] for layer in doc["layers"]] == ["compiled", "compiled"]
    assert doc["layers"][0] == doc["layers"][1] == json.loads(serialize(flow))["layers"][0]
    restored = load_net(tmp_path / "model.json")
    assert restored.n_layers == 12 and serialize(restored) == data
    pts = sample_points(BOXH, 5, 3)
    assert np.array_equal(net_apply_batch(restored, pts), net_apply_batch(twice, pts))


def test_a_net_holding_part_of_a_compiled_flow_cannot_be_saved():
    flow = compile_flow(make_field("lorentz4d"), 0.0, 0.2, 2, BOX4).net  # 12 layers
    other = shear_layer(4, 1, fixed_shift("constant", [0.5], 3, 1))
    copied = [replace(layer) for layer in flow.layers]  # equal, but not the layers compile built
    for layers, first in (((other,) + flow.layers[1:], 1), (flow.layers[:11], 0),
                          ((other,) + flow.layers + flow.layers[6:], 13),
                          (tuple(copied), 0), (flow.layers[::-1], 0)):
        with pytest.raises(ParseError, match=rf"^layers\[{first}\] starts only part of a compiled flow"):
            serialize(MPNet(4, layers))
    shears = shear_pair(decompose(make_field("harmonic2d"), BOXH).pairs[0], 0.0, 0.1)
    with pytest.raises(ParseError, match="cannot serialize shift of type PairShear"):
        serialize(MPNet(2, shears))  # built outside compile_flow: no recipe


def test_backward_through_a_compiled_shear_names_the_shift():
    layer = compile_flow(make_field("lorentz4d"), 0.0, 0.2, 1, BOX4).net.layers[2]
    x = sample_points(BOX4, 3, 5, exclude=make_field("lorentz4d").singular)
    with pytest.raises(UnsupportedError, match=r"shift <pair shear on coordinate 2 at tau=0.0> "
                                               "has no analytic Jacobian"):
        layer_backward_batch(layer, x, None, np.ones((3, 4)))


def test_compile_rejects_more_layers_than_the_cap_before_building_any(monkeypatch):
    def no_decompose(*args, **kwargs):
        raise AssertionError("decompose called")

    monkeypatch.setattr(compiler, "decompose", no_decompose)
    field = make_field("lorentz4d")
    n_steps = compiler.MAX_LAYERS // 6 + 1
    with pytest.raises(ConfigError, match=rf"n_steps {n_steps} would build {6 * n_steps} layers, "
                                          rf"more than {compiler.MAX_LAYERS}"):
        compile_flow(field, 0.0, 0.2, n_steps, BOX4)
    with pytest.raises(ConfigError, match="n_steps 1000000000 would build 6000000000 layers"):
        compile_flow(field, 0.0, 0.2, 10**9, BOX4)


def test_check_finite_names_first_nonfinite_point(monkeypatch):
    install_power_shift(monkeypatch, "cube", 3)
    cube = fixed_shift("cube", [], 1, 1)
    net = MPNet(2, (upper_layer(2, 2, cube), lower_layer(2, 2, cube)) * 4)
    box = (np.full(2, -1.1), np.full(2, 1.1))
    field = make_field("harmonic2d")
    pts = sample_points(box, 8, 0xC0DE)
    with np.errstate(all="ignore"):
        finite = [bool(np.all(np.isfinite(net_forward(net, p)))) for p in pts]
        first_bad = pts[finite.index(False)]
        with pytest.raises(NumericError, match=re.escape(str(first_bad.tolist()))):
            _check_finite(net, box, field, 8)
    assert finite[0] and not all(finite)
