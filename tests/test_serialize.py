import enum
import hashlib
import json
import re
import sys
from collections import OrderedDict, namedtuple

import numpy as np
import pytest

from mpflow.coupling import MPNet, lower_layer, net_forward
from mpflow.errors import ParseError
from mpflow.mlp import Mlp, mlp_init
from mpflow.rng import Xoshiro256
from mpflow.serialize import _float_list, deserialize, dump_json, fmt17, net_to_doc, serialize
from mpflow.shifts import MlpShift, fixed_shift
from mpflow.training import TrainConfig, build_training_net

from test_coupling import random_net


def test_fmt17_roundtrips_doubles():
    rng = Xoshiro256(0)
    for _ in range(200):
        x = rng.uniform(-1e6, 1e6) * 10 ** (rng.next_u64() % 20 - 10)
        assert float(fmt17(x)) == x
    assert float(fmt17(0.1)) == 0.1


def test_serialize_idempotent_bytes():
    net = random_net(4, 6, seed=11)
    data = serialize(net)
    again = serialize(deserialize(data))
    assert data == again


def test_a_reloaded_fixed_shift_matches_the_net_after_the_caller_edits_its_params():
    p = np.array([2.0])
    net = MPNet(2, (lower_layer(2, 2, fixed_shift("linear", p, 1, 1)),))
    p[0] = 5.0
    x = np.array([1.0, 0.0])
    assert net_forward(net, x).tolist() == net_forward(deserialize(serialize(net)), x).tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        net.layers[0].shift.params[0] = 5.0  # read-only, so the params and the function cannot part


def test_empty_net_document():
    net = MPNet(3, ())
    doc = json.loads(serialize(net))
    assert doc == {"dim": 3, "layers": []}
    restored = deserialize(serialize(net))
    assert restored.dim == 3 and restored.n_layers == 0


def test_roundtrip_preserves_outputs_bitwise():
    net = random_net(3, 5, seed=23)
    restored = deserialize(serialize(net))
    for seed in range(10):
        x = Xoshiro256(seed).uniform_array(3, -2, 2)
        assert np.array_equal(net_forward(net, x), net_forward(restored, x))


def test_fixed_shift_roundtrip():
    from mpflow.coupling import lower_layer, shear_layer, upper_layer

    net = MPNet(
        4,
        (
            upper_layer(4, 2, fixed_shift("constant", [0.5], 3, 1)),
            lower_layer(4, 3, fixed_shift("linear", np.arange(4.0), 2, 2)),
            shear_layer(4, 2, fixed_shift("scaled_sigmoid", [1.5, -0.2, 0.1, 0.2, 0.3], 3, 1)),
        ),
    )
    restored = deserialize(serialize(net))
    x = np.array([0.1, -0.4, 0.9, 2.0])
    assert np.array_equal(net_forward(net, x), net_forward(restored, x))
    assert serialize(restored) == serialize(net)


def test_shift_dim_mismatch_names_field():
    # Upper layer with s=3 needs shift output dim 2; hand a dim-1 output MLP
    doc = {
        "dim": 3,
        "layers": [
            {
                "kind": "upper",
                "s": 3,
                "shift": {
                    "type": "mlp",
                    "dims": [1, 2, 1],
                    "activation": "sigmoid",
                    "weights": [[0.1, 0.2], [0.3, 0.4]],
                    "biases": [[0.0, 0.0], [0.0]],
                },
            }
        ],
    }
    with pytest.raises(ParseError) as err:
        deserialize(json.dumps(doc))
    assert "layers[0].shift" in str(err.value)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ParseError):
        deserialize(json.dumps({"dim": 2, "layers": [], "extra": 1}))


MLP_LAYER = net_to_doc(random_net(2, 1, seed=1))["layers"][0]


@pytest.mark.parametrize(
    "layer, message",
    [
        ({"kind": "upper", "s": 2, "i": 7}, "unknown key layers[0].i"),
        ({"kind": "shear", "i": 1, "foo": 1}, "unknown key layers[0].foo"),
        ({"kind": "shear", "i": 1, "shift": {"type": "fixed", "id": "constant", "params": [0.0],
                                           "bar": 1}}, "unknown key layers[0].shift.bar"),
        (dict(MLP_LAYER, shift=dict(MLP_LAYER["shift"], bar=1)), "unknown key layers[0].shift.bar"),
    ],
    ids=["upper-i", "layer-foo", "fixed-shift-bar", "mlp-shift-bar"],
)
def test_unknown_layer_and_shift_keys_rejected(layer, message):
    layer = dict({"shift": {"type": "fixed", "id": "constant", "params": [0.0]}}, **layer)
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        deserialize(json.dumps({"dim": 2, "layers": [layer]}))


def test_bad_kind_and_missing_fields():
    with pytest.raises(ParseError):
        deserialize(json.dumps({"dim": 2, "layers": [{"kind": "diag", "shift": {}}]}))
    with pytest.raises(ParseError):
        deserialize(json.dumps({"dim": 2, "layers": [{"kind": "upper"}]}))
    with pytest.raises(ParseError):
        deserialize(json.dumps({"layers": []}))


@pytest.mark.parametrize(
    "kind, key, pos",
    [("upper", "s", 1), ("lower", "s", 4), ("shear", "i", 0), ("shear", "i", 4)],
)
def test_out_of_range_split_or_target_names_the_field(kind, key, pos):
    shift = {"type": "fixed", "id": "constant", "params": [0.0]}
    doc = {"dim": 3, "layers": [{"kind": kind, key: pos, "shift": shift}]}
    with pytest.raises(ParseError, match=rf"^layers\[0\]\.{key}: "):
        deserialize(json.dumps(doc))


def test_bad_kind_is_reported_as_the_kind():
    with pytest.raises(ParseError, match=r"^layers\[0\]: unknown layer kind 'diag'$"):
        deserialize(json.dumps({"dim": 3, "layers": [{"kind": "diag"}]}))


def test_weight_count_validation():
    doc = {
        "dim": 2,
        "layers": [
            {
                "kind": "upper",
                "s": 2,
                "shift": {
                    "type": "mlp",
                    "dims": [1, 2, 1],
                    "activation": "sigmoid",
                    "weights": [[0.1, 0.2, 0.9], [0.3, 0.4]],  # first layer has 3, needs 2
                    "biases": [[0.0, 0.0], [0.0]],
                },
            }
        ],
    }
    with pytest.raises(ParseError) as err:
        deserialize(json.dumps(doc))
    assert "weights[0]" in str(err.value)


def test_unknown_fixed_id_rejected():
    doc = {
        "dim": 2,
        "layers": [
            {"kind": "upper", "s": 2, "shift": {"type": "fixed", "id": "nope", "params": []}}
        ],
    }
    with pytest.raises(Exception) as err:
        deserialize(json.dumps(doc))
    assert "nope" in str(err.value)


def test_dump_json_17_digits():
    text = dump_json({"v": 1.0 / 3.0})
    assert text == '{"v": 0.33333333333333331}'


class _Color(enum.IntEnum):
    RED = 3


class _Tag(str):
    pass


_Point = namedtuple("_Point", "x y")


# numpy scalars and subclasses write as their base type; texts taken before
# the writer became one isinstance chain
@pytest.mark.parametrize(
    "obj, text",
    [
        (1.0, "1"),
        (1.0 / 3.0, "0.33333333333333331"),
        (-2.5e-300, "-2.5e-300"),
        (7, "7"),
        (-12, "-12"),
        (np.float64(0.1), "0.10000000000000001"),
        (np.int64(-3), "-3"),
        (True, "true"),
        (False, "false"),
        (None, "null"),
        ('say "hi"\nnaïve π', '"say \\"hi\\"\\nna\\u00efve \\u03c0"'),
        ([1, [2.0, []], (3, "a")], '[1, [2, []], [3, "a"]]'),
        ((), "[]"),
        ({"b": {"c": [None]}, "a": (0.5,)}, '{"b": {"c": [null]}, "a": [0.5]}'),
        ({}, "{}"),
        (np.float32(0.1), "0.10000000149011612"),
        (np.float16(0.1), "0.0999755859375"),
        (np.longdouble(0.1), "0.10000000000000001"),
        (np.int32(-7), "-7"),
        (np.uint8(200), "200"),
        (_Color.RED, "3"),
        (OrderedDict([("b", 1.5), ("a", [_Color.RED])]), '{"b": 1.5, "a": [3]}'),
        (_Point(1, 2.5), "[1, 2.5]"),
        (_Tag('q"x'), '"q\\"x"'),
        ({_Tag("k"): 1}, '{"k": 1}'),
    ],
    ids=["float-int-valued", "float-17", "float-tiny", "int", "int-neg", "np-float64",
         "np-int64", "true", "false", "none", "str", "list", "empty-tuple", "dict",
         "empty-dict", "np-float32", "np-float16", "np-longdouble", "np-int32", "np-uint8",
         "int-enum", "ordered-dict", "namedtuple", "str-subclass", "str-subclass-key"],
)
def test_dump_json_text_per_kind(obj, text):
    assert dump_json(obj) == text
    assert json.loads(text) == json.loads(json.dumps(obj, default=float))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_dump_json_rejects_non_finite_naming_the_value(value):
    with pytest.raises(ParseError, match="non-finite number .*(nan|inf)"):
        dump_json({"x": [1.0, value]})


@pytest.mark.parametrize("obj, name", [
    ({1, 2}, "set"), (np.bool_(True), "bool"), ({"x": object()}, "object"), (b"x", "bytes"),
    ([1.0, 1j], "complex"),
], ids=["set", "np-bool", "object", "bytes", "complex"])
def test_dump_json_rejects_unsupported_types(obj, name):
    with pytest.raises(ParseError, match=f"^cannot serialize object of type {name}$"):
        dump_json(obj)


def test_dump_json_rejects_a_key_that_is_not_a_string():
    # json.loads could not read {1: 2} back
    with pytest.raises(ParseError, match="key of type int"):
        dump_json({1: 2.0})


@pytest.mark.parametrize("key, name", [(True, "bool"), (None, "NoneType"), (1.5, "float")])
def test_dump_json_names_the_type_of_a_key_that_is_not_a_string(key, name):
    with pytest.raises(ParseError, match=f"^cannot serialize object key of type {name}$"):
        dump_json({key: 2.0})


def test_a_training_net_keeps_its_bytes():
    # sha256 taken before the writer became one isinstance chain
    net = build_training_net(3, TrainConfig(n_layers=2, width=4, seed=11))
    data = serialize(net)
    assert hashlib.sha256(data).hexdigest() == (
        "c93e2dd3002ce30cc20f3e82bfd8160efcd67f2d965b2f8dbb89816d99b868f5")
    assert serialize(deserialize(data)) == data


def test_negative_zero_survives_a_round_trip():
    from mpflow.compiler import shear_to_couplings
    from mpflow.coupling import shear_layer

    assert dump_json([-0.0, 0.0, np.float64(-0.0)]) == "[-0.0, 0, -0.0]"
    mlp = mlp_init((2, 3, 1), "sigmoid", 5)
    mlp = Mlp(mlp.layer_dims, mlp.weights, (mlp.biases[0], np.zeros(1)), "sigmoid")
    net = shear_to_couplings(shear_layer(3, 1, MlpShift(mlp)), s=3)
    data = serialize(net)
    assert b"-0.0" in data
    restored = deserialize(data)
    assert serialize(restored) == data
    for layer, back in zip(net.layers, restored.layers):
        assert np.array_equal(np.signbit(layer.shift.params), np.signbit(back.shift.params))


def test_mlp_shift_weights_serialized_row_major():
    from mpflow.coupling import upper_layer

    mlp = mlp_init((2, 3, 1), "sigmoid", 4)
    doc = net_to_doc(MPNet(3, (upper_layer(3, 2, MlpShift(mlp)),)))
    w0 = doc["layers"][0]["shift"]["weights"][0]
    assert w0 == mlp.weights[0].reshape(-1).tolist()


def _float_list_reference(val, where):
    """The reader's per-item number loop, kept as the reference."""
    out = []
    for idx, v in enumerate(val):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ParseError(f"{where}[{idx}] must be a number")
        if not abs(v) <= sys.float_info.max:
            raise ParseError(f"{where}[{idx}] must be a finite number")
        out.append(float(v))
    return np.array(out)


@pytest.mark.parametrize("val", [
    [],
    [1, 32, 0.5, -0.0, 0, 2**60 + 1, 2**53 + 1, -(2**63) - 1, 2**64 + 3, 2**100, 10**308],
    [1.7976931348623157e308, 5e-324, -5e-324, 1e-310, 0.1, -7],
    [0.25, np.float64(-0.0), 3],  # a float subclass
    json.loads("[1, 32, -0.0, 1e-5, 12345678901234567890123, 0.30000000000000004]"),
], ids=["empty", "ints-and-floats", "extremes", "subclass", "parsed"])
def test_float_list_has_the_bits_of_the_per_item_loop(val):
    got = _float_list(val, "w")
    want = _float_list_reference(val, "w")
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("val, message", [
    ([1.0, 10**400], "w[1] must be a finite number"),
    ([-(10**400), 0.5], "w[0] must be a finite number"),
    ([0.5, True], "w[1] must be a number"),
    ([1, 2, "3"], "w[2] must be a number"),
    ([None], "w[0] must be a number"),
    ([10**400, False], "w[0] must be a finite number"),
    ([0.5, float("nan")], "w[1] must be a finite number"),
    ([float("-inf"), "x"], "w[0] must be a finite number"),
], ids=["int-beyond-range", "int-below-range", "bool", "str", "none", "int-beyond-range-first", "nan",
        "inf-first"])
def test_float_list_names_the_first_bad_entry(val, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        _float_list_reference(val, "w")
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        _float_list(val, "w")
