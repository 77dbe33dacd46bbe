"""Model JSON serialization.

Document shape:

    {"dim": D,
     "layers": [{"kind": "upper"|"lower"|"shear", "s": int?, "i": int?,
                 "shift": {"type": "mlp", "dims": [...], "activation": "...",
                           "weights": [flat row-major per layer],
                           "biases": [per layer]}
                        | {"type": "fixed", "id": "...", "params": [...]}}
              | {"kind": "compiled", "field": {"id": "...", "dim": D, "params": [...]},
                 "tau": x, "T": x, "n_steps": int, "box": {"lo": [...], "hi": [...]},
                 "quad_nodes": int, "tol": x}]}

A "compiled" entry is a `compiler.FlowRecipe`, written wherever the next
layers are, by identity, one recipe's layers (a part of them is a ParseError),
and expanded in place on load by `compile_flow` (n_check=0), whose errors keep
their class and gain the prefix `layers[k]: `.

Every float is written with 17 significant digits, which round-trips IEEE
doubles exactly, so serialize(deserialize(serialize(net))) is byte-identical.
A negative zero is written as -0.0: the shortest form, -0, would read back as
the integer 0 and lose its sign.

`dump_json` dispatches on the exact type of each value through one table
(float, int, str, bool, None, dict, list, tuple); numpy scalars and
subclasses of those types take an isinstance fallback, and anything else is
a ParseError.
"""

from __future__ import annotations

import json
import operator
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .compiler import compile_flow
from .coupling import LOWER, SHEAR, UPPER, MPNet, lower_layer, shear_layer, shift_dims, upper_layer
from .dynamics import field_from_params, fmt17
from .errors import ConfigError, NumericError, ParseError, UnsupportedError
from .mlp import ACTIVATIONS, Mlp
from .shifts import FixedShift, MlpShift, fixed_shift


def dump_json(obj) -> str:
    """JSON text with floats at 17 significant digits and stable key order."""
    dump = _DUMP.get(type(obj))
    return dump(obj) if dump is not None else _dump_subtype(obj)


def _dump_dict(obj) -> str:
    items = ", ".join([f"{_dump_key(k)}: {dump_json(v)}" for k, v in obj.items()])
    return "{" + items + "}"


def _dump_key(key) -> str:
    if not isinstance(key, str):
        raise ParseError(f"cannot serialize object key of type {type(key).__name__}")
    return encode_basestring_ascii(key)


def _dump_seq(obj) -> str:
    return "[" + ", ".join(map(dump_json, obj)) + "]"


def _dump_subtype(obj) -> str:
    # numpy scalars and subclasses of the table's types; bool and None cannot
    # be subclassed, and np.bool_ is not an int
    if isinstance(obj, dict):
        return _dump_dict(obj)
    if isinstance(obj, (list, tuple)):
        return _dump_seq(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt17(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    raise ParseError(f"cannot serialize object of type {type(obj).__name__}")


# str -> encode_basestring_ascii is what json.dumps runs for a str
_DUMP = {
    float: fmt17,
    int: str,
    str: encode_basestring_ascii,
    bool: json.dumps,
    type(None): json.dumps,
    dict: _dump_dict,
    list: _dump_seq,
    tuple: _dump_seq,
}


def _shift_doc(shift):
    if isinstance(shift, MlpShift):
        return {
            "type": "mlp",
            "dims": list(shift.mlp.layer_dims),
            "activation": shift.mlp.activation,
            "weights": [w.reshape(-1).tolist() for w in shift.mlp.weights],
            "biases": [b.tolist() for b in shift.mlp.biases],
        }
    if isinstance(shift, FixedShift):
        return {"type": "fixed", "id": shift.id, "params": shift.params.tolist()}
    raise ParseError(f"cannot serialize shift of type {type(shift).__name__}")


def _layer_doc(layer):
    key, pos = ("i", layer.i) if layer.kind == SHEAR else ("s", layer.s)
    return {"kind": layer.kind, key: pos, "shift": _shift_doc(layer.shift)}


def _recipe_doc(recipe):
    config, field = recipe.config, recipe.config.field
    return {"kind": "compiled", "field": {"id": field.fid, "dim": field.dim, "params": list(field.params)},
            "tau": recipe.tau, "T": recipe.T, "n_steps": recipe.n_steps,
            "box": {"lo": list(config.box_lo), "hi": list(config.box_hi)},
            "quad_nodes": config.quad_nodes, "tol": config.tol}


def net_to_doc(net: MPNet) -> dict:
    layers, idx = [], 0
    while idx < len(net.layers):
        recipe = getattr(net.layers[idx].shift, "recipe", None)  # set on compiled shears
        if recipe is None:
            layers.append(_layer_doc(net.layers[idx]))
            idx += 1
            continue
        run = net.layers[idx : idx + len(recipe.layers)]
        if len(run) != len(recipe.layers) or not all(map(operator.is_, run, recipe.layers)):
            raise ParseError(
                f"layers[{idx}] starts only part of a compiled flow; a compiled flow is "
                "saved whole, as the layers compile_flow built, in their order"
            )
        layers.append(_recipe_doc(recipe))
        idx += len(run)
    return {"dim": net.dim, "layers": layers}


def serialize(net: MPNet) -> bytes:
    return dump_json(net_to_doc(net)).encode("utf-8")


def _reject_unknown(doc, known, prefix):
    unknown = doc.keys() - known
    if unknown:
        raise ParseError(f"unknown field {prefix}{min(unknown)}")


def _expect(doc, key, types, where):
    if key not in doc:
        raise ParseError(f"missing field {where}.{key}")
    val = doc[key]
    if not isinstance(val, types) or isinstance(val, bool):
        raise ParseError(f"field {where}.{key} has wrong type {type(val).__name__}")
    return val


_NUMBER_TYPES = {int, float}


def _float_list(val, where):
    if not isinstance(val, list):
        raise ParseError(f"field {where} must be a list of numbers")
    if set(map(type, val)) <= _NUMBER_TYPES:  # exact types: a bool is an int subclass
        try:
            return np.array(val, float)  # float(v) per entry, as the loop below
        except OverflowError:
            pass  # an int beyond float range: the loop names it
    out = []
    for idx, v in enumerate(val):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ParseError(f"field {where}[{idx}] is not a number")
        if isinstance(v, int) and not abs(v) <= sys.float_info.max:
            raise ParseError(f"field {where}[{idx}] is beyond float range")
        out.append(float(v))
    return np.array(out)


def _parse_mlp_shift(doc, where) -> MlpShift:
    dims = _expect(doc, "dims", list, where)
    if len(dims) < 2 or any(not isinstance(d, int) or d < 1 for d in dims):
        raise ParseError(f"field {where}.dims must be >= 2 positive integers")
    activation = _expect(doc, "activation", str, where)
    if activation not in ACTIVATIONS:
        raise ParseError(f"field {where}.activation must be one of {ACTIVATIONS}")
    raw_w = _expect(doc, "weights", list, where)
    raw_b = _expect(doc, "biases", list, where)
    n_layers = len(dims) - 1
    if len(raw_w) != n_layers or len(raw_b) != n_layers:
        raise ParseError(f"field {where}.weights/biases must have {n_layers} entries")
    weights, biases = [], []
    for l in range(n_layers):
        fan_in, fan_out = dims[l], dims[l + 1]
        w = _float_list(raw_w[l], f"{where}.weights[{l}]")
        if w.size != fan_out * fan_in:
            raise ParseError(f"field {where}.weights[{l}] must have {fan_out * fan_in} entries")
        b = _float_list(raw_b[l], f"{where}.biases[{l}]")
        if b.size != fan_out:
            raise ParseError(f"field {where}.biases[{l}] must have {fan_out} entries")
        weights.append(w.reshape(fan_out, fan_in))
        biases.append(b)
    if not all(np.all(np.isfinite(w)) for w in weights) or not all(
        np.all(np.isfinite(b)) for b in biases
    ):
        raise ParseError(f"field {where} contains non-finite parameters")
    return MlpShift(Mlp(tuple(dims), tuple(weights), tuple(biases), activation))


# the keys of each shift type, as _shift_doc writes them
_SHIFT_KEYS = {"mlp": ("type", "dims", "activation", "weights", "biases"),
               "fixed": ("type", "id", "params")}


def _parse_shift(doc, where, in_dim, out_dim):
    if not isinstance(doc, dict):
        raise ParseError(f"field {where} must be an object")
    kind = _expect(doc, "type", str, where)
    if kind not in _SHIFT_KEYS:
        raise ParseError(f"field {where}.type must be 'mlp' or 'fixed'")
    _reject_unknown(doc, _SHIFT_KEYS[kind], f"{where}.")
    if kind == "mlp":
        shift = _parse_mlp_shift(doc, where)
        if shift.in_dim != in_dim or shift.out_dim != out_dim:
            raise ParseError(
                f"field {where}: shift maps dim {shift.in_dim} -> {shift.out_dim}, "
                f"layer requires {in_dim} -> {out_dim}"
            )
        return shift
    return fixed_shift(_expect(doc, "id", str, where), _finite_list(doc, "params", where), in_dim, out_dim)


def _finite(doc, key, where):
    val = _expect(doc, key, (int, float), where)
    if not abs(val) <= sys.float_info.max:  # a nan fails too; an int may exceed floats
        raise ParseError(f"field {where}.{key} must be a finite number")
    return float(val)


def _finite_list(doc, key, where, size=None):
    vals = _float_list(_expect(doc, key, list, where), f"{where}.{key}")
    finite = np.isfinite(vals)
    if not finite.all():
        raise ParseError(f"field {where}.{key}[{finite.argmin()}] must be a finite number")
    if size is not None and vals.size != size:
        raise ParseError(f"field {where}.{key} must have {size} entries")
    return vals


_RECIPE_KEYS = ("kind", "field", "tau", "T", "n_steps", "box", "quad_nodes", "tol")


def _expand_recipe(entry, where, dim):
    """The layers of a "compiled" entry, built by compile_flow."""
    _reject_unknown(entry, _RECIPE_KEYS, f"{where}.")
    field_doc = _expect(entry, "field", dict, where)
    _reject_unknown(field_doc, ("id", "dim", "params"), f"{where}.field.")
    fid = _expect(field_doc, "id", str, f"{where}.field")
    if _expect(field_doc, "dim", int, f"{where}.field") != dim:
        raise ParseError(f"field {where}.field.dim must be the model's dim {dim}")
    params = _finite_list(field_doc, "params", f"{where}.field")
    tau, T = _finite(entry, "tau", where), _finite(entry, "T", where)
    n_steps = _expect(entry, "n_steps", int, where)
    box_doc = _expect(entry, "box", dict, where)
    _reject_unknown(box_doc, ("lo", "hi"), f"{where}.box.")
    box = [_finite_list(box_doc, key, f"{where}.box", dim) for key in ("lo", "hi")]
    quad_nodes = _expect(entry, "quad_nodes", int, where)
    tol = _finite(entry, "tol", where)
    try:
        field = field_from_params(fid, dim, params.tolist())
        return compile_flow(field, tau, T, n_steps, box, quad_nodes, tol, n_check=0).net.layers
    except (ConfigError, NumericError, UnsupportedError) as exc:
        exc.args = (f"{where}: {exc}",)  # the same class, exit code and attributes
        raise


# the constructors store the module's kind strings, not one parsed copy per layer
_CONSTRUCTORS = {UPPER: upper_layer, LOWER: lower_layer, SHEAR: shear_layer}


def net_from_doc(doc) -> MPNet:
    if not isinstance(doc, dict):
        raise ParseError("model document must be an object")
    _reject_unknown(doc, ("dim", "layers"), "")
    dim = _expect(doc, "dim", int, "model")
    if dim < 2:
        raise ParseError("field model.dim must be >= 2")
    raw_layers = _expect(doc, "layers", list, "model")
    layers = []
    for idx, entry in enumerate(raw_layers):
        where = f"layers[{idx}]"
        if not isinstance(entry, dict):
            raise ParseError(f"field {where} must be an object")
        kind = _expect(entry, "kind", str, where)
        if kind == "compiled":
            layers.extend(_expand_recipe(entry, where, dim))
            continue
        if kind not in _CONSTRUCTORS:
            raise ParseError(f"field {where}.kind must be 'upper', 'lower', 'shear' or 'compiled'")
        key = "i" if kind == SHEAR else "s"
        pos = _expect(entry, key, int, where)
        try:
            in_dim, out_dim = shift_dims(kind, dim, pos)
        except ConfigError as exc:
            raise ParseError(f"field {where}.{key}: {exc}") from None
        _reject_unknown(entry, ("kind", key, "shift"), f"{where}.")
        if "shift" not in entry:
            raise ParseError(f"missing field {where}.shift")
        shift = _parse_shift(entry["shift"], f"{where}.shift", in_dim, out_dim)
        layers.append(_CONSTRUCTORS[kind](dim, pos, shift))
    return MPNet(dim, tuple(layers))


def deserialize(data) -> MPNet:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return net_from_doc(doc)


def save_net(net: MPNet, path):
    with open(path, "wb") as fh:
        fh.write(serialize(net))


def load_net(path) -> MPNet:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
