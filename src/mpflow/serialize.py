"""Model JSON serialization, and the key-table reader of every JSON document
the program reads: model files and CLI configs.

Document shape:

    {"dim": D,
     "layers": [{"kind": "upper"|"lower"|"shear", "s": int?, "i": int?,
                 "shift": {"type": "mlp", "dims": [...], "activation": "...",
                           "weights": [flat row-major per layer],
                           "biases": [per layer]}
                        | {"type": "fixed", "id": "...", "params": [...]}}
              | {"kind": "compiled", "field": {"id": "...", <field keys>},
                 "tau": x, "T": x, "n_steps": int, "box": {"lo": [...], "hi": [...]},
                 "quad_nodes": int, "tol": x}]}

A "compiled" entry is a `compiler.FlowRecipe`, its field written as the
field's config, wherever the next layers are, by identity, one recipe's layers
(a part of them is a ParseError). It holds every key of `RECIPE_KEYS`, and a
load expands it in place by `compile_flow` (n_check=0), whose errors keep
their class and gain the prefix `layers[k]: `.

Every float is written with 17 significant digits, which round-trips IEEE
doubles exactly, so serialize(deserialize(serialize(net))) is byte-identical.
A negative zero is written as -0.0: the shortest form, -0, would read back as
the integer 0 and lose its sign.

`dump_json` is one chain of isinstance checks (floats and numpy floats via
`fmt17`, lists and tuples, dicts with str keys, bool and None before ints and
numpy ints, str), so a subclass writes as its base type; anything else,
np.bool_ included, is a ParseError.

The reader checks each JSON object against a key table, {key: (JSON type,
default or REQUIRED, optional value check)}: a fault is a ParseError naming
the key's path, such as `layers[0].box.lo[1]`.
"""

from __future__ import annotations

import json
import operator
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .compiler import compile_flow
from .coupling import LOWER, SHEAR, UPPER, MPNet, lower_layer, shear_layer, shift_dims, upper_layer
from .dynamics import FIELDS, fmt17, make_field
from .errors import ConfigError, NumericError, ParseError, UnsupportedError
from .mlp import ACTIVATIONS, Mlp
from .shifts import FixedShift, MlpShift, fixed_shift
from .verify import as_box

def dump_json(obj) -> str:
    """JSON text with floats at 17 significant digits and stable key order."""
    if isinstance(obj, (float, np.floating)):
        return fmt17(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(dump_json, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join([f"{_dump_key(k)}: {dump_json(v)}" for k, v in obj.items()]) + "}"
    if obj is None or isinstance(obj, bool):  # before int: a bool is an int; np.bool_ is neither
        return "null" if obj is None else ("true" if obj else "false")
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)  # what json.dumps runs for a str
    raise ParseError(f"cannot serialize object of type {type(obj).__name__}")


def _dump_key(key) -> str:
    if not isinstance(key, str):
        raise ParseError(f"cannot serialize object key of type {type(key).__name__}")
    return encode_basestring_ascii(key)


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
    keys = {key: field.dim if key == "dim" else field.params for key in FIELDS[field.fid].config}
    return {"kind": "compiled", "field": {"id": field.fid, **keys},
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


REQUIRED = object()  # the default of a key that the document must give


def _fail(msg):
    raise ParseError(msg)


def _read_keys(doc, where, keys):
    """The JSON object `doc` read against its key table {key: (type, default, check?)}.

    Faults are reported in this order: a non-object, the first unknown key,
    each required key that is missing or of the wrong type, each optional key
    of the wrong type, then each given value whose check fails, in table order
    (a table lists its keys in the order their values are checked). A check
    (value, where, read) -> value returns the value to use; `read` holds the
    values read so far, so a check may compare with a key checked before it.
    """
    if not isinstance(doc, dict):
        _fail(f"{where} must be a JSON object")
    for key in doc:
        if key not in keys:
            _fail(f"unknown key {where}.{key}")
    out = {}
    for key, (typ, default, *_) in sorted(keys.items(), key=lambda kv: kv[1][1] is not REQUIRED):
        if key in doc:
            out[key] = _coerce(doc[key], typ, f"{where}.{key}")
        elif default is REQUIRED:
            _fail(f"missing key {where}.{key}")
        else:
            out[key] = default
    for key, (_, _, *check) in keys.items():
        if check and key in doc:
            out[key] = check[0](out[key], f"{where}.{key}", out)
    return out


def _read_tagged(doc, where, tag, tables, what):
    """`doc` read against the key table that the string at its key `tag` picks
    from `tables`; a string with no table is `<where>: unknown <what> ...`."""
    if not isinstance(doc, dict):
        _fail(f"{where} must be a JSON object")
    if tag not in doc:
        _fail(f"missing key {where}.{tag}")
    val = _coerce(doc[tag], str, f"{where}.{tag}")
    if val not in tables:
        _fail(f"{where}: unknown {what} {val!r}")
    return _read_keys(doc, where, tables[val])


def _coerce(val, typ, where):
    if typ is np.ndarray:
        return _numbers(_coerce(val, list, where), where)
    if typ is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            _fail(f"{where} must be a number")
        # json.loads accepts NaN, Infinity and integers beyond float range
        if not abs(val) <= sys.float_info.max:
            _fail(f"{where} must be a finite number")
        return float(val)
    if typ is int:
        if isinstance(val, bool) or not isinstance(val, int):
            _fail(f"{where} must be an integer")
        return val
    if not isinstance(val, typ) or (typ is not bool and isinstance(val, bool)):
        _fail(f"{where} must be of type {typ.__name__}")
    return val


def _at(where, build, *args, **kwargs):
    """build(...), its error prefixed with `where: `: a ConfigError becomes a
    ParseError, a NumericError or UnsupportedError keeps its class."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        raise ParseError(f"{where}: {exc}") from None
    except (NumericError, UnsupportedError) as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def _at_least(low):
    """Check that an integer is at least `low`."""

    def check(val, where, read):
        if val < low:
            _fail(f"{where} must be >= {low}, got {val}")
        return val

    return check


_count = _at_least(1)


def _float_list(val, where):
    """A list of finite numbers as a 1-d array, in one np.array call; entry by
    entry only to name the first entry that is not a finite number."""
    if set(map(type, val)) <= {int, float}:  # exact types: a bool is an int subclass
        try:
            out = np.array(val, float)  # float(v) per entry, as _coerce
        except OverflowError:
            out = None  # an int beyond float range: the loop names it
        if out is not None and np.isfinite(out).all():
            return out
    return np.array([_coerce(v, float, f"{where}[{i}]") for i, v in enumerate(val)])


def _vector(val, where, read):
    if not val:
        _fail(f"{where} must be a non-empty list of numbers")
    return _float_list(val, where)


def _ints(val, where, read):
    return [_coerce(v, int, f"{where}[{i}]") for i, v in enumerate(val)]


def _numbers(val, where):
    """Nested lists of finite numbers as an array, naming the first bad entry
    and the first row whose shape differs from the first row's."""
    if not isinstance(val, list):
        return _coerce(val, float, where)
    rows = [_numbers(v, f"{where}[{i}]") for i, v in enumerate(val)]
    for i, row in enumerate(rows):
        if np.shape(row) != np.shape(rows[0]):
            _fail(f"{where}[{i}] must have the shape of {where}[0], "
                  f"{np.shape(rows[0])}, got {np.shape(row)}")
    return np.array(rows)


def _field_from_config(doc, where="field"):
    """A field config {"id": ..., <keys>} as a VectorField (see dynamics.FIELDS);
    a fault in the params is named by the key that holds them."""
    tables = {fid: {"id": (str, REQUIRED),
                    **{key: (typ, REQUIRED, _count) if key == "dim" else (typ, REQUIRED)
                       for key, typ in spec.config.items()}}
              for fid, spec in FIELDS.items()}
    cfg = _read_tagged(doc, where, "id", tables, "field id")
    params = {key: val for key, val in cfg.items() if key not in ("id", "dim")}  # at most one
    return _at(".".join([where, *params]), make_field, cfg["id"], *params.values(), dim=cfg.get("dim"))


def _box_from_config(doc, where="box"):
    box = _read_keys(doc, where, {"lo": (list, REQUIRED, _vector), "hi": (list, REQUIRED, _vector)})
    return _at(where, as_box, (box["lo"], box["hi"]))


# the keys of a compiled flow: compile_flow's arguments in its order, which a
# model file's "compiled" entry holds; `compile` configs read them with defaults
RECIPE_KEYS = {
    "field": (dict, REQUIRED, lambda doc, where, read: _field_from_config(doc, where)),
    "tau": (float, REQUIRED), "T": (float, REQUIRED), "n_steps": (int, REQUIRED),
    "box": (dict, REQUIRED, lambda doc, where, read: _box_from_config(doc, where)),
    "quad_nodes": (int, REQUIRED, _count), "tol": (float, REQUIRED),
}


def _mlp_dims(val, where, read):
    if len(val) < 2:
        _fail(f"{where} must have at least 2 entries")
    return [_count(d, f"{where}[{i}]", read) for i, d in enumerate(_ints(val, where, read))]


def _activation(val, where, read):
    if val not in ACTIVATIONS:
        _fail(f"{where} must be one of {ACTIVATIONS}, got {val!r}")
    return val


def _per_layer(sizes):
    """Check of an MLP's weights or biases: per layer l, a list of sizes(dims)[l]
    finite numbers."""

    def check(val, where, read):
        want = sizes(read["dims"])
        if len(val) != len(want):
            _fail(f"{where} must have {len(want)} entries")
        out = []
        for l, (v, n) in enumerate(zip(val, want)):
            arr = _float_list(_coerce(v, list, f"{where}[{l}]"), f"{where}[{l}]")
            if arr.size != n:
                _fail(f"{where}[{l}] must have {n} entries")
            out.append(arr)
        return out

    return check


# the keys of each shift type, as _shift_doc writes them
_SHIFT_KEYS = {
    "mlp": {"type": (str, REQUIRED), "dims": (list, REQUIRED, _mlp_dims),
            "activation": (str, REQUIRED, _activation),
            "weights": (list, REQUIRED, _per_layer(lambda dims: [a * b for a, b in zip(dims, dims[1:])])),
            "biases": (list, REQUIRED, _per_layer(lambda dims: dims[1:]))},
    "fixed": {"type": (str, REQUIRED), "id": (str, REQUIRED),
              "params": (list, REQUIRED, lambda val, where, read: _float_list(val, where))},
}


def _read_shift(doc, where, in_dim, out_dim):
    shift = _read_tagged(doc, where, "type", _SHIFT_KEYS, "shift type")
    if shift["type"] == "fixed":
        return _at(where, fixed_shift, shift["id"], shift["params"], in_dim, out_dim)
    dims = shift["dims"]
    if (dims[0], dims[-1]) != (in_dim, out_dim):
        _fail(f"{where}: shift maps dim {dims[0]} -> {dims[-1]}, layer requires {in_dim} -> {out_dim}")
    weights = tuple(w.reshape(o, i) for w, i, o in zip(shift["weights"], dims, dims[1:]))
    return MlpShift(Mlp(tuple(dims), weights, tuple(shift["biases"]), shift["activation"]))


# the constructors store the module's kind strings, not one parsed copy per
# layer; POSITION names the key of each kind's split or target
_CONSTRUCTORS = {UPPER: upper_layer, LOWER: lower_layer, SHEAR: shear_layer}
_POSITION = {UPPER: "s", LOWER: "s", SHEAR: "i"}


def _layer_keys(kind, dim):
    """The key table of an upper, lower or shear layer of a dim-`dim` model."""
    pos = _POSITION[kind]

    def check_pos(val, where, read):
        _at(where, shift_dims, kind, dim, val)
        return val

    def read_shift(doc, where, read):
        return _read_shift(doc, where, *shift_dims(kind, dim, read[pos]))

    return {"kind": (str, REQUIRED), pos: (int, REQUIRED, check_pos), "shift": (dict, REQUIRED, read_shift)}


def net_from_doc(doc) -> MPNet:
    model = _read_keys(doc, "model", {"dim": (int, REQUIRED, _at_least(2)), "layers": (list, REQUIRED)})
    dim = model["dim"]
    tables = {kind: _layer_keys(kind, dim) for kind in _CONSTRUCTORS}
    tables["compiled"] = {"kind": (str, REQUIRED), **RECIPE_KEYS}
    layers = []
    for idx, entry in enumerate(model["layers"]):
        where = f"layers[{idx}]"
        layer = _read_tagged(entry, where, "kind", tables, "layer kind")
        kind = layer["kind"]
        if kind != "compiled":
            layers.append(_CONSTRUCTORS[kind](dim, layer[_POSITION[kind]], layer["shift"]))
            continue
        for key, size in (("field", layer["field"].dim), ("box", layer["box"][0].size)):
            if size != dim:
                _fail(f"{where}.{key} has dim {size}, the model has dim {dim}")
        args = [layer[key] for key in RECIPE_KEYS]
        layers.extend(_at(where, compile_flow, *args, n_check=0).net.layers)
    return MPNet(dim, tuple(layers))


def deserialize(data) -> MPNet:
    try:
        doc = json.loads(data)  # str, or bytes in UTF-8
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return net_from_doc(doc)


def save_net(net: MPNet, path):
    with open(path, "wb") as fh:
        fh.write(serialize(net))


def load_net(path) -> MPNet:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
