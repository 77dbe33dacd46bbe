"""Span tracing for the traced benchmark pass, installed from outside the package.

`install` wraps the public functions listed in TARGETS under every name an
`mpflow` module binds them to (so `cli.train` and `training.train` are the
same span), and the methods on their classes. Each call records one span:
name, start, end and the span that was open when it started (its parent).
Spans stay in flat arrays in memory and are summarised when the pass ends.

Self time is a span's duration minus the time its child spans cover; the
ratios below are counted from the span tree, so each is measured where the
work happens.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array


def _dense_flops(mlp, n):
    """2 * n * sum(in * out): multiply-adds of one dense pass over n rows."""
    dims = mlp.layer_dims
    return 2.0 * n * sum(a * b for a, b in zip(dims[:-1], dims[1:]))


# (module, attribute, work per call or None). The work functions feed
# mlp.achieved_gflops (dense flops) and shifts.fixed_rowcalls_per_batch_row
# (rows handed to FixedShift.apply_batch).
TARGETS = (
    ("cli", "main", None),
    ("training", "train", None),
    ("training", "rollout", None),
    ("mlp", "forward_batch", lambda mlp, x: _dense_flops(mlp, len(x))),
    ("mlp", "forward_cached", lambda mlp, x: _dense_flops(mlp, len(x))),
    ("mlp", "backward_batch", lambda mlp, cache, up: 2.0 * _dense_flops(mlp, len(up))),
    ("mlp", "adam_step", None),
    ("mlp", "mlp_init", None),
    ("mlp", "mlp_with_params", None),
    ("coupling", "layer_apply_batch", None),
    ("coupling", "layer_forward", None),
    ("coupling", "layer_backward_batch", None),
    ("coupling", "net_forward", None),
    ("coupling", "net_apply_batch", None),
    ("shifts", "FixedShift.__call__", None),
    ("shifts", "FixedShift.apply_batch", lambda self, u: float(len(u))),
    ("shifts", "MlpShift.__call__", None),
    ("shifts", "fixed_shift", None),
    ("compiler", "compile_flow", None),
    ("compiler", "shear_pair", None),
    ("pair_decomposition", "decompose", None),
    ("pair_decomposition", "build_pairs", None),
    ("pair_decomposition", "pair_eval", None),
    ("pair_decomposition", "separability_check", None),
    ("dynamics", "field_eval", None),
    ("dynamics", "rk4_flow", None),
    ("dynamics", "generate_trajectory", None),
    ("dynamics", "divergence_fd", None),
    ("dynamics", "dataset_from_csv", None),
    ("verify", "fd_jacobian_det", None),
    ("verify", "roundtrip_error", None),
    ("verify", "lp_error", None),
    ("verify", "sample_points", None),
    ("serialize", "save_net", None),
    ("serialize", "load_net", None),
    ("rng", "Xoshiro256.uniform", None),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _ in TARGETS)

# Ratio name -> (unit, what it divides by what).
RATIOS = {
    "training.mlp_forwards_per_layer_epoch": (
        "ratio", "MLP forwards under training.train per MLP layer per epoch"),
    "serialize.build_pairs_per_load": (
        "ratio", "pair_decomposition.build_pairs calls under serialize.load_net per load"),
    "pair_decomposition.field_evals_per_pair_eval": (
        "ratio", "dynamics.field_eval calls under pair_decomposition.pair_eval per pair_eval"),
    "verify.net_forwards_per_det_point": (
        "ratio", "coupling.net_forward calls under verify.fd_jacobian_det per determinant point"),
    "shifts.fixed_rowcalls_per_batch_row": (
        "ratio", "FixedShift.__call__ calls under FixedShift.apply_batch per input row"),
    "mlp.achieved_gflops": (
        "GFLOP/s", "computed dense-layer flops of mlp forward/backward per second of their self time"),
}

_MLP_FORWARDS = ("mlp.forward_batch", "mlp.forward_cached")
_MLP_KERNELS = _MLP_FORWARDS + ("mlp.backward_batch",)


class Tracer:
    """In-memory span recorder; one instance traces one benchmark pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = {}
        self._stack = [-1]

    def wrap(self, name, fn, work=None):
        """Return fn wrapped so that each call records a span called `name`."""
        nid = len(self.names)
        self.names.append(name)
        self.work[name] = 0.0
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, totals, clock = self._stack, self.work, self.clock

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            if work is not None:
                totals[name] += work(*args, **kwargs)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def arrays(self):
        """(name ids, parents, durations) as numpy arrays, in call order."""
        import numpy as np

        dur = np.frombuffer(self.end, float) - np.frombuffer(self.start, float)
        return (np.frombuffer(self.name_id, np.int32).astype(np.int64),
                np.frombuffer(self.parent, np.int32).astype(np.int64), dur)


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every target under each name an mpflow module binds it to."""
    for mod_name in {mod for mod, _, _ in targets}:
        importlib.import_module(f"mpflow.{mod_name}")
    modules = [m for n, m in list(sys.modules.items()) if n == "mpflow" or n.startswith("mpflow.")]
    for mod_name, attr, work in targets:
        name = f"{mod_name}.{attr}"
        owner_name, _, leaf = attr.rpartition(".")
        mod = sys.modules[f"mpflow.{mod_name}"]
        if owner_name:
            owner = getattr(mod, owner_name)
            setattr(owner, leaf, tracer.wrap(name, owner.__dict__[leaf], work))
            continue
        original = getattr(mod, leaf)
        wrapped = tracer.wrap(name, original, work)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)


def self_times(parent, dur):
    """Each span's duration minus the summed durations of its direct children."""
    import numpy as np

    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def under(name_id, parent, ancestor_ids):
    """Boolean mask of spans that have a strict ancestor named by ancestor_ids."""
    import numpy as np

    is_anc = np.isin(name_id, list(ancestor_ids))
    flag = np.zeros(len(name_id), bool)
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        idx = np.nonzero(live)[0]
        flag[idx] |= is_anc[anc[idx]]
        anc[idx] = parent[anc[idx]]
        live = anc >= 0
    return flag


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def summarize(tracer: Tracer, mlp_layer_epochs=0):
    """Per-span calls and self time plus the RATIOS, as {metric: (value, unit)}.

    mlp_layer_epochs is the number of MLP layers times the epochs trained in
    the pass (0 when the pass does not train).
    """
    import numpy as np

    name_id, parent, dur = tracer.arrays()
    own = self_times(parent, dur)
    n_names = len(tracer.names)
    calls = np.bincount(name_id, minlength=n_names)
    self_s = np.bincount(name_id, weights=own, minlength=n_names)
    ids = {name: i for i, name in enumerate(tracer.names)}

    out = {}
    for name in SPAN_NAMES:
        i = ids.get(name)
        out[f"{name}.calls"] = (int(calls[i]) if i is not None else 0, "count")
        out[f"{name}.self_s"] = (float(self_s[i]) if i is not None else 0.0, "s")

    def count(name):
        return int(calls[ids[name]]) if name in ids else 0

    def count_under(names, ancestors):
        want = [ids[n] for n in names if n in ids]
        anc = [ids[n] for n in ancestors if n in ids]
        if not want or not anc:
            return 0
        return int(np.count_nonzero(np.isin(name_id, want) & under(name_id, parent, anc)))

    kernel_self = sum(out[f"{n}.self_s"][0] for n in _MLP_KERNELS)
    kernel_flops = sum(tracer.work.get(n, 0.0) for n in _MLP_KERNELS)
    values = {
        "training.mlp_forwards_per_layer_epoch": _ratio(
            count_under(_MLP_FORWARDS, ["training.train"]), mlp_layer_epochs),
        "serialize.build_pairs_per_load": _ratio(
            count_under(["pair_decomposition.build_pairs"], ["serialize.load_net"]),
            count("serialize.load_net")),
        "pair_decomposition.field_evals_per_pair_eval": _ratio(
            count_under(["dynamics.field_eval"], ["pair_decomposition.pair_eval"]),
            count("pair_decomposition.pair_eval")),
        "verify.net_forwards_per_det_point": _ratio(
            count_under(["coupling.net_forward"], ["verify.fd_jacobian_det"]),
            count("verify.fd_jacobian_det")),
        "shifts.fixed_rowcalls_per_batch_row": _ratio(
            count_under(["shifts.FixedShift.__call__"], ["shifts.FixedShift.apply_batch"]),
            tracer.work.get("shifts.FixedShift.apply_batch", 0.0)),
        "mlp.achieved_gflops": _ratio(kernel_flops / 1e9, kernel_self),
    }
    for name, (unit, _) in RATIOS.items():
        out[name] = (values[name], unit)
    return out


def save_spans(tracer: Tracer, path, request_id):
    """Write the recorded spans (one request per pass) as a compressed .npz."""
    import numpy as np

    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name_id=np.frombuffer(tracer.name_id, np.int32),
        parent=np.frombuffer(tracer.parent, np.int32),
        start=np.frombuffer(tracer.start, float),
        end=np.frombuffer(tracer.end, float),
        request_id=np.array(request_id),
    )
