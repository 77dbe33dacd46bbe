"""Command-line pipeline: data generation, training, prediction, flow
compilation, decomposition, convergence studies, and model verification.

Each command reads one JSON config against its key table, {key: (JSON type,
default or REQUIRED, optional value check)}, through the reader in
`serialize`, plus "seed" (an integer, default 0), which --seed replaces;
`train`'s keys and defaults are TrainConfig's fields, with epochs required,
`compile`'s a model file's `serialize.RECIPE_KEYS`, some with defaults. It
writes its artifacts plus a manifest.json into the output directory. Outputs
are a pure function of (config, seed): no timestamps or wall-clock values are
ever written. `EXIT_CODES` maps each error class to its exit code: 0 ok, 2
config error, 3 numeric failure, 4 unsupported construction, 5 verification
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .compiler import compile_flow, convergence_study
from .coupling import net_apply_batch
from .dynamics import (
    csv_text,
    dataset_from_csv,
    dataset_from_trajectory,
    dataset_to_csv,
    generate_trajectory,
    rk4_flow,
    trajectory_to_csv,
)
from .errors import ConfigError, NumericError, UnsupportedError, VerificationError
from .pair_decomposition import DEFAULT_QUAD_NODES, DEFAULT_TOL, decompose
from .serialize import (
    RECIPE_KEYS,
    REQUIRED,
    _box_from_config,
    _count,
    _fail,
    _field_from_config,
    _ints,
    _read_keys,
    _vector,
    dump_json,
    load_net,
    save_net,
)
from .training import TrainConfig, rollout, train
from .verify import lp_error, max_det_deviation, roundtrip_error, sample_points

ROUNDTRIP_TOL = 1e-11
DET_TOL = 1e-6

# the exit code of each error class, checked in this order
EXIT_CODES = {ValueError: 2, UnsupportedError: 4, VerificationError: 5, NumericError: 3}


def _read_config(config, seed, keys):
    """A command's config read against `keys` plus "seed", which --seed replaces."""
    cfg = _read_keys(config, "config", {**keys, "seed": (int, 0)})
    if seed is not None:
        cfg["seed"] = seed
    return cfg


def _loaded(load):
    """Check of a file key, "dataset" or "model": the file must exist; the value is load(path)."""

    def check(val, where, read):
        path = Path(val)
        if not path.exists():
            _fail(f"{where.rpartition('.')[2]} file not found: {path}")
        if not path.is_file():
            _fail(f"{where} is not a file: {path}")
        return load(path)

    return check


def _of_model_dim(check, dim, name="{where}"):
    """`check`, then dim(value) must be the dim of the model read before it;
    the fault names `name`, formatted with the key's path `where`."""

    def checked(val, where, read):
        val = check(val, where, read)
        if dim(val) != read["model"].dim:
            _fail(f"{name.format(where=where)} has dim {dim(val)}, "
                  f"the model has dim {read['model'].dim}")
        return val

    return checked


# a top-level field or box is named by its own key (field.dim, box.lo[1]), a
# nested one by its path (config.reference.field)
FIELD = (dict, REQUIRED, lambda doc, where, read: _field_from_config(doc))
BOX = (dict, REQUIRED, lambda doc, where, read: _box_from_config(doc))


def _write(path: Path, text: str):
    path.write_bytes(text.encode("utf-8"))


def _field_doc(field):
    return {"id": field.fid, "dim": field.dim}


def cmd_gen_data(config, out_dir, seed):
    cfg = _read_config(config, seed, {
        "field": FIELD, "x0": (list, REQUIRED, _vector), "h_data": (float, REQUIRED),
        "n_pairs": (int, REQUIRED, _count), "h_ref": (float, 1e-3),
    })
    field = cfg["field"]
    traj = generate_trajectory(field, cfg["x0"], cfg["h_data"], cfg["n_pairs"] + 1, cfg["h_ref"])
    ds = dataset_from_trajectory(traj)
    _write(out_dir / "trajectory.csv", trajectory_to_csv(traj))
    _write(out_dir / "dataset.csv", dataset_to_csv(ds))
    print(f"gen-data: n_pairs={ds.n_pairs} h_data={cfg['h_data']} field={field.fid}")
    return {
        "field": _field_doc(field),
        "n_pairs": ds.n_pairs,
        "h_data": cfg["h_data"],
        "outputs": ["trajectory.csv", "dataset.csv"],
    }


def cmd_train(config, out_dir, seed):
    # TrainConfig's fields and defaults, except that epochs must be given
    cfg = _read_config(config, seed, {
        "dataset": (str, REQUIRED, _loaded(lambda path: dataset_from_csv(path.read_text()))),
        **{f.name: (type(f.default), REQUIRED if f.name == "epochs" else f.default)
           for f in fields(TrainConfig)},
    })
    tc = TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})
    net, metrics = train(cfg["dataset"], tc)
    save_net(net, out_dir / "model.json")
    metrics_doc = {
        "loss_curve": [[e, v] for e, v in metrics.loss_curve],
        "final_loss": metrics.final_loss,
        "seed": tc.seed,
        "config": {k: v for k, v in asdict(tc).items() if k != "seed"},
    }
    _write(out_dir / "metrics.json", dump_json(metrics_doc))
    _write(out_dir / "loss_curve.csv", csv_text(["epoch", "mse"], metrics.loss_curve))
    print(f"train: epochs={tc.epochs} final_loss={metrics.final_loss:.6e}")
    return {"final_loss": metrics.final_loss, "epochs": tc.epochs,
            "outputs": ["model.json", "metrics.json", "loss_curve.csv"]}


def cmd_predict(config, out_dir, seed):
    cfg = _read_config(config, seed, {
        "model": (str, REQUIRED, _loaded(load_net)),
        "x0": (list, REQUIRED, _of_model_dim(_vector, len)),
        "n_steps": (int, REQUIRED), "h_data": (float, None),
    })
    traj, truncated_at = rollout(cfg["model"], cfg["x0"], cfg["n_steps"], cfg["h_data"])
    _write(out_dir / "prediction.csv", trajectory_to_csv(traj))
    print(f"predict: steps={cfg['n_steps']} truncated_at={truncated_at}")
    result = {"n_steps": cfg["n_steps"], "truncated_at": truncated_at, "outputs": ["prediction.csv"]}
    if truncated_at is not None:
        exc = NumericError(f"rollout truncated at step {truncated_at}", step=truncated_at)
        exc.manifest_extra = result
        raise exc
    return result


def cmd_compile(config, out_dir, seed):
    # the keys a model file stores a compiled flow with, three of them with defaults
    defaults = {"tau": 0.0, "quad_nodes": DEFAULT_QUAD_NODES, "tol": DEFAULT_TOL}
    cfg = _read_config(config, seed, {
        **{key: (typ, defaults.get(key, default), *check)
           for key, (typ, default, *check) in RECIPE_KEYS.items()},
        "field": FIELD, "box": BOX, "det_points": (int, 20, _count),
    })
    field, box = cfg["field"], cfg["box"]
    compiled = compile_flow(
        field, cfg["tau"], cfg["T"], cfg["n_steps"], box,
        quad_nodes=cfg["quad_nodes"], tol=cfg["tol"],
    )
    save_net(compiled.net, out_dir / "model.json")
    pts = sample_points(box, cfg["det_points"], cfg["seed"], exclude=field.singular)
    max_dev, _ = max_det_deviation(compiled.net, pts)
    print(f"compile: field={field.fid} n_steps={cfg['n_steps']} det_dev={max_dev:.3e}")
    return {
        "field": _field_doc(field),
        "tau": cfg["tau"],
        "T": cfg["T"],
        "n_steps": cfg["n_steps"],
        "n_layers": compiled.net.n_layers,
        "pair_separability": [p.separable for p in compiled.decomposition.pairs],
        "det_check_max_dev": max_dev,
        "outputs": ["model.json"],
    }


def cmd_decompose(config, out_dir, seed):
    cfg = _read_config(config, seed, {
        "quad_nodes": (int, DEFAULT_QUAD_NODES, _count), "tol": (float, DEFAULT_TOL),
        "n_samples": (int, 200, _count), "field": FIELD, "box": BOX,
    })
    field = cfg["field"]
    deco = decompose(field, cfg["box"], quad_nodes=cfg["quad_nodes"], tol=cfg["tol"],
                     n_residual=cfg["n_samples"])
    report = {
        "pairs": [{"d": p.d, "separable": p.separable} for p in deco.pairs],
        "residual_max": deco.residual_max,
        "samples": cfg["n_samples"],
    }
    _write(out_dir / "decomposition.json", dump_json(report))
    print(f"decompose: field={field.fid} pairs={len(deco.pairs)} residual={deco.residual_max:.3e}")
    return {
        "field": _field_doc(field),
        "residual_max": deco.residual_max,
        "pair_separability": [p.separable for p in deco.pairs],
        "outputs": ["decomposition.json"],
    }


def cmd_convergence(config, out_dir, seed):
    cfg = _read_config(config, seed, {
        "tau": (float, 0.0), "n_samples": (int, 50, _count),
        "quad_nodes": (int, DEFAULT_QUAD_NODES, _count), "tol": (float, DEFAULT_TOL),
        "h_ref": (float, 1e-3), "field": FIELD, "T": (float, REQUIRED),
        "step_counts": (list, REQUIRED, _ints), "box": BOX,
    })
    field = cfg["field"]
    report = convergence_study(
        field, cfg["tau"], cfg["T"], cfg["step_counts"], cfg["box"],
        n_samples=cfg["n_samples"], quad_nodes=cfg["quad_nodes"], tol=cfg["tol"],
        h_ref=cfg["h_ref"], seed=cfg["seed"],
    )
    doc = {
        "step_counts": list(report.step_counts),
        "h_values": list(report.h_values),
        "errors": list(report.errors),
        "slope": report.slope,
        "exact": report.exact,
    }
    _write(out_dir / "convergence.json", dump_json(doc))
    slope_txt = "exact" if report.exact else f"{report.slope:.3f}"
    print(f"convergence: field={field.fid} slope={slope_txt}")
    return {"field": _field_doc(field), "slope": report.slope, "exact": report.exact,
            "outputs": ["convergence.json"]}


def cmd_verify(config, out_dir, seed):
    reference = {"tau": (float, 0.0), "h_ref": (float, 1e-3), "p": (float, 2.0),
                 "lp_samples": (int, 2000, _count), "lp_tol": (float, None),
                 "field": (dict, REQUIRED, lambda doc, where, read: _field_from_config(doc, where)),
                 "T": (float, REQUIRED)}
    cfg = _read_config(config, seed, {
        "model": (str, REQUIRED, _loaded(load_net)),
        "box": (dict, None, _of_model_dim(BOX[2], lambda box: len(box[0]), "box")),
        "n_points": (int, 100, _count), "roundtrip_tol": (float, ROUNDTRIP_TOL),
        "det_tol": (float, DET_TOL),
        "reference": (dict, None, _of_model_dim(
            lambda doc, where, read: _read_keys(doc, where, reference),
            lambda ref: ref["field"].dim, "{where}.field")),
    })
    net, box, ref = cfg["model"], cfg["box"], cfg["reference"]
    if box is None:
        box = (-np.ones(net.dim), np.ones(net.dim))
    pts = sample_points(box, cfg["n_points"], cfg["seed"])

    rt = roundtrip_error(net, pts)
    if not np.isfinite(rt):
        raise NumericError("round-trip produced non-finite values")
    rt_ok = rt < cfg["roundtrip_tol"]

    det_dev, det_worst = max_det_deviation(net, pts)
    det_ok = det_dev < cfg["det_tol"]

    report = {
        "roundtrip": {"max_error": rt, "tol": cfg["roundtrip_tol"], "pass": rt_ok},
        "determinant": {
            "max_deviation": det_dev,
            "tol": cfg["det_tol"],
            "pass": det_ok,
            "worst_point": det_worst.tolist(),
        },
    }
    if ref is not None:
        model = lambda xs: net_apply_batch(net, xs)
        flow = lambda xs: rk4_flow(ref["field"], ref["tau"], ref["T"], ref["h_ref"], xs)
        val = lp_error(model, flow, box, ref["p"], ref["lp_samples"], cfg["seed"])
        if not np.isfinite(val):
            raise NumericError("lp_error produced non-finite values")
        entry = {"value": val, "p": ref["p"]}
        if ref["lp_tol"] is not None:
            entry["tol"] = ref["lp_tol"]
            entry["pass"] = val < ref["lp_tol"]
        report["lp_error"] = entry
    _write(out_dir / "verification.json", dump_json(report))
    failures = [name for name, section in report.items() if section.get("pass") is False]
    print(f"verify: roundtrip={rt:.3e} det_dev={det_dev:.3e} failures={failures}")
    result = {"report": report, "outputs": ["verification.json"]}
    if failures:
        exc = VerificationError(
            f"properties failed: {failures}; worst determinant point "
            f"{det_worst.tolist()}"
        )
        exc.manifest_extra = result
        raise exc
    return result


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "predict": cmd_predict,
    "compile": cmd_compile,
    "decompose": cmd_decompose,
    "convergence": cmd_convergence,
    "verify": cmd_verify,
}


def _load_config(path):
    import json

    if path is None:
        _fail("--config is required")
    p = Path(path)
    if not p.exists():
        _fail(f"config file not found: {p}")
    if not p.is_file():
        _fail(f"--config is not a file: {p}")
    raw = p.read_bytes()
    try:
        doc = json.loads(raw)  # bytes in UTF-8
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return doc, hashlib.sha256(raw).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mpflow",
        description="Measure-preserving coupling networks for divergence-free flows.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=False, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way: no manifest can be written
        print(f"error: --out cannot be made a directory: {out_dir} ({exc.strerror})", file=sys.stderr)
        return 2
    manifest = {
        "command": args.command,
        "status": "error",
        "version": __version__,
        "seed": args.seed,
        "config_sha256": None,
    }

    def finish(code):
        _write(out_dir / "manifest.json", dump_json(manifest))
        return code

    try:
        config, digest = _load_config(args.config)
        manifest["config_sha256"] = digest
        if args.seed is None and isinstance(config, dict) and isinstance(config.get("seed"), int):
            manifest["seed"] = config["seed"]
        result = COMMANDS[args.command](config, out_dir, args.seed)
        manifest.update(result)
        manifest["status"] = "ok"
        return finish(0)
    except tuple(EXIT_CODES) as exc:
        manifest.update(getattr(exc, "manifest_extra", {}))
        manifest["error"] = str(exc)
        if isinstance(exc, VerificationError):
            manifest["status"] = "failed"
        print(f"error: {exc}", file=sys.stderr)
        return finish(next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls)))

if __name__ == "__main__":
    sys.exit(main())
