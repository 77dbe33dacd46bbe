"""Command-line pipeline: data generation, training, prediction, flow
compilation, decomposition, convergence studies, and model verification.

Every command reads one JSON config (unknown keys rejected), takes the seed
from --seed or the config, and writes its artifacts plus a manifest.json into
the output directory. Outputs are a pure function of (config, seed): no
timestamps or wall-clock values are ever written. Exit codes: 0 ok, 2 config
error, 3 numeric failure, 4 unsupported construction, 5 verification failure.
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
    FIELDS,
    dataset_from_csv,
    dataset_from_trajectory,
    dataset_to_csv,
    generate_trajectory,
    make_field,
    rk4_flow,
    trajectory_to_csv,
)
from .errors import ConfigError, NumericError, ParseError, UnsupportedError, VerificationError
from .pair_decomposition import DEFAULT_QUAD_NODES, DEFAULT_TOL, decompose
from .serialize import dump_json, load_net, save_net
from .training import TrainConfig, rollout, train
from .verify import as_box, lp_error, max_det_deviation, roundtrip_error, sample_points

ROUNDTRIP_TOL = 1e-11
DET_TOL = 1e-6


def _fail(msg):
    raise ConfigError(msg)


def _check_keys(doc, where, required, optional):
    if not isinstance(doc, dict):
        _fail(f"{where} must be a JSON object")
    known = set(required) | set(optional)
    for key in doc:
        if key not in known:
            _fail(f"unknown key {where}.{key}")
    out = {}
    for key, typ in required.items():
        if key not in doc:
            _fail(f"missing key {where}.{key}")
        out[key] = _coerce(doc[key], typ, f"{where}.{key}")
    for key, opt in optional.items():
        typ, default = opt
        out[key] = _coerce(doc[key], typ, f"{where}.{key}") if key in doc else default
    return out


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


def _at_least_one(cfg, where, *keys):
    for key in keys:
        if cfg[key] < 1:
            _fail(f"{where}.{key} must be >= 1, got {cfg[key]}")


def _vector(val, where):
    if not isinstance(val, list) or not val:
        _fail(f"{where} must be a non-empty list of numbers")
    return np.array([_coerce(v, float, f"{where}[{i}]") for i, v in enumerate(val)])


def _numbers(val, where):
    """Nested lists of finite numbers as an array, naming the first bad entry."""
    if isinstance(val, list):
        return np.array([_numbers(v, f"{where}[{i}]") for i, v in enumerate(val)])
    return _coerce(val, float, where)


def _box_from_config(doc, where="box"):
    cfg = _check_keys(doc, where, {"lo": list, "hi": list}, {})
    return as_box((_vector(cfg["lo"], f"{where}.lo"), _vector(cfg["hi"], f"{where}.hi")))


def _field_from_config(doc, where="field"):
    if "id" not in doc:
        _fail(f"missing key {where}.id")
    fid = _coerce(doc["id"], str, f"{where}.id")
    if fid not in FIELDS:
        _fail(f"{where}: unknown field id {fid!r}")
    cfg = _check_keys(doc, where, {"id": str, **FIELDS[fid].config}, {})
    params = [val for key, val in cfg.items() if key not in ("id", "dim")]  # at most one
    return make_field(fid, *params, dim=cfg.get("dim"))


def _write(path: Path, text: str):
    path.write_bytes(text.encode("utf-8"))


def _field_doc(field):
    return {"id": field.fid, "dim": field.dim}


def cmd_gen_data(config, out_dir, seed):
    cfg = _check_keys(
        config,
        "config",
        {"field": dict, "x0": list, "h_data": float, "n_pairs": int},
        {"h_ref": (float, 1e-3), "seed": (int, 0)},
    )
    field = _field_from_config(cfg["field"])
    x0 = _vector(cfg["x0"], "config.x0")
    _at_least_one(cfg, "config", "n_pairs")
    traj = generate_trajectory(field, x0, cfg["h_data"], cfg["n_pairs"] + 1, cfg["h_ref"])
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
    cfg = _check_keys(
        config,
        "config",
        {"dataset": str, "epochs": int},
        {
            "n_layers": (int, 8),
            "s": (int, 2),
            "width": (int, 64),
            "activation": (str, "sigmoid"),
            "lr": (float, 0.001),
            "seed": (int, 0),
            "log_stride": (int, 500),
        },
    )
    used_seed = seed if seed is not None else cfg["seed"]
    ds_path = Path(cfg["dataset"])
    if not ds_path.exists():
        _fail(f"dataset file not found: {ds_path}")
    ds = dataset_from_csv(ds_path.read_text())
    tc = TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig) if f.name != "seed"},
                     seed=used_seed)
    net, metrics = train(ds, tc)
    save_net(net, out_dir / "model.json")
    metrics_doc = {
        "loss_curve": [[e, v] for e, v in metrics.loss_curve],
        "final_loss": metrics.final_loss,
        "seed": used_seed,
        "config": {k: v for k, v in asdict(tc).items() if k != "seed"},
    }
    _write(out_dir / "metrics.json", dump_json(metrics_doc))
    lines = ["epoch,mse"] + [f"{e},{dump_json(v)}" for e, v in metrics.loss_curve]
    _write(out_dir / "loss_curve.csv", "\n".join(lines) + "\n")
    print(f"train: epochs={tc.epochs} final_loss={metrics.final_loss:.6e}")
    return {"final_loss": metrics.final_loss, "epochs": tc.epochs,
            "outputs": ["model.json", "metrics.json", "loss_curve.csv"]}


def cmd_predict(config, out_dir, seed):
    cfg = _check_keys(
        config,
        "config",
        {"model": str, "x0": list, "n_steps": int},
        {"h_data": (float, None), "seed": (int, 0)},
    )
    model_path = Path(cfg["model"])
    if not model_path.exists():
        _fail(f"model file not found: {model_path}")
    net = load_net(model_path)
    x0 = _vector(cfg["x0"], "config.x0")
    traj, truncated_at = rollout(net, x0, cfg["n_steps"], cfg["h_data"])
    _write(out_dir / "prediction.csv", trajectory_to_csv(traj))
    print(f"predict: steps={cfg['n_steps']} truncated_at={truncated_at}")
    result = {"n_steps": cfg["n_steps"], "truncated_at": truncated_at, "outputs": ["prediction.csv"]}
    if truncated_at is not None:
        exc = NumericError(f"rollout truncated at step {truncated_at}", step=truncated_at)
        exc.manifest_extra = result
        raise exc
    return result


def cmd_compile(config, out_dir, seed):
    cfg = _check_keys(
        config,
        "config",
        {"field": dict, "T": float, "n_steps": int, "box": dict},
        {
            "tau": (float, 0.0),
            "quad_nodes": (int, DEFAULT_QUAD_NODES),
            "tol": (float, DEFAULT_TOL),
            "det_points": (int, 20),
            "seed": (int, 0),
        },
    )
    _at_least_one(cfg, "config", "quad_nodes", "det_points")
    field = _field_from_config(cfg["field"])
    box = _box_from_config(cfg["box"])
    compiled = compile_flow(
        field, cfg["tau"], cfg["T"], cfg["n_steps"], box,
        quad_nodes=cfg["quad_nodes"], tol=cfg["tol"],
    )
    save_net(compiled.net, out_dir / "model.json")
    used_seed = seed if seed is not None else cfg["seed"]
    pts = sample_points(box, cfg["det_points"], used_seed, exclude=field.singular)
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
    cfg = _check_keys(
        config,
        "config",
        {"field": dict, "box": dict},
        {"quad_nodes": (int, DEFAULT_QUAD_NODES), "tol": (float, DEFAULT_TOL),
         "n_samples": (int, 200), "seed": (int, 0)},
    )
    _at_least_one(cfg, "config", "quad_nodes", "n_samples")
    field = _field_from_config(cfg["field"])
    box = _box_from_config(cfg["box"])
    deco = decompose(field, box, quad_nodes=cfg["quad_nodes"], tol=cfg["tol"],
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
    cfg = _check_keys(
        config,
        "config",
        {"field": dict, "T": float, "step_counts": list, "box": dict},
        {
            "tau": (float, 0.0),
            "n_samples": (int, 50),
            "quad_nodes": (int, DEFAULT_QUAD_NODES),
            "tol": (float, DEFAULT_TOL),
            "h_ref": (float, 1e-3),
            "seed": (int, 0),
        },
    )
    _at_least_one(cfg, "config", "n_samples", "quad_nodes")
    field = _field_from_config(cfg["field"])
    box = _box_from_config(cfg["box"])
    counts = [_coerce(v, int, f"config.step_counts[{i}]") for i, v in enumerate(cfg["step_counts"])]
    used_seed = seed if seed is not None else cfg["seed"]
    report = convergence_study(
        field, cfg["tau"], cfg["T"], counts, box,
        n_samples=cfg["n_samples"], quad_nodes=cfg["quad_nodes"], tol=cfg["tol"],
        h_ref=cfg["h_ref"], seed=used_seed,
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
    cfg = _check_keys(
        config,
        "config",
        {"model": str},
        {
            "box": (dict, None),
            "n_points": (int, 100),
            "roundtrip_tol": (float, ROUNDTRIP_TOL),
            "det_tol": (float, DET_TOL),
            "reference": (dict, None),
            "seed": (int, 0),
        },
    )
    _at_least_one(cfg, "config", "n_points")
    model_path = Path(cfg["model"])
    if not model_path.exists():
        _fail(f"model file not found: {model_path}")
    net = load_net(model_path)
    if cfg["box"] is not None:
        box = _box_from_config(cfg["box"])
    else:
        box = (-np.ones(net.dim), np.ones(net.dim))
    used_seed = seed if seed is not None else cfg["seed"]
    pts = sample_points(box, cfg["n_points"], used_seed)

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
    if cfg["reference"] is not None:
        ref = _check_keys(
            cfg["reference"],
            "config.reference",
            {"field": dict, "T": float},
            {"tau": (float, 0.0), "h_ref": (float, 1e-3), "p": (float, 2.0),
             "lp_samples": (int, 2000), "lp_tol": (float, None)},
        )
        _at_least_one(ref, "config.reference", "lp_samples")
        field = _field_from_config(ref["field"], "config.reference.field")
        model = lambda xs: net_apply_batch(net, xs)
        flow = lambda xs: rk4_flow(field, ref["tau"], ref["T"], ref["h_ref"], xs)
        val = lp_error(model, flow, box, ref["p"], ref["lp_samples"], used_seed)
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
    raw = p.read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
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
    out_dir.mkdir(parents=True, exist_ok=True)
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
    except (ParseError, ConfigError, ValueError) as exc:
        manifest["error"] = str(exc)
        print(f"error: {exc}", file=sys.stderr)
        return finish(2)
    except UnsupportedError as exc:
        manifest["error"] = str(exc)
        print(f"error: {exc}", file=sys.stderr)
        return finish(4)
    except VerificationError as exc:
        manifest.update(getattr(exc, "manifest_extra", {}))
        manifest["error"] = str(exc)
        manifest["status"] = "failed"
        print(f"error: {exc}", file=sys.stderr)
        return finish(5)
    except NumericError as exc:
        manifest.update(getattr(exc, "manifest_extra", {}))
        manifest["error"] = str(exc)
        print(f"error: {exc}", file=sys.stderr)
        return finish(3)


if __name__ == "__main__":
    sys.exit(main())
