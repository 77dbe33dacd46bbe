import hashlib
import json
import warnings

import numpy as np
import pytest

from mpflow.cli import main
from mpflow.coupling import MPNet
from mpflow.dynamics import FD_STEP
from mpflow.serialize import save_net, serialize

from test_coupling import random_net


def run(tmp_path, command, config, seed=None, out=None):
    cfg_path = tmp_path / f"{command.replace('-', '_')}_config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = out or (tmp_path / "out")
    argv = [command, "--config", str(cfg_path), "--out", str(out_dir)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = main(argv)
    return code, out_dir


GEN_CFG = {
    "field": {"id": "harmonic2d"},
    "x0": [1.0, 0.0],
    "h_data": 0.1,
    "n_pairs": 5,
    "h_ref": 0.01,
}


def test_gen_data_writes_csvs_and_manifest(tmp_path):
    code, out = run(tmp_path, "gen-data", GEN_CFG)
    assert code == 0
    assert (out / "dataset.csv").exists()
    assert (out / "trajectory.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["n_pairs"] == 5
    rows = (out / "dataset.csv").read_text().strip().split("\n")
    assert len(rows) == 6  # header + 5 pairs


def test_gen_data_deterministic_bytes(tmp_path):
    _, out1 = run(tmp_path, "gen-data", GEN_CFG, out=tmp_path / "a")
    _, out2 = run(tmp_path, "gen-data", GEN_CFG, out=tmp_path / "b")
    for name in ("dataset.csv", "trajectory.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_lorentz_gen_data_bytes_are_pinned(tmp_path):
    # a lorentz4d point integrates on Python floats, whose arithmetic does not
    # depend on the numpy or BLAS build, so the dataset's bytes are fixed
    cfg = {"field": {"id": "lorentz4d"}, "x0": [0.1, 1.0, 1.1, 0.5], "h_data": 0.2, "n_pairs": 199}
    code, out = run(tmp_path, "gen-data", cfg)
    assert code == 0
    assert hashlib.sha256((out / "dataset.csv").read_bytes()).hexdigest() == (
        "ad8045a525d3e16471beb8d099f02bbf77efb896cf740b8c788faabc245afdf1"
    )


def test_gen_data_zero_pairs_exits_2(tmp_path):
    cfg = dict(GEN_CFG, n_pairs=0)
    code, out = run(tmp_path, "gen-data", cfg)
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"


def test_gen_data_singular_start_reports_only_the_rk4_error(tmp_path, capsys):
    # lorentz4d divides by r^3, which is 0 at the start: the first substep goes
    # non-finite, and no numpy warning may come before the error line
    cfg = dict(GEN_CFG, field={"id": "lorentz4d"}, x0=[0.0, 0.0, 1.0, 1.0], n_pairs=3, h_data=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "gen-data", cfg)
    assert code == 3
    assert json.loads((out / "manifest.json").read_text())["status"] == "error"
    assert capsys.readouterr().err == "error: rk4 state became non-finite at substep 1\n"


def test_unknown_config_key_exits_2(tmp_path):
    cfg = dict(GEN_CFG, extra_knob=1)
    code, _ = run(tmp_path, "gen-data", cfg)
    assert code == 2


def test_missing_config_exits_2(tmp_path):
    code = main(["gen-data", "--out", str(tmp_path / "o")])
    assert code == 2
    assert (tmp_path / "o" / "manifest.json").exists()


def test_train_and_predict_roundtrip(tmp_path):
    _, data_dir = run(tmp_path, "gen-data", GEN_CFG, out=tmp_path / "data")
    train_cfg = {
        "dataset": str(data_dir / "dataset.csv"),
        "epochs": 30,
        "n_layers": 2,
        "width": 4,
        "log_stride": 10,
        "seed": 5,
    }
    code, model_dir = run(tmp_path, "train", train_cfg, out=tmp_path / "model")
    assert code == 0
    assert (model_dir / "model.json").exists()
    metrics = json.loads((model_dir / "metrics.json").read_text())
    assert metrics["final_loss"] > 0
    assert metrics["seed"] == 5
    assert (model_dir / "loss_curve.csv").read_text().startswith("epoch,mse\n")

    predict_cfg = {
        "model": str(model_dir / "model.json"),
        "x0": [1.0, 0.0],
        "n_steps": 3,
        "h_data": 0.1,
    }
    code, pred_dir = run(tmp_path, "predict", predict_cfg, out=tmp_path / "pred")
    assert code == 0
    lines = (pred_dir / "prediction.csv").read_text().strip().split("\n")
    assert lines[0] == "t,y1,y2"
    assert len(lines) == 5


def test_train_deterministic_bytes(tmp_path):
    _, data_dir = run(tmp_path, "gen-data", GEN_CFG, out=tmp_path / "data")
    cfg = {
        "dataset": str(data_dir / "dataset.csv"),
        "epochs": 20,
        "n_layers": 1,
        "width": 3,
        "seed": 2,
    }
    _, m1 = run(tmp_path, "train", cfg, out=tmp_path / "m1")
    _, m2 = run(tmp_path, "train", cfg, out=tmp_path / "m2")
    assert (m1 / "model.json").read_bytes() == (m2 / "model.json").read_bytes()
    assert (m1 / "metrics.json").read_bytes() == (m2 / "metrics.json").read_bytes()


def test_predict_identity_model(tmp_path):
    model_path = tmp_path / "identity.json"
    save_net(MPNet(3, ()), model_path)
    cfg = {"model": str(model_path), "x0": [0.1, 0.2, 0.3], "n_steps": 4}
    code, out = run(tmp_path, "predict", cfg)
    assert code == 0
    lines = (out / "prediction.csv").read_text().strip().split("\n")[1:]
    vals = [ln.split(",")[1:] for ln in lines]
    assert all(v == vals[0] for v in vals)


@pytest.mark.parametrize("h_data", [0.0, -0.2])
def test_predict_non_positive_h_data_exits_2_naming_the_key(tmp_path, h_data):
    model_path = tmp_path / "identity.json"
    save_net(MPNet(3, ()), model_path)
    cfg = {"model": str(model_path), "x0": [0.1, 0.2, 0.3], "n_steps": 4, "h_data": h_data}
    code, out = run(tmp_path, "predict", cfg)
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert f"h_data must be a positive finite number, got {h_data}" in manifest["error"]
    assert not (out / "prediction.csv").exists()


def test_compile_lorentz_manifest(tmp_path):
    cfg = {
        "field": {"id": "lorentz4d"},
        "T": 0.2,
        "n_steps": 2,
        "box": {"lo": [-1.5, -1.5, -1.3, -1.3], "hi": [1.5, 1.5, 1.3, 1.3]},
        "det_points": 5,
    }
    code, out = run(tmp_path, "compile", cfg)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["pair_separability"] == ["yes", "yes", "yes"]
    assert manifest["det_check_max_dev"] < 1e-6
    assert manifest["n_layers"] == 12
    assert (out / "model.json").exists()


def test_compile_nonseparable_exits_4(tmp_path):
    cfg = {
        "field": {
            "id": "poly",
            "dim": 3,
            "components": [[[1.0, [1, 1, 0]]], [[-0.5, [0, 2, 0]]], [[0.7, [0, 0, 0]]]],
        },
        "T": 0.5,
        "n_steps": 2,
        "box": {"lo": [-2, -2, -2], "hi": [2, 2, 2]},
    }
    code, out = run(tmp_path, "compile", cfg)
    assert code == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"


def test_decompose_lorentz_report(tmp_path):
    cfg = {
        "field": {"id": "lorentz4d"},
        "box": {"lo": [-1.5, -1.5, -1.3, -1.3], "hi": [1.5, 1.5, 1.3, 1.3]},
        "n_samples": 50,
    }
    code, out = run(tmp_path, "decompose", cfg)
    assert code == 0
    report = json.loads((out / "decomposition.json").read_text())
    assert [p["d"] for p in report["pairs"]] == [1, 2, 3]
    assert all(p["separable"] == "yes" for p in report["pairs"])
    assert report["residual_max"] < 1e-9
    assert report["samples"] == 50


def test_decompose_non_divergence_free_exits_3(tmp_path):
    cfg = {
        "field": {"id": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "box": {"lo": [-1, -1], "hi": [1, 1]},
    }
    code, out = run(tmp_path, "decompose", cfg)
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert "not divergence-free" in manifest["error"]


def test_convergence_zero_field_exact(tmp_path):
    cfg = {
        "field": {"id": "linear", "matrix": [[0.0, 0.0], [0.0, 0.0]]},
        "T": 1.0,
        "step_counts": [2, 4],
        "box": {"lo": [-1, -1], "hi": [1, 1]},
        "n_samples": 5,
    }
    code, out = run(tmp_path, "convergence", cfg)
    assert code == 0
    report = json.loads((out / "convergence.json").read_text())
    assert report["exact"] is True
    assert report["slope"] is None


def test_verify_freshly_trained_model_passes(tmp_path):
    _, data_dir = run(tmp_path, "gen-data", GEN_CFG, out=tmp_path / "data")
    train_cfg = {
        "dataset": str(data_dir / "dataset.csv"),
        "epochs": 25,
        "n_layers": 2,
        "width": 4,
        "seed": 1,
    }
    _, model_dir = run(tmp_path, "train", train_cfg, out=tmp_path / "model")
    cfg = {"model": str(model_dir / "model.json"), "n_points": 25}
    code, out = run(tmp_path, "verify", cfg)
    assert code == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["roundtrip"]["pass"] and report["determinant"]["pass"]


def test_verify_random_net_passes(tmp_path):
    model_path = tmp_path / "model.json"
    save_net(random_net(3, 4, seed=3), model_path)
    cfg = {"model": str(model_path), "n_points": 20}
    code, out = run(tmp_path, "verify", cfg)
    assert code == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["roundtrip"]["pass"] is True
    assert report["determinant"]["pass"] is True


def test_verify_impossible_tolerance_exits_5(tmp_path):
    model_path = tmp_path / "model.json"
    save_net(random_net(3, 4, seed=4), model_path)
    cfg = {"model": str(model_path), "n_points": 10, "det_tol": 1e-30}
    code, out = run(tmp_path, "verify", cfg)
    assert code == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    report = json.loads((out / "verification.json").read_text())
    assert report["determinant"]["pass"] is False


def test_verify_corrupted_weight_exits_3(tmp_path):
    net = random_net(2, 2, seed=5)
    doc = json.loads(serialize(net))
    # output-layer weights this large overflow the read-out sum to inf
    shift = doc["layers"][0]["shift"]
    shift["weights"][-1] = [1.7e308 for _ in shift["weights"][-1]]
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    cfg = {"model": str(model_path), "n_points": 10}
    with np.errstate(all="ignore"):
        code, out = run(tmp_path, "verify", cfg)
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"


def test_verify_identity_model_vs_frozen_flow(tmp_path):
    model_path = tmp_path / "identity.json"
    save_net(MPNet(2, ()), model_path)
    cfg = {
        "model": str(model_path),
        "n_points": 10,
        "reference": {"field": {"id": "harmonic2d"}, "T": 0.0, "lp_samples": 200},
    }
    code, out = run(tmp_path, "verify", cfg)
    assert code == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["lp_error"]["value"] < 1e-12


HARMONIC_BOX = {"lo": [-1, -1], "hi": [1, 1]}
DECOMPOSE_CFG = {"field": {"id": "harmonic2d"}, "box": HARMONIC_BOX}
COMPILE_CFG = dict(DECOMPOSE_CFG, T=0.5, n_steps=2)
CONVERGENCE_CFG = dict(DECOMPOSE_CFG, T=0.5, step_counts=[2, 4])


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("decompose", dict(DECOMPOSE_CFG, n_samples=0), "config.n_samples"),
        ("decompose", dict(DECOMPOSE_CFG, quad_nodes=0), "config.quad_nodes"),
        ("compile", dict(COMPILE_CFG, det_points=0), "config.det_points"),
        ("compile", dict(COMPILE_CFG, det_points=-3), "config.det_points"),
        ("convergence", dict(CONVERGENCE_CFG, n_samples=0), "config.n_samples"),
        ("verify", {"n_points": 0}, "config.n_points"),
    ],
)
def test_counts_below_one_exit_2_naming_the_key(tmp_path, command, config, key):
    if command == "verify":
        model_path = tmp_path / "identity.json"
        save_net(MPNet(2, ()), model_path)
        config = dict(config, model=str(model_path))
    code, out = run(tmp_path, command, config)
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert f"{key} must be >= 1" in manifest["error"]


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("gen-data", dict(GEN_CFG, h_ref=float("nan")), "config.h_ref"),
        ("gen-data", dict(GEN_CFG, h_ref=float("inf")), "config.h_ref"),
        ("gen-data", dict(GEN_CFG, x0=[1.0, float("nan")]), "config.x0[1]"),
        ("decompose", dict(DECOMPOSE_CFG, box={"lo": [-1, -float("inf")], "hi": [1, 1]}),
         "box.lo[1]"),
        ("compile", dict(COMPILE_CFG, T=float("-inf")), "config.T"),
        ("gen-data", dict(GEN_CFG, h_data=10**400), "config.h_data"),  # beyond float range
    ],
)
def test_non_finite_numbers_exit_2_naming_the_key(tmp_path, command, config, key):
    code, out = run(tmp_path, command, config)  # json writes NaN, Infinity, -Infinity
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"].endswith(f"{key} must be a finite number")


def test_compile_and_decompose_deterministic_bytes(tmp_path):
    compile_cfg = {
        "field": {"id": "harmonic2d"},
        "T": 0.5,
        "n_steps": 3,
        "box": {"lo": [-1, -1], "hi": [1, 1]},
        "det_points": 3,
    }
    _, c1 = run(tmp_path, "compile", compile_cfg, out=tmp_path / "c1")
    _, c2 = run(tmp_path, "compile", compile_cfg, out=tmp_path / "c2")
    for name in ("model.json", "manifest.json"):
        assert (c1 / name).read_bytes() == (c2 / name).read_bytes()

    deco_cfg = {
        "field": {"id": "harmonic2d"},
        "box": {"lo": [-1, -1], "hi": [1, 1]},
        "n_samples": 20,
    }
    _, d1 = run(tmp_path, "decompose", deco_cfg, out=tmp_path / "d1")
    _, d2 = run(tmp_path, "decompose", deco_cfg, out=tmp_path / "d2")
    for name in ("decomposition.json", "manifest.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    _, data_dir = run(tmp_path, "gen-data", GEN_CFG, out=tmp_path / "data")
    cfg = {
        "dataset": str(data_dir / "dataset.csv"),
        "epochs": 10,
        "n_layers": 1,
        "width": 3,
        "seed": 2,
    }
    _, m1 = run(tmp_path, "train", cfg, seed=9, out=tmp_path / "s9")
    _, m2 = run(tmp_path, "train", dict(cfg, seed=9), out=tmp_path / "cfg9")
    assert (m1 / "model.json").read_bytes() == (m2 / "model.json").read_bytes()


LORENTZ_COMPILE_CFG = {
    "field": {"id": "lorentz4d"},
    "T": 0.2,
    "n_steps": 1,
    "box": {"lo": [-0.4, 0.5, 0.6, 0.0], "hi": [0.6, 1.5, 1.6, 1.0]},
    "det_points": 2,
}


@pytest.mark.parametrize(
    "index, value, message",
    [
        (0, 4.0, "pairshift d must be an integer in [1, 3], got 4.0"),
        (0, 0.0, "pairshift d must be an integer in [1, 3], got 0.0"),
        (0, -1.0, "pairshift d must be an integer in [1, 3], got -1.0"),
        (0, 1.5, "pairshift d must be an integer in [1, 3], got 1.5"),
        (1, -1.0, "pairshift comp must be 0 or 1, got -1.0"),
        (1, 2.0, "pairshift comp must be 0 or 1, got 2.0"),
        (4, 1.5, "pairshift quad_nodes must be an integer >= 1, got 1.5"),
        (4, 0.0, "pairshift quad_nodes must be an integer >= 1, got 0.0"),
        (5, 1e-3, "pairshift fd_step must be 1e-05, got 0.001"),
        (5, 0.0, "pairshift fd_step must be 1e-05, got 0.0"),
        (6, -1.0, "pairshift tol must be a positive finite number, got -1.0"),
        (6, float("inf"), "pairshift tol must be a positive finite number, got inf"),
        (6, float("nan"), "pairshift tol must be a positive finite number, got nan"),
        (7, 4.5, "pairshift dim must be an integer, got 4.5"),
        # rejected before Gauss-Legendre allocates anything for the nodes
        (4, 1e9, "quad_nodes must be <= 1024, got 1000000000"),
    ],
    ids=["d=4", "d=0", "d=-1", "d=1.5", "comp=-1", "comp=2", "quad_nodes=1.5", "quad_nodes=0",
         "fd_step=1e-3", "fd_step=0", "tol=-1", "tol=inf", "tol=nan", "dim=4.5", "quad_nodes=1e9"],
)
def test_verify_bad_pairshift_params_exit_2(tmp_path, index, value, message):
    code, compiled = run(tmp_path, "compile", LORENTZ_COMPILE_CFG, out=tmp_path / "compiled")
    assert code == 0
    doc = json.loads((compiled / "model.json").read_text())
    assert len(doc["layers"]) == 6
    doc["layers"][0]["shift"]["params"][index] = value
    model_path = tmp_path / "edited.json"
    model_path.write_text(json.dumps(doc))
    code, out = run(tmp_path, "verify", {"model": str(model_path), "n_points": 4})
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert message in manifest["error"]


CYCLE_POLY = {"id": "poly", "dim": 3,
              "components": [[[1.0, [0, 1, 0]]], [[1.0, [0, 0, 1]]], [[1.0, [1, 0, 0]]]]}


@pytest.mark.parametrize(
    "edit, message",
    [
        # 8 slots, 2 x 3 box bounds, then the 16-value field encoding
        (lambda params: params[:17], "field 'poly' params are truncated"),
        (lambda params: params + [0.0], "field 'poly' params have values left over"),
        (lambda params: params[:14] + [float("inf")] + params[15:], "field 'poly' params hold a bad count inf"),
    ],
    ids=["truncated", "left-over", "count=inf"],
)
def test_verify_bad_pairshift_field_params_exit_2(tmp_path, edit, message):
    cfg = {"field": CYCLE_POLY, "T": 0.5, "n_steps": 1, "box": {"lo": [-1, -1, -1], "hi": [1, 1, 1]},
           "det_points": 2}
    code, compiled = run(tmp_path, "compile", cfg, out=tmp_path / "compiled")
    assert code == 0
    doc = json.loads((compiled / "model.json").read_text())
    for layer in doc["layers"]:
        assert len(layer["shift"]["params"]) == 30
        layer["shift"]["params"] = edit(layer["shift"]["params"])
    model_path = tmp_path / "edited.json"
    model_path.write_text(json.dumps(doc))
    code, out = run(tmp_path, "verify", {"model": str(model_path), "n_points": 4})
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert message in manifest["error"]


@pytest.mark.parametrize(
    "command, config",
    [("compile", COMPILE_CFG), ("decompose", DECOMPOSE_CFG), ("convergence", CONVERGENCE_CFG)],
)
def test_quad_nodes_above_bound_exit_2(tmp_path, command, config):
    code, out = run(tmp_path, command, dict(config, quad_nodes=1025))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert "quad_nodes must be <= 1024, got 1025" in manifest["error"]


def test_verify_model_number_beyond_float_range_exits_2(tmp_path):
    shift = {"type": "fixed", "id": "constant", "params": [10**400]}
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"dim": 2, "layers": [{"kind": "shear", "i": 1, "shift": shift}]}))
    code, out = run(tmp_path, "verify", {"model": str(model_path), "n_points": 4})
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert "field layers[0].shift.params[0] is beyond float range" in manifest["error"]


def _verify_exits_2_with(tmp_path, doc, message):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))  # writes NaN and Infinity, as json reads them
    code, out = run(tmp_path, "verify", {"model": str(model_path), "n_points": 4})
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert message in manifest["error"]


@pytest.mark.parametrize(
    "sid, params, slot",
    [("constant", [float("nan")], 0), ("linear", [1.0, float("inf")], 1)],
    ids=["constant-nan", "linear-inf"],
)
def test_verify_non_finite_fixed_params_exit_2_naming_the_slot(tmp_path, sid, params, slot):
    shift = {"type": "fixed", "id": sid, "params": params}
    doc = {"dim": 3, "layers": [{"kind": "shear", "i": 1, "shift": shift}]}
    _verify_exits_2_with(tmp_path, doc, f"field layers[0].shift.params[{slot}] must be a finite number")


def test_verify_non_finite_pairshift_tau_exits_2_naming_the_slot(tmp_path):
    code, compiled = run(tmp_path, "compile", LORENTZ_COMPILE_CFG, out=tmp_path / "compiled")
    assert code == 0
    doc = json.loads((compiled / "model.json").read_text())
    doc["layers"][3]["shift"]["params"][2] = float("nan")  # tau
    _verify_exits_2_with(tmp_path, doc, "field layers[3].shift.params[2] must be a finite number")


def test_compiled_model_format_is_pinned(tmp_path):
    # model.json holds config numbers and Python float arithmetic only
    # (tau = k*h, h = T/n), so its bytes do not depend on the platform
    code, compiled = run(tmp_path, "compile", LORENTZ_COMPILE_CFG)
    assert code == 0
    data = (compiled / "model.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "0c27cfbc874ba3bf1d3b4f82c819dc9a597aee7814a9bcd088497b9b50c52e18"
    )
    assert all(layer["shift"]["params"][5] == FD_STEP for layer in json.loads(data)["layers"])


POLY_HARMONIC = {"id": "poly", "dim": 2, "components": [[[-1.0, [0, 1]]], [[1.0, [1, 0]]]]}


def _poly_with(component):
    return dict(POLY_HARMONIC, components=[component, POLY_HARMONIC["components"][1]])


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("gen-data", dict(GEN_CFG, field={"id": "linear", "matrix": [[0.0, float("nan")], [1.0, 0.0]]}),
         "field.matrix[0][1] must be a finite number"),
        ("gen-data", dict(GEN_CFG, field={"id": "linear", "matrix": [[0.0, -1.0], [True, 0.0]]}),
         "field.matrix[1][0] must be a number"),
        ("gen-data", dict(GEN_CFG, field=_poly_with([[float("inf"), [0, 1]]])),
         "poly component 1 term 1: coefficient must be a finite number, got inf"),
        ("gen-data", dict(GEN_CFG, field=_poly_with([[10**400, [0, 1]]])),
         "poly component 1 term 1: coefficient must be a finite number"),
        ("gen-data", dict(GEN_CFG, field=_poly_with([[-1.0, [0, 1]], [True, [0, 0]]])),
         "poly component 1 term 2: coefficient must be a finite number, got True"),
        ("gen-data", dict(GEN_CFG, field=_poly_with([1.0])),
         "poly component 1 term 1 must be [coefficient, multi-index], got 1.0"),
        ("gen-data", dict(GEN_CFG, field=_poly_with([[1.0]])),
         "poly component 1 term 1 must be [coefficient, multi-index], got [1.0]"),
        ("gen-data", dict(GEN_CFG, field=_poly_with([[-1.0, [0, 0.5]]])),
         "poly component 1 term 1: multi-index [0, 0.5] invalid for dim 2"),
        ("gen-data", dict(GEN_CFG, field=_poly_with([[-1.0, [0, False]]])),
         "poly component 1 term 1: multi-index [0, False] invalid for dim 2"),
        ("gen-data", dict(GEN_CFG, field=dict(POLY_HARMONIC, components=[1.0, []])),
         "poly component 1 must be a list of terms, got 1.0"),
        ("gen-data", dict(GEN_CFG, field=_poly_with([[-1.0, [0, 10**400]]])),
         "poly component 1 term 1: exponents must be at most 2**53"),
        ("gen-data", dict(GEN_CFG, field=_poly_with([[-1.0, [0, 1]], [1.0, [2**53 + 1, 0]]])),
         "poly component 1 term 2: exponents must be at most 2**53"),
        ("convergence", dict(CONVERGENCE_CFG, step_counts=[2, 4.5]),
         "config.step_counts[1] must be an integer"),
    ],
    ids=["matrix-nan", "matrix-true", "coef-inf", "coef-1e400", "coef-true", "bare-number-term",
         "short-term", "exponent-0.5", "exponent-false", "bare-number-component",
         "exponent-1e400", "exponent-2**53+1", "step-count"],
)
def test_bad_field_config_exits_2_naming_the_term(tmp_path, command, config, message):
    code, out = run(tmp_path, command, config)
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert message in manifest["error"]


@pytest.mark.parametrize(
    "field, key",
    [
        ({"id": "lorentz4d", "dim": 3}, "dim"),
        ({"id": "harmonic2d", "dim": 2}, "dim"),
        ({"id": "linear", "matrix": [[0.0, -1.0], [1.0, 0.0]], "components": []}, "components"),
        (dict(POLY_HARMONIC, matrix=[[0.0, -1.0], [1.0, 0.0]]), "matrix"),
    ],
    ids=["lorentz4d-dim", "harmonic2d-dim", "linear-components", "poly-matrix"],
)
def test_field_key_the_field_does_not_read_exits_2(tmp_path, field, key):
    x0 = [0.1, 1.0, 1.1, 0.5] if field["id"] == "lorentz4d" else [1.0, 0.0]
    code, out = run(tmp_path, "gen-data", dict(GEN_CFG, field=field, x0=x0))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert f"field.{key}" in manifest["error"]


def test_poly_exponents_may_be_integral_floats(tmp_path):
    as_floats = dict(POLY_HARMONIC, components=[[[-1.0, [0.0, 1.0]]], [[1.0, [1.0, 0.0]]]])
    _, ints = run(tmp_path, "gen-data", dict(GEN_CFG, field=POLY_HARMONIC), out=tmp_path / "i")
    code, floats = run(tmp_path, "gen-data", dict(GEN_CFG, field=as_floats), out=tmp_path / "f")
    assert code == 0
    assert (floats / "dataset.csv").read_bytes() == (ints / "dataset.csv").read_bytes()
