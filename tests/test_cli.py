import hashlib
import json
import warnings

import numpy as np
import pytest

from mpflow.cli import main
from mpflow.coupling import MPNet
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


def test_convergence_negative_T_fits_the_step_magnitude(tmp_path, capfd):
    # h = T/n < 0: the slope is fitted against log2|h|, with nothing from
    # numpy or LAPACK on stderr
    cfg = dict(CONVERGENCE_CFG, T=-1.0, step_counts=[1, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "convergence", cfg)
    assert code == 0
    assert np.isfinite(json.loads((out / "convergence.json").read_text())["slope"])
    assert capfd.readouterr().err == ""


def test_unknown_config_key_exits_2(tmp_path):
    cfg = dict(GEN_CFG, extra_knob=1)
    code, _ = run(tmp_path, "gen-data", cfg)
    assert code == 2


def test_missing_config_exits_2(tmp_path):
    code = main(["gen-data", "--out", str(tmp_path / "o")])
    assert code == 2
    assert (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("gen-data", None, "--config is not a file: {path}"),
        ("train", {"dataset": "{path}", "epochs": 2}, "config.dataset is not a file: {path}"),
        ("predict", {"model": "{path}", "x0": [1.0, 0.0], "n_steps": 2}, "config.model is not a file: {path}"),
        ("verify", {"model": "{path}"}, "config.model is not a file: {path}"),
    ],
    ids=["config", "dataset", "predict-model", "verify-model"],
)
def test_an_input_path_that_is_not_a_file_exits_2_naming_key_and_path(tmp_path, capsys, command, config,
                                                                     message):
    path = tmp_path / "a_directory"
    path.mkdir()
    if config is None:
        cfg_path = path
    else:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config).replace("{path}", str(path)))
    message = message.format(path=path)
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert (manifest["status"], manifest["error"]) == ("error", message)
    assert capsys.readouterr().err == f"error: {message}\n"


def test_an_out_path_that_is_a_file_exits_2_naming_it(tmp_path, capsys):
    # no manifest can be written where a file stands
    out = tmp_path / "out.txt"
    out.write_text("kept")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(GEN_CFG))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert out.read_text() == "kept"
    assert capsys.readouterr().err == f"error: --out cannot be made a directory: {out} (File exists)\n"


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


def test_loss_curve_csv_is_the_metrics_loss_curve_at_17_digits(tmp_path):
    # one line per logged epoch: the epoch's digits, then the loss as in metrics.json
    _, data_dir = run(tmp_path, "gen-data", GEN_CFG, out=tmp_path / "data")
    cfg = {"dataset": str(data_dir / "dataset.csv"), "epochs": 30, "n_layers": 2, "width": 4,
           "log_stride": 10, "seed": 5}
    code, model_dir = run(tmp_path, "train", cfg, out=tmp_path / "model")
    assert code == 0
    curve = json.loads((model_dir / "metrics.json").read_text())["loss_curve"]
    assert [e for e, _ in curve] == [0, 10, 20, 30]
    text = (model_dir / "loss_curve.csv").read_text()
    assert text == "epoch,mse\n" + "".join(f"{e},{v:.17g}\n" for e, v in curve)
    assert text.splitlines()[1].startswith("0,") and text.splitlines()[-1].startswith("30,")


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


def _lorentz_recipe(tmp_path):
    code, compiled = run(tmp_path, "compile", LORENTZ_COMPILE_CFG, out=tmp_path / "compiled")
    assert code == 0
    doc = json.loads((compiled / "model.json").read_text())
    assert [layer["kind"] for layer in doc["layers"]] == ["compiled"]
    return doc


def test_decompose_compile_and_verify_never_import_numpy_polynomial(tmp_path):
    # the Gauss-Legendre nodes come without numpy.polynomial, whose cold import
    # costs milliseconds per process: decompose a D = 4 chain (every pair takes
    # the quadrature branch) and compile and verify lorentz4d in a fresh process
    import subprocess
    import sys
    from pathlib import Path

    a = [0.75, 1.25, 1.0]
    chain = [[] for _ in range(4)]
    for k in range(3):
        chain[k].append([a[k], [int(j in (k, k + 1)) for j in range(4)]])
        chain[k + 1].append([-a[k] / 2.0, [2 * int(j == k + 1) for j in range(4)]])
    configs = {
        "decompose": {"field": {"id": "poly", "dim": 4, "components": chain},
                      "box": {"lo": [-1.0] * 4, "hi": [1.0] * 4}, "n_samples": 20},
        "compile": LORENTZ_COMPILE_CFG,
        "verify": {"model": "compile/model.json", "box": LORENTZ_COMPILE_CFG["box"], "n_points": 4},
    }
    for command, config in configs.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(config))
    script = """
import sys
sys.path.insert(0, sys.argv[1])
from mpflow.cli import main
for command in ("decompose", "compile", "verify"):
    assert main([command, "--config", command + ".json", "--out", command]) == 0, command
print(sorted(m for m in sys.modules if m.startswith("numpy.polynomial")))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script, src], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    manifest = json.loads((tmp_path / "decompose" / "manifest.json").read_text())
    assert manifest["pair_separability"] == ["no"] * 3


DROP = object()


def _set(path, value):
    # an edit of the model's compiled entry: sets (or with value DROP, removes) path
    def edit(entry):
        *parents, key = path
        for p in parents:
            entry = entry[p]
        if value is DROP:
            del entry[key]
        else:
            entry[key] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set(["tau"], float("nan")), "layers[0].tau must be a finite number"),
        (_set(["T"], float("inf")), "layers[0].T must be a finite number"),
        (_set(["T"], 10**400), "layers[0].T must be a finite number"),
        (_set(["tau"], True), "layers[0].tau must be a number"),
        (_set(["tau"], DROP), "missing key layers[0].tau"),
        (_set(["tol"], float("nan")), "layers[0].tol must be a finite number"),
        (_set(["tol"], float("inf")), "layers[0].tol must be a finite number"),
        (_set(["tol"], -1.0), "layers[0]: tol must be a positive finite number, got -1.0"),
        (_set(["n_steps"], 1.5), "layers[0].n_steps must be an integer"),
        (_set(["n_steps"], 0), "layers[0]: n_steps must be >= 1, got 0"),
        # rejected before a layer is built
        (_set(["n_steps"], 10**9), "layers[0]: n_steps 1000000000 would build 6000000000 layers, "
                                   "more than 100000"),
        (_set(["quad_nodes"], 1.5), "layers[0].quad_nodes must be an integer"),
        (_set(["quad_nodes"], 0), "layers[0].quad_nodes must be >= 1, got 0"),
        # rejected before Gauss-Legendre allocates anything for the nodes
        (_set(["quad_nodes"], 10**9), "layers[0]: quad_nodes must be <= 1024, got 1000000000"),
        (_set(["box", "lo", 1], float("nan")), "layers[0].box.lo[1] must be a finite number"),
        (_set(["box", "hi"], [1.0, 1.0, 1.0]),
         "layers[0].box: box bounds must be 1-d arrays of equal length, got (4,), (3,)"),
        (_set(["box", "hi"], [0.6, 0.5, 1.6, 1.0]), "layers[0].box: empty box"),
        (_set(["box", "mid"], []), "unknown key layers[0].box.mid"),
        (_set(["box"], {"lo": [-1.0] * 3, "hi": [1.0] * 3}), "layers[0].box has dim 3, the model has dim 4"),
        # a lorentz4d field config reads no key but its id
        (_set(["field", "dim"], 3), "unknown key layers[0].field.dim"),
        (_set(["field", "dim"], 4.5), "unknown key layers[0].field.dim"),
        (_set(["field", "id"], "custom"), "layers[0].field: unknown field id 'custom'"),
        (_set(["field", "id"], 4), "layers[0].field.id must be of type str"),
        (_set(["field"], "lorentz4d"), "layers[0].field must be of type dict"),
        (_set(["field"], {"id": "harmonic2d"}), "layers[0].field has dim 2, the model has dim 4"),
        # the key of the flat encoding that earlier model files held
        (_set(["field", "params"], []), "unknown key layers[0].field.params"),
        (_set(["field", "foo"], 1), "unknown key layers[0].field.foo"),
        (_set(["fd_step"], 1e-5), "unknown key layers[0].fd_step"),
    ],
    ids=["tau=nan", "T=inf", "T=1e400", "tau=true", "tau-missing", "tol=nan", "tol=inf", "tol=-1",
         "n_steps=1.5", "n_steps=0", "n_steps=1e9", "quad_nodes=1.5", "quad_nodes=0", "quad_nodes=1e9",
         "box.lo=nan", "box.hi-short", "box-empty", "box.mid", "box-dim", "field.dim=3", "field.dim=4.5",
         "field.id=custom", "field.id=4", "field-str", "field-dim", "field.params-left-over", "field.foo",
         "fd_step"],
)
def test_verify_bad_recipe_exits_2_naming_the_key(tmp_path, edit, message):
    doc = _lorentz_recipe(tmp_path)
    edit(doc["layers"][0])
    _verify_exits_with(tmp_path, doc, 2, message)


CYCLE_POLY = {"id": "poly", "dim": 3,
              "components": [[[1.0, [0, 1, 0]]], [[1.0, [0, 0, 1]]], [[1.0, [1, 0, 0]]]]}


@pytest.mark.parametrize(
    "edit, message",
    [
        # the field's params: one term list per component
        (lambda field: dict(field, components=field["components"][:2]),
         "layers[0].field.components: poly field needs 3 component term lists, got 2"),
        (lambda field: dict(field, components=field["components"] + [[]]),
         "layers[0].field.components: poly field needs 3 component term lists, got 4"),
        (lambda field: dict(field, components=[[[1.0]]] + field["components"][1:]),
         "layers[0].field.components: poly component 1 term 1 must be [coefficient, multi-index], "
         "got [1.0]"),
        (lambda field: dict(field, components=[[[1.0, [0, 1.5, 0]]]] + field["components"][1:]),
         "layers[0].field.components: poly component 1 term 1: multi-index [0, 1.5, 0] invalid for dim 3"),
        (lambda field: dict(field, components={}), "layers[0].field.components must be of type list"),
        (lambda field: dict(field, dim=0), "layers[0].field.dim must be >= 1, got 0"),
        (lambda field: dict(field, matrix=[[0.0]]), "unknown key layers[0].field.matrix"),
        (lambda field: POLY_HARMONIC, "layers[0].field has dim 2, the model has dim 3"),
    ],
    ids=["truncated", "left-over", "bad-term", "exponent-1.5", "components-dict", "dim=0", "matrix",
         "other-dim"],
)
def test_verify_bad_recipe_field_params_exit_2(tmp_path, edit, message):
    cfg = {"field": CYCLE_POLY, "T": 0.5, "n_steps": 1, "box": {"lo": [-1, -1, -1], "hi": [1, 1, 1]},
           "det_points": 2}
    code, compiled = run(tmp_path, "compile", cfg, out=tmp_path / "compiled")
    assert code == 0
    doc = json.loads((compiled / "model.json").read_text())
    entry = doc["layers"][0]
    assert entry["field"] == CYCLE_POLY  # the compile config's field
    entry["field"] = edit(entry["field"])
    _verify_exits_with(tmp_path, doc, 2, message)


@pytest.mark.parametrize(
    "field, dim, code, message",
    [
        ({"id": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]]}, 2, 3,
         "layers[1]: field 'linear' is not divergence-free: |div|=2.000e+00"),
        # f = (y1*y2, -y2^2/2, 0.7): pair 1 is not separable
        ({"id": "poly", "dim": 3,
          "components": [[[1.0, [1, 1, 0]]], [[-0.5, [0, 2, 0]]], [[0.7, [0, 0, 0]]]]}, 3, 4,
         "layers[1]: field 'poly' has non-separable pairs at d=[1]"),
    ],
    ids=["not-divergence-free", "non-separable"],
)
def test_verify_recipe_that_does_not_compile_keeps_its_exit_code(tmp_path, field, dim, code, message):
    recipe = {"kind": "compiled", "field": field, "tau": 0.0, "T": 0.5, "n_steps": 1,
              "box": {"lo": [-1.0] * dim, "hi": [1.0] * dim}, "quad_nodes": 32, "tol": 1e-6}
    shear = {"kind": "shear", "i": 1, "shift": {"type": "fixed", "id": "constant", "params": [0.0]}}
    _verify_exits_with(tmp_path, {"dim": dim, "layers": [shear, recipe]}, code, message)


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


@pytest.mark.parametrize(
    "command, config",
    [("compile", COMPILE_CFG), ("decompose", DECOMPOSE_CFG), ("convergence", CONVERGENCE_CFG)],
)
def test_a_box_of_another_dim_than_the_field_exits_2_naming_the_box(tmp_path, command, config):
    code, out = run(tmp_path, command, dict(config, box={"lo": [-1, -1, -1], "hi": [1, 1, 1]}))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"] == "sample box has dim 3, field has dim 2"


def test_verify_model_number_beyond_float_range_exits_2(tmp_path):
    shift = {"type": "fixed", "id": "constant", "params": [10**400]}
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"dim": 2, "layers": [{"kind": "shear", "i": 1, "shift": shift}]}))
    code, out = run(tmp_path, "verify", {"model": str(model_path), "n_points": 4})
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"] == "layers[0].shift.params[0] must be a finite number"


def _verify_exits_with(tmp_path, doc, code, message):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))  # writes NaN and Infinity, as json reads them
    got, out = run(tmp_path, "verify", {"model": str(model_path), "n_points": 4})
    assert got == code
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
    _verify_exits_with(tmp_path, doc, 2, f"layers[0].shift.params[{slot}] must be a finite number")


def test_compiled_model_format_is_pinned(tmp_path):
    # model.json holds the compile config's numbers only, so its bytes do not
    # depend on the platform
    code, compiled = run(tmp_path, "compile", LORENTZ_COMPILE_CFG)
    assert code == 0
    data = (compiled / "model.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "14f5bb5cc5e91069477c0b4b374914f591def563ec531c5ed40a64edcd31c397"
    )
    assert len(data) == 298


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


@pytest.mark.parametrize("dim", [0, -1])
def test_poly_dim_below_one_exits_2_naming_the_key(tmp_path, dim):
    field = {"id": "poly", "dim": dim, "components": []}
    code, out = run(tmp_path, "gen-data", dict(GEN_CFG, field=field))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert f"field.dim must be >= 1, got {dim}" in manifest["error"]


def test_ragged_linear_matrix_exits_2_naming_the_row(tmp_path):
    field = {"id": "linear", "matrix": [[1.0, 0.0], [0.0]]}
    code, out = run(tmp_path, "gen-data", dict(GEN_CFG, field=field))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert "field.matrix[1] must have the shape of field.matrix[0], (2,), got (1,)" in manifest["error"]


REFERENCE_VERIFY = {"model": "identity.json", "n_points": 2}


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("gen-data", [1], "config must be a JSON object"),
        ("gen-data", {k: v for k, v in GEN_CFG.items() if k != "n_pairs"}, "missing key config.n_pairs"),
        ("gen-data", dict(GEN_CFG, field="harmonic2d"), "config.field must be of type dict"),
        ("decompose", dict(DECOMPOSE_CFG, box=[-1, 1]), "config.box must be of type dict"),
        ("gen-data", dict(GEN_CFG, x0=1.0), "config.x0 must be of type list"),
        ("convergence", dict(CONVERGENCE_CFG, step_counts=2), "config.step_counts must be of type list"),
        ("train", {"dataset": 1, "epochs": 2}, "config.dataset must be of type str"),
        # types are checked before the dataset file
        ("train", {"dataset": "missing.csv", "epochs": 2, "activation": 1},
         "config.activation must be of type str"),
        ("gen-data", dict(GEN_CFG, n_pairs=1.5), "config.n_pairs must be an integer"),
        ("train", {"dataset": "missing.csv", "epochs": 2, "width": "8"}, "config.width must be an integer"),
        ("gen-data", dict(GEN_CFG, h_data="0.1"), "config.h_data must be a number"),
        ("gen-data", dict(GEN_CFG, field={"id": "nope"}), "field: unknown field id 'nope'"),
        ("gen-data", dict(GEN_CFG, field={}), "missing key field.id"),
        ("gen-data", dict(GEN_CFG, x0=[]), "config.x0 must be a non-empty list of numbers"),
        # types are checked before values
        ("gen-data", dict(GEN_CFG, seed="a", n_pairs=0), "config.seed must be an integer"),
        ("decompose", dict(DECOMPOSE_CFG, box={"lo": [-1, -1]}), "missing key box.hi"),
        ("train", {"dataset": "missing.csv", "epochs": 2}, "dataset file not found: missing.csv"),
        ("predict", {"model": "missing.json", "x0": [1.0, 0.0], "n_steps": 2},
         "model file not found: missing.json"),
        ("verify", {"model": "missing.json"}, "model file not found: missing.json"),
        ("verify", {"model": "missing.json", "reference": 1}, "config.reference must be of type dict"),
        ("verify", dict(REFERENCE_VERIFY, reference={"field": {"id": "harmonic2d"}}),
         "missing key config.reference.T"),
        ("verify", dict(REFERENCE_VERIFY, reference={"field": {"id": "nope"}, "T": 0.1}),
         "config.reference.field: unknown field id 'nope'"),
        ("verify", dict(REFERENCE_VERIFY, reference={"field": {"id": "harmonic2d"}, "T": 0.1,
                                                     "lp_samples": 0}),
         "config.reference.lp_samples must be >= 1, got 0"),
        # box, x0 and reference.field against the model's dim, before any of it runs
        ("verify", dict(REFERENCE_VERIFY, box={"lo": [-1, -1, -1], "hi": [1, 1, 1]}),
         "box has dim 3, the model has dim 2"),
        ("verify", dict(REFERENCE_VERIFY, model="layered.json",
                        box={"lo": [-1, -1, -1], "hi": [1, 1, 1]}),
         "box has dim 3, the model has dim 2"),
        ("verify", dict(REFERENCE_VERIFY, reference={"field": {"id": "lorentz4d"}, "T": 0.1}),
         "config.reference.field has dim 4, the model has dim 2"),
        ("predict", {"model": "layered.json", "x0": [1.0, 0.0, 0.5], "n_steps": 2},
         "config.x0 has dim 3, the model has dim 2"),
        ("gen-data", "nope", "config is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("gen-data", None, "config file not found: missing.json"),
    ],
    ids=["not-an-object", "missing-key", "dict-field", "dict-box", "list-x0", "list-step-counts",
         "str-dataset", "str-activation", "int-n-pairs", "int-width", "number-h-data",
         "unknown-field-id", "missing-field-id", "empty-x0", "seed-before-n-pairs", "missing-box-hi",
         "train-dataset-file", "predict-model-file", "verify-model-file", "dict-reference",
         "missing-reference-key", "reference-field-id", "reference-lp-samples", "box-dim-no-layers",
         "box-dim", "reference-field-dim", "predict-x0-dim", "invalid-json", "missing-config-file"],
)
def test_config_faults_exit_2_with_the_pinned_message(tmp_path, monkeypatch, capsys, command, config,
                                                      message):
    monkeypatch.chdir(tmp_path)  # the paths in the configs and the messages are relative
    save_net(MPNet(2, ()), tmp_path / "identity.json")
    save_net(random_net(2, 2, 0), tmp_path / "layered.json")
    argv = [command, "--config", "missing.json", "--out", "out"]
    if config is not None:
        text = config if isinstance(config, str) else json.dumps(config)
        (tmp_path / "config.json").write_text(text)
        argv[2] = "config.json"
    assert main(argv) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"] == message
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "rows, message",
    [
        # a blank line before the header and one between rows still count
        ("\nx1,x2,xp1,xp2\n1.0,0.0,0.9,0.1\n\n0.9,0.1,0.8\n",
         "dataset CSV line 5, column 4: the row has 3 columns, the header 4"),
        ("x1,x2,xp1,xp2\n1.0,0.0,0.9,0.1,0.5\n",
         "dataset CSV line 2, column 5: the row has 5 columns, the header 4"),
        ("x1,x2,xp1,xp2\n1.0,abc,0.9,0.1\n", "dataset CSV line 2, column 2 must be a finite number, got 'abc'"),
        ("x1,x2,xp1,xp2\n1.0,0.0,0.9,0.1\n0.9,0.1,nan,0.2\n",
         "dataset CSV line 3, column 3 must be a finite number, got 'nan'"),
        ("x1,x2,xp1,xp2\n1.0,0.0,0.9,-inf\n", "dataset CSV line 2, column 4 must be a finite number, got '-inf'"),
    ],
    ids=["short-row", "long-row", "not-a-number", "nan", "inf"],
)
def test_bad_dataset_row_exits_2_naming_line_and_column(tmp_path, rows, message):
    (tmp_path / "dataset.csv").write_text(rows)
    code, out = run(tmp_path, "train", {"dataset": str(tmp_path / "dataset.csv"), "epochs": 2})
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"] == message


def test_train_negative_learning_rate_exits_2(tmp_path):
    _, data_dir = run(tmp_path, "gen-data", GEN_CFG, out=tmp_path / "data")
    cfg = {"dataset": str(data_dir / "dataset.csv"), "epochs": 2, "width": 2, "lr": -5}
    code, out = run(tmp_path, "train", cfg)
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"] == "lr must be a positive finite number, got -5.0"
    assert not (out / "model.json").exists()


def test_decompose_zero_tol_exits_2_naming_it(tmp_path):
    code, out = run(tmp_path, "decompose", dict(DECOMPOSE_CFG, tol=0))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"] == "tol must be a positive finite number, got 0.0"


def test_poly_exponents_may_be_integral_floats(tmp_path):
    as_floats = dict(POLY_HARMONIC, components=[[[-1.0, [0.0, 1.0]]], [[1.0, [1.0, 0.0]]]])
    _, ints = run(tmp_path, "gen-data", dict(GEN_CFG, field=POLY_HARMONIC), out=tmp_path / "i")
    code, floats = run(tmp_path, "gen-data", dict(GEN_CFG, field=as_floats), out=tmp_path / "f")
    assert code == 0
    assert (floats / "dataset.csv").read_bytes() == (ints / "dataset.csv").read_bytes()
