import json

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


def test_gen_data_zero_pairs_exits_2(tmp_path):
    cfg = dict(GEN_CFG, n_pairs=0)
    code, out = run(tmp_path, "gen-data", cfg)
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"


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
