"""The benchmark's workloads: fixed CLI pipelines and the checks on their outputs.

Each workload is a list of stages run one after another through
`mpflow.cli.main` (a closed loop with one caller). A stage is a CLI command,
the config the benchmark writes for it, and a check on what it wrote. The
workload seed reaches the program only through these generated inputs: as
`--seed` for train-lorentz and compile-lorentz, and as the chain coefficients
of decompose-chain's field. README.md records why each workload was chosen.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1

# The Lorentz box excludes the field's singular line y1 = y2 = 0 (y2 >= 0.5):
# `verify` samples without exclusion and the RK4 reference blows up near it.
LORENTZ_BOX = {"lo": [-0.4, 0.5, 0.6, 0.0], "hi": [0.6, 1.5, 1.6, 1.0]}
LORENTZ = {"id": "lorentz4d"}

N_PAIRS = 199
TRAIN_EPOCHS = 500
TRAIN_LAYERS = 8
COMPILE_STEPS = 200  # 200 steps x 3 pairs x 2 shears = 1200 layers
CHAIN_DIM = 4
CHAIN_TOL = 1e-6

# Artifacts that are a pure function of (config, seed). manifest.json is left
# out: its config_sha256 hashes configs that name the run's directories.
CHECKSUM_ARTIFACTS = (
    "dataset.csv",
    "model.json",
    "metrics.json",
    "prediction.csv",
    "verification.json",
    "decomposition.json",
)


@dataclass(frozen=True)
class Stage:
    command: str
    out: str
    config: dict
    pass_seed: bool
    check: object  # (out_dir, manifest) -> list of problems


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple
    epochs: int = 0  # training epochs per pass
    mlp_layers: int = 0  # MLP-shift layers trained


def _read_json(path):
    return json.loads(Path(path).read_text())


def _check_gen_data(out, manifest):
    got = manifest.get("n_pairs")
    return [] if got == N_PAIRS else [f"n_pairs {got} != {N_PAIRS}"]


def _check_train(out, manifest):
    doc = _read_json(out / "metrics.json")
    first, final = doc["loss_curve"][0][1], doc["final_loss"]
    if not (math.isfinite(final) and math.isfinite(first)):
        return [f"non-finite loss: epoch 0 {first}, final {final}"]
    if not final < first:
        return [f"final loss {final} is not below the epoch-0 loss {first}"]
    return []


def _check_predict(out, manifest):
    return [] if manifest.get("truncated_at") is None else ["rollout truncated"]


def _check_verify(out, manifest):
    report = _read_json(out / "verification.json")
    problems = [f"{name} did not pass" for name, sec in report.items()
                if sec.get("pass", True) is not True]
    lp = report.get("lp_error", {}).get("value")
    if lp is None or not math.isfinite(lp):
        problems.append(f"lp_error is {lp}")
    return problems


def _separability(expected):
    def check(out, manifest):
        got = manifest.get("pair_separability")
        return [] if got == expected else [f"separability {got} != {expected}"]

    return check


def _check_compile(out, manifest):
    problems = _separability(["yes", "yes", "yes"])(out, manifest)
    if manifest.get("n_layers") != COMPILE_STEPS * 6:
        problems.append(f"n_layers {manifest.get('n_layers')} != {COMPILE_STEPS * 6}")
    if not manifest.get("det_check_max_dev", 1.0) < 1e-6:
        problems.append(f"det_check_max_dev {manifest.get('det_check_max_dev')}")
    return problems


def _check_decompose(out, manifest):
    doc = _read_json(out / "decomposition.json")
    problems = _separability(["no"] * (CHAIN_DIM - 1))(out, manifest)
    if not doc["residual_max"] < CHAIN_TOL:
        problems.append(f"residual {doc['residual_max']} >= tol {CHAIN_TOL}")
    return problems


def chain_coefficients(seed, dim=CHAIN_DIM):
    """a_1 .. a_{D-1} drawn uniformly from [0.5, 1.5] by the workload seed."""
    rng = random.Random(seed)
    return [rng.uniform(0.5, 1.5) for _ in range(dim - 1)]


def chain_field(coeffs):
    """Divergence-free chain polynomial field as a `poly` field config.

    f_1 = a_1 y_1 y_2, f_k = -(a_{k-1}/2) y_k^2 + a_k y_k y_{k+1}, and
    f_D = -(a_{D-1}/2) y_D^2; the partial divergences telescope to zero.
    """
    dim = len(coeffs) + 1

    def mono(*coords):
        exps = [0] * dim
        for j in coords:
            exps[j] += 1
        return exps

    components = []
    for k in range(dim):
        terms = []
        if k > 0:
            terms.append([-coeffs[k - 1] / 2.0, mono(k, k)])
        if k < dim - 1:
            terms.append([coeffs[k], mono(k, k + 1)])
        components.append(terms)
    return {"id": "poly", "dim": dim, "components": components}


def _train_lorentz(seed):
    return Workload(
        "train-lorentz",
        (
            Stage("gen-data", "data", {"field": LORENTZ, "x0": [0.1, 1.0, 1.1, 0.5],
                                       "h_data": 0.2, "n_pairs": N_PAIRS},
                  False, _check_gen_data),
            Stage("train", "model", {"dataset": "data/dataset.csv", "epochs": TRAIN_EPOCHS,
                                     "n_layers": TRAIN_LAYERS, "s": 2, "width": 64,
                                     "activation": "sigmoid", "lr": 1e-3,
                                     "log_stride": TRAIN_EPOCHS},
                  True, _check_train),
            Stage("predict", "pred", {"model": "model/model.json",
                                      "x0": [-0.15417383, 0.68005726, 1.10268704, 0.48507791],
                                      "n_steps": 100, "h_data": 0.2},
                  False, _check_predict),
            Stage("verify", "check", {"model": "model/model.json", "box": LORENTZ_BOX,
                                      "n_points": 100,
                                      "reference": {"field": LORENTZ, "T": 0.2,
                                                    "lp_samples": 100}},
                  True, _check_verify),
        ),
        epochs=TRAIN_EPOCHS,
        mlp_layers=TRAIN_LAYERS,
    )


def _compile_lorentz(seed):
    return Workload(
        "compile-lorentz",
        (
            Stage("compile", "compiled", {"field": LORENTZ, "T": 0.2, "n_steps": COMPILE_STEPS,
                                          "box": LORENTZ_BOX, "det_points": 8},
                  True, _check_compile),
            Stage("verify", "check", {"model": "compiled/model.json", "box": LORENTZ_BOX,
                                      "n_points": 8,
                                      "reference": {"field": LORENTZ, "T": 0.2,
                                                    "lp_samples": 16, "lp_tol": 1e-2}},
                  True, _check_verify),
        ),
    )


def _decompose_chain(seed):
    box = {"lo": [-1.0] * CHAIN_DIM, "hi": [1.0] * CHAIN_DIM}
    return Workload(
        "decompose-chain",
        (
            Stage("decompose", "deco", {"field": chain_field(chain_coefficients(seed)),
                                        "box": box, "quad_nodes": 32, "tol": CHAIN_TOL,
                                        "n_samples": 20},
                  False, _check_decompose),
        ),
    )


BUILDERS = {
    "train-lorentz": _train_lorentz,
    "compile-lorentz": _compile_lorentz,
    "decompose-chain": _decompose_chain,
}

NAMES = tuple(BUILDERS)


def build(name, seed) -> Workload:
    return BUILDERS[name](seed)


def stage_argv(stage: Stage, config_path, seed):
    argv = [stage.command, "--config", str(config_path), "--out", stage.out]
    if stage.pass_seed:
        argv += ["--seed", str(seed)]
    return argv


def checksum_paths(workdir, workload: Workload):
    """The pure-function artifacts the stages wrote, in a fixed order."""
    paths = []
    for stage in workload.stages:
        out = Path(workdir) / stage.out
        paths.extend(out / name for name in CHECKSUM_ARTIFACTS if (out / name).exists())
    return paths
