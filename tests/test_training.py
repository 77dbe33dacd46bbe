import numpy as np
import pytest

from dataclasses import replace

from mpflow.coupling import (
    MPNet,
    net_apply_batch,
    net_backward_collected,
    net_forward_collect,
    net_trainable_params,
    upper_layer,
)
from mpflow.dynamics import PairDataset, make_field
from mpflow.errors import ConfigError, NumericError, TrainingError
from mpflow.mlp import adam_init, adam_step, mlp_init, mlp_params, mlp_with_params
from mpflow.rng import Xoshiro256
from mpflow.shifts import MlpShift
from mpflow.training import TrainConfig, build_training_net, mse_loss, rollout, train
from mpflow.verify import fd_jacobian_det, roundtrip_error, sample_points

from test_coupling import install_power_shift


def teacher_student_dataset(seed, n_points=64, width=8):
    """Pairs (x, teacher(x)) for a one-layer upper teacher on [-1,1]^2."""
    teacher = MPNet(2, (upper_layer(2, 2, MlpShift(mlp_init((1, width, 1), "sigmoid", 1000 + seed))),))
    x = sample_points((np.full(2, -1.0), np.full(2, 1.0)), n_points, 42 + seed)
    return PairDataset(x, net_apply_batch(teacher, x)), teacher


def reference_params(ds, cfg, updates):
    """Parameters after `updates` Adam steps of a loop with per-array Adam and
    a fresh net each epoch: the reference for train's flat parameter store."""
    net = build_training_net(ds.dim, cfg)
    params = net_trainable_params(net)
    state = adam_init(params, lr=cfg.lr)
    for _ in range(updates):
        out, collected = net_forward_collect(net, ds.x)
        per_layer, _ = net_backward_collected(net, collected, (2.0 / ds.n_pairs) * (out - ds.y))
        params, state = adam_step(params, [g for grads in per_layer for g in grads], state)
        layers, pos = [], 0
        for layer in net.layers:
            n = 2 * len(layer.shift.mlp.weights)
            mlp = mlp_with_params(layer.shift.mlp, params[pos : pos + n])
            layers.append(replace(layer, shift=MlpShift(mlp)))
            pos += n
        net = MPNet(net.dim, tuple(layers))
    return params


def assert_params_equal(net, params):
    got = net_trainable_params(net)
    assert len(got) == len(params)
    for a, b in zip(got, params):
        assert a.shape == b.shape and np.array_equal(a, b)


# --- mse_loss -----------------------------------------------------------------


def test_mse_identity_on_constant_pairs():
    x = Xoshiro256(0).uniform_array((10, 3), -1, 1)
    ds = PairDataset(x, x.copy())
    assert mse_loss(MPNet(3, ()), ds) == 0.0


def test_mse_single_unit_offset_pair():
    x = np.array([[0.2, -0.4]])
    y = x + np.array([[1.0, 0.0]])
    assert mse_loss(MPNet(2, ()), PairDataset(x, y)) == 1.0


def test_mse_invariant_under_reordering():
    rng = Xoshiro256(3)
    x = rng.uniform_array((12, 2), -1, 1)
    y = rng.uniform_array((12, 2), -1, 1)
    net = MPNet(2, (upper_layer(2, 2, MlpShift(mlp_init((1, 4, 1), "sigmoid", 5))),))
    perm = np.argsort(rng.uniform_array(12))
    a = mse_loss(net, PairDataset(x, y))
    b = mse_loss(net, PairDataset(x[perm], y[perm]))
    assert abs(a - b) < 1e-15


def test_mse_empty_dataset_rejected():
    with pytest.raises(ConfigError):
        mse_loss(MPNet(2, ()), PairDataset(np.zeros((0, 2)), np.zeros((0, 2))))


# --- build_training_net ---------------------------------------------------------


def test_build_net_alternates_starting_upper():
    cfg = TrainConfig(n_layers=5, s=2, width=4, epochs=1)
    net = build_training_net(4, cfg)
    kinds = [layer.kind for layer in net.layers]
    assert kinds == ["upper", "lower", "upper", "lower", "upper"]
    assert net.layers[0].shift.mlp.layer_dims == (3, 4, 1)
    assert net.layers[1].shift.mlp.layer_dims == (1, 4, 3)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(n_layers=0)
    with pytest.raises(ConfigError):
        TrainConfig(width=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)


@pytest.mark.parametrize("lr", [-5.0, 0.0, float("nan"), float("inf")])
def test_config_rejects_a_learning_rate_that_is_not_positive_and_finite(lr):
    with pytest.raises(ConfigError, match=rf"^lr must be a positive finite number, got {lr}$"):
        TrainConfig(lr=lr)


# --- train ---------------------------------------------------------------------


def test_train_identity_fixed_point():
    # zero-field pairs with zero-initialized shift outputs stay at loss 0
    x = Xoshiro256(9).uniform_array((16, 2), -1, 1)
    ds = PairDataset(x, x.copy())
    cfg = TrainConfig(n_layers=2, width=4, epochs=50, seed=0, log_stride=10)
    net, metrics = train(ds, cfg)
    # Glorot init is not the identity, but training must drive loss down hard
    assert metrics.final_loss < metrics.loss_curve[0][1]


def test_teacher_student_recovery():
    ds, _ = teacher_student_dataset(seed=0)
    cfg = TrainConfig(n_layers=1, width=8, epochs=6000, seed=0, log_stride=2000)
    net, metrics = train(ds, cfg)
    assert metrics.final_loss < 1e-5


def test_train_deterministic_bitwise():
    ds, _ = teacher_student_dataset(seed=1)
    cfg = TrainConfig(n_layers=1, width=4, epochs=200, seed=7, log_stride=100)
    net_a, met_a = train(ds, cfg)
    net_b, met_b = train(ds, cfg)
    for la, lb in zip(net_a.layers, net_b.layers):
        for pa, pb in zip(mlp_params(la.shift.mlp), mlp_params(lb.shift.mlp)):
            assert np.array_equal(pa, pb)
    assert met_a.loss_curve == met_b.loss_curve


def test_train_structural_preservation():
    ds, _ = teacher_student_dataset(seed=2)
    cfg = TrainConfig(n_layers=2, width=6, epochs=500, seed=3, log_stride=250)
    net, metrics = train(ds, cfg)
    pts = sample_points((np.full(2, -1.0), np.full(2, 1.0)), 50, 4)
    assert roundtrip_error(net, pts) < 1e-11
    for p in pts[:10]:
        assert abs(fd_jacobian_det(lambda rows: net_apply_batch(net, rows), p) - 1.0) < 1e-6
    assert all(dev < 1e-6 for _, dev in metrics.det_curve)


def test_train_best_so_far_non_increasing_and_progress():
    ds, _ = teacher_student_dataset(seed=3)
    cfg = TrainConfig(n_layers=1, width=8, epochs=2000, seed=1, log_stride=200)
    _, metrics = train(ds, cfg)
    losses = [v for _, v in metrics.loss_curve]
    best = np.minimum.accumulate(losses)
    assert np.all(np.diff(best) <= 0)
    assert losses[-1] < 1e-2 * losses[0]


def test_train_loss_curve_epochs_strictly_increasing():
    ds, _ = teacher_student_dataset(seed=4)
    cfg = TrainConfig(n_layers=1, width=4, epochs=300, seed=0, log_stride=100)
    _, metrics = train(ds, cfg)
    epochs = [e for e, _ in metrics.loss_curve]
    assert epochs == sorted(set(epochs))
    assert epochs[-1] == 300


def test_train_nonfinite_aborts_with_checkpoint():
    # relu shifts with an absurd learning rate overflow after the first update
    ds, _ = teacher_student_dataset(seed=6, n_points=8)
    cfg = TrainConfig(n_layers=2, width=4, activation="relu", epochs=50, seed=0,
                      lr=1e200, log_stride=10)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingError) as err:
            train(ds, cfg)
    assert err.value.epoch is not None and err.value.epoch >= 1
    assert isinstance(err.value.checkpoint, MPNet)
    # the checkpoint is the last net whose loss was still finite: the net
    # after epoch - 1 updates, not a view of the vector the failing epoch used
    assert np.isfinite(mse_loss(err.value.checkpoint, ds))
    with np.errstate(all="ignore"):
        expected = reference_params(ds, cfg, err.value.epoch - 1)
    assert_params_equal(err.value.checkpoint, expected)


def test_train_flat_store_matches_per_array_reference_bitwise():
    ds, _ = teacher_student_dataset(seed=7, n_points=32)
    cfg = TrainConfig(n_layers=2, width=6, epochs=20, seed=4, log_stride=5)
    net, _ = train(ds, cfg)
    assert_params_equal(net, reference_params(ds, cfg, cfg.epochs))


@pytest.fixture(scope="module")
def lorentz_pairs():
    """The 199 lorentz4d pairs of criterion 6 and the train-lorentz benchmark."""
    from mpflow.dynamics import dataset_from_trajectory, generate_trajectory

    x0 = np.array([0.1, 1.0, 1.1, 0.5])
    return dataset_from_trajectory(generate_trajectory(make_field("lorentz4d"), x0, 0.2, 200, 1e-3))


@pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
def test_train_workspace_matches_allocating_kernels_bitwise_at_benchmark_shape(
    lorentz_pairs, activation
):
    # train runs the kernels with its workspace, reference_params without one
    cfg = TrainConfig(n_layers=8, s=2, width=64, activation=activation, epochs=30, seed=5,
                      log_stride=10)
    net, _ = train(lorentz_pairs, cfg)
    assert_params_equal(net, reference_params(lorentz_pairs, cfg, cfg.epochs))


def test_train_bytes_do_not_depend_on_the_blas_thread_count(lorentz_pairs, tmp_path):
    # BLAS reads its thread count once, at load, so each count needs its own process
    import hashlib
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    from mpflow.dynamics import dataset_to_csv

    data = dataset_to_csv(lorentz_pairs).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == (  # the pinned gen-data dataset
        "ad8045a525d3e16471beb8d099f02bbf77efb896cf740b8c788faabc245afdf1"
    )
    (tmp_path / "dataset.csv").write_bytes(data)
    config = {"dataset": "dataset.csv", "n_layers": 8, "width": 64, "epochs": 30, "log_stride": 10}
    (tmp_path / "train.json").write_text(json.dumps(config))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = f"threads_{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "mpflow.cli", "train", "--config", "train.json", "--seed", "1",
             "--out", out],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append([(tmp_path / out / name).read_bytes()
                        for name in ("model.json", "metrics.json")])
    assert outputs[0] == outputs[1]


def test_train_workspace_does_not_outlive_the_call():
    ds, _ = teacher_student_dataset(seed=10, n_points=16)
    cfg = TrainConfig(n_layers=3, width=4, epochs=20, seed=1, log_stride=5)
    net_a, met_a = train(ds, cfg)
    params_a = [p.copy() for p in net_trainable_params(net_a)]
    out_a = net_apply_batch(net_a, ds.x)
    net_b, met_b = train(ds, cfg)
    assert_params_equal(net_b, params_a)
    assert met_b.loss_curve == met_a.loss_curve
    # the second call wrote nothing the first call's net reads
    assert_params_equal(net_a, params_a)
    assert np.array_equal(net_apply_batch(net_a, ds.x), out_a)


def test_train_passes_one_flat_array_to_adam(monkeypatch):
    import mpflow.training

    seen = []
    step = mpflow.training.adam_step

    def recording(params, grads, state):
        seen.append((len(params), len(grads), params[0].ndim))
        return step(params, grads, state)

    monkeypatch.setattr(mpflow.training, "adam_step", recording)
    ds, _ = teacher_student_dataset(seed=8, n_points=16)
    train(ds, TrainConfig(n_layers=3, width=4, epochs=5, seed=0, log_stride=5))
    assert seen == [(1, 1, 1)] * 5


def test_train_nonfinite_gradient_names_layer_parameter_and_step(monkeypatch):
    import mpflow.training

    backward = mpflow.training.net_backward_collected
    calls = [0]

    def poisoned(net, collected, upstream):
        per_layer, g = backward(net, collected, upstream)
        if calls[0] == 3:  # epoch 3, so Adam step 4
            per_layer[1][1][2] = np.nan  # layer 1, b1 entry 2
        calls[0] += 1
        return per_layer, g

    monkeypatch.setattr(mpflow.training, "net_backward_collected", poisoned)
    ds, _ = teacher_student_dataset(seed=9, n_points=16)
    with pytest.raises(NumericError) as err:
        train(ds, TrainConfig(n_layers=3, width=4, epochs=10, seed=0, log_stride=10))
    assert not isinstance(err.value, TrainingError)
    assert err.value.step == 4
    assert "layer 1 parameter b1[2] at step 4" in str(err.value)


def test_train_runs_one_mlp_forward_per_layer_epoch(monkeypatch):
    # every MLP forward looks up mpflow.mlp._act once per hidden layer; each
    # shift here has one hidden layer, so the count is the number of forwards
    import mpflow.mlp

    calls = [0]
    act = mpflow.mlp._act

    def counting_act(name, z):
        calls[0] += 1
        return act(name, z)

    monkeypatch.setattr(mpflow.mlp, "_act", counting_act)
    ds, _ = teacher_student_dataset(seed=5, n_points=16)
    n_layers, epochs = 3, 20

    def forwards(e):
        calls[0] = 0
        train(ds, TrainConfig(n_layers=n_layers, width=4, epochs=e, seed=0,
                              log_stride=10 * epochs))
        return calls[0]

    assert forwards(2 * epochs) - forwards(epochs) == n_layers * epochs


# --- rollout --------------------------------------------------------------------


def test_rollout_identity_constant():
    traj, truncated = rollout(MPNet(3, ()), np.array([0.5, -0.2, 1.0]), 5)
    assert truncated is None
    assert traj.states.shape == (6, 3)
    for row in traj.states:
        assert np.array_equal(row, np.array([0.5, -0.2, 1.0]))


def test_rollout_times_scaled_by_h_data():
    traj, _ = rollout(MPNet(2, ()), np.zeros(2), 4, h_data=0.2)
    np.testing.assert_allclose(traj.times, [0.0, 0.2, 0.4, 0.6, 0.8], atol=1e-15)


def test_rollout_forward_then_inverse_returns_start():
    ds, teacher = teacher_student_dataset(seed=5)
    cfg = TrainConfig(n_layers=2, width=4, epochs=100, seed=2, log_stride=50)
    net, _ = train(ds, cfg)
    x0 = np.array([0.3, -0.6])
    traj, _ = rollout(net, x0, 10)
    x = traj.states[-1]
    for _ in range(10):
        x = net_apply_batch(net, x, inverse=True)
    assert np.max(np.abs(x - x0)) < 1e-9


def test_rollout_compiled_flow_tracks_reference():
    # compiled lorentz flow (T=0.2, 200 internal steps) applied 100 times from
    # the state at t=40 stays near the RK4 reference trajectory
    from mpflow.compiler import compile_flow
    from mpflow.dynamics import rk4_flow

    f = make_field("lorentz4d")
    x = np.array([0.1, 1.0, 1.1, 0.5])
    for n in range(200):
        x = rk4_flow(f, n * 0.2, 0.2, 1e-3, x)
    box = (np.array([-1.6, -1.6, -1.4, -1.4]), np.array([1.6, 1.6, 1.4, 1.4]))
    compiled = compile_flow(f, 0.0, 0.2, 200, box, n_check=2)
    traj, truncated = rollout(compiled.net, x, 100, h_data=0.2)
    assert truncated is None
    y = x.copy()
    worst = 0.0
    for n in range(100):
        y = rk4_flow(f, 40.0 + n * 0.2, 0.2, 1e-3, y)
        worst = max(worst, float(np.max(np.abs(traj.states[n + 1] - y))))
    assert worst < 0.5


def test_rollout_truncates_on_blowup(monkeypatch):
    # alternating cube shifts feed each other, so magnitudes cube every layer
    from mpflow.coupling import lower_layer
    from mpflow.shifts import fixed_shift

    install_power_shift(monkeypatch, "cube", 3)
    net = MPNet(
        2,
        (
            upper_layer(2, 2, fixed_shift("cube", [], 1, 1)),
            lower_layer(2, 2, fixed_shift("cube", [], 1, 1)),
        ),
    )
    with np.errstate(all="ignore"):
        traj, truncated = rollout(net, np.array([0.0, 10.0]), 10)
    assert truncated is not None
    assert traj.states.shape[0] == truncated
