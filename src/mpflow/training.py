"""Full-batch training of coupling stacks on flow-map pair data, plus
multi-step rollout prediction.

The training loop is single-threaded and bit-deterministic: a fixed
(dataset, config) always yields identical final parameters. Updates only move
shift-network weights, so the trained net keeps exact invertibility and unit
Jacobian determinant at every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .coupling import (
    LOWER,
    UPPER,
    Layer,
    MPNet,
    net_apply_batch,
    net_backward_collected,
    net_forward,
    net_forward_collect,
    net_trainable_params,
    shift_dims,
)
from .dynamics import PairDataset, Trajectory
from .errors import ConfigError, NumericError, TrainingError
from .mlp import adam_init, adam_step, mlp_init, mlp_params, mlp_with_params
from .rng import Xoshiro256
from .shifts import MlpShift
from .verify import fd_jacobian_det


@dataclass(frozen=True)
class TrainConfig:
    n_layers: int = 8
    s: int = 2
    width: int = 64
    activation: str = "sigmoid"
    lr: float = 0.001
    epochs: int = 50000
    seed: int = 0
    log_stride: int = 500

    def __post_init__(self):
        if self.n_layers < 1:
            raise ConfigError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.width < 1:
            raise ConfigError(f"width must be >= 1, got {self.width}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.log_stride < 1:
            raise ConfigError(f"log_stride must be >= 1, got {self.log_stride}")


@dataclass
class TrainMetrics:
    loss_curve: list = field(default_factory=list)  # (epoch, mse)
    det_curve: list = field(default_factory=list)  # (epoch, |det - 1| at spot point)
    final_loss: float = float("nan")


def build_training_net(dim, config: TrainConfig) -> MPNet:
    """Alternating upper/lower stack (upper first) with freshly seeded shifts."""
    seeder = Xoshiro256(config.seed)
    layers = []
    for l in range(config.n_layers):
        kind = (UPPER, LOWER)[l % 2]
        d_in, d_out = shift_dims(kind, dim, config.s)
        mlp = mlp_init((d_in, config.width, d_out), config.activation, seeder.next_u64())
        layers.append(Layer(kind, dim, s=config.s, shift=MlpShift(mlp)))
    return MPNet(dim, tuple(layers))


def mse_loss(net: MPNet, dataset: PairDataset) -> float:
    """Mean squared Euclidean residual of net(x_n) against x_{n+1}."""
    if dataset.n_pairs == 0:
        raise ConfigError("dataset is empty")
    out = net_apply_batch(net, dataset.x)
    return float(np.mean(np.sum((out - dataset.y) ** 2, axis=1)))


def _flat_layout(net: MPNet):
    """Where each MlpShift parameter sits in the flat training vector.

    One (layer index, name, slice, shape) per array, in the order of
    net_trainable_params; names run W1, b1, W2, b2, ... within each MLP.
    """
    layout, pos = [], 0
    for idx, layer in enumerate(net.layers):
        if isinstance(layer.shift, MlpShift):
            for k, p in enumerate(mlp_params(layer.shift.mlp)):
                name = f"{'Wb'[k % 2]}{k // 2 + 1}"
                layout.append((idx, name, slice(pos, pos + p.size), p.shape))
                pos += p.size
    return layout


def _bind(net: MPNet, flat, layout) -> MPNet:
    """The net with every MlpShift holding reshaped views into flat."""
    views = {}
    for idx, _, span, shape in layout:
        views.setdefault(idx, []).append(flat[span].reshape(shape))
    layers = list(net.layers)
    for idx, params in views.items():
        mlp = mlp_with_params(layers[idx].shift.mlp, params)
        layers[idx] = replace(layers[idx], shift=MlpShift(mlp))
    return MPNet(net.dim, tuple(layers))


def _gradient_error(grad, layout, step) -> NumericError:
    """Name the layer, parameter and entry of the first non-finite gradient."""
    k = int(np.flatnonzero(~np.isfinite(grad))[0])
    for idx, name, span, shape in layout:  # spans are consecutive and cover grad
        if k < span.stop:
            break
    entry = [int(i) for i in np.unravel_index(k - span.start, shape)]
    return NumericError(
        f"non-finite gradient in layer {idx} parameter {name}{entry} at step {step}", step=step
    )


def train(dataset: PairDataset, config: TrainConfig):
    """Full-batch Adam on the MSE loss; returns (trained net, metrics).

    Every trainable weight lives in one flat vector that the training net's
    MLPs view and Adam updates in place. A non-finite loss aborts with
    TrainingError carrying the epoch index and the last finite checkpoint; a
    non-finite gradient raises NumericError naming its layer and parameter.
    """
    if dataset.n_pairs == 0:
        raise ConfigError("dataset is empty")
    net = build_training_net(dataset.dim, config)
    x, y = dataset.x, dataset.y
    n = dataset.n_pairs
    spot = x[0]

    layout = _flat_layout(net)
    flat = np.concatenate([p.ravel() for p in net_trainable_params(net)])
    net = _bind(net, flat, layout)
    before = flat.copy()  # the parameters of the last net with a finite loss
    state = adam_init([flat], lr=config.lr)
    metrics = TrainMetrics()

    for epoch in range(config.epochs):
        out, collected = net_forward_collect(net, x)
        residual = out - y
        loss = float(np.mean(np.sum(residual**2, axis=1)))
        if not np.isfinite(loss):
            raise TrainingError(
                f"loss became non-finite at epoch {epoch}",
                epoch=epoch,
                checkpoint=_bind(net, before, layout),
            )
        if epoch % config.log_stride == 0:
            metrics.loss_curve.append((epoch, loss))
            dev = abs(fd_jacobian_det(lambda rows: net_apply_batch(net, rows), spot) - 1.0)
            metrics.det_curve.append((epoch, dev))
        per_layer, _ = net_backward_collected(net, collected, (2.0 / n) * residual)
        grad = np.concatenate([g.ravel() for grads in per_layer for g in grads])
        try:
            (updated,), state = adam_step([flat], [grad], state)
        except NumericError as exc:
            raise _gradient_error(grad, layout, exc.step) from None
        before[:] = flat
        flat[:] = updated

    final = mse_loss(net, dataset)
    metrics.loss_curve.append((config.epochs, final))
    dev = abs(fd_jacobian_det(lambda rows: net_apply_batch(net, rows), spot) - 1.0)
    metrics.det_curve.append((config.epochs, dev))
    metrics.final_loss = final
    return net, metrics


def rollout(net: MPNet, x0, n_steps, h_data=None):
    """Iterate the net n_steps times; returns (Trajectory, truncated_at).

    truncated_at is None for a clean run, otherwise the 1-based step at which
    the state stopped being finite (the trajectory holds the finite prefix).
    """
    if n_steps < 0:
        raise ConfigError(f"n_steps must be >= 0, got {n_steps}")
    if h_data is not None and not 0 < h_data < np.inf:
        raise ConfigError(f"h_data must be a positive finite number, got {h_data}")
    x = np.asarray(x0, float)
    scale = 1.0 if h_data is None else float(h_data)
    states = [x.copy()]
    truncated_at = None
    for k in range(n_steps):
        x = net_forward(net, x)
        if not np.all(np.isfinite(x)):
            truncated_at = k + 1
            break
        states.append(x.copy())
    times = scale * np.arange(len(states))
    return Trajectory(times, np.array(states)), truncated_at
