"""Measure-preserving coupling networks for divergence-free dynamical systems.

The package trains additive coupling stacks on flow-map pair data and compiles
divergence-free flows into stacks of exactly volume-preserving shear layers
via a pairwise Hamiltonian decomposition and a first-order splitting scheme.
"""

__version__ = "0.1.0"

from .compiler import (
    CompiledFlow,
    ConvergenceReport,
    compile_flow,
    convergence_study,
    shear_pair,
    shear_rewrite_bound,
    shear_to_couplings,
)
from .coupling import (
    Layer,
    MPNet,
    layer_forward,
    lower_layer,
    net_forward,
    shear_layer,
    upper_layer,
)
from .dynamics import (
    PairDataset,
    Trajectory,
    VectorField,
    divergence_fd,
    field_eval,
    generate_trajectory,
    make_field,
    rk4_flow,
)
from .errors import (
    ConfigError,
    DecompositionError,
    NumericError,
    ParseError,
    TrainingError,
    UnsupportedError,
    VerificationError,
)
from .mlp import AdamState, Mlp, adam_init, adam_step, mlp_init
from .pair_decomposition import Decomposition, PairField, decompose, pair_eval, separability_check
from .rng import Xoshiro256
from .serialize import deserialize, load_net, save_net, serialize
from .shifts import FixedShift, MlpShift, fixed_shift
from .training import TrainConfig, TrainMetrics, mse_loss, rollout, train
from .verify import fd_jacobian_det, lp_error, roundtrip_error, sample_points

__all__ = [
    "AdamState",
    "CompiledFlow",
    "ConfigError",
    "ConvergenceReport",
    "Decomposition",
    "DecompositionError",
    "FixedShift",
    "Layer",
    "MPNet",
    "Mlp",
    "MlpShift",
    "NumericError",
    "PairDataset",
    "PairField",
    "ParseError",
    "TrainConfig",
    "TrainMetrics",
    "TrainingError",
    "Trajectory",
    "UnsupportedError",
    "VectorField",
    "VerificationError",
    "Xoshiro256",
    "adam_init",
    "adam_step",
    "compile_flow",
    "convergence_study",
    "decompose",
    "deserialize",
    "divergence_fd",
    "fd_jacobian_det",
    "field_eval",
    "fixed_shift",
    "generate_trajectory",
    "layer_forward",
    "load_net",
    "lower_layer",
    "lp_error",
    "make_field",
    "mlp_init",
    "mse_loss",
    "net_forward",
    "pair_eval",
    "rk4_flow",
    "rollout",
    "roundtrip_error",
    "sample_points",
    "save_net",
    "separability_check",
    "serialize",
    "shear_layer",
    "shear_pair",
    "shear_rewrite_bound",
    "shear_to_couplings",
    "train",
    "upper_layer",
]
