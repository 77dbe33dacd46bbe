"""Compile divergence-free flows into stacks of exactly volume-preserving
shear layers, reduce analytic shears to coupling layers, and measure the
compiled integrator's order of convergence.

A compiled step for one separable pair (d, d+1) is the two-shear update

    x[d]   += h * g1(tau', x without d)     (g1 independent of x[d])
    x[d+1] += h * g2(tau', x without d+1)   (g2 evaluated after the first)

applied for every pair in ascending d, then repeated n_steps times with
tau' advancing by h. Each shear reads only coordinates it does not write,
so the stack preserves volume exactly at any step count, even when it is a
poor approximation of the flow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .coupling import (
    Layer,
    MPNet,
    SHEAR,
    lower_layer,
    net_apply_batch,
    net_forward,
    shear_layer,
    upper_layer,
)
from .dynamics import DEFAULT_FD_STEP, VectorField, field_from_params, rk4_flow
from .errors import ConfigError, NumericError, UnsupportedError
from .mlp import ACTIVATION_LIPSCHITZ
from .pair_decomposition import (
    DEFAULT_QUAD_NODES,
    DEFAULT_TOL,
    Decomposition,
    DecompositionConfig,
    PairField,
    build_pairs,
    decompose,
)
from .shifts import FixedShift, MlpShift, fixed_shift, register_fixed_family
from .verify import as_box, sample_points


def _pair_shift_fn(ufn, j, tau, h):
    # h * ufn(tau, y), y = u with a zero inserted at coordinate j; a batch
    # reaches the pair component as columns (D, n)
    def fn(u):
        y = np.zeros(u.shape[:-1] + (u.shape[-1] + 1,))
        y[..., :j] = u[..., :j]
        y[..., j + 1 :] = u[..., j:]
        return (h * ufn(tau, y.T))[..., None]

    return fn


def _pair_shift_params(config: DecompositionConfig, d, comp, tau, h):
    field = config.field
    vec = [
        float(d),
        float(comp),
        float(tau),
        float(h),
        float(config.quad_nodes),
        config.fd_step,
        config.tol,
        float(field.dim),
    ]
    vec.extend(config.box_lo)
    vec.extend(config.box_hi)
    vec.extend(field.params)
    return np.array(vec)


def _pair_shift_factory(fid, params, in_dim, out_dim):
    """Rebuild a pair-field shear shift from its serialized configuration."""
    if out_dim != 1:
        raise ConfigError("pairshift produces a scalar shift (out_dim must be 1)")
    params = np.asarray(params, float)
    if params.size < 8:
        raise ConfigError("pairshift params are truncated")
    d, comp, tau, h = params[:4]
    d, comp = int(d), int(comp)
    pair = _rebuilt_pairs(fid, in_dim, params[4:].tobytes())[d - 1]
    ufn = pair.u1 if comp == 0 else pair.u2
    j = (d - 1) + comp
    return _pair_shift_fn(ufn, j, tau, h), None


@functools.lru_cache(maxsize=8)
def _rebuilt_pairs(fid, in_dim, config_bits):
    """build_pairs for the serialized params after (d, comp, tau, h), which
    every layer of a compiled net shares, so a load builds once. Keyed on exact
    bits, so 0.0 and -0.0 differ; the immutable pairs are safe to share."""
    quad_nodes, fd_step, tol, dim, *rest = np.frombuffer(config_bits).tolist()
    dim = int(dim)
    if in_dim != dim - 1:
        raise ConfigError(f"pairshift expects in_dim {dim - 1}, got {in_dim}")
    if len(rest) < 2 * dim:
        raise ConfigError("pairshift params are missing box bounds")
    field = field_from_params(fid, dim, rest[2 * dim :])
    return tuple(build_pairs(field, (rest[:dim], rest[dim : 2 * dim]), int(quad_nodes), fd_step, tol))


register_fixed_family("pairshift", _pair_shift_factory)


def shear_pair(pair: PairField, tau, h):
    """Two shear layers realizing one splitting substep of a separable pair.

    The first shifts coordinate d by h*g1, the second coordinate d+1 by h*g2
    evaluated on the post-first-shear state. Requires pair.separable == 'yes'
    and a decomposition provenance so the layers stay serializable.
    """
    if pair.separable != "yes":
        raise UnsupportedError(
            f"pair ({pair.d}, {pair.d + 1}) is not known to be separable "
            f"(separable={pair.separable!r}); compiling non-separable two-coordinate "
            "Hamiltonian pairs needs a polynomial-Hamiltonian reduction that is not "
            "implemented"
        )
    if not isinstance(pair.provenance, DecompositionConfig):
        raise ConfigError("shear_pair needs a pair built by decompose (with provenance)")
    config = pair.provenance
    fid = f"pairshift:{config.field.fid}"
    dim = pair.dim
    layers = []
    for comp in (0, 1):
        j = (pair.d - 1) + comp
        ufn = pair.u1 if comp == 0 else pair.u2
        shift = FixedShift(
            fid,
            _pair_shift_params(config, pair.d, comp, tau, h),
            dim - 1,
            1,
            _pair_shift_fn(ufn, j, tau, h),
            None,
        )
        layers.append(shear_layer(dim, j + 1, shift))
    return layers[0], layers[1]


@dataclass(frozen=True)
class CompiledFlow:
    net: MPNet
    field: VectorField
    tau: float
    T: float
    n_steps: int
    h: float
    decomposition: Decomposition


def compile_flow(field: VectorField, tau, T, n_steps, sample_box,
                 quad_nodes=DEFAULT_QUAD_NODES, tol=DEFAULT_TOL, fd_step=DEFAULT_FD_STEP,
                 decomposition=None, n_check=8) -> CompiledFlow:
    """Compile the time-T flow of a divergence-free field into a shear stack.

    Per step k the layers advance coordinates pair by pair in ascending d at
    frozen time tau + k*h, h = T/n_steps; the resulting net has
    n_steps * 2 * (D-1) layers. The stack's output must be finite at n_check
    sampled points; a non-finite one raises NumericError naming the point.
    """
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    if decomposition is None:
        decomposition = decompose(field, sample_box, quad_nodes, tol, fd_step)
    bad = [p.d for p in decomposition.pairs if p.separable != "yes"]
    if bad:
        raise UnsupportedError(
            f"field {field.fid!r} has non-separable pairs at d={bad}; compiling "
            "non-separable two-coordinate Hamiltonian pairs needs a "
            "polynomial-Hamiltonian reduction that is not implemented"
        )
    h = T / n_steps
    layers = []
    for k in range(n_steps):
        tau_k = tau + k * h
        for pair in decomposition.pairs:
            layers.extend(shear_pair(pair, tau_k, h))
    net = MPNet(field.dim, tuple(layers))
    _check_finite(net, sample_box, field, n_check)
    return CompiledFlow(net, field, float(tau), float(T), int(n_steps), h, decomposition)


def _check_finite(net: MPNet, sample_box, field, n_check):
    if n_check < 1:
        return
    pts = sample_points(sample_box, n_check, 0xC0DE, exclude=field.singular)
    bad = ~np.isfinite(net_apply_batch(net, pts)).all(axis=1)
    if bad.any():
        raise NumericError(f"compiled net produced non-finite output at {pts[bad.argmax()].tolist()}")


def shear_to_couplings(shear: Layer, s=2, delta=1e-3) -> MPNet:
    """Rewrite a sigmoid shear on coordinate 1 as 3W coupling layers.

    The shear's shift must be a single-hidden-layer sigmoid map
    u -> a . sigmoid(K u + b) with zero output bias. For each hidden unit the
    construction emits a linear lower shear on coordinate s, an upper coupling
    layer applying that unit's sigmoid, and the inverse linear shear; their
    composition reproduces the target with its coordinate-s input argument
    perturbed by delta * x_s, so the sup error over a box B is at most
    sum_w |a_w| * (1/4) * delta * max_B |x_s|.
    """
    if shear.kind != SHEAR:
        raise ConfigError(f"expected a shear layer, got kind {shear.kind!r}")
    if shear.i != 1:
        raise UnsupportedError(
            "only shears on the first coordinate are supported; reduce other targets "
            "by relabeling coordinates first"
        )
    dim = shear.dim
    if not 2 <= s <= dim:
        raise ConfigError(f"split must satisfy 2 <= s <= {dim}, got {s}")
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta}")
    shift = shear.shift
    if not isinstance(shift, MlpShift):
        raise UnsupportedError("only MLP-backed sigmoid shears can be rewritten")
    mlp = shift.mlp
    if len(mlp.layer_dims) != 3 or mlp.activation != "sigmoid" or mlp.layer_dims[2] != 1:
        raise UnsupportedError(
            "shear shift must be a single-hidden-layer sigmoid map with scalar output"
        )
    if np.any(mlp.biases[1] != 0.0):
        raise UnsupportedError("shear shift must have zero output bias")
    K, b_vec = mlp.weights[0], mlp.biases[0]
    a_vec = mlp.weights[1][0]
    width = K.shape[0]
    denom = K[:, s - 2] + delta
    if np.any(denom == 0.0):
        raise ConfigError(
            f"degenerate delta: K[w][{s - 1}] + delta vanishes for some hidden unit"
        )
    layers = []
    for w in range(width):
        mat = np.zeros((dim - s + 1, s - 1))
        mat[0, 1 : s - 1] = K[w, : s - 2] / denom[w]
        w_vec = K[w].copy()
        w_vec[: s - 2] = 0.0
        w_vec[s - 2] += delta
        sig_params = np.concatenate([[a_vec[w], b_vec[w]], w_vec])
        layers.append(lower_layer(dim, s, fixed_shift("linear", mat.reshape(-1), s - 1, dim - s + 1)))
        layers.append(upper_layer(dim, 2, fixed_shift("scaled_sigmoid", sig_params, dim - 1, 1)))
        layers.append(lower_layer(dim, s, fixed_shift("linear", (-mat).reshape(-1), s - 1, dim - s + 1)))
    return MPNet(dim, tuple(layers))


def shear_rewrite_bound(shear: Layer, s, delta, box) -> float:
    """Analytic sup-error bound of shear_to_couplings over the box."""
    lo, hi = as_box(box)
    a_vec = shear.shift.mlp.weights[1][0]
    l_sigma = ACTIVATION_LIPSCHITZ["sigmoid"]
    max_xs = max(abs(lo[s - 1]), abs(hi[s - 1]))
    return float(np.sum(np.abs(a_vec)) * l_sigma * delta * max_xs)


@dataclass(frozen=True)
class ConvergenceReport:
    step_counts: tuple
    h_values: tuple
    errors: tuple
    slope: object  # float, or None when exact
    exact: bool


def convergence_study(field: VectorField, tau, T, step_counts, sample_box,
                      n_samples=50, quad_nodes=DEFAULT_QUAD_NODES, tol=DEFAULT_TOL,
                      fd_step=DEFAULT_FD_STEP, h_ref=1e-3, seed=0xC0DE) -> ConvergenceReport:
    """Sup-norm error of the compiled flow against RK4 across step counts.

    Fits the slope of log2(error) versus log2(h) by least squares; an exact
    match everywhere (all errors below 1e-12) is flagged instead of fitted.
    """
    counts = [int(n) for n in step_counts]
    if len(counts) < 2 or any(b <= a for a, b in zip(counts, counts[1:])):
        raise ConfigError("step_counts must be at least two strictly increasing integers")
    decomposition = decompose(field, sample_box, quad_nodes, tol, fd_step)
    pts = sample_points(sample_box, n_samples, seed, exclude=field.singular)
    refs = rk4_flow(field, tau, T, h_ref, pts)
    h_values, errors = [], []
    for n in counts:
        compiled = compile_flow(field, tau, T, n, sample_box,
                                decomposition=decomposition, n_check=0)
        worst = 0.0
        for p, ref in zip(pts, refs):
            out = net_forward(compiled.net, p)
            if not np.all(np.isfinite(out)):
                raise NumericError(f"compiled flow blew up at {p.tolist()} with n_steps={n}")
            worst = max(worst, float(np.max(np.abs(out - ref))))
        h_values.append(T / n)
        errors.append(worst)
    if all(e < 1e-12 for e in errors):
        return ConvergenceReport(tuple(counts), tuple(h_values), tuple(errors), None, True)
    slope = float(np.polyfit(np.log2(h_values), np.log2(errors), 1)[0])
    return ConvergenceReport(tuple(counts), tuple(h_values), tuple(errors), slope, False)
