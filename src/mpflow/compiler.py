"""Compile divergence-free flows into stacks of exactly volume-preserving
shear layers, reduce analytic shears to coupling layers, and measure the
compiled integrator's order of convergence.

A compiled step for one separable pair (d, d+1) is the two-shear update

    x[d]   += h * g1(tau', x without d)     (g1 independent of x[d])
    x[d+1] += h * g2(tau', x without d+1)   (g2 evaluated after the first)

applied for every pair in ascending d, then repeated n_steps times with
tau' advancing by h. Each shear reads only coordinates it does not write,
so the stack preserves volume exactly at any step count, even when it is a
poor approximation of the flow. An autonomous field (see `dynamics.FIELDS`)
ignores tau', so its steps are the same shears: `compile_flow` builds one
step's 2(D-1) layer objects and repeats them n_steps times in the tuple.

Each shear's shift is a `shifts.PairShear`, which `coupling` hands the
state's columns; a pair component pinned to zero becomes a shear whose `ufn`
is None, which `coupling` applies as one add of h * 0.0 to its target column
without evaluating the field. The shears of one `compile_flow` call share one
`FlowRecipe`, the call's arguments and the layers built from them; a model
file stores the recipe, its field as the field's config, and a load calls
`compile_flow` on it again (see `serialize`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import (
    LOWER,
    SHEAR,
    UPPER,
    Layer,
    MPNet,
    lower_layer,
    net_apply_batch,
    shear_layer,
    shift_dims,
    upper_layer,
)
from .dynamics import FIELDS, VectorField, make_field, rk4_flow
from .errors import ConfigError, NumericError, UnsupportedError
from .mlp import ACTIVATION_LIPSCHITZ, Mlp
from .pair_decomposition import (
    DEFAULT_QUAD_NODES,
    DEFAULT_TOL,
    Decomposition,
    DecompositionConfig,
    PairField,
    _zero_component,
    build_pairs,  # noqa: F401  unused, but bound: perfbench's self-test checks the binding
    decompose,
)
from .shifts import MlpShift, PairShear, fixed_shift
from .verify import as_box, sample_points

# At the cap, lorentz4d shears built step by step, as a non-autonomous field's
# are, take about 19 MB and 0.4-0.5 s; shared autonomous steps take 0.8 MB and
# 5 ms, and the 8-point finiteness pass over them about 0.3 s (tracemalloc,
# 2-core host)
MAX_LAYERS = 100_000


@dataclass(eq=False)
class FlowRecipe:
    """What `compile_flow` builds a compiled net from (config holds the field,
    box, quad_nodes and tol), and the layers it built, set once they exist."""

    config: DecompositionConfig
    tau: float
    T: float
    n_steps: int
    layers: tuple = ()


def shear_pair(pair: PairField, tau, h, recipe=None):
    """Two shear layers realizing one splitting substep of a separable pair.

    The first shifts coordinate d by h*g1, the second coordinate d+1 by h*g2
    evaluated on the post-first-shear state. Requires pair.separable == 'yes'.
    Only shears with a recipe, as `compile_flow` builds them, can be saved.
    """
    if pair.separable != "yes":
        raise UnsupportedError(
            f"pair ({pair.d}, {pair.d + 1}) is not known to be separable "
            f"(separable={pair.separable!r}); compiling non-separable two-coordinate "
            "Hamiltonian pairs needs a polynomial-Hamiltonian reduction that is not "
            "implemented"
        )
    return tuple(
        shear_layer(pair.dim, pair.d + comp,
                    PairShear(None if ufn is _zero_component else ufn, pair.d - 1 + comp, tau, h,
                              pair.dim - 1, recipe))
        for comp, ufn in enumerate((pair.u1, pair.u2))
    )


@dataclass(frozen=True)
class CompiledFlow:
    net: MPNet
    decomposition: Decomposition


def compile_flow(field: VectorField, tau, T, n_steps, sample_box,
                 quad_nodes=DEFAULT_QUAD_NODES, tol=DEFAULT_TOL, decomposition=None,
                 n_check=8) -> CompiledFlow:
    """Compile the time-T flow of a divergence-free field into a shear stack.

    Per step k the layers advance coordinates pair by pair in ascending d at
    frozen time tau + k*h, h = T/n_steps; the resulting net has
    n_steps * 2 * (D-1) layers, at most MAX_LAYERS. For an autonomous field
    every step is the same 2 * (D-1) layer objects, built once at tau; any
    other field builds each step's own. The field is rebuilt by `make_field`
    from its id, params and dim, as a load rebuilds it, so a field whose id
    `dynamics` cannot rebuild is a ConfigError. The stack's output must be
    finite at n_check sampled points; a non-finite one raises NumericError
    naming the point.
    """
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    n_layers = n_steps * 2 * (field.dim - 1)
    if n_layers > MAX_LAYERS:
        raise ConfigError(f"n_steps {n_steps} would build {n_layers} layers, more than {MAX_LAYERS}")
    field = make_field(field.fid, field.params, field.dim)
    if decomposition is None:
        decomposition = decompose(field, sample_box, quad_nodes, tol)
    bad = [p.d for p in decomposition.pairs if p.separable != "yes"]
    if bad:
        raise UnsupportedError(
            f"field {field.fid!r} has non-separable pairs at d={bad}; compiling "
            "non-separable two-coordinate Hamiltonian pairs needs a "
            "polynomial-Hamiltonian reduction that is not implemented"
        )
    recipe = FlowRecipe(decomposition.config, float(tau), float(T), int(n_steps))
    h = recipe.T / recipe.n_steps
    # an autonomous field's steps are the same shears: build one step and repeat it
    n_built = 1 if FIELDS[field.fid].autonomous else recipe.n_steps
    built = tuple(layer for k in range(n_built) for pair in decomposition.pairs
                  for layer in shear_pair(pair, recipe.tau + k * h, h, recipe))
    recipe.layers = built * (recipe.n_steps // n_built)
    net = MPNet(field.dim, recipe.layers)
    _check_finite(net, sample_box, field, n_check)
    return CompiledFlow(net, decomposition)


def _check_finite(net: MPNet, sample_box, field, n_check):
    if n_check < 1:
        return
    pts = sample_points(sample_box, n_check, 0xC0DE, exclude=field.singular)
    bad = ~np.isfinite(net_apply_batch(net, pts)).all(axis=1)
    if bad.any():
        raise NumericError(f"compiled net produced non-finite output at {pts[bad.argmax()].tolist()}")


def _rewritable_mlp(shear: Layer, s, delta) -> Mlp:
    """The sigmoid map of a shear that shear_to_couplings can rewrite with
    split s and perturbation delta; any other input raises, ConfigError or
    UnsupportedError, the same for shear_to_couplings and its bound."""
    if shear.kind != SHEAR:
        raise ConfigError(f"expected a shear layer, got kind {shear.kind!r}")
    if shear.i != 1:
        raise UnsupportedError(
            "only shears on the first coordinate are supported; reduce other targets "
            "by relabeling coordinates first"
        )
    shift_dims(LOWER, shear.dim, s)  # the linear shears' split: checks s
    if not 0 < delta < np.inf:
        raise ConfigError(f"delta must be a positive finite number, got {delta}")
    if not isinstance(shear.shift, MlpShift):
        raise UnsupportedError("only MLP-backed sigmoid shears can be rewritten")
    mlp = shear.shift.mlp
    if len(mlp.layer_dims) != 3 or mlp.activation != "sigmoid" or mlp.layer_dims[2] != 1:
        raise UnsupportedError(
            "shear shift must be a single-hidden-layer sigmoid map with scalar output"
        )
    if np.any(mlp.biases[1] != 0.0):
        raise UnsupportedError("shear shift must have zero output bias")
    if np.any(mlp.weights[0][:, s - 2] + delta == 0.0):
        raise ConfigError(
            f"degenerate delta: K[w][{s - 1}] + delta vanishes for some hidden unit"
        )
    return mlp


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
    mlp = _rewritable_mlp(shear, s, delta)
    dim = shear.dim
    d_in, d_out = shift_dims(LOWER, dim, s)  # the linear shears' widths
    K, b_vec = mlp.weights[0], mlp.biases[0]
    a_vec = mlp.weights[1][0]
    width = K.shape[0]
    denom = K[:, s - 2] + delta
    sig_dims = shift_dims(UPPER, dim, 2)
    layers = []
    for w in range(width):
        mat = np.zeros((d_out, d_in))
        mat[0, 1 : s - 1] = K[w, : s - 2] / denom[w]
        w_vec = K[w].copy()
        w_vec[: s - 2] = 0.0
        w_vec[s - 2] += delta
        sig_params = np.concatenate([[a_vec[w], b_vec[w]], w_vec])
        layers.append(lower_layer(dim, s, fixed_shift("linear", mat.reshape(-1), d_in, d_out)))
        layers.append(upper_layer(dim, 2, fixed_shift("scaled_sigmoid", sig_params, *sig_dims)))
        layers.append(lower_layer(dim, s, fixed_shift("linear", (-mat).reshape(-1), d_in, d_out)))
    return MPNet(dim, tuple(layers))


def shear_rewrite_bound(shear: Layer, s, delta, box) -> float:
    """Analytic sup-error bound of shear_to_couplings over the box; the
    inputs shear_to_couplings rejects raise the same error here, and a box
    of another dim than the shear's raises ConfigError."""
    a_vec = _rewritable_mlp(shear, s, delta).weights[1][0]
    lo, hi = as_box(box)
    if lo.size != shear.dim:
        raise ConfigError(f"box has dim {lo.size}, the shear has dim {shear.dim}")
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
                      h_ref=1e-3, seed=0xC0DE) -> ConvergenceReport:
    """Sup-norm error of the compiled flow against RK4 across step counts.

    Fits the slope of log2(error) versus log2|h| by least squares (h = T/n is
    negative for a negative T, and the order depends on the step's magnitude);
    an exact match everywhere (all errors below 1e-12) is flagged instead of
    fitted.
    """
    counts = [int(n) for n in step_counts]
    if len(counts) < 2 or any(b <= a for a, b in zip(counts, counts[1:])):
        raise ConfigError("step_counts must be at least two strictly increasing integers")
    decomposition = decompose(field, sample_box, quad_nodes, tol)
    pts = sample_points(sample_box, n_samples, seed, exclude=field.singular)
    refs = rk4_flow(field, tau, T, h_ref, pts)
    h_values, errors = [], []
    for n in counts:
        compiled = compile_flow(field, tau, T, n, sample_box,
                                decomposition=decomposition, n_check=0)
        out = net_apply_batch(compiled.net, pts)
        bad = ~np.isfinite(out).all(axis=1)
        if bad.any():
            raise NumericError(f"compiled flow blew up at {pts[bad.argmax()].tolist()} with n_steps={n}")
        h_values.append(T / n)
        errors.append(float(np.max(np.abs(out - refs), initial=0.0)))
    if all(e < 1e-12 for e in errors):
        return ConvergenceReport(tuple(counts), tuple(h_values), tuple(errors), None, True)
    slope = float(np.polyfit(np.log2(np.abs(h_values)), np.log2(errors), 1)[0])
    return ConvergenceReport(tuple(counts), tuple(h_values), tuple(errors), slope, False)
