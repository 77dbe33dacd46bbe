import hashlib

import numpy as np
import pytest

from mpflow.errors import ConfigError, NumericError
from mpflow.mlp import (
    Mlp,
    Workspace,
    _act,
    _act_grad,
    _backward,
    _buffer,
    _forward,
    _sigmoid,
    _sigmoid_into,
    adam_init,
    adam_step,
    backward_batch,
    forward_batch,
    forward_cached,
    mlp_init,
    mlp_params,
    mlp_with_params,
)
from mpflow.rng import Xoshiro256


def randomized(mlp, seed):
    """Same shape with all parameters (biases included) drawn uniformly.

    Keeps relu pre-activations away from the exact kink at zero, where the
    subgradient and a finite difference legitimately disagree.
    """
    rng = Xoshiro256(seed)
    return mlp_with_params(mlp, [rng.uniform_array(p.shape, -0.8, 0.8) for p in mlp_params(mlp)])


def fd_param_grads(mlp, x, upstream, h=1e-6):
    """Central-difference oracle for d<upstream, mlp(x)>/d(params)."""
    params = mlp_params(mlp)
    out = []
    for idx, p in enumerate(params):
        g = np.zeros_like(p)
        for j in range(p.size):
            pp = [q.copy() for q in params]
            pp[idx].reshape(-1)[j] += h
            pm = [q.copy() for q in params]
            pm[idx].reshape(-1)[j] -= h
            fp = upstream @ forward_cached(mlp_with_params(mlp, pp), x)[0]
            fm = upstream @ forward_cached(mlp_with_params(mlp, pm), x)[0]
            g.reshape(-1)[j] = (fp - fm) / (2.0 * h)
        out.append(g)
    return out


def fd_input_grad(mlp, x, upstream, h=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        fp = upstream @ forward_cached(mlp, x + e)[0]
        fm = upstream @ forward_cached(mlp, x - e)[0]
        g[j] = (fp - fm) / (2 * h)
    return g


# --- init -------------------------------------------------------------------


def test_init_shapes_and_zero_biases():
    mlp = mlp_init((3, 64, 1), "sigmoid", seed=0)
    assert mlp.weights[0].shape == (64, 3)
    assert mlp.weights[1].shape == (1, 64)
    assert np.all(mlp.biases[0] == 0.0) and np.all(mlp.biases[1] == 0.0)


def test_init_glorot_bounds():
    mlp = mlp_init((5, 7, 2), "tanh", seed=3)
    for w, (fi, fo) in zip(mlp.weights, [(5, 7), (7, 2)]):
        bound = np.sqrt(6.0 / (fi + fo))
        assert np.all(np.abs(w) <= bound)


def test_init_deterministic():
    a = mlp_init((3, 64, 1), "sigmoid", seed=0)
    b = mlp_init((3, 64, 1), "sigmoid", seed=0)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = mlp_init((3, 64, 1), "sigmoid", seed=1)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_weights_keep_their_bytes():
    # the Glorot draws of every layer, one Xoshiro256.uniform call per weight
    # in row-major order, continuing one stream across layers
    dims = (3, 16, 16, 2)
    mlp = mlp_init(dims, "sigmoid", seed=2**64 - 5)
    rng = Xoshiro256(2**64 - 5)
    for w, fan_in, fan_out in zip(mlp.weights, dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        want = np.array([rng.uniform(-bound, bound) for _ in range(fan_out * fan_in)])
        assert w.tobytes() == want.tobytes()
    assert hashlib.sha256(b"".join(w.tobytes() for w in mlp.weights)).hexdigest() == (
        "0b5db205e72ce2de45901f900d96515a7258ab935923962cd48db01c85ce04d7")


def test_init_degenerate_dims_rejected():
    with pytest.raises(ConfigError):
        mlp_init((2,), "sigmoid", 0)
    with pytest.raises(ConfigError):
        mlp_init((3, 0, 1), "sigmoid", 0)
    with pytest.raises(ConfigError):
        mlp_init((3, 4, 1), "swish", 0)


# --- forward ----------------------------------------------------------------


def test_forward_zero_params_gives_zero():
    mlp = mlp_init((4, 5, 3), "sigmoid", 0)
    zeroed = mlp_with_params(mlp, [np.zeros_like(p) for p in mlp_params(mlp)])
    out = forward_cached(zeroed, np.array([1.0, -2.0, 0.5, 3.0]))[0]
    assert np.array_equal(out, np.zeros(3))


def test_forward_identity_linear_layer():
    mlp = Mlp((3, 3), (np.eye(3),), (np.zeros(3),), "sigmoid")
    x = np.array([0.3, -1.2, 2.0])
    assert np.array_equal(forward_cached(mlp, x)[0], x)


def test_forward_hand_sigmoid():
    # dims (1,1,1), W1=[2], W2=[1], zero biases: output = sigmoid(2*0) = 0.5
    mlp = Mlp((1, 1, 1), (np.array([[2.0]]), np.array([[1.0]])),
              (np.zeros(1), np.zeros(1)), "sigmoid")
    assert forward_cached(mlp, np.array([0.0]))[0][0] == pytest.approx(0.5, abs=1e-15)


def test_forward_dim_mismatch():
    mlp = mlp_init((3, 4, 2), "relu", 0)
    with pytest.raises(ConfigError):
        forward_cached(mlp, np.zeros(4))


def test_forward_batch_matches_single():
    # BLAS may pick different kernels per batch shape, so equality is to
    # rounding, not bitwise.
    mlp = mlp_init((3, 6, 2), "tanh", 5)
    xs = Xoshiro256(1).uniform_array((10, 3), -2, 2)
    batch = forward_batch(mlp, xs)
    for row, x in zip(batch, xs):
        np.testing.assert_allclose(row, forward_cached(mlp, x)[0], rtol=1e-13, atol=1e-15)


def _sigmoid_masked_reference(z):
    """The earlier masked two-branch sigmoid, kept as the bit-exact reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sigmoid_select_reference(z):
    """The earlier one-exp form with a masked select, kept as the bit-exact
    reference for nan bits too: the masked form yields a nan of the other sign."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _assert_sigmoid_bits(got, z):
    # bit patterns, so the nan and signed-zero bits count
    bits = got.view(np.int64)
    assert np.array_equal(bits, _sigmoid_select_reference(z).view(np.int64))
    masked = _sigmoid_masked_reference(z)
    nan = np.isnan(masked)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(bits[~nan], masked.view(np.int64)[~nan])


def test_sigmoid_bit_exact_against_masked_form():
    specials = [0.0, 1e-300, 36.0, 700.0, 745.0, 1e308, np.inf]
    grid = np.concatenate([
        specials, [-v for v in specials], [np.nan],
        np.linspace(-50.0, 50.0, 2001),
        Xoshiro256(11).uniform_array(1000, -800.0, 800.0),
    ])
    assert np.signbit(grid[len(specials)])  # -0.0 is in the grid
    batch = Xoshiro256(12).uniform_array((199, 64), -40.0, 40.0)  # a training batch's shape
    batch.reshape(-1)[: grid.size] = grid
    with np.errstate(over="raise"):  # exp(-|z|) cannot overflow
        points = [_sigmoid(z) for z in grid]  # 0-d inputs
        got_1d = _sigmoid(grid)
        got_batch = _sigmoid(batch)
    assert all(isinstance(p, np.ndarray) and p.shape == () for p in points)
    _assert_sigmoid_bits(np.array(points), grid)
    _assert_sigmoid_bits(got_1d, grid)
    assert got_batch.shape == batch.shape
    _assert_sigmoid_bits(got_batch, batch)


# --- backward ---------------------------------------------------------------


def test_backward_zero_upstream():
    mlp = mlp_init((3, 5, 2), "sigmoid", 2)
    _, cache = forward_cached(mlp, np.array([[0.1, 0.2, 0.3]]))
    grads, dx = backward_batch(mlp, cache, np.zeros((1, 2)))
    assert all(np.all(g == 0.0) for g in grads)
    assert np.all(dx == 0.0)


@pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
def test_backward_matches_finite_differences(activation):
    rng = Xoshiro256(17)
    for trial in range(5):
        mlp = randomized(mlp_init((3, 6, 4, 2), activation, seed=trial), seed=trial)
        x = rng.uniform_array(3, -1.5, 1.5)
        up = rng.uniform_array(2, -1, 1)
        _, cache = forward_cached(mlp, x[None, :])
        grads, dx = backward_batch(mlp, cache, up[None, :])
        fd = fd_param_grads(mlp, x, up)
        for g, f in zip(grads, fd):
            np.testing.assert_allclose(g, f, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(dx[0], fd_input_grad(mlp, x, up), rtol=1e-5, atol=1e-8)


def test_backward_sigmoid_bit_exact_and_leaves_inputs_alone():
    mlp = randomized(mlp_init((3, 7, 5, 2), "sigmoid", 4), 4)
    rng = Xoshiro256(6)
    _, cache = forward_cached(mlp, rng.uniform_array((9, 3), -2.0, 2.0))
    up = rng.uniform_array((9, 2), -1.0, 1.0)
    saved, up_saved = [a.copy() for a in cache], up.copy()
    grads, dx = backward_batch(mlp, cache, up)
    # the earlier loop, kept as the bit-exact reference
    delta, want = up, [None] * 6
    for l in (2, 1, 0):
        want[2 * l] = delta.T @ cache[l]
        want[2 * l + 1] = delta.sum(axis=0)
        delta = delta @ mlp.weights[l]
        if l > 0:
            delta = delta * (cache[l] * (1.0 - cache[l]))
    assert all(np.array_equal(g, w) for g, w in zip(grads, want))
    assert np.array_equal(dx, delta)
    assert all(np.array_equal(a, b) for a, b in zip(cache, saved))
    assert np.array_equal(up, up_saved)


def test_backward_linear_input_grad_exact():
    w = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, 1.0]])
    mlp = Mlp((3, 2), (w,), (np.zeros(2),), "sigmoid")
    up = np.array([0.7, -0.3])
    _, cache = forward_cached(mlp, np.array([[1.0, 2.0, 3.0]]))
    _, dx = backward_batch(mlp, cache, up[None, :])
    assert np.array_equal(dx[0], w.T @ up)


def test_gradient_check_sweep():
    # 100 random (mlp, x, upstream) triples across shapes and activations
    rng = Xoshiro256(99)
    shapes = [(2, 4, 1), (3, 5, 2), (1, 3, 3, 1), (4, 4, 4)]
    acts = ["sigmoid", "tanh", "relu"]
    for trial in range(100):
        dims = shapes[trial % len(shapes)]
        mlp = randomized(mlp_init(dims, acts[trial % 3], seed=trial), seed=trial)
        x = rng.uniform_array(dims[0], -2, 2)
        up = rng.uniform_array(dims[-1], -1, 1)
        _, cache = forward_cached(mlp, x[None, :])
        grads, dx = backward_batch(mlp, cache, up[None, :])
        fd = fd_param_grads(mlp, x, up)
        for g, f in zip(grads, fd):
            np.testing.assert_allclose(g, f, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(dx[0], fd_input_grad(mlp, x, up), rtol=1e-5, atol=1e-8)


# --- the kernels against the earlier matmul and copysign expressions ---------


def _ref_sigmoid_into(z, e):
    # the earlier sigmoid: -|z| taken in one copysign
    np.copysign(z, -1.0, out=e)
    np.exp(e, out=e)
    np.greater_equal(z, 0.0, out=z, casting="unsafe")
    np.maximum(e, z, out=z)
    e += 1.0
    z /= e
    return z


def _ref_forward(mlp, x, ws=None, tag=None):
    """The earlier forward kernel, its products through np.matmul."""
    a = np.asarray(x, float)
    acts = []
    last = len(mlp.weights) - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        acts.append(a)
        key = "mlp output" if l == last else (tag, l)
        z = np.matmul(a, w.T, out=_buffer(ws, key, a.shape[:-1] + w.shape[:1]))
        z += b
        if l == last:
            a = z
        elif mlp.activation == "sigmoid":
            a = _ref_sigmoid_into(z, np.empty(z.shape))
        else:
            a = _act(mlp.activation, z)
    return a, acts


def _ref_backward(mlp, cache, upstream, ws=None, tag=None):
    """The earlier backward kernel, its products through np.matmul."""
    delta = np.asarray(upstream, float)
    n_layers = len(mlp.weights)
    grads = [None] * (2 * n_layers) if ws is None else ws.grads[tag]
    for l in range(n_layers - 1, -1, -1):
        grads[2 * l] = np.matmul(delta.T, cache[l], out=grads[2 * l])
        grads[2 * l + 1] = np.add.reduce(delta, axis=0, out=grads[2 * l + 1])
        w = mlp.weights[l]
        delta = np.matmul(delta, w, out=_buffer(ws, ("delta", l), (len(delta), w.shape[1])))
        if l > 0:
            delta *= _act_grad(mlp.activation, cache[l], _buffer(ws, "act grad", delta.shape))
    return grads, delta


# specials for data and upstream gradients; 5e-324 times a weight below 0.5
# underflows to a zero whose sign the two forms may give differently
_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, 1e-300, -1e300,
             np.nan, -np.nan, np.inf, -np.inf]


def _seeded(shape, specials, rng):
    """Uniform values in [-2, 2) with one entry in five replaced by a special."""
    out = rng.uniform_array(shape, -2.0, 2.0)
    flat = out.reshape(-1)
    for j in range(0, flat.size, 5):
        flat[j] = specials[rng.next_u64() % len(specials)]
    return out


def _bits_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _kernel_results(mlp, x, up, forward, backward):
    """(forward arrays, backward arrays) the kernels return on (x, up): a batch
    forward and its cache, a point forward, the backward, and both again with
    a workspace."""
    out, cache = forward(mlp, x)
    point, _ = forward(mlp, x[0])  # a single point, not a batch of one
    grads, dx = backward(mlp, cache, up)
    ws = Workspace({"t": [np.empty(p.shape) for p in mlp_params(mlp)]})
    # a workspace's output is scratch that the next call overwrites
    ws_out, ws_cache = forward(mlp, x, ws, "t")
    ws_out = ws_out.copy()
    ws_grads, ws_dx = backward(mlp, ws_cache, up.copy(), ws, "t")
    return [out, *cache, point, ws_out, *ws_cache], [*grads, dx, *ws_grads, ws_dx]


def _both_kernels(dims, activation, n, weight_specials, bias_specials):
    rng = Xoshiro256(31)
    base = mlp_init(dims, activation, 0)
    specials = [weight_specials, bias_specials] * len(base.weights)  # [W1, b1, ...]
    mlp = mlp_with_params(base, [_seeded(p.shape, sp, rng)
                                 for p, sp in zip(mlp_params(base), specials)])
    x = _seeded((n, dims[0]), _SPECIALS, rng)
    up = _seeded((n, dims[-1]), _SPECIALS, rng)
    with np.errstate(all="ignore"):
        got = _kernel_results(mlp, x, up, _forward, _backward)
        want = _kernel_results(mlp, x, up, _ref_forward, _ref_backward)
    # (got, want) pairs of the forward arrays, then of the backward arrays
    return list(zip(got[0], want[0])), list(zip(got[1], want[1]))


@pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
@pytest.mark.parametrize("dims", [(3, 64, 1), (1, 64, 3)])  # the benchmark net's two shifts
def test_kernels_bit_identical_to_matmul_and_copysign_forms(dims, activation):
    # the parameters a net can hold: finite (load_net and adam_step refuse
    # others), and no -0.0 bias, since biases start at +0.0 and Adam's
    # p - step is -0.0 only for p = -0.0; the data carry every special
    weights = [v for v in _SPECIALS if np.isfinite(v)]
    biases = [v for v in weights if not (v == 0.0 and np.signbit(v))]
    forward, backward = _both_kernels(dims, activation, 199, weights, biases)
    assert all(_bits_equal(g, w) for g, w in forward + backward)
    # a batch of one at the forward only: its backward contracts over one row
    # (the test below)
    forward, _ = _both_kernels(dims, activation, 1, weights, biases)
    assert all(_bits_equal(g, w) for g, w in forward)


@pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
@pytest.mark.parametrize("dims", [(3, 64, 1), (1, 64, 3)])
@pytest.mark.parametrize("n", [199, 1])
def test_kernels_differ_from_matmul_form_only_in_zero_signs_and_nan_bits(n, dims, activation):
    # with specials in the parameters too (-0.0 biases, nan and inf weights),
    # and with a backward that contracts over one row, a product with inner
    # dimension 1 may give an underflowed zero the other sign, and a product
    # of two nans the other nan; every other bit is the same
    forward, backward = _both_kernels(dims, activation, n, _SPECIALS, _SPECIALS)
    assert all(np.array_equal(g, w, equal_nan=True) for g, w in forward + backward)


def test_sigmoid_into_bit_identical_to_copysign_form():
    # random bits cover every class of float64: nans of both signs with many
    # payloads, subnormals, infinities and both zeros
    rng = Xoshiro256(21)
    z = np.array([rng.next_u64() for _ in range(199 * 64)], np.uint64).view(np.float64)
    z[:10] = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0]
    with np.errstate(all="ignore"):
        for zs in (z, z.reshape(199, 64), z[:1].reshape(())):
            got = _sigmoid_into(zs.copy(), np.empty(zs.shape))
            assert _bits_equal(got, _ref_sigmoid_into(zs.copy(), np.empty(zs.shape)))


# --- adam -------------------------------------------------------------------


def test_adam_zero_grads_leave_params():
    params = [np.array([1.0, -2.0]), np.array([[0.5]])]
    state = adam_init(params)
    new, state2 = adam_step(params, [np.zeros(2), np.zeros((1, 1))], state)
    assert np.array_equal(new[0], params[0]) and np.array_equal(new[1], params[1])
    assert state2.t == 1


def test_adam_hand_run_single_step():
    # m_hat = 1, v_hat = 1 after one step with grad 1: delta = lr/(1+eps)
    params = [np.array([0.0])]
    state = adam_init(params, lr=0.001)
    new, _ = adam_step(params, [np.array([1.0])], state)
    assert abs(new[0][0] + 0.001) < 1e-9


def test_adam_two_steps_strictly_decreasing():
    params = [np.array([0.0])]
    state = adam_init(params, lr=0.001)
    p1, state = adam_step(params, [np.array([1.0])], state)
    p2, state = adam_step(p1, [np.array([1.0])], state)
    assert p1[0][0] < 0.0
    assert p2[0][0] < p1[0][0]
    assert state.t == 2


def test_adam_nonfinite_grad_raises():
    params = [np.array([0.0])]
    state = adam_init(params)
    with pytest.raises(NumericError) as err:
        adam_step(params, [np.array([np.nan])], state)
    assert err.value.step == 1
