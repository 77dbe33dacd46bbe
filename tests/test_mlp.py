import numpy as np
import pytest

from mpflow.errors import ConfigError, NumericError
from mpflow.mlp import (
    Mlp,
    _sigmoid,
    adam_init,
    adam_step,
    backward_batch,
    forward_batch,
    forward_cached,
    lipschitz_bound,
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


def test_sigmoid_bit_exact_against_masked_form():
    specials = [0.0, 1e-300, 36.0, 700.0, 745.0, 1e308, np.inf]
    grid = np.concatenate([
        specials, [-v for v in specials], [np.nan],
        np.linspace(-50.0, 50.0, 2001),
        Xoshiro256(11).uniform_array(1000, -800.0, 800.0),
    ])
    assert np.signbit(grid[len(specials)])  # -0.0 is in the grid
    with np.errstate(over="raise"):  # exp(-|z|) cannot overflow
        got = _sigmoid(grid)
    assert np.array_equal(got, _sigmoid_masked_reference(grid), equal_nan=True)


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


def test_lipschitz_witness_sigmoid():
    mlp = mlp_init((3, 16, 2), "sigmoid", seed=8)
    bound = lipschitz_bound(mlp)
    rng = Xoshiro256(4)
    for _ in range(1000):
        x = rng.uniform_array(3, -2, 2)
        xp = rng.uniform_array(3, -2, 2)
        lhs = np.max(np.abs(forward_cached(mlp, x)[0] - forward_cached(mlp, xp)[0]))
        rhs = bound * np.max(np.abs(x - xp))
        assert lhs <= rhs + 1e-12


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
