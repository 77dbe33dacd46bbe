from dataclasses import replace

import numpy as np
import pytest

from mpflow.dynamics import divergence_fd, field_eval, make_field
from mpflow.errors import DecompositionError
from mpflow.pair_decomposition import (
    _DETECT_SEED,
    PairField,
    build_pairs,
    decompose,
    pair_divergence_fd,
    pair_eval,
    separability_check,
)
from mpflow.verify import sample_points

from test_dynamics import LORENTZ_F3, LORENTZ_F4, LORENTZ_TEST_POINT

BOX4 = (np.array([-1.5, -1.5, -1.3, -1.3]), np.array([1.5, 1.5, 1.3, 1.3]))
BOX3 = (np.full(3, -2.0), np.full(3, 2.0))


def cycle_field():
    # f = (y2, y3, y1), divergence-free
    return make_field(
        "poly", params=[[(1.0, (0, 1, 0))], [(1.0, (0, 0, 1))], [(1.0, (1, 0, 0))]], dim=3
    )


def quadrature_field():
    # f = (y1*y2, -y2^2/2, 0.7): div = y2 - y2 = 0; pair 1 genuinely needs
    # the antiderivative branch and comes out non-separable.
    return make_field(
        "poly",
        params=[[(1.0, (1, 1, 0))], [(-0.5, (0, 2, 0))], [(0.7, (0, 0, 0))]],
        dim=3,
    )


def chain_field(coeffs):
    # f_1 = a_1 y_1 y_2, f_k = -(a_{k-1}/2) y_k^2 + a_k y_k y_{k+1}, f_D = -(a_{D-1}/2) y_D^2:
    # P_d = a_d y_{d+1}, so the exact u2_d is -a_d y_{d+1}^2 / 2
    dim = len(coeffs) + 1
    components = [[] for _ in range(dim)]
    for k, a in enumerate(coeffs):
        components[k].append((a, tuple(int(j in (k, k + 1)) for j in range(dim))))
        components[k + 1].append((-a / 2.0, tuple(2 * int(j == k + 1) for j in range(dim))))
    return make_field("poly", params=components, dim=dim)


class CountedCalls:
    """A field function that counts its calls and fails past a budget, so a
    decomposition whose cost explodes with D fails fast instead of hanging."""

    def __init__(self, func, budget):
        self.func, self.budget, self.calls = func, budget, 0

    def __call__(self, t, y):
        self.calls += 1
        if self.calls > self.budget:
            raise AssertionError(f"more than {self.budget} field calls")
        return self.func(t, y)


def counted(field, budget):
    counter = CountedCalls(field.func, budget)
    return replace(field, func=counter), counter


# --- pair_eval ---------------------------------------------------------------


def test_pair_eval_embeds_two_components():
    pair = PairField(3, 1, lambda t, y: y[1], lambda t, y: 0.0)
    out = pair_eval(pair, 0.0, np.array([9.0, -2.0, 5.0]))
    assert np.array_equal(out, np.array([-2.0, 0.0, 0.0]))


def test_zero_pair_evaluates_to_zero():
    pair = PairField(4, 2, lambda t, y: 0.0, lambda t, y: 0.0)
    assert np.array_equal(pair_eval(pair, 0.0, np.ones(4)), np.zeros(4))


def test_lorentz_pair3_at_benchmark_point():
    deco = decompose(make_field("lorentz4d"), BOX4, tol=1e-9)
    out = pair_eval(deco.pairs[2], 0.0, LORENTZ_TEST_POINT)
    np.testing.assert_allclose(out, [0.0, 0.0, LORENTZ_F3, LORENTZ_F4], rtol=0, atol=1e-12)


# --- decompose ---------------------------------------------------------------


def test_cycle_field_hand_derived_pairs():
    deco = decompose(cycle_field(), BOX3, tol=1e-9)
    assert len(deco.pairs) == 2
    assert deco.residual_max < 1e-9
    pts = sample_points(BOX3, 50, 7)
    for p in pts:
        np.testing.assert_allclose(
            pair_eval(deco.pairs[0], 0.0, p), [p[1], 0.0, 0.0], rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            pair_eval(deco.pairs[1], 0.0, p), [0.0, p[2], p[0]], rtol=0, atol=1e-9
        )


def test_lorentz_decomposition_structure():
    f = make_field("lorentz4d")
    deco = decompose(f, BOX4, tol=1e-9)
    assert len(deco.pairs) == 3
    assert deco.residual_max < 1e-9
    assert [p.separable for p in deco.pairs] == ["yes", "yes", "yes"]
    pts = sample_points(BOX4, 30, 9, exclude=f.singular)
    for p in pts:
        np.testing.assert_allclose(pair_eval(deco.pairs[0], 0.0, p), [p[2], 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(pair_eval(deco.pairs[1], 0.0, p), [0, p[3], 0, 0], atol=1e-12)
        total = sum(pair_eval(pair, 0.0, p) for pair in deco.pairs)
        np.testing.assert_allclose(total, field_eval(f, 0.0, p), atol=1e-12)


def test_quadrature_branch_matches_analytic_antiderivative():
    deco = decompose(quadrature_field(), BOX3, tol=1e-6)
    pts = sample_points(BOX3, 40, 3)
    for p in pts:
        # second component of pair 1 must be -int_0^{y2} y1 ds = -y1*y2... with
        # d/dy1(y1*s) = s: -int_0^{y2} s ds = -y2^2/2
        got = pair_eval(deco.pairs[0], 0.0, p)
        np.testing.assert_allclose(got, [p[0] * p[1], -0.5 * p[1] ** 2, 0.0], atol=1e-9)
        np.testing.assert_allclose(
            pair_eval(deco.pairs[1], 0.0, p), [0.0, 0.0, 0.7], atol=1e-9
        )
    assert deco.pairs[0].separable == "no"
    assert deco.pairs[1].separable == "yes"


def test_pure_pair_idempotence():
    # already two-coordinate Hamiltonian in (1,2) with antiderivative-compatible
    # second component: f = (-y1^2, 2*y1*y2, 0) from H = y1^2 * y2
    f = make_field(
        "poly", params=[[(-1.0, (2, 0, 0))], [(2.0, (1, 1, 0))], []], dim=3
    )
    deco = decompose(f, BOX3, tol=1e-6)
    pts = sample_points(BOX3, 30, 11)
    for p in pts:
        np.testing.assert_allclose(
            pair_eval(deco.pairs[0], 0.0, p), field_eval(f, 0.0, p), atol=1e-9
        )
        np.testing.assert_allclose(pair_eval(deco.pairs[1], 0.0, p), np.zeros(3), atol=1e-9)


def test_harmonic_single_pair():
    f = make_field("harmonic2d")
    box = (np.full(2, -1.0), np.full(2, 1.0))
    deco = decompose(f, box, tol=1e-9)
    assert len(deco.pairs) == 1
    assert deco.pairs[0].separable == "yes"
    p = np.array([0.3, -0.8])
    np.testing.assert_allclose(pair_eval(deco.pairs[0], 0.0, p), [0.8, 0.3], atol=1e-15)


def test_non_divergence_free_rejected():
    f = make_field("linear", params=np.eye(3))
    with pytest.raises(DecompositionError) as err:
        decompose(f, BOX3)
    assert err.value.worst_point is not None
    assert err.value.worst_residual > 1.0


def test_nan_divergence_is_rejected():
    # a nan is not below tol: the gate must not skip it
    f = make_field("linear", params=np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(DecompositionError, match="not divergence-free"):
        decompose(f, (np.full(2, -1.0), np.full(2, 1.0)))


def test_non_divergence_free_error_names_first_worst_point():
    # div = 2 y1 + y3 varies over the box; the batched gate must name the
    # point and value a per-point divergence_fd loop finds, the first on ties
    f = make_field(
        "poly", params=[[(1.0, (2, 0, 0))], [(1.0, (0, 1, 1))], [(0.5, (0, 0, 0))]], dim=3
    )
    worst_div, worst_pt = 0.0, None
    for p in sample_points(BOX3, 100, _DETECT_SEED + 1):
        dv = abs(divergence_fd(f, 0.0, p))
        if dv > worst_div:
            worst_div, worst_pt = dv, p
    with pytest.raises(DecompositionError) as err:
        decompose(f, BOX3)
    assert np.array_equal(err.value.worst_point, worst_pt)
    assert err.value.worst_residual == worst_div


@pytest.mark.parametrize("dim", [4, 8])
def test_one_u2_evaluation_makes_one_field_call_at_any_dim(dim):
    f, counter = counted(chain_field([1.0] * (dim - 1)), budget=1000)
    box = (np.full(dim, -1.0), np.full(dim, 1.0))
    pairs = build_pairs(f, box)
    p = np.linspace(-0.9, 0.8, dim)
    counter.calls = 0
    pairs[dim - 3].u2(0.0, p)  # the last quadrature pair
    assert counter.calls == 1


@pytest.mark.parametrize("dim", [5, 8])
def test_chain_field_pairs_match_closed_form(dim):
    coeffs = [0.5 + 0.125 * k for k in range(dim - 1)]
    f, _ = counted(chain_field(coeffs), budget=1000)
    box = (np.full(dim, -1.0), np.full(dim, 1.0))
    deco = decompose(f, box, n_residual=20)
    assert deco.residual_max < 1e-6
    assert [p.separable for p in deco.pairs] == ["no"] * (dim - 1)
    pts = sample_points(box, 20, 21)
    for d0, pair in enumerate(deco.pairs[:-1]):
        got = pair.u2(0.0, pts.T)
        np.testing.assert_allclose(got, -coeffs[d0] * pts[:, d0 + 1] ** 2 / 2.0, rtol=0, atol=1e-9)
        # a point is a batch of one: it has the bits of its column
        assert [pair_eval(pair, 0.0, p)[d0 + 1] for p in pts] == got.tolist()


def test_pairwise_divergence_invariant():
    for deco in [
        decompose(make_field("lorentz4d"), BOX4, tol=1e-9),
        decompose(quadrature_field(), BOX3, tol=1e-6),
    ]:
        f = deco.field
        pts = sample_points(
            (np.array(deco.config.box_lo), np.array(deco.config.box_hi)), 100, 13,
            exclude=f.singular,
        )
        for pair in deco.pairs:
            for p in pts[:25]:
                assert abs(pair_divergence_fd(pair, 0.0, p)) < 1e-6


def test_support_discipline_exact_zeros():
    deco = decompose(make_field("lorentz4d"), BOX4, tol=1e-9)
    p = LORENTZ_TEST_POINT
    for pair in deco.pairs:
        out = pair_eval(pair, 0.0, p)
        mask = np.ones(4, bool)
        mask[pair.d - 1 : pair.d + 1] = False
        assert np.all(out[mask] == 0.0)


def test_sum_reconstruction_at_diagnostic_samples():
    f = quadrature_field()
    deco = decompose(f, BOX3, tol=1e-6)
    pts = sample_points(BOX3, 50, 17)
    for p in pts:
        total = sum(pair_eval(pair, 0.0, p) for pair in deco.pairs)
        np.testing.assert_allclose(total, field_eval(f, 0.0, p), atol=1e-6)


# --- separability ------------------------------------------------------------


def test_separability_nonseparable_hamiltonian():
    # H = p^2 q^2 -> f = (-2 p^2 q, 2 p q^2): first component depends on p
    pair = PairField(
        2, 1,
        lambda t, y: -2.0 * y[0] ** 2 * y[1],
        lambda t, y: 2.0 * y[0] * y[1] ** 2,
    )
    box = (np.full(2, 0.5), np.full(2, 1.5))
    assert separability_check(pair, box, n_samples=50, tol=1e-6) == "no"


def test_separability_zero_pair():
    pair = PairField(3, 2, lambda t, y: 0.0, lambda t, y: 0.0)
    assert separability_check(pair, BOX3, n_samples=20, tol=1e-6) == "yes"


def test_separability_lorentz_pair3():
    deco = decompose(make_field("lorentz4d"), BOX4, tol=1e-9)
    assert separability_check(deco.pairs[2], BOX4, n_samples=100, tol=1e-6) == "yes"
