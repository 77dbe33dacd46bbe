import re
from dataclasses import replace

import numpy as np
import pytest

from mpflow.dynamics import (
    FD_STEP,
    divergence_fd,
    field_eval,
    make_field,
    partial_divergence_fd,
    partial_divergences_fd,
)
from mpflow.errors import ConfigError, DecompositionError
from mpflow.pair_decomposition import (
    _DETECT_SAMPLES,
    _DETECT_SEED,
    DEFAULT_TOL,
    PairField,
    _gauss_legendre,
    _legval,
    _separability_cols,
    _separable,
    _zero_component,
    build_pairs,
    decompose,
    pair_eval,
    separability_check,
)
from mpflow.verify import sample_points

from test_coupling import lorenz96
from test_dynamics import LORENTZ_F3, LORENTZ_F4, LORENTZ_TEST_POINT


def fd_partial(fn, j):
    """Central difference of fn in y_j on two whole copies of y, the form the
    separability check computes in place."""

    def dfn(t, y):
        yp = y.copy()
        yp[j] += FD_STEP
        ym = y.copy()
        ym[j] -= FD_STEP
        return (fn(t, yp) - fn(t, ym)) / (2.0 * FD_STEP)

    return dfn


def fd_pair_divergence(pair, t, y):
    """Central-difference d(u1)/dy_d + d(u2)/dy_{d+1} at one point; zero for exact pairs."""
    d0 = pair.d - 1
    return float(fd_partial(pair.u1, d0)(t, y) + fd_partial(pair.u2, d0 + 1)(t, y))


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


class CallCounter:
    """Counts the calls of the functions it wraps and fails past a budget, so a
    decomposition whose cost explodes with D fails fast instead of hanging."""

    def __init__(self, budget, what):
        self.budget, self.what, self.calls = budget, what, 0

    def wrap(self, func):
        def counted_func(t, y):
            self.calls += 1
            if self.calls > self.budget:
                raise AssertionError(f"more than {self.budget} {self.what} calls")
            return func(t, y)

        return counted_func


def counted(field, budget):
    """The field with its func and every component counted: (field,
    whole-field counter, counter shared by the components). A field call
    computes dim components, so the components share dim times the budget."""
    whole, parts = CallCounter(budget, "field"), CallCounter(budget * field.dim, "component")
    field = replace(field, func=whole.wrap(field.func),
                    components=tuple(map(parts.wrap, field.components)))
    return field, whole, parts


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tol": 0.0}, "tol must be a positive finite number, got 0.0"),
        ({"tol": -1e-6}, "tol must be a positive finite number, got -1e-06"),
        ({"tol": float("nan")}, "tol must be a positive finite number, got nan"),
        ({"n_residual": 0}, "n_residual must be >= 1, got 0"),
        ({"quad_nodes": 0}, "quad_nodes must be >= 1, got 0"),
    ],
    ids=["tol=0", "tol<0", "tol=nan", "n_residual=0", "quad_nodes=0"],
)
def test_decompose_rejects_bad_arguments_by_name(kwargs, message):
    harmonic = make_field("harmonic2d")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        decompose(harmonic, (np.full(2, -1.0), np.full(2, 1.0)), **kwargs)


def test_build_pairs_rejects_zero_quad_nodes():
    with pytest.raises(ConfigError, match=r"^quad_nodes must be >= 1, got 0$"):
        build_pairs(make_field("harmonic2d"), (np.full(2, -1.0), np.full(2, 1.0)), quad_nodes=0)


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
def test_one_u2_evaluation_makes_one_component_call_per_term(dim):
    # u2 of pair d integrates P_d, whose d terms each call one component once
    f, whole, parts = counted(chain_field([1.0] * (dim - 1)), budget=1000)
    box = (np.full(dim, -1.0), np.full(dim, 1.0))
    pairs = build_pairs(f, box)
    p = np.linspace(-0.9, 0.8, dim)
    assert whole.calls == 0
    for pair in pairs[:-1]:  # the quadrature pairs
        parts.calls = 0
        pair.u2(0.0, p)
        assert parts.calls == pair.d
    assert whole.calls == 0


@pytest.mark.parametrize("make, pinned", [
    (lambda: chain_field([0.5 + 0.125 * k for k in range(7)]), [False] * 6),  # D = 8
    (lambda: lorenz96(16), [True] * 14),
    (lambda: make_field("lorentz4d"), [True, True]),
    (quadrature_field, [False]),
], ids=["chain8", "lorenz96_16", "lorentz4d", "quadrature"])
def test_detection_is_one_running_sum_with_the_bits_of_each_partial_divergence(make, pinned):
    field = make()
    dim = field.dim
    box = BOX4 if field.fid == "lorentz4d" else (np.full(dim, -1.0), np.full(dim, 1.0))
    pts = sample_points(box, _DETECT_SAMPLES, _DETECT_SEED, exclude=field.singular)
    sums = list(partial_divergences_fd(field, 0.0, pts.T, dim - 2))
    assert len(sums) == dim - 2
    for k, got in enumerate(sums, 1):
        assert got.tobytes() == partial_divergence_fd(field, 0.0, pts.T, k).tobytes()
    counted_field, whole, parts = counted(field, budget=1000)
    pairs = build_pairs(counted_field, box)
    assert (whole.calls, parts.calls) == (0, dim - 2)  # one component call per P_d
    # each pin is the decision of P_d on its own
    assert [pair.u2 is _zero_component for pair in pairs[:-1]] == pinned == [
        bool(np.max(np.abs(partial_divergence_fd(field, 0.0, pts.T, d))) < DEFAULT_TOL)
        for d in range(1, dim - 1)]


def test_gauss_legendre_has_the_bits_of_leggauss():
    # the rule repeats leggauss's arithmetic without importing numpy.polynomial;
    # a numpy whose legval rounds (c1 * (nd - 1)) / nd instead may differ in the
    # last bits, by at most the old-versus-new differences seen up to n = 1024
    import inspect

    from numpy.polynomial import legendre

    same_rounding = "c1 * ((nd - 1) / nd)" in inspect.getsource(legendre.legval)
    x = np.linspace(-1.0, 1.0, 101)
    for n in [*range(1, 65), 100, 256, 512, 1024]:
        nodes, weights = _gauss_legendre(n)
        want_nodes, want_weights = legendre.leggauss(n)
        assert nodes.shape == weights.shape == (n,)
        if same_rounding:
            assert nodes.tobytes() == want_nodes.tobytes(), n
            assert weights.tobytes() == want_weights.tobytes(), n
            c = np.zeros(n + 1)
            c[n] = 1.0
            assert _legval(x, c).tobytes() == legendre.legval(x, c).tobytes(), n
        else:
            assert np.max(np.abs(nodes - want_nodes)) <= 2.3e-16, n
            assert np.max(np.abs(weights - want_weights) / want_weights) <= 1e-9, n


@pytest.mark.parametrize("dim", [5, 8])
def test_chain_field_pairs_match_closed_form(dim):
    coeffs = [0.5 + 0.125 * k for k in range(dim - 1)]
    f, _, _ = counted(chain_field(coeffs), budget=1000)
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
        f = deco.config.field
        pts = sample_points(
            (np.array(deco.config.box_lo), np.array(deco.config.box_hi)), 100, 13,
            exclude=f.singular,
        )
        for pair in deco.pairs:
            for p in pts[:25]:
                assert abs(fd_pair_divergence(pair, 0.0, p)) < 1e-6


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
    assert separability_check(pair, box, tol=1e-6) == "no"


def test_separability_zero_pair():
    pair = PairField(3, 2, lambda t, y: 0.0, lambda t, y: 0.0)
    assert separability_check(pair, BOX3, tol=1e-6) == "yes"


def test_separability_lorentz_pair3():
    deco = decompose(make_field("lorentz4d"), BOX4, tol=1e-9)
    assert separability_check(deco.pairs[2], BOX4, tol=1e-6) == "yes"


class Recorded:
    """A pair component that keeps a copy of every input and output."""

    def __init__(self, fn):
        self.fn, self.calls = fn, []

    def __call__(self, t, y):
        out = self.fn(t, y)
        self.calls.append((y.copy(), np.array(out)))
        return out


@pytest.mark.parametrize("make", [
    lambda: lorenz96(64),
    lambda: chain_field([0.5 + 0.125 * k for k in range(7)]),
    lambda: make_field("lorentz4d"),
    lambda: make_field("linear", [[1.0, 2.0, 0.0], [0.0, -3.0, 1.0], [4.0, 0.0, 2.0]]),
    lambda: make_field("harmonic2d"),
], ids=["lorenz96_64", "chain8", "lorentz4d", "linear", "harmonic2d"])
def test_separability_differences_in_place_with_the_bits_of_whole_copies(make):
    # each partial sees exactly the +step and -step copies the whole-copy form
    # builds, so its quotients have the same bytes, and every decision is the same
    field = make()
    box = BOX4 if field.fid == "lorentz4d" else (np.full(field.dim, -1.0), np.full(field.dim, 1.0))
    pairs = build_pairs(field, box)
    cols = _separability_cols(box, field.singular)
    before = cols.copy()
    recorded = [replace(pair, u1=Recorded(pair.u1), u2=Recorded(pair.u2)) for pair in pairs]
    got = _separable(recorded, cols, DEFAULT_TOL)
    assert cols.tobytes() == before.tobytes()  # the caller's columns are not written
    want = []
    for pair, rec in zip(pairs, recorded):
        worst = []
        for fn, seen, j in ((pair.u1, rec.u1, pair.d - 1), (pair.u2, rec.u2, pair.d)):
            yp, ym = cols.copy(), cols.copy()
            yp[j] += FD_STEP
            ym[j] -= FD_STEP
            assert [y.tobytes() for y, _ in seen.calls] == [yp.tobytes(), ym.tobytes()]
            quotient = fd_partial(fn, j)(0.0, cols)
            (_, plus), (_, minus) = seen.calls
            assert ((plus - minus) / (2.0 * FD_STEP)).tobytes() == quotient.tobytes()
            worst.append(np.max(np.abs(quotient)))
        want.append("yes" if max(worst) < DEFAULT_TOL else "no")
    assert got == want
    assert [separability_check(pair, box) for pair in pairs] == want


def test_separability_of_a_component_that_returns_a_view_of_its_input():
    # u2 = y_2 depends on its own coordinate; returned as a view of the
    # differenced copy, its + value must not follow the row to its - value
    pair = PairField(3, 1, lambda t, y: y[2], lambda t, y: y[1])
    assert separability_check(pair, BOX3) == "no"
    assert separability_check(replace(pair, u2=lambda t, y: y[2]), BOX3) == "yes"
