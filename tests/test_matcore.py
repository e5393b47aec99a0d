"""Unit tests for the dense-matrix kernel."""

import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import lqdisc.exactdefs
import lqdisc.matcore
import lqdisc.vanloan
from lqdisc import build_deq, discretize_expm, oracle_quadrature, rww_expm
from lqdisc.matcore import (PIVOT_RTOL, DimensionError, DomainError,
                            SingularMatrixError, asmat, expm, inf_norm,
                            is_psd, is_symmetric, max_abs, min_eig_sym, solve,
                            symmetrize)

# The 1-norm thresholds of Pade degrees 3, 5, 7 and 9 (Higham 2005), and
# the bound on the degree-13 power-norm estimate (Al-Mohy & Higham 2009).
THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
         2.097847961257068)
THETA_13 = 4.25
EXPM_RTOL = 1e-13


def expm_gap(X):
    """Gap to scipy's expm, relative to the largest entry of its result."""
    want = scipy.linalg.expm(X)
    return max_abs(expm(X) - want) / max_abs(want)


def norm1(X):
    return float(np.abs(X).sum(axis=0).max())


def mp_expm(X):
    """e^X from mpmath at 30 digits, rounded to float64."""
    with mp.workdps(30):
        return np.array(mp.expm(mp.matrix(X.tolist())).tolist(), dtype=float)


def eta13(X):
    """The degree-13 power-norm estimate max(||X^4||^(1/4),
    (||X^4|| ||X^6||)^(1/10)) that picks the squarings."""
    X4 = np.linalg.matrix_power(X, 4)
    n4, n6 = norm1(X4), norm1(X4 @ X @ X)
    return max(n4 ** 0.25, (n4 * n6) ** 0.1)


def expm_taylor(X, terms=40):
    """Plain series oracle, adequate for ||X|| <= 1."""
    out = np.eye(X.shape[0])
    term = np.eye(X.shape[0])
    for k in range(1, terms + 1):
        term = term @ X / k
        out = out + term
    return out


def test_expm_matches_taylor_series_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5):
        for _ in range(5):
            X = rng.normal(size=(n, n))
            X *= 0.8 / max(inf_norm(X), 1e-12)
            assert max_abs(expm(X) - expm_taylor(X)) < 1e-14


@pytest.mark.parametrize("theta", THETA)
@pytest.mark.parametrize("side", (1 - 1e-9, 1 + 1e-9))
def test_expm_matches_scipy_at_each_degree_threshold(theta, side):
    rng = np.random.default_rng(5)
    for n in (2, 3, 6, 12, 30):
        for _ in range(4):
            X = rng.normal(size=(n, n))
            X *= side * theta / norm1(X)
            assert expm_gap(X) <= EXPM_RTOL


@pytest.mark.parametrize("squarings", (0, 1, 3))
@pytest.mark.parametrize("side", (1 - 1e-9, 1 + 1e-9))
def test_expm_matches_high_precision_at_each_squaring_threshold(squarings,
                                                                side):
    """Against mpmath at 30 digits: on these rotations scipy's own error
    reaches 5e-12 (2 x 2, eta = 34)."""
    rng = np.random.default_rng(6)
    for n in (2, 5, 8):
        X = rng.normal(size=(n, n))
        X *= side * THETA_13 * 2.0 ** squarings / eta13(X)
        assert norm1(X) > THETA[-1]
        want = mp_expm(X)
        assert max_abs(expm(X) - want) <= EXPM_RTOL * max_abs(want)


def test_expm_matches_scipy_on_sizes_1_to_80_and_zero():
    rng = np.random.default_rng(8)
    for n in range(1, 81):
        X = rng.normal(size=(n, n)) * rng.choice((0.01, 0.2, 1.0, 5.0)) / n
        assert expm_gap(X) <= EXPM_RTOL, n
        assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))


@pytest.mark.parametrize("s_scale", (1.0, 1e2, 1e4, 1e8))
def test_expm_matches_high_precision_on_nonnormal_van_loan_blocks(s_scale):
    """[[-H', S], [0, H]] with a large S: the power norms are far below
    ||X||_1, which the degree-13 choice must not turn into too few
    squarings. Against mpmath at 30 digits, because scipy's own error
    reaches 5e-13 on such blocks (n = 9, S ~ 1e8)."""
    rng = np.random.default_rng(9)
    for n in (2, 5):
        for h in (0.05, 1.0, 4.0):
            H = rng.normal(size=(n, n)) * h / n
            S = rng.normal(size=(n, n))
            S = s_scale * (S @ S.T)
            X = np.block([[-H.T, S], [np.zeros((n, n)), H]])
            want = mp_expm(X)
            assert max_abs(expm(X) - want) <= EXPM_RTOL * max_abs(want)


def test_expm_adds_squarings_where_the_power_norms_pick_too_few():
    """A non-normal 3 x 3 (1-norm 156) whose power norms alone pick no
    squaring, for an error of 1e-12; the |X|^27 bound of Al-Mohy & Higham
    (2009) adds 5 squarings, which bring it to 4e-14."""
    X = np.array([
        [-42.249207887101655, -25.1692908507157, -18.797986691739165],
        [-9.98349990683251, 0.7316537448746547, -3.783728561882067],
        [103.57254475109018, 12.887847585635903, 41.27197524553392]])
    want = mp_expm(X)
    assert max_abs(expm(X) - want) <= EXPM_RTOL * max_abs(want)
    assert expm_gap(X) <= EXPM_RTOL


def _recorded_expm_arguments(monkeypatch, deq):
    """Every argument exact_seed, rww_expm and oracle_quadrature give expm;
    a stack as its matrices."""
    seen = []

    def record(X):
        seen.append(np.array(X, dtype=float))
        return expm(X)

    monkeypatch.setattr(lqdisc.vanloan, "expm", record)
    monkeypatch.setattr(lqdisc.exactdefs, "expm", record)
    discretize_expm(deq)
    oracle_quadrature(deq, panels=64)
    rww_expm(deq.A_c, np.eye(deq.n_x) if deq.G_c is None else deq.G_c,
             deq.Ts)
    monkeypatch.undo()
    return [Y for X in seen for Y in X.reshape((-1,) + X.shape[-2:])]


@pytest.mark.parametrize("model", ("scalar", "mimo"))
@pytest.mark.parametrize("mu_ts", (None, 2000.0))
def test_expm_matches_scipy_on_the_methods_arguments(
        monkeypatch, model, mu_ts, scalar_model, mimo_model, mimo_realization):
    plant, cost = scalar_model if model == "scalar" else mimo_model
    if mu_ts is not None:
        cost = dataclasses.replace(cost, mu=mu_ts / cost.Ts)
    deq = build_deq(plant if model == "scalar" else mimo_realization, cost)
    seen = _recorded_expm_arguments(monkeypatch, deq)
    assert len(seen) >= 5
    for X in seen:
        assert expm_gap(X) <= EXPM_RTOL


def _different_generators(n):
    """Matrices of size n whose 1-norms fall in every Pade degree band and
    across the squaring thresholds of degree 13, a zero matrix among them."""
    rng = np.random.default_rng(n)
    out = [np.zeros((n, n))]
    for norm in (*THETA, 0.5 * THETA_13, 2 * THETA_13, 40.0, 300.0):
        X = rng.normal(size=(n, n))
        out.append(X * (0.9 * norm / norm1(X)))
    return np.stack(out)


@pytest.mark.parametrize("n", (1, 3, 12))
def test_expm_on_a_stack_matches_separate_calls(n):
    """Each matrix of a stack gets its own degree and squarings: the stack
    gives, matrix by matrix, the bits of separate calls, within the bound
    against mpmath at 30 digits, in any stack shape."""
    stack = _different_generators(n)
    got = expm(stack)
    assert got.shape == stack.shape
    for X, R in zip(stack, got):
        assert np.array_equal(R, expm(X))
        want = mp_expm(X)
        assert max_abs(R - want) <= EXPM_RTOL * max_abs(want)
    nested = stack[:8].reshape(2, 4, n, n)
    assert np.array_equal(expm(nested), got[:8].reshape(2, 4, n, n))
    assert expm(stack[:0]).shape == (0, n, n)


def test_expm_nilpotent():
    X = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert max_abs(expm(X) - np.array([[1.0, 1.0], [0.0, 1.0]])) < 1e-15


@pytest.mark.parametrize("shape", ((0, 0), (2, 0, 0), (0, 3, 3)))
def test_expm_of_an_empty_stack_is_empty(shape):
    assert expm(np.zeros(shape)).shape == shape


def test_rww_expm_without_states_is_empty():
    assert rww_expm(np.zeros((0, 0)), np.zeros((0, 1)), 1.0).shape == (0, 0)


def test_expm_rejects_bad_input():
    with pytest.raises(DimensionError):
        expm(np.ones((2, 3)))
    with pytest.raises(DomainError, match="non-finite"):
        expm(np.array([[np.nan]]))
    with warnings.catch_warnings():     # the 1-norm sum overflows
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DomainError, match="overflows"):
            expm(np.array([[1e308, 0.0], [1e308, 0.0]]))


def taylor_theta(m, guess):
    """Largest theta with sum_k |c_k| theta^(k-1) = 2^-53, where
    log(e^-x T_m(x)) = sum_{k>m} c_k x^k; 60 digits, 160 terms."""
    terms = 160
    with mp.workdps(60):
        p = [mp.fsum(mp.mpf(-1) ** (k - j) / (mp.factorial(j)
                                              * mp.factorial(k - j))
                     for j in range(min(k, m) + 1)) for k in range(terms)]
        c = [mp.mpf(0)] * terms             # log(p), p[0] = 1
        for k in range(1, terms):
            c[k] = p[k] - mp.fsum(j * c[j] * p[k - j]
                                  for j in range(1, k)) / k
        assert max(abs(x) for x in c[1:m + 1]) < mp.mpf(10) ** -50
        u = mp.mpf(2) ** -53
        theta = mp.findroot(
            lambda x: mp.fsum(abs(c[k]) * x ** (k - 1)
                              for k in range(m + 1, terms)) - u,
            mp.mpf(guess))
        return float(theta)


def test_taylor_thresholds_match_their_series():
    """Each theta_m of the kernel, recomputed; as a check on the routine,
    degrees 18 and 30 give their published values 1.09086 and 3.53967."""
    degrees, thetas = lqdisc.matcore._DEGREES, lqdisc.matcore._THETA
    assert degrees == (3, 7, 11, 15, 19, 23, 27)
    for m, theta in zip(degrees, thetas):
        got = taylor_theta(m, 1.1 * theta)
        assert got == pytest.approx(theta, rel=1e-10), m
    assert taylor_theta(18, 1.1) == pytest.approx(1.09086, abs=5e-6)
    assert taylor_theta(30, 3.5) == pytest.approx(3.53967, abs=5e-6)


# The Taylor thresholds theta_m, m = 3, 7, ..., 27, checked above.
TAYLOR_THETA = lqdisc.matcore._THETA


def alpha3(X):
    """min(||X||, max(d_2, d_3), max(d_3, d_4)), d_k = ||X^k||^(1/k): the
    power-norm bound that picks the Taylor squarings."""
    d = [norm1(np.linalg.matrix_power(X, k)) ** (1 / k) for k in (2, 3, 4)]
    return min(norm1(X), max(d[0], d[1]), max(d[1], d[2]))


@pytest.mark.parametrize("theta", TAYLOR_THETA)
@pytest.mark.parametrize("side", (1 - 1e-9, 1 + 1e-9))
def test_expm_matches_high_precision_at_each_taylor_threshold(theta, side):
    rng = np.random.default_rng(15)
    for n in (2, 3, 6, 12):
        X = rng.normal(size=(n, n))
        X *= side * theta / norm1(X)
        want = mp_expm(X)
        assert max_abs(expm(X) - want) <= EXPM_RTOL * max_abs(want)


@pytest.mark.parametrize("theta", TAYLOR_THETA[3:])
@pytest.mark.parametrize("squarings", (1, 3))
@pytest.mark.parametrize("side", (1 - 1e-9, 1 + 1e-9))
def test_expm_matches_high_precision_at_each_taylor_squaring_edge(
        theta, squarings, side):
    """alpha at 2^s theta_m, where the degree or the squarings change."""
    rng = np.random.default_rng(16)
    for n in (2, 5, 8):
        X = rng.normal(size=(n, n))
        X *= side * theta * 2.0 ** squarings / alpha3(X)
        want = mp_expm(X)
        assert max_abs(expm(X) - want) <= EXPM_RTOL * max_abs(want)


def test_expm_of_a_huge_norm_is_its_representable_limit():
    """No OverflowError and no NaN for a finite argument: the power-norm
    bound is formed from 2^-e X, so a 1-norm up to the double range gives
    e^X, here zeros (or I + X for a nilpotent X), with no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(expm([[-1e32]]), [[0.0]])
        assert np.array_equal(expm([[-1e160, 1.0], [0.0, -1e160]]),
                              np.zeros((2, 2)))
        shapes = (np.array([[-1.0, 1e-3], [0.0, -1.0]]),
                  np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0],
                            [0.0, -1.0, 2.0]]) * -1.0,
                  np.array([[-1.0, 0.5], [-0.5, -1.0]]),
                  np.array([[-1.0, 1.0], [0.0, -1.0]]))
        for k in range(20, 301, 10):
            for A in shapes:
                X = A * (10.0 ** k / norm1(A))
                assert np.array_equal(expm(X), np.zeros_like(X)), (k, A)
            N = np.array([[0.0, 10.0 ** k], [0.0, 0.0]])
            assert np.array_equal(expm(N), np.eye(2) + N)


def _taylor_generators(n):
    """Matrices of size n in every Taylor degree band, unscaled and
    scaled with several squaring counts, a zero matrix, a nilpotent one
    (n > 1), a non-normal Van Loan block (its power norms fall off fast)
    and a 1-norm near the double range among them."""
    rng = np.random.default_rng(100 + n)
    out = [np.zeros((n, n))]
    for norm in (*TAYLOR_THETA, 3.0, 8.0, 40.0, 300.0):
        X = rng.normal(size=(n, n))
        out.append(X * (0.9 * norm / norm1(X)))
    out.append(5.0 * np.eye(n, k=n - 1))     # X^2 = 0: alpha = 0, s = 0
    G = rng.normal(size=(n, n))
    out.append(-1e200 * (G @ G.T + np.eye(n)) / norm1(G @ G.T + np.eye(n)))
    if n % 2 == 0:
        H = rng.normal(size=(n // 2, n // 2)) * 4.0 / n
        S = rng.normal(size=(n // 2, n // 2))
        out.append(np.block([[-H.T, 1e8 * (S @ S.T)],
                             [np.zeros((n // 2, n // 2)), H]]))
    return np.stack(out)


@pytest.mark.parametrize("n", (1, 4, 12))
def test_expm_on_a_stack_mixing_both_regimes_matches_separate_calls(n):
    """Unscaled (1-norm) and scaled (power-norm) matrices in one stack,
    in any order: each gives the bits of its separate call."""
    stack = _taylor_generators(n)
    single = [expm(X) for X in stack]
    rng = np.random.default_rng(n)
    for order in (np.arange(len(stack)), rng.permutation(len(stack)),
                  np.arange(len(stack))[::-1]):
        got = expm(stack[order])
        for i, R in zip(order, got):
            assert np.array_equal(R, single[i]), i
    for X, R in zip(stack, single):
        if norm1(X) > 1e100:
            assert not R.any()
            continue
        want = mp_expm(X)
        assert max_abs(R - want) <= EXPM_RTOL * max_abs(want)


def test_expm_makes_one_taylor_pass_per_call(monkeypatch):
    """A stack that takes every degree, both regimes and several squaring
    counts goes through the Taylor evaluation once, as one stack."""
    passes = []
    taylor = lqdisc.matcore._taylor

    def record(P, degree):
        passes.append(sorted(set(degree)))
        return taylor(P, degree)

    monkeypatch.setattr(lqdisc.matcore, "_taylor", record)
    for n in (1, 4, 12):
        stack = _taylor_generators(n)
        passes.clear()
        expm(stack)
        assert len(passes) == 1, n
        assert len(passes[0]) >= 6, n


def _exact_seed_stacks(monkeypatch, deq):
    """The stacks exact_seed gives expm for one `discretize_expm`."""
    seen = []

    def record(X):
        seen.append(np.array(X, dtype=float))
        return expm(X)

    monkeypatch.setattr(lqdisc.vanloan, "expm", record)
    discretize_expm(deq)
    monkeypatch.undo()
    return seen


def test_expm_on_the_mimo_seed_stacks_matches_separate_calls(monkeypatch,
                                                            mimo_deq):
    """The two Van Loan stacks and T's stack of `mimo_delayed`, one per
    span: each matrix gets the bits of its separate call, in any order."""
    stacks = _exact_seed_stacks(monkeypatch, mimo_deq)
    assert [X.shape for X in stacks] == [(4, 24, 24), (4, 24, 24),
                                         (4, 12, 12)]
    for stack in stacks:
        single = [expm(X) for X in stack]
        for order in (np.arange(len(stack)), np.arange(len(stack))[::-1]):
            for i, R in zip(order, expm(stack[order])):
                assert np.array_equal(R, single[i]), i


@pytest.mark.xfail(strict=True, reason="open: the scaling of a large "
                   "coupling loses the unit entries; at 1e200 X^2 of 2^-e X "
                   "flushes them to zero")
@pytest.mark.parametrize("coupling", (1e200, 1e38))
def test_expm_of_a_large_coupling_over_unit_entries(coupling):
    """e^X of [[1, c], [0, -1]] has the entry c sinh(1) at (0, 1)."""
    got = expm(np.array([[1.0, coupling], [0.0, -1.0]]))[0, 1] / coupling
    assert abs(got - math.sinh(1.0)) <= EXPM_RTOL * math.sinh(1.0)


def test_expm_makes_products_only(monkeypatch):
    """No solve and no inverse, over stacks that take every degree, both
    regimes and several squaring counts."""
    def refuse(*args, **kwargs):
        raise AssertionError("expm called LAPACK")

    for name in ("solve", "inv", "lstsq", "pinv", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    degrees, squarings = set(), set()
    taylor, scaled = lqdisc.matcore._taylor, lqdisc.matcore._scaled

    def record_taylor(P, degree):
        degrees.update(lqdisc.matcore._DEGREES[d] for d in degree)
        return taylor(P, degree)

    def record_scaled(P, norm1, e):
        out = scaled(P, norm1, e)
        squarings.update(out[1])
        return out

    monkeypatch.setattr(lqdisc.matcore, "_taylor", record_taylor)
    monkeypatch.setattr(lqdisc.matcore, "_scaled", record_scaled)
    for n in (1, 4, 12):
        stack = _taylor_generators(n)
        expm(stack)
        for X in stack:
            expm(X)
    assert degrees == set(lqdisc.matcore._DEGREES)
    assert {0, 1, 2, 3} <= squarings and max(squarings) > 600


def test_solve_matches_numpy():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(6, 6)) + 6 * np.eye(6)
    B = rng.normal(size=(6, 3))
    assert max_abs(solve(A, B) - np.linalg.solve(A, B)) < 1e-12


def test_solve_singular_reports_pivot():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as exc:
        solve(A, np.eye(2))
    assert exc.value.pivot_index == 1


def _stack_for_solve(n):
    """Well-conditioned matrices, and one whose inverse fails the pivot
    bound while its smallest pivot (3 tolerances) stays above it, so it
    takes the explicit elimination and then LAPACK's solve."""
    rng = np.random.default_rng(n)
    A = rng.normal(size=(4, n, n)) + n * np.eye(n)
    A[2] = np.eye(n)
    A[2, -1, -1] = 3 * PIVOT_RTOL
    return A


@pytest.mark.parametrize("n", (1, 2, 6))
def test_solve_on_a_stack_matches_separate_calls(n):
    A = _stack_for_solve(n)
    rng = np.random.default_rng(n + 1)
    B = rng.normal(size=(n, 3))
    Bs = rng.normal(size=(4, n, 3))
    for rhs, per in ((B, lambda i: B), (Bs, lambda i: Bs[i])):
        got = solve(A, rhs)
        assert got.shape == (4, n, 3)
        for i in range(4):
            assert np.array_equal(got[i], solve(A[i], per(i))), i
    with pytest.raises(DimensionError):
        solve(A, Bs[:2])


def test_singular_member_of_a_stack_names_its_index_and_pivot():
    good = np.array([[2.0, 1.0], [1.0, 3.0]])
    rank_one = np.array([[1.0, 2.0], [2.0, 4.0]])   # pivot 1 vanishes
    near = rank_one + [[0.0, 0.0], [0.0, 1e-14]]    # pivot 1 below the rule
    stacks = {
        # the stacked inverse exists; the pivot rule fails on member 2
        "bound": np.stack([good, good, near]),
        # an exactly singular matrix makes the stacked inverse raise, so
        # every member takes the elimination, in stack order
        "inverse raises": np.stack([good, np.zeros((2, 2)), rank_one]),
    }
    np.linalg.inv(stacks["bound"])
    for name, A in stacks.items():
        with pytest.raises(SingularMatrixError, match="stack index") as exc:
            solve(A, np.eye(2))
        want = (2, 1) if name == "bound" else (1, 0)
        assert (exc.value.stack_index, exc.value.pivot_index) == (
            (want[0],), want[1]), name
        assert f"stack index {want[0]}, pivot {want[1]}" in str(exc.value)
    with pytest.raises(SingularMatrixError) as exc:
        solve(np.stack([[good, good], [good, rank_one]]), np.eye(2))
    assert exc.value.stack_index == (1, 1)
    with pytest.raises(SingularMatrixError) as exc:
        solve(rank_one, np.eye(2))
    assert exc.value.stack_index is None
    assert "stack" not in str(exc.value)


def _parent_pivot_check(A):
    """Index of the first LU pivot <= the tolerance, from LAPACK's getrf."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, _ = scipy.linalg.lu_factor(A, check_finite=False)
    tol = PIVOT_RTOL * max(inf_norm(A), 1e-300)
    bad = np.nonzero(np.abs(np.diag(lu)) <= tol)[0]
    return int(bad[0]) if bad.size else None


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 14), seed=st.integers(0, 2 ** 32 - 1),
       defect=st.sampled_from(("pivot", "rank", "column")),
       size=st.sampled_from((0.0, 1e-3, 1e-2, 1e2, 1e3, 1e6)),
       where=st.floats(0.0, 1.0, exclude_max=True))
def test_solve_raises_exactly_when_lapack_pivots_do(n, seed, defect, size,
                                                   where):
    """A = P L U with |l_ij| < 1 has the LU pivots diag(U). One pivot is
    set to `size` times the tolerance, or the rank drops, or a column
    repeats; solve must raise exactly where getrf's pivots say so."""
    rng = np.random.default_rng(seed)
    k = int(where * n)
    P = np.eye(n)[rng.permutation(n)]
    L = np.tril(rng.uniform(-0.9, 0.9, size=(n, n)), -1) + np.eye(n)
    U = np.triu(rng.normal(size=(n, n)), 1)
    U[np.diag_indices(n)] = rng.choice((-1.0, 1.0), n) * rng.uniform(0.5, 2.0, n)
    if defect == "pivot":
        U[k, k] = 0.0
        U[k, k] = size * PIVOT_RTOL * inf_norm(P @ L @ U)
    A = P @ L @ U
    if defect == "rank" and n > 1:
        A = rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, n))
    elif defect == "column" and n > 1:
        j = max(k, 1)
        A[:, j] = A[:, j - 1]
    want = _parent_pivot_check(A)
    if want is None:
        X = solve(A, np.eye(n))
        assert max_abs(A @ X - np.eye(n)) <= 1e-12 * inf_norm(A) * inf_norm(X)
        return
    with pytest.raises(SingularMatrixError) as exc:
        solve(A, np.eye(n))
    assert exc.value.pivot_index == want


def test_solve_shape_mismatch():
    with pytest.raises(DimensionError):
        solve(np.eye(2), np.ones((3, 1)))


def test_norm_hand_values():
    X = np.array([[1.0, -2.0], [3.0, 0.5]])
    assert inf_norm(X) == 3.5
    assert max_abs(X) == 3.0
    assert inf_norm(np.zeros((0, 0))) == 0.0
    assert max_abs(np.zeros((0, 0))) == 0.0


def test_asmat_promotes_scalars_and_vectors():
    assert asmat(2.0).shape == (1, 1)
    assert asmat([1.0, 2.0]).shape == (2, 1)
    with pytest.raises(DimensionError):
        asmat(np.zeros((2, 2, 2)))


def test_symmetry_helpers():
    X = np.array([[1.0, 2.0], [0.0, 5.0]])
    S = symmetrize(X)
    assert np.array_equal(S, S.T)
    assert is_symmetric(S)
    assert not is_symmetric(X)
    assert not is_symmetric(np.ones((2, 3)))


def test_min_eig_and_psd_tolerance():
    assert min_eig_sym(np.diag([3.0, -2.0])) == pytest.approx(-2.0)
    assert is_psd(np.eye(3))
    assert is_psd(-5e-11 * np.eye(3))     # inside the -1e-10 band
    assert not is_psd(-1e-9 * np.eye(3))  # outside it
