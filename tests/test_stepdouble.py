"""Tests for the step-doubling propagation against the fixed-step fold."""

import numpy as np
import pytest

from lqdisc.matcore import DomainError, max_abs
from lqdisc.exactdefs import compose, core_result, power
from lqdisc.fixedstep import build_coefficients, integrate, named_tableau
from lqdisc.stepdouble import discretize_step_doubling
from lqdisc.vanloan import rww_expm

RK4 = named_tableau("rk4")


@pytest.mark.parametrize("j", range(7))
def test_doubling_matches_fixed_mimo(mimo_deq, j):
    coeffs = build_coefficients(mimo_deq, RK4, 2 ** j)
    fixed = integrate(coeffs, mimo_deq)
    doubled = discretize_step_doubling(mimo_deq, RK4, j, coeffs=coeffs)
    assert max_abs(doubled.A - fixed.A) < 5e-12
    assert max_abs(doubled.B_o - fixed.B_o) < 5e-12
    assert max_abs(doubled.Q - fixed.Q) < 5e-12
    assert max_abs(doubled.M - fixed.M) < 5e-12
    assert fixed.R_ww is None and doubled.R_ww is None


@pytest.mark.parametrize("j", range(7))
def test_doubling_matches_fixed_scalar(scalar_deq, j):
    coeffs = build_coefficients(scalar_deq, RK4, 2 ** j)
    fixed = integrate(coeffs, scalar_deq)
    doubled = discretize_step_doubling(scalar_deq, RK4, j, coeffs=coeffs)
    for name in ("A", "B_o", "Q", "M", "R_ww"):
        assert max_abs(getattr(doubled, name) - getattr(fixed, name)) < 5e-12


def test_doubled_factors_are_geometric_sums(mimo_deq):
    """Three squarings of the seed equal its closed-form 8-step sums, on
    every span."""
    seeds = build_coefficients(mimo_deq, RK4, 8).seed
    spans = power(seeds, 8)

    def power_sum(X, term):
        acc = 0.0
        P = np.eye(X.shape[0])
        for _ in range(8):
            acc = acc + term(P)
            P = X @ P
        return acc

    n_x = mimo_deq.n_x
    assert spans.T.shape[0] == 4
    for p in range(4):
        seed = seeds._make(x[p] for x in seeds)
        got = spans._make(x[p] for x in spans)
        for name in ("omega_q", "omega_m"):
            want = np.linalg.matrix_power(getattr(seed, name), 8)
            assert max_abs(getattr(got, name) - want) < 1e-13, name
        A, B = seed.T[:n_x, :n_x], seed.T[:n_x, n_x:]
        A_8, B_8 = got.T[:n_x, :n_x], got.T[:n_x, n_x:]
        assert max_abs(A_8 - np.linalg.matrix_power(A, 8)) < 1e-13
        assert max_abs(B_8 - power_sum(A, lambda P: P @ B)) < 1e-13
        assert max_abs(got.Y_m - power_sum(
            seed.omega_m, lambda P: P.T @ seed.Y_m)) < 1e-13
        assert max_abs(got.X_q - power_sum(
            seed.omega_q, lambda P: P.T @ seed.X_q @ P)) < 1e-13


def test_double_updates_sums_before_squares(scalar_deq):
    """One squaring: sums see the power-1 factors, transitions square."""
    seed = build_coefficients(scalar_deq, RK4, 2).seed
    got = compose(seed, seed)
    assert seed.T.shape[0] == got.T.shape[0] == 1   # plain plant: one span
    seed, got = (iv._make(x[0] for x in iv) for iv in (seed, got))
    (lam, b), (A, B) = ((iv.T[:1, :1], iv.T[:1, 1:]) for iv in (seed, got))
    om_q, om_m = seed.omega_q, seed.omega_m
    assert max_abs(got.Y_m - (seed.Y_m + om_m.T @ seed.Y_m)) < 1e-15
    assert max_abs(got.X_q - (seed.X_q + om_q.T @ seed.X_q @ om_q)) < 1e-15
    assert max_abs(B - (b + lam @ b)) < 1e-15
    assert max_abs(A - lam @ lam) < 1e-15
    assert max_abs(got.omega_q - om_q @ om_q) < 1e-15


def test_zero_doublings_is_one_fixed_step(mimo_deq):
    coeffs = build_coefficients(mimo_deq, RK4, 1)
    fixed = integrate(coeffs, mimo_deq)
    doubled = discretize_step_doubling(mimo_deq, RK4, 0, coeffs=coeffs)
    assert max_abs(doubled.A - fixed.A) < 1e-14
    assert max_abs(doubled.B_o - fixed.B_o) < 1e-14
    assert max_abs(doubled.Q - fixed.Q) < 1e-14
    assert max_abs(doubled.M - fixed.M) < 1e-14


def test_doubling_argument_validation(scalar_deq):
    with pytest.raises(DomainError):
        discretize_step_doubling(scalar_deq, RK4, -1)
    coeffs = build_coefficients(scalar_deq, RK4, 6)
    with pytest.raises(DomainError, match="N=6"):
        discretize_step_doubling(scalar_deq, RK4, 3, coeffs=coeffs)
    with pytest.raises(DomainError, match="n >= 1"):
        power(coeffs.seed, 0)


def test_doubled_noise_covariance_matches_expm(scalar_deq):
    got = discretize_step_doubling(scalar_deq, RK4, 10)
    want = rww_expm(scalar_deq.A_c, scalar_deq.G_c, scalar_deq.Ts)
    assert max_abs(got.R_ww - want) < 1e-12


def test_doubling_provenance(mimo_deq):
    got = discretize_step_doubling(mimo_deq, RK4, 5)
    assert got.method == "doubling"
    assert got.scheme == "rk4"
    assert got.steps == 32
    assert got.doublings == 5


def test_extract_reuses_state(mimo_deq):
    """Squaring the seed stack twice by hand and chaining its spans gives
    the result of discretize_step_doubling bit for bit."""
    coeffs = build_coefficients(mimo_deq, RK4, 4)
    iv = compose(coeffs.seed, coeffs.seed)
    iv = compose(iv, iv)
    direct = discretize_step_doubling(mimo_deq, RK4, 2, coeffs=coeffs)
    manual = core_result(mimo_deq, iv, "doubling")
    for name in ("A", "B_o", "Q", "M"):
        assert np.array_equal(getattr(manual, name), getattr(direct, name))


def test_numpy_integer_coefficient_steps(mimo_deq):
    """A numpy-integer step count given to build_coefficients is taken as
    an int, so the doubling check and the provenance see a plain int."""
    coeffs = build_coefficients(mimo_deq, RK4, np.int64(64))
    assert type(coeffs.n_steps) is int
    got = discretize_step_doubling(mimo_deq, RK4, np.int64(6), coeffs=coeffs)
    want = discretize_step_doubling(mimo_deq, RK4, 6)
    assert (type(got.steps), type(got.doublings)) == (int, int)
    assert (got.steps, got.doublings) == (64, 6)
    for name in ("A", "B_o", "Q", "M"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
