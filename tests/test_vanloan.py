"""Tests for the matrix-exponential (block augmentation) discretization."""

import dataclasses
import math

import numpy as np
import pytest

from lqdisc.matcore import (DimensionError, DomainError, NumericalError, expm,
                            is_psd, is_symmetric, max_abs)
from lqdisc.model import ContinuousStateSpace, CostSpec
from lqdisc.exactdefs import build_deq, oracle_quadrature
from lqdisc.vanloan import discretize_expm, exact_seed, rww_expm


def _ie(a):
    return -math.expm1(-a) / a


def _scalar_sys(mu=0.2):
    plant = ContinuousStateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]],
                                 G_c=[[1.0]])
    cost = CostSpec(Q_c=[[1.0]], mu=mu, Ts=1.0, N=4, zbar=[[1.0]])
    return build_deq(plant, cost)


def test_integrator_weights_exact():
    plant = ContinuousStateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    cost = CostSpec(Q_c=[[2.0]], mu=0.0, Ts=1.0, N=1, zbar=[[0.0]])
    got = discretize_expm(build_deq(plant, cost))
    assert max_abs(got.A - [[1.0]]) < 1e-14
    assert max_abs(got.B_o - [[1.0]]) < 1e-14
    assert max_abs(got.Q - 2.0 * np.array([[1.0, 0.5], [0.5, 1 / 3]])) < 1e-14
    assert max_abs(got.M - (-2.0) * np.array([[1.0], [0.5]])) < 1e-14


def _scalar_q_m(mu):
    """Closed-form Q and M of dx = -x + u, z = x over Ts = 1."""
    want_q = np.array([
        [_ie(mu + 2.0), _ie(mu + 1.0) - _ie(mu + 2.0)],
        [_ie(mu + 1.0) - _ie(mu + 2.0),
         _ie(mu) - 2.0 * _ie(mu + 1.0) + _ie(mu + 2.0)],
    ])
    want_m = -np.array([[_ie(mu + 1.0)], [_ie(mu) - _ie(mu + 1.0)]])
    return want_q, want_m


def test_scalar_discounted_closed_forms():
    mu = 0.2
    got = discretize_expm(_scalar_sys(mu))
    want_q, want_m = _scalar_q_m(mu)
    assert abs(got.A[0, 0] - math.exp(-1.0)) < 1e-14
    assert abs(got.B_o[0, 0] + math.expm1(-1.0)) < 1e-14
    assert max_abs(got.Q - want_q) < 1e-14
    assert max_abs(got.M - want_m) < 1e-14
    assert got.R_ww[0, 0] == pytest.approx(-math.expm1(-2.0) / 2.0, abs=1e-14)
    assert got.method == "expm"


def test_large_discount_stays_finite():
    """At mu Ts = 2000 a single Van Loan exponential overflows (e^1000);
    the seed is taken at Ts/2^s and squared, so Q stays exact."""
    mu = 2000.0
    got = discretize_expm(_scalar_sys(mu))
    want_q, want_m = _scalar_q_m(mu)
    assert got.doublings == 11
    assert np.all(np.isfinite(got.Q))
    assert max_abs(got.Q - want_q) < 1e-18
    assert max_abs(got.M - want_m) < 1e-18


def test_mimo_matches_quadrature_oracle(mimo_deq):
    got = discretize_expm(mimo_deq)
    ref = oracle_quadrature(mimo_deq, panels=4096)
    assert max_abs(got.A - ref.A) < 1e-11
    assert max_abs(got.B_o - ref.B_o) < 1e-11
    assert max_abs(got.Q - ref.Q) < 1e-11
    assert max_abs(got.M - ref.M) < 1e-11


def test_weights_symmetric_psd(mimo_deq):
    got = discretize_expm(mimo_deq)
    assert is_symmetric(got.Q)
    assert is_psd(got.Q)


def test_zero_horizon_is_identity():
    got = discretize_expm(dataclasses.replace(_scalar_sys(), Ts=1e-14))
    assert abs(got.A[0, 0] - 1.0) < 1e-13
    assert max_abs(got.Q) < 1e-13


def test_rww_scalar_hand_value():
    want = -math.expm1(-2.0) / 2.0  # int_0^1 e^{-2s} ds
    got = rww_expm(np.array([[-1.0]]), np.array([[1.0]]), 1.0)
    assert got[0, 0] == pytest.approx(want, abs=1e-15)


def test_rww_that_overflows_is_numerical_error():
    """An unstable A_c whose R_ww leaves the double range (e^(2000)) is a
    NumericalError naming t and ||A_c||, where the squarings alone would
    give inf or NaN."""
    with pytest.raises(NumericalError,
                       match=r"t = 1 overflows.*\|\|A_c\|\|_1 = 1000$"):
        rww_expm(np.array([[1e3]]), np.array([[1.0]]), 1.0)
    with pytest.raises(NumericalError, match=r"t = 3 overflows.*= 400$"):
        rww_expm(np.array([[300.0, 100.0], [0.0, 300.0]]), np.eye(2), 3.0)
    # the same A_c over a short enough t is finite
    got = rww_expm(np.array([[300.0, 100.0], [0.0, 300.0]]), np.eye(2),
                   1e-3)
    assert np.isfinite(got).all() and is_psd(got)


@pytest.mark.parametrize("mu", (2000.0, 2e5))
def test_rww_under_a_large_discount_is_the_closed_form(mu):
    """R_ww has no discount: at mu Ts = 2000 and 2e5 (11 and 18 squarings
    of the Q and M seed) it is still (1 - e^-2)/2 to rounding."""
    got = discretize_expm(_scalar_sys(mu))
    assert abs(got.R_ww[0, 0] + math.expm1(-2.0) / 2.0) <= 1e-15


def test_rww_of_a_stiff_stable_a_c_is_exact():
    """The block is taken at t/2^s with ||A_c||_1 t/2^s <= 1, so a stable
    A_c of any norm gives R_ww, down to -1e300 with no overflow."""
    for a, t in ((-1e30, 1.0), (-40.0, 30.0), (-1e300, 1.0)):
        got = rww_expm(np.array([[a]]), np.array([[1.0]]), t)
        assert got[0, 0] == pytest.approx(-0.5 / a, rel=1e-15), (a, t)
    # a stiff 2x2 over 3 s: e^(A_c t) is below the double range, so R_ww
    # solves the Lyapunov equation A R + R A' + G G' = 0
    A_c = np.array([[-300.0, 100.0], [0.0, -300.0]])
    got = rww_expm(A_c, np.eye(2), 3.0)
    assert max_abs(A_c @ got + got @ A_c.T + np.eye(2)) <= 1e-15
    assert is_psd(got)


@pytest.mark.parametrize("a,g,t,want", [
    (-1.0, 1e100, 1.0, 1e200),      # G_c G_c' 1e200 beside A_c = -1
    (-1e-300, 1.0, 1e300, 1e300),   # h G_c G_c' 1e300 beside h A_c = -1
])
def test_rww_with_a_coupling_far_from_a_c_is_exact(a, g, t, want):
    """R_ww is linear in G_c G_c', which the block carries scaled by a
    power of two to the range of h A_c, so no entry is flushed:
    (1 - e^-2)/2 times `want`."""
    got = rww_expm(np.array([[a]]), np.array([[g]]), t)
    assert got[0, 0] == pytest.approx(-math.expm1(-2.0) / 2.0 * want,
                                      rel=1e-15)


def test_rww_checks_its_inputs():
    """A_c square, G_c with its rows and t finite and >= 0, or an error;
    a 1x1 G_c G_c' is not broadcast into a 2x2 block."""
    one = np.array([[1.0]])
    with pytest.raises(DimensionError, match=r"\(2, 2\) and \(1, 1\)"):
        rww_expm(-np.eye(2), one, 1.0)
    with pytest.raises(DimensionError, match=r"\(1, 2\)"):
        rww_expm(np.array([[-1.0, 2.0]]), one, 1.0)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="finite t >= 0"):
            rww_expm(-one, one, t)
    with pytest.raises(DomainError, match="A_c has non-finite"):
        rww_expm(np.array([[-np.inf]]), one, 1.0)
    assert np.array_equal(rww_expm(-np.eye(2), np.ones((2, 1)), 0.0),
                          np.zeros((2, 2)))


def test_rww_consistent_with_full_extraction():
    sys = _scalar_sys()
    got = discretize_expm(sys)
    want = rww_expm(sys.A_c, sys.G_c, sys.Ts)
    assert max_abs(got.R_ww - want) < 1e-15


def test_rww_random_system_matches_oracle():
    rng = np.random.default_rng(5)
    A_c = rng.normal(size=(3, 3))
    A_c -= (np.linalg.eigvals(A_c).real.max() + 0.5) * np.eye(3)
    G_c = rng.normal(size=(3, 2))
    plant = ContinuousStateSpace(A_c, np.zeros((3, 1)), np.eye(3)[:1],
                                 np.zeros((1, 1)), G_c=G_c)
    cost = CostSpec(Q_c=[[1.0]], mu=0.0, Ts=1.0, N=1, zbar=[[0.0]])
    sys = build_deq(plant, cost)
    got = rww_expm(A_c, G_c, 1.0)
    ref = oracle_quadrature(sys, panels=2048).R_ww
    assert max_abs(got - ref) < 1e-10
    assert is_psd(got)


def test_block_factors_are_plain_exponentials(mimo_deq):
    sys, t = mimo_deq, 0.25 * mimo_deq.Ts
    seed = exact_seed(sys, t)
    n_x = sys.n_x
    eye = np.eye(sys.n_xu)
    # one seed per span: T holds the transition of its generator G_p
    assert seed.T.shape == sys.G_p.shape == (4, sys.n_xu, sys.n_xu)
    for p, G in enumerate(sys.G_p):
        for omega, shift in ((seed.omega_q, sys.mu / 2), (seed.omega_m, sys.mu)):
            assert max_abs(omega[p] - expm(t * (G - shift * eye))) < 1e-13
        assert max_abs(seed.T[p] - expm(t * G)) < 1e-13
        assert max_abs(seed.T[p, :n_x, :n_x] - expm(t * sys.A_c)) < 1e-13
    # no noise integral: R_ww is rww_expm's, over Ts, outside the seed
    assert seed._fields == ("T", "omega_q", "X_q", "omega_m", "Y_m")
