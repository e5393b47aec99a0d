"""Tests for the matrix-exponential (block augmentation) discretization."""

import dataclasses
import math

import numpy as np
import pytest

from lqdisc.matcore import (NumericalError, expm, is_psd, is_symmetric,
                            max_abs)
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
    """The Van Loan block holds -A_c and A_c', so a stable A_c of large
    norm overflows it (e^(1e30)); the error names t and ||A_c||, where the
    block's exponential alone would give NaN."""
    with pytest.raises(NumericalError,
                       match=r"t = 1 overflows.*\|\|A_c\|\|_1 = 1e\+30$"):
        rww_expm(np.array([[-1e30]]), np.array([[1.0]]), 1.0)
    with pytest.raises(NumericalError, match=r"t = 3 overflows.*= 400$"):
        rww_expm(np.array([[-300.0, 100.0], [0.0, -300.0]]), np.eye(2), 3.0)
    # the same A_c over a short enough t is finite
    got = rww_expm(np.array([[-300.0, 100.0], [0.0, -300.0]]), np.eye(2),
                   1e-3)
    assert np.isfinite(got).all() and is_psd(got)


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
    assert max_abs(seed.omega_q - expm(t * sys.H_cq)) < 1e-13
    assert max_abs(seed.omega_m - expm(t * sys.H_cm)) < 1e-13
    # T holds the transitions of the two input blocks H_1c and H_2c
    assert seed.T.shape == (2, sys.n_xu, sys.n_xu)
    assert max_abs(seed.T[0, :n_x, :n_x] - expm(t * sys.A_c)) < 1e-13
    assert max_abs(seed.T[1, :n_x, :n_x] - expm(t * sys.V @ sys.A_c)) < 1e-13
    for j, H in enumerate(sys.input_blocks(sys.H_c)):
        assert max_abs(seed.T[j] - expm(t * H)) < 1e-13
    # no diffusion matrix on the transfer model: no noise integral
    assert seed.R is None
