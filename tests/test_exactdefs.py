"""Tests for the assembled generators and the quadrature oracle."""

import math

import numpy as np
import pytest

from lqdisc.matcore import DimensionError, DomainError, expm, is_psd, max_abs
from lqdisc.model import ContinuousStateSpace, CostSpec, realize_delays
from lqdisc.exactdefs import DeqSystem, b_alternative, build_deq, oracle_quadrature


def _scalar_sys(mu=0.2):
    plant = ContinuousStateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]],
                                 G_c=[[1.0]])
    cost = CostSpec(Q_c=[[1.0]], mu=mu, Ts=1.0, N=4, zbar=[[1.0]])
    return build_deq(plant, cost)


def _integrator_sys(q_c=2.0):
    plant = ContinuousStateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    cost = CostSpec(Q_c=[[q_c]], mu=0.0, Ts=1.0, N=4, zbar=[[0.0]])
    return build_deq(plant, cost)


def _ie(a):
    """(1 - e^-a)/a, the first exponential moment."""
    return -math.expm1(-a) / a


def test_oracle_integrator_hand_integrals():
    """For dx = u, z = x the weights integrate to polynomials in t."""
    q_c = 2.0
    sys = _integrator_sys(q_c)
    got = oracle_quadrature(sys, panels=64)
    assert max_abs(got.A - [[1.0]]) < 1e-14
    assert max_abs(got.B_o - [[1.0]]) < 1e-14
    want_q = q_c * np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    want_m = -q_c * np.array([[1.0], [0.5]])
    assert max_abs(got.Q - want_q) < 1e-14
    assert max_abs(got.M - want_m) < 1e-14


def test_oracle_scalar_discounted_closed_forms():
    """dx = -x + u with discount mu has elementary moment integrals."""
    mu = 0.2
    sys = _scalar_sys(mu)
    got = oracle_quadrature(sys, panels=2048)
    want_q = np.array([
        [_ie(mu + 2.0), _ie(mu + 1.0) - _ie(mu + 2.0)],
        [_ie(mu + 1.0) - _ie(mu + 2.0),
         _ie(mu) - 2.0 * _ie(mu + 1.0) + _ie(mu + 2.0)],
    ])
    want_m = -np.array([[_ie(mu + 1.0)], [_ie(mu) - _ie(mu + 1.0)]])
    assert max_abs(got.A - [[math.exp(-1.0)]]) < 1e-13
    assert max_abs(got.B_o - [[-math.expm1(-1.0)]]) < 1e-13
    assert max_abs(got.Q - want_q) < 1e-13
    assert max_abs(got.M - want_m) < 1e-13
    # R_ww = (1 - e^-2)/2 for unit diffusion
    assert got.R_ww[0, 0] == pytest.approx(-math.expm1(-2.0) / 2.0, abs=1e-13)


def test_gamma_identity_and_structure(mimo_deq):
    """The three-exponential sum reproduces E1 e^{H_c t} E2 exactly."""
    sys = mimo_deq
    n_x, n_in = sys.n_x, sys.n_in
    for t in np.linspace(0.05, sys.Ts, 10):
        direct = sys.E1 @ expm(sys.H_c * t) @ sys.E2
        gam = sys.gamma(t)
        assert max_abs(gam - direct) < 1e-12
        # bottom rows stay [0 I]: held inputs are constant over the step
        assert max_abs(gam[n_x:, :n_x]) < 1e-13
        assert max_abs(gam[n_x:, n_x:] - np.eye(n_in)) < 1e-13


def test_discount_shift_factors(mimo_deq):
    """H_cq and H_cm shift the transition by e^{-mu t/2} and e^{-mu t}."""
    sys = mimo_deq
    for t in (0.25, 0.7, 1.0):
        gam = sys.gamma(t)
        assert max_abs(sys.gamma_q(t) - math.exp(-sys.mu * t / 2.0) * gam) < 1e-12
        assert max_abs(sys.gamma_m(t) - math.exp(-sys.mu * t) * gam) < 1e-12


def test_build_deq_rejects_unrealized_delays():
    plant = ContinuousStateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]],
                                 delays=(0.5,))
    cost = CostSpec(Q_c=[[1.0]], mu=0.0, Ts=1.0, N=1, zbar=[[0.0]])
    with pytest.raises(DimensionError, match="realize_delays"):
        build_deq(plant, cost)
    # realized, but for another sampling time than the cost's
    with pytest.raises(DomainError, match="Ts=0.5.*Ts=1.0"):
        build_deq(realize_delays(plant, 0.5), cost)


def test_oracle_self_convergence_is_fourth_order(mimo_deq):
    ref = oracle_quadrature(mimo_deq, panels=8192)
    errs = []
    for panels in (128, 256):
        got = oracle_quadrature(mimo_deq, panels=panels)
        errs.append(max(max_abs(got.Q - ref.Q), max_abs(got.M - ref.M)))
    order = math.log2(errs[0] / errs[1])
    assert 3.7 < order < 4.3


def test_oracle_rejects_odd_panels(mimo_deq):
    with pytest.raises(DomainError):
        oracle_quadrature(mimo_deq, panels=63)
    with pytest.raises(DomainError):
        oracle_quadrature(mimo_deq, panels=0)


def test_oracle_weight_grows_monotonically(mimo_deq):
    """Q(t2) - Q(t1) is PSD for t2 > t1: the integrand is PSD."""
    prev = np.zeros((mimo_deq.n_xu, mimo_deq.n_xu))
    for t in (0.25, 0.5, 1.0):
        cur = oracle_quadrature(mimo_deq, t=t, panels=512).Q
        assert is_psd(cur - prev)
        prev = cur


def test_b_alternative_matches_integral():
    got = b_alternative(np.array([[-1.0]]), np.array([[1.0]]), 1.0, 256)
    assert abs(got[0, 0] - (-math.expm1(-1.0))) < 1e-11


def test_b_alternative_rejects_empty_grid():
    with pytest.raises(DomainError):
        b_alternative(np.eye(1), np.eye(1), 1.0, 0)


def test_deq_dimensions(mimo_deq, scalar_deq):
    assert mimo_deq.delay
    assert mimo_deq.n_x == 6
    assert mimo_deq.n_in == 6
    assert mimo_deq.n_xu == 12
    assert mimo_deq.n_h == 36
    assert not scalar_deq.delay
    assert scalar_deq.n_h == scalar_deq.n_xu == 2
    # plain plants use identity selectors
    assert np.array_equal(scalar_deq.E1, np.eye(2))
    assert np.array_equal(scalar_deq.E2, np.eye(2))
