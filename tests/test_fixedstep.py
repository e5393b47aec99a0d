"""Tests for Butcher tableaus and the constant-coefficient propagation."""

import json
import math

import numpy as np
import pytest

from lqdisc.matcore import (DimensionError, DomainError, SingularMatrixError,
                            max_abs, solve)
from lqdisc.model import ContinuousStateSpace, CostSpec
from lqdisc.exactdefs import build_deq
from lqdisc.fixedstep import (SCHEME_NAMES, TABLEAUS, ButcherTableau,
                              build_coefficients, discretize_fixed, integrate,
                              named_tableau, propagation)
from lqdisc.vanloan import discretize_expm


def _lam(scheme, g, dt):
    lam, _, _ = propagation(named_tableau(scheme), np.array([[g]]), dt)
    return lam[0, 0]


def test_scalar_stability_functions():
    # rk4: truncated exponential series at z = -0.5
    z = -0.5
    want = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    assert _lam("rk4", -1.0, 0.5) == pytest.approx(want, abs=1e-15)
    assert want == pytest.approx(0.6067708333333333)
    # implicit euler: 1/(1 - z)
    assert _lam("implicit-euler", -2.0, 0.25) == pytest.approx(2.0 / 3.0, abs=1e-15)
    # implicit trapezoidal: (1 + z/2)/(1 - z/2)
    assert _lam("implicit-trapezoidal", -1.0, 0.5) == pytest.approx(0.6, abs=1e-15)
    # explicit trapezoidal: 1 + z + z^2/2
    assert _lam("explicit-trapezoidal", -1.0, 0.5) == pytest.approx(
        1 + z + z**2 / 2, abs=1e-15)
    # explicit euler: 1 + z
    assert _lam("explicit-euler", -1.0, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_esdirk34_closed_form_stability():
    t = named_tableau("esdirk34")
    g = t.a[1, 1]
    for z in (-0.3, -1.2, 0.4):
        want = (1 + (1 - 3 * g) * z + (0.5 - 3 * g + 3 * g * g) * z * z) \
            / (1 - g * z) ** 3
        assert _lam("esdirk34", z, 1.0) == pytest.approx(want, abs=1e-14)


def test_esdirk34_published_coefficients():
    t = named_tableau("esdirk34")
    assert t.a[1, 1] == pytest.approx(0.43586652150845967, abs=1e-15)
    assert t.a[2, 0] == pytest.approx(0.140737774731968, abs=1e-9)
    assert t.a[2, 1] == pytest.approx(-0.108365551378832, abs=1e-9)
    want_b = [0.102399400616089, -0.376878452267324,
              0.838612530151233, 0.435866521508459]
    assert max_abs(t.b - np.array(want_b)) < 1e-9
    assert t.c[2] == pytest.approx(0.468238744853137, abs=1e-15)
    # stiffly accurate: last row of a equals b
    assert max_abs(t.a[-1] - t.b) < 1e-15


def test_esdirk4_satisfies_order_conditions():
    t = named_tableau("esdirk4")
    a, b, c = t.a, t.b, t.c
    ac = a @ c
    conds = [
        (b.sum(), 1.0),
        (b @ c, 0.5),
        (b @ c**2, 1.0 / 3.0),
        (b @ ac, 1.0 / 6.0),
        (b @ c**3, 0.25),
        (b @ (c * ac), 0.125),
        (b @ (a @ c**2), 1.0 / 12.0),
        (b @ (a @ ac), 1.0 / 24.0),
    ]
    for got, want in conds:
        assert abs(got - want) < 1e-13
    assert max_abs(a[-1] - b) < 1e-15


def test_tableau_validation():
    with pytest.raises(DomainError, match="sum"):
        ButcherTableau("bad", [[0.0]], [0.9], [0.0], "explicit")
    with pytest.raises(DomainError, match="row sums"):
        ButcherTableau("bad", [[0.0, 0], [0.2, 0]], [0.5, 0.5], [0, 1.0],
                       "explicit")
    with pytest.raises(DomainError, match="strictly"):
        ButcherTableau("bad", [[0.5]], [1.0], [0.5], "explicit")
    with pytest.raises(DomainError, match="kind"):
        ButcherTableau("bad", [[0.0]], [1.0], [0.0], "semi")
    with pytest.raises(DimensionError):
        ButcherTableau("bad", [[0.0]], [0.5, 0.5], [0.0], "explicit")


def test_named_tableau_unknown_lists_choices():
    with pytest.raises(DomainError, match="rk4"):
        named_tableau("rk5")
    assert set(SCHEME_NAMES) == set(TABLEAUS)
    assert "rk4" in SCHEME_NAMES and "esdirk4" in SCHEME_NAMES


GL2 = dict(
    name="gauss-legendre-2",
    a=[[0.25, 0.25 - math.sqrt(3) / 6], [0.25 + math.sqrt(3) / 6, 0.25]],
    b=[0.5, 0.5],
    c=[0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6],
    kind="implicit",
)


def test_tableau_from_dict_and_file(tmp_path):
    t = ButcherTableau.from_dict(GL2)
    assert t.kind == "implicit"
    with pytest.raises(DomainError, match="unknown keys"):
        ButcherTableau.from_dict({**GL2, "order": 4})
    missing = {k: v for k, v in GL2.items() if k != "b"}
    with pytest.raises(DomainError, match="missing key"):
        ButcherTableau.from_dict(missing)
    path = tmp_path / "gl2.json"
    path.write_text(json.dumps(GL2), encoding="utf-8")
    t2 = ButcherTableau.from_file(path)
    assert max_abs(t2.a - t.a) == 0.0


def test_fully_implicit_matches_pade():
    """Gauss-Legendre(2) has the (2,2) Pade stability function."""
    t = ButcherTableau.from_dict(GL2)
    rng = np.random.default_rng(3)
    G = rng.normal(size=(3, 3))
    dt = 0.3
    lam, _, _ = propagation(t, G, dt)
    Z = dt * G
    eye = np.eye(3)
    want = solve(eye - Z / 2 + Z @ Z / 12, eye + Z / 2 + Z @ Z / 12)
    assert max_abs(lam - want) < 1e-13


def test_fully_implicit_discretization(scalar_deq):
    t = ButcherTableau.from_dict(GL2)
    got = discretize_fixed(scalar_deq, t, 512)
    ref = discretize_expm(scalar_deq)
    assert max_abs(got.A - ref.A) < 1e-10
    assert max_abs(got.Q - ref.Q) < 1e-10
    assert max_abs(got.M - ref.M) < 1e-10


def test_singular_stage_names_scheme():
    plant = ContinuousStateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]])
    cost = CostSpec(Q_c=[[1.0]], mu=0.0, Ts=1.0, N=1, zbar=[[0.0]])
    sys = build_deq(plant, cost)
    with pytest.raises(SingularMatrixError, match="implicit-euler"):
        discretize_fixed(sys, named_tableau("implicit-euler"), 1)


def test_coefficients_deterministic_and_integrate_pure(scalar_deq):
    t = named_tableau("rk4")
    c1 = build_coefficients(scalar_deq, t, 32)
    c2 = build_coefficients(scalar_deq, t, 32)
    present = [name for name, x in c1.seed._asdict().items() if x is not None]
    assert set(present) == {"A", "B_1", "omega_q", "X_q", "omega_m", "Y_m",
                            "R"}
    for name in present:
        assert np.array_equal(getattr(c1.seed, name), getattr(c2.seed, name))
    before = {name: getattr(c1.seed, name).copy() for name in present}
    r1 = integrate(c1, scalar_deq)
    r2 = integrate(c1, scalar_deq)
    for name in present:
        assert np.array_equal(getattr(c1.seed, name), before[name])
    assert np.array_equal(r1.A, r2.A)
    assert np.array_equal(r1.Q, r2.Q)
    assert np.array_equal(r1.R_ww, r2.R_ww)


def test_rk4_scalar_transition_accuracy(scalar_deq):
    got = discretize_fixed(scalar_deq, named_tableau("rk4"), 1024)
    assert abs(got.A[0, 0] - math.exp(-1.0)) < 1e-13
    assert abs(got.B_o[0, 0] - (-math.expm1(-1.0))) < 1e-13
    assert got.method == "fixed"
    assert got.scheme == "rk4"
    assert got.steps == 1024


def test_step_count_validated(scalar_deq):
    with pytest.raises(DomainError):
        build_coefficients(scalar_deq, named_tableau("rk4"), 0)
