"""Tests for Butcher tableaus and the constant-coefficient propagation."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from lqdisc.matcore import (DimensionError, DomainError, NumericalError,
                            SingularMatrixError, max_abs, solve)
from lqdisc.model import ContinuousStateSpace, CostSpec, load_model
from lqdisc import fixedstep
from lqdisc.benchcli import random_system
from lqdisc.exactdefs import Interval, build_deq, compose, core_result
from lqdisc.fixedstep import (SCHEME_NAMES, TABLEAUS, ButcherTableau,
                              build_coefficients, discretize_fixed, integrate,
                              named_tableau, propagation, stage_coefficients)
from lqdisc.vanloan import discretize_expm


def _lam(scheme, g, dt):
    lam, _ = propagation(named_tableau(scheme), np.array([[g]]), dt)
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
    # non-numeric or non-finite entries are rejected, not carried into A
    for a, b, c in (("zz", [1.0], [0.0]), ([[0.0]], [1.0], {"c": 0}),
                    ([[0.0], [1.0, 0.0]], [0.5, 0.5], [0.0, 1.0])):
        with pytest.raises(DomainError, match="numeric"):
            ButcherTableau("bad", a, b, c, "explicit")
    for a, b, c in (([[math.nan]], [1.0], [math.nan]),
                    ([[0.0]], [math.inf], [0.0]),
                    ([[0.0]], [1.0], [math.nan])):
        with pytest.raises(DomainError, match="non-finite"):
            ButcherTableau("bad", a, b, c, "explicit")


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
    with pytest.raises(DomainError, match="top level"):
        ButcherTableau.from_dict([1, 2])
    # read, JSON and content errors of a file name the file
    bad = tmp_path / "bad.json"
    for text, match in (("{not json", "Expecting"), ("[1, 2]", "top level"),
                        (json.dumps({**GL2, "a": "zz"}), "numeric"),
                        (json.dumps({**GL2, "b": [0.5]}), "disagree"),
                        ("{}", "missing key")):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(DomainError, match=match) as exc:
            ButcherTableau.from_file(bad)
        assert str(bad) in str(exc.value)
    with pytest.raises(DomainError, match="nope.json"):
        ButcherTableau.from_file(tmp_path / "nope.json")


def test_fully_implicit_matches_pade():
    """Gauss-Legendre(2) has the (2,2) Pade stability function."""
    t = ButcherTableau.from_dict(GL2)
    rng = np.random.default_rng(3)
    G = rng.normal(size=(3, 3))
    dt = 0.3
    lam, _ = propagation(t, G, dt)
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
    present = c1.seed._fields
    assert present == ("T", "omega_q", "X_q", "omega_m", "Y_m")
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


def test_numpy_integer_steps_give_json_provenance(mimo_deq):
    tb = named_tableau("rk4")
    got = discretize_fixed(mimo_deq, tb, np.int64(64))
    assert json.dumps(got.steps) == "64"
    want = discretize_fixed(mimo_deq, tb, 64)
    for name in ("A", "B_o", "Q", "M"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# two distinct diagonal values; the first comes back at stage 2
TWO_DIAGONALS = dict(
    name="two-diagonal-dirk",
    a=[[0.3, 0.0, 0.0], [0.2, 0.6, 0.0], [0.1, 0.3, 0.3]],
    b=[0.25, 0.25, 0.5],
    c=[0.3, 0.8, 0.7],
    kind="diagonally-implicit",
)


def _tableau_cases():
    return ([named_tableau(name) for name in SCHEME_NAMES]
            + [ButcherTableau.from_dict(TWO_DIAGONALS),
               ButcherTableau.from_dict(GL2)])


def _stages_per_stage_solve(tableau, G, dt):
    """Reference: one solve per implicit stage, G Lambda_j formed anew for
    every nonzero a_ij, and one coupled solve for a fully implicit a."""
    n = G.shape[0]
    a, s = tableau.a, tableau.stages
    eye = np.eye(n)
    if tableau.kind == "implicit":
        X = solve(np.eye(s * n) - dt * np.kron(a, G), np.tile(eye, (s, 1)))
        return [X[i * n:(i + 1) * n, :] for i in range(s)]
    out = []
    for i in range(s):
        rhs = eye.copy()
        for j in range(i):
            if a[i, j] != 0.0:
                rhs = rhs + (dt * a[i, j]) * (G @ out[j])
        if a[i, i] != 0.0:
            rhs = solve(eye - (dt * a[i, i]) * G, rhs)
        out.append(rhs)
    return out


@pytest.mark.parametrize("n", [1, 5, 36])
def test_stages_match_per_stage_solves(n):
    rng = np.random.default_rng(n)
    G = rng.normal(size=(n, n)) / math.sqrt(n) - 1.5 * np.eye(n)
    for tableau in _tableau_cases():
        for dt in (1e-3, 0.1, 1.0):
            got = stage_coefficients(tableau, G, dt)
            want = _stages_per_stage_solve(tableau, G, dt)
            assert len(got) == len(want) == tableau.stages
            for lam, ref in zip(got, want):
                if tableau.kind == "explicit":
                    assert np.array_equal(lam, ref), tableau.name
                else:
                    assert max_abs(lam - ref) <= 1e-13 * max_abs(ref), \
                        (tableau.name, dt)


def test_one_solve_per_diagonal_value(monkeypatch):
    calls = []

    def counting_solve(A, B):
        calls.append(A.shape)
        return solve(A, B)

    monkeypatch.setattr("lqdisc.fixedstep.solve", counting_solve)
    want = {"esdirk4": 1, "esdirk34": 1, "implicit-euler": 1,
            "implicit-trapezoidal": 1, "gauss-legendre-2": 1,
            "two-diagonal-dirk": 2, "rk4": 0, "explicit-euler": 0,
            "explicit-trapezoidal": 0}
    G = np.random.default_rng(7).normal(size=(4, 4)) - 2.0 * np.eye(4)
    for tableau in _tableau_cases():
        calls.clear()
        propagation(tableau, G, 0.1)
        assert len(calls) == want[tableau.name], tableau.name


def test_singular_stage_named_by_first_use_of_its_diagonal():
    t = ButcherTableau.from_dict(TWO_DIAGONALS)
    # I - dt d G is singular for d = 0.6 only: the stage named is 1
    with pytest.raises(SingularMatrixError, match="stage 1 for scheme "
                       "'two-diagonal-dirk' at dt=1: .*pivot") as exc:
        stage_coefficients(t, np.eye(2) / 0.6, 1.0)
    assert exc.value.pivot_index == 0
    # singular for d = 0.3, used by stages 0 and 2: the stage named is 0
    with pytest.raises(SingularMatrixError, match="stage 0 for scheme"):
        stage_coefficients(t, np.eye(2) / 0.3, 1.0)


def _different_generators(p, n, seed=11):
    """p generators of size n, each with its own spectrum."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.normal(size=(n, n)) / math.sqrt(n)
                     - (1.0 + j) * np.eye(n) for j in range(p)])


def _assert_same(got, want, tableau, case):
    """Bits for an explicit tableau, whose stages are sums of products; an
    implicit one also solves, so allow the last bits to move."""
    if tableau.kind == "explicit":
        assert np.array_equal(got, want), case
    else:
        assert max_abs(got - want) <= 1e-15 * max_abs(want), case


@pytest.mark.parametrize("n", [1, 5])
def test_a_stack_of_generators_matches_separate_calls(n):
    """Every tableau kind, two diagonal values and a fully implicit one
    included: stages and transitions of a stack are, generator by
    generator, those of separate calls, in any stack shape."""
    G = _different_generators(4, n)
    for tableau in _tableau_cases():
        for dt in (0.1, 1.0):
            lam, stages = propagation(tableau, G, dt)
            assert lam.shape == G.shape
            assert stages.shape == (tableau.stages,) + G.shape
            for j, Gj in enumerate(G):
                lam_j, stages_j = propagation(tableau, Gj, dt)
                case = (tableau.name, dt, j)
                _assert_same(stages[:, j], stages_j, tableau, case)
                _assert_same(lam[j], lam_j, tableau, case)
            nested = stage_coefficients(tableau, G.reshape(2, 2, n, n), dt)
            assert np.array_equal(nested, stages.reshape(-1, 2, 2, n, n))


def test_singular_member_of_a_stack_is_named_by_stage_and_index():
    t = ButcherTableau.from_dict(TWO_DIAGONALS)
    G = np.stack([np.eye(2), np.eye(2) / 0.6, np.eye(2) / 0.3])
    with pytest.raises(SingularMatrixError, match="stage 0 for scheme "
                       "'two-diagonal-dirk' at dt=1: .*stack index 2, "
                       "pivot 0") as exc:
        stage_coefficients(t, G, 1.0)
    assert (exc.value.stack_index, exc.value.pivot_index) == ((2,), 0)
    with pytest.raises(SingularMatrixError, match="stage 1 .*stack index 1"):
        stage_coefficients(t, G[:2], 1.0)


def test_singular_member_with_its_own_step_is_named_by_its_step():
    """With a step per generator, as on spans, the error gives the step of
    the singular one: I - dt 0.6 G is singular at dt = 1/0.6 for G = I."""
    t = ButcherTableau.from_dict(TWO_DIAGONALS)
    dt = np.array([1.0, 1.0 / 0.6])[:, None, None]
    with pytest.raises(SingularMatrixError, match="stage 1 for scheme "
                       "'two-diagonal-dirk' at dt=1.66667: .*stack index 1"):
        stage_coefficients(t, np.stack([np.eye(2), np.eye(2)]), dt)


def _seed_per_generator(sys, tableau, n):
    """The one-step seed from one propagation per generator: on each span,
    G_p, G_p - mu/2 I and G_p - mu I, each at dt = h_p / n, with the
    quadratures taken stage by stage."""
    out = {name: [] for name in Interval._fields}
    eye = np.eye(sys.n_xu)
    for G, Qbar, Mbar, h in zip(sys.G_p, sys.Qbar_p, sys.Mbar_p, sys.h_p):
        dt = h / n
        T, _ = propagation(tableau, G, dt)
        omega_q, stages_q = propagation(tableau, G - sys.mu / 2.0 * eye, dt)
        omega_m, stages_m = propagation(tableau, G - sys.mu * eye, dt)
        b = tableau.b
        X_q = dt * sum(bi * (x.T @ Qbar @ x) for bi, x in zip(b, stages_q))
        Y_m = dt * sum(bi * (x.T @ Mbar) for bi, x in zip(b, stages_m))
        for name, x in zip(Interval._fields, (T, omega_q, X_q, omega_m, Y_m)):
            out[name].append(x)
    return {name: np.stack(x) for name, x in out.items()}


@pytest.mark.parametrize(
    "plant", ["plain", "plain-diffusion", "delayed", "delayed-diffusion"])
def test_stacked_seed_matches_one_propagation_per_generator(scalar_deq,
                                                            mimo_deq, plant):
    """The span generators and their discounted shifts, stepped in one
    stack, give the seed of one propagation per generator. A diffusion G_c
    leaves the seed as it is: R_ww is no part of it."""
    sys = _plant_variants(scalar_deq, mimo_deq)[plant]
    for tableau in _tableau_cases():
        got = build_coefficients(sys, tableau, 64).seed._asdict()
        want = _seed_per_generator(sys, tableau, 64)
        assert got.keys() == want.keys()
        for name, y in want.items():
            x = got[name]
            assert x.shape == y.shape, (tableau.name, name)
            assert max_abs(x - y) <= 1e-15 * max_abs(y), (tableau.name, name)


def test_one_stacked_solve_per_diagonal_value_for_a_whole_build(monkeypatch,
                                                                mimo_deq):
    """On the delayed model esdirk4 solves once for all twelve generators:
    on each of the four spans, G_p and its shifts by mu/2 and mu."""
    calls = []

    def counting_solve(A, B):
        calls.append(A.shape)
        return solve(A, B)

    monkeypatch.setattr("lqdisc.fixedstep.solve", counting_solve)
    build_coefficients(mimo_deq, named_tableau("esdirk4"), 1024)
    assert calls == [(3, 4, mimo_deq.n_xu, mimo_deq.n_xu)]
    calls.clear()
    build_coefficients(mimo_deq, ButcherTableau.from_dict(TWO_DIAGONALS), 16)
    assert len(calls) == 2
    calls.clear()
    build_coefficients(mimo_deq, named_tableau("rk4"), 1024)
    assert calls == []


def _folded_step_by_step(coeffs, sys):
    """The fold as one compose per step, from the identity on every span,
    with each span's input integral B_p of T taken as its defining step sum
    sum_k A_p^k B_p,seed, from the seed's blocks [[A_p, B_p,seed], [0, I]]:
    the input integrals of the earlier steps carried forward, added in the
    order of the steps."""
    seed, n_x = coeffs.seed, sys.n_x
    eye = np.broadcast_to(np.eye(sys.n_xu), seed.T.shape)
    iv = Interval(eye, eye, np.zeros_like(seed.X_q), eye,
                  np.zeros_like(seed.Y_m))
    B = np.zeros((len(seed.T), n_x, sys.n_in))
    for _ in range(coeffs.n_steps):
        B = B + iv.T[:, :n_x, :n_x] @ seed.T[:, :n_x, n_x:]
        iv = compose(iv, seed)
    T = iv.T.copy()
    T[:, :n_x, n_x:] = B
    return iv._replace(T=T)


def _plant_variants(scalar_deq, mimo_deq):
    """Plain and delayed plants, each with and without a diffusion G_c."""
    rng = np.random.default_rng(5)
    return {
        "plain-diffusion": scalar_deq,
        "plain": dataclasses.replace(scalar_deq, G_c=None),
        "delayed": mimo_deq,
        "delayed-diffusion": dataclasses.replace(
            mimo_deq, G_c=0.5 * rng.normal(size=(mimo_deq.n_x, 2))),
    }


@pytest.mark.parametrize("scheme",
                         ["rk4", "esdirk4", "esdirk34", "implicit-euler"])
@pytest.mark.parametrize(
    "plant", ["plain", "plain-diffusion", "delayed", "delayed-diffusion"])
def test_chunked_fold_matches_step_by_step_fold(monkeypatch, scalar_deq,
                                                mimo_deq, scheme, plant):
    sys = _plant_variants(scalar_deq, mimo_deq)[plant]
    folded = []
    monkeypatch.setattr(fixedstep, "core_result",
                        lambda sys, iv, *a, **k: folded.append(iv) or
                        core_result(sys, iv, *a, **k))
    for n in (1, 2, 63, 64, 65, 129, 1000, 1024):
        coeffs = build_coefficients(sys, named_tableau(scheme), n)
        got = integrate(coeffs, sys)
        iv, want = folded.pop(), _folded_step_by_step(coeffs, sys)
        assert got.steps == n
        # the transitions are seed powers formed from their differences
        # P^i - I, and the integrals add the same increments in another
        # order: both move from the step-by-step fold only by rounding
        n_x = sys.n_x
        assert iv.T.shape == want.T.shape
        pairs = {f"A_{j}": (x[:n_x, :n_x], y[:n_x, :n_x])
                 for j, (x, y) in enumerate(zip(iv.T, want.T))}
        pairs.update((name, (getattr(iv, name), getattr(want, name)))
                     for name in ("omega_q", "omega_m"))
        for name, (x, y) in pairs.items():
            assert max_abs(x - y) <= 1e-14 * max_abs(y), (n, name)
        ref = core_result(sys, want, "fixed")
        for name in ("B_o", "Q", "M", "R_ww"):
            x, y = getattr(got, name), getattr(ref, name)
            assert (x is None) == (y is None)
            if y is not None:
                assert max_abs(x - y) <= 1e-14 * max_abs(y), (n, name)


@pytest.mark.parametrize("steps_per_product", [1, 3, 64])
def test_fold_products_of_whole_steps_match_one_product_per_chunk(
        monkeypatch, mimo_deq, steps_per_product):
    """Above n_xu = 16 the chunk's two products are split into blocks of
    whole steps, each at most _SLAB multiply-adds; a smaller _SLAB splits
    mimo_delayed's chunks the same way, also where a block is cut short
    by the chunk's end (3 steps per block, chunks of 64, 1, 2 and 63
    steps), and moves the fold only by rounding."""
    tableau = named_tableau("esdirk4")
    for n in (1, 66, 127, 1024):
        coeffs = build_coefficients(mimo_deq, tableau, n)
        want = integrate(coeffs, mimo_deq)
        with monkeypatch.context() as m:
            m.setattr(fixedstep, "_SLAB",
                      steps_per_product * mimo_deq.n_xu ** 3)
            got = integrate(coeffs, mimo_deq)
        for name in ("A", "B_o", "Q", "M"):
            x, y = getattr(got, name), getattr(want, name)
            assert max_abs(x - y) <= 1e-14 * max_abs(y), (n, name)


def _invariant_systems():
    """mimo_delayed and the first 27 systems of the seed-0 sweep."""
    plant, cost = load_model(Path(__file__).resolve().parents[1]
                             / "models" / "mimo_delayed.json")
    out = [pytest.param(plant, cost, id="mimo_delayed")]
    rng = np.random.default_rng(0)
    for i in range(27):
        plant, cost, _ = random_system(rng, i)
        out.append(pytest.param(plant, cost, id=f"sweep{i}"))
    return out


def _step_grows(tableau, sys, n):
    """Whether the step of some span does not decay where the exact flow
    does: for each eigenvalue lambda of G_p (those of A_c, and 0) and each
    shift 0, mu/2, mu, with z = dt_p (lambda - shift), Re z < 0 and the
    step of the 2 x 2 real form [[Re, -Im], [Im, Re]] of lambda - shift
    has determinant |R(z)|^2 >= 1."""
    eigs = np.append(np.linalg.eigvals(sys.A_c), 0.0)
    for h in sys.h_p:
        for shift in (0.0, sys.mu / 2.0, sys.mu):
            for g in eigs - shift:
                if g.real * h < 0:
                    G = np.array([[g.real, -g.imag], [g.imag, g.real]])
                    R, _ = propagation(tableau, G, h / n)
                    if abs(np.linalg.det(R)) >= 1.0:
                        return True
    return False


@pytest.mark.parametrize("plant,cost", _invariant_systems())
def test_seed_blocks_step_the_state_and_hold_the_input(plant, cost):
    """The one-step seed steps each span generator [[A_c, B^(p)], [0, 0]]
    whole. Its bottom block rows are zero, so every stage keeps the rows
    [0, I] exactly, and the top-left block is the step of A_c alone, at
    the span's own dt = h_p / n. A step that grows where the exact flow
    decays, and only such a step, is refused with NumericalError."""
    sys = build_deq(plant, cost)
    n_x = sys.n_x
    bottom = np.hstack([np.zeros((sys.n_in, n_x)), np.eye(sys.n_in)])
    for tableau in _tableau_cases():
        for n in (1, 4, 1024):
            outside = _step_grows(tableau, sys, n)
            try:
                T = build_coefficients(sys, tableau, n).seed.T
            except NumericalError as exc:
                assert outside and "stability region" in str(exc), \
                    (tableau.name, n)
                # the seed the guard refused, as the build steps it
                T = propagation(tableau, sys.G_p,
                                sys.h_p[:, None, None] / n)[0]
            else:
                assert not outside, (tableau.name, n)
            assert T.shape == sys.G_p.shape
            for p, h in enumerate(sys.h_p):
                case = (tableau.name, n, p)
                assert np.array_equal(T[p, n_x:], bottom), case
                want, _ = propagation(tableau, sys.A_c, h / n)
                assert (max_abs(T[p, :n_x, :n_x] - want)
                        <= 1e-15 * max_abs(want)), case
