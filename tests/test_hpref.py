"""The methods against a 30-digit reference built from the plant alone.

`hpref.reference` shares no formulation with the methods: it forms its own
coordinates from the model's matrices or channels and integrates the
held-input response span by span (see tests/hpref.py). expm's A, B_o and
R_ww are checked to 1e-14 relative, Q and M to 1e-13, fractional delays
included; rk4 fixed and doubling at N = 1024 to criterion 1's limits.
`hpref.horizon_cost` checks the whole discrete problem, stage costs and
augmented recursion included, against the continuous cost of a horizon.
"""

import functools
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import hpref
from lqdisc import (ContinuousStateSpace, CostSpec, DelayedTransferModel,
                    TransferChannel, build_deq, build_discrete_lq,
                    discretize_expm, discretize_fixed,
                    discretize_step_doubling, load_model, named_tableau,
                    realize_plant)
from lqdisc.benchcli import random_system
from lqdisc.matcore import max_abs

MODELS = Path(__file__).resolve().parents[1] / "models"
RK4 = named_tableau("rk4")
# criterion 1's limits for rk4 fixed and doubling at N = 1024
STEP_LIMITS = {"A": 1e-12, "B_o": 1e-10, "M": 1e-12, "Q": 1e-11}


def _cases():
    """id -> (plant, cost, fractional) for every plant the reference covers:
    the bundled models, a plant with D and G_c, the pure-gain channel and
    the seed-0 sweep systems 0-8 and the fractional ones up to 26."""
    out = {}
    for name in ("scalar", "mimo_delayed"):
        plant, cost = load_model(MODELS / f"{name}.json")
        out[name] = (plant, cost, name != "scalar")
    out["state_space_D_G"] = (ContinuousStateSpace(
        [[-1.0, 0.4], [0.0, -2.0]], [[1.0, 0.0], [0.5, 1.0]],
        [[1.0, 0.0], [0.3, -1.0]], [[0.0, 0.2], [0.5, 0.0]],
        G_c=[[0.3], [0.1]], delays=(0.5, 1.0)),
        CostSpec(Q_c=[[1.0, 0.2], [0.2, 0.5]], mu=1.0, Ts=0.5, N=1,
                 zbar=[[1.0, 0.0]]), False)
    # 2 u(t - 0.3 Ts): u_{k-1} feeds z until 0.3 Ts, u_k from then on
    out["gain_channel"] = (
        DelayedTransferModel((TransferChannel(1, 1, (2.0,), (1.0,), 0.3),)),
        CostSpec(Q_c=[[1.0]], mu=0.2, Ts=1.0, N=1, zbar=[[0.0]]), True)
    rng = np.random.default_rng(0)
    for i in range(27):
        plant, cost, kind = random_system(rng, i)
        if i < 9 or kind == "fractional":
            out[f"sweep{i}-{kind}"] = (plant, cost, kind == "fractional")
    return out


CASES = _cases()
FRACTIONAL = sorted(name for name, case in CASES.items() if case[2])


@functools.lru_cache(maxsize=None)
def _reference(name):
    plant, cost, _ = CASES[name]
    return hpref.reference(plant, cost)


def _rel(got, ref) -> float:
    ref = hpref.to_float(ref)
    assert got.shape == ref.shape
    return max_abs(got - ref) / max(max_abs(ref), 1e-300)


@pytest.mark.parametrize("name", sorted(CASES))
def test_expm_matches_the_reference(name):
    plant, cost, _ = CASES[name]
    ref = _reference(name)
    got = discretize_expm(build_deq(plant, cost))
    assert got.A.shape == ref.A.shape and got.B_o.shape == ref.B_o.shape
    assert _rel(got.A, ref.A) <= 1e-14
    assert _rel(got.B_o, ref.B_o) <= 1e-14
    assert (got.R_ww is None) == (ref.R_ww is None)
    if ref.R_ww is not None:
        assert _rel(got.R_ww, ref.R_ww) <= 1e-14
    assert _rel(got.Q, ref.Q) <= 1e-13
    assert _rel(got.M, ref.M) <= 1e-13


@pytest.mark.parametrize("name", FRACTIONAL)
def test_fixed_and_doubling_match_the_reference_under_fractional_delays(name):
    """rk4 at N = 1024 on every span, folded and doubled."""
    plant, cost, _ = CASES[name]
    ref = _reference(name)
    sys = build_deq(plant, cost)
    for got in (discretize_fixed(sys, RK4, 1024),
                discretize_step_doubling(sys, RK4, 10)):
        for q, limit in STEP_LIMITS.items():
            gap = max_abs(getattr(got, q) - hpref.to_float(getattr(ref, q)))
            assert gap <= limit, (got.method, q, gap)


def test_reference_matches_the_scalar_closed_forms():
    """dx = -x + u, z = x, unit Q_c and G_c: A = e^{-Ts}, and every
    integral is a sum of the moments I(a) = (1 - e^{-a Ts})/a."""
    plant, cost = load_model(MODELS / "scalar.json")
    ref = hpref.reference(plant, cost)
    with mp.workdps(hpref.DPS):
        mu = mp.mpf(cost.mu)

        def moment(a):
            return -mp.expm1(-a) / a

        cross = moment(mu + 1) - moment(mu + 2)
        want = {
            "A": [[mp.exp(-1)]],
            "B_o": [[-mp.expm1(-1)]],
            "Q": [[moment(mu + 2), cross],
                  [cross, moment(mu) - 2 * moment(mu + 1) + moment(mu + 2)]],
            "M": [[-moment(mu + 1)], [moment(mu + 1) - moment(mu)]],
            "R_ww": [[-mp.expm1(-2) / 2]],
        }
        for name, rows in want.items():
            got = getattr(ref, name)
            gap = max(abs(got[i, j] - x) for i, row in enumerate(rows)
                      for j, x in enumerate(row))
            assert gap <= mp.mpf("1e-25"), (name, gap)


@functools.lru_cache(maxsize=None)
def _fractional_scalar(mu):
    """1/(s+1) delayed by 0.6 Ts (u_{k-1} is held until 0.6 Ts, u_k after):
    the plant, its cost and its reference."""
    plant = DelayedTransferModel(
        (TransferChannel(1, 1, (1.0,), (1.0, 1.0), 0.6),))
    cost = CostSpec(Q_c=[[1.0]], mu=mu, Ts=1.0, N=1, zbar=[[0.0]])
    return plant, cost, hpref.reference(plant, cost)


@pytest.mark.parametrize("mu,w,want", [
    (0.0, (0.0, 1.0, -1.0), 3.5006e-2),
    (0.2, (0.3, 1.0, -1.0), 8.8114e-2),
])
def test_reference_switches_the_held_input(mu, w, want):
    """On [x_k; u_{k-1}; u_k] = w the output is x(s), which mp.quad
    integrates from the closed-form trajectory, split at 0.6 Ts."""
    ref = _fractional_scalar(mu)[2]
    assert ref.switch_times == (mp.mpf(0.6),)
    with mp.workdps(hpref.DPS):
        x0, u1, u2 = (mp.mpf(x) for x in w)
        sw = ref.switch_times[0]
        x_sw = mp.exp(-sw) * x0 - mp.expm1(-sw) * u1

        def x(s):
            if s <= sw:
                return mp.exp(-s) * x0 - mp.expm1(-s) * u1
            return mp.exp(sw - s) * x_sw - mp.expm1(sw - s) * u2

        exact = mp.quad(lambda s: mp.exp(-mu * s) * x(s) ** 2 / 2,
                        [0, sw, 1])
        wv = np.array([x0, u1, u2], dtype=object)
        assert abs(wv @ ref.Q @ wv / 2 - exact) <= mp.mpf("1e-25")
    assert float(exact) == pytest.approx(want, rel=1e-4)


def test_fractional_delay_transition_is_exact():
    plant, cost, ref = _fractional_scalar(0.0)
    got = discretize_expm(build_deq(plant, cost))
    assert _rel(got.A, ref.A) <= 1e-14
    assert _rel(got.B_o, ref.B_o) <= 1e-14


def test_fractional_delay_cost_is_exact():
    plant, cost, ref = _fractional_scalar(0.0)
    got = discretize_expm(build_deq(plant, cost))
    assert _rel(got.Q, ref.Q) <= 1e-13
    assert _rel(got.M, ref.M) <= 1e-13


@pytest.mark.parametrize("mu", [2000.0, 2e5])
def test_expm_transition_at_large_discount(mu):
    """T is one exponential over the whole span, not the seed squared s
    times (s = 11 and 18 here), so A and B_o keep full accuracy."""
    plant, cost = load_model(MODELS / "scalar.json")
    cost = CostSpec(Q_c=cost.Q_c, mu=mu, Ts=cost.Ts, N=1, zbar=cost.zbar)
    ref = hpref.reference(plant, cost, integrals=False)
    got = discretize_expm(build_deq(plant, cost))
    assert _rel(got.A, ref.A) <= 1e-14
    assert _rel(got.B_o, ref.B_o) <= 1e-14


# plants of the horizon check: both bundled models, the pure-gain channel,
# a fractional and a whole-sample sweep system
HORIZON = ("scalar", "mimo_delayed", "gain_channel", "sweep4-fractional",
           "sweep6-integer")


@functools.lru_cache(maxsize=None)
def _horizon(name, mu):
    """Four stages of `name` at discount mu with three zbar rows (the last
    held), a random x0 and random held inputs: the inputs and the
    continuous cost."""
    plant, cost, _ = CASES[name]
    rng = np.random.default_rng(HORIZON.index(name))
    cost = CostSpec(Q_c=cost.Q_c, mu=mu, Ts=cost.Ts, N=4,
                    zbar=rng.uniform(-1.0, 1.0, (3, cost.n_z)))
    real = realize_plant(plant, cost.Ts)
    x0 = rng.normal(size=real.n_x)
    inputs = rng.normal(size=(real.m_bar + cost.N, real.n_u))
    return cost, x0, inputs, hpref.horizon_cost(plant, cost, x0, inputs)


def _stage_cost_sum(dlq, x0, inputs):
    """sum_k 1/2 w_k' Q_k w_k + q_k' w_k + rho_k, w_k = [x_aug,k; u_k],
    along x_aug,k+1 = A_aug x_aug,k + B_aug u_k from [x0; u_{-m_bar};
    ...; u_{-1}]."""
    m_bar = len(inputs) - len(dlq.stages.t_k)
    x = np.concatenate([x0, inputs[:m_bar].ravel()])
    st = dlq.stages
    total = 0.0
    for k, u in enumerate(inputs[m_bar:]):
        w = np.concatenate([x, u])
        total += 0.5 * st.scale[k] * (w @ dlq.Q @ w) + st.q_k[k] @ w \
            + st.rho_k[k]
        x = dlq.A_aug @ x + dlq.B_aug @ u
    return total


@pytest.mark.parametrize("mu", (0.0, 1e-9, 0.2))
@pytest.mark.parametrize("name", HORIZON)
def test_the_discrete_problem_has_the_continuous_cost(name, mu):
    """What a user optimizes, the stage costs along the augmented
    recursion, is the continuous discounted cost of the horizon: to 1e-13
    for expm and 1e-10 for rk4 fixed and doubling at N = 1024."""
    cost, x0, inputs, want = _horizon(name, mu)
    want = float(want)
    for method, limit in (("expm", 1e-13), ("fixed", 1e-10),
                          ("doubling", 1e-10)):
        dlq = build_discrete_lq(CASES[name][0], cost, method=method,
                                scheme="rk4", steps=1024)
        got = _stage_cost_sum(dlq, x0, inputs)
        assert abs(got - want) <= limit * abs(want), (method, got, want)


def test_horizon_cost_matches_the_closed_form():
    """1/(s+1) delayed by 0.6 Ts over two stages from x0 = 0.3 with
    u_{-1}, u_0, u_1 = 1, -1, 2: mp.quad of the closed-form trajectory,
    piece by piece between the switches at 0.6 and 1.6 Ts."""
    plant = _fractional_scalar(0.2)[0]
    cost = CostSpec(Q_c=[[1.0]], mu=0.2, Ts=1.0, N=2, zbar=[[0.5], [-0.25]])
    got = hpref.horizon_cost(plant, cost, [0.3], [[1.0], [-1.0], [2.0]])
    with mp.workdps(hpref.DPS):
        mu, sw = mp.mpf(0.2), mp.mpf(0.6)
        pieces = ((0, sw, 1, 0.5), (sw, 1, -1, 0.5),
                  (1, 1 + sw, -1, -0.25), (1 + sw, 2, 2, -0.25))
        x, want = mp.mpf(0.3), mp.mpf(0)
        for a, b, u, zb in pieces:
            def e(s, a=a, x=x, u=u, zb=zb):
                return mp.exp(a - s) * x - mp.expm1(a - s) * u - zb
            want += mp.quad(lambda s: mp.exp(-mu * s) * e(s) ** 2 / 2, [a, b])
            x = e(b) + zb
        assert abs(got - want) <= mp.mpf("1e-25")
