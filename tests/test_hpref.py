"""The methods against a 30-digit reference built from the plant alone.

`hpref.reference` shares no formulation with the methods: it forms its own
coordinates from the model's matrices or channels and integrates the
held-input response span by span (see tests/hpref.py). A, B_o and R_ww
are checked to 1e-14 relative, Q and M to 1e-13 where no delay is
fractional. Two known gaps are kept visible as strict xfails: Q and M
under a fractional delay, and expm's A at a large discount.
"""

import functools
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import hpref
from lqdisc import (ContinuousStateSpace, CostSpec, DelayedTransferModel,
                    TransferChannel, build_deq, discretize_expm, load_model)
from lqdisc.benchcli import random_system
from lqdisc.matcore import max_abs

MODELS = Path(__file__).resolve().parents[1] / "models"


def _plants():
    """(id, plant, cost, cost integrals checked) for every listed plant."""
    out = []
    for name in ("scalar", "mimo_delayed"):
        plant, cost = load_model(MODELS / f"{name}.json")
        out.append((name, plant, cost, name == "scalar"))
    out.append(("state_space_D_G", ContinuousStateSpace(
        [[-1.0, 0.4], [0.0, -2.0]], [[1.0, 0.0], [0.5, 1.0]],
        [[1.0, 0.0], [0.3, -1.0]], [[0.0, 0.2], [0.5, 0.0]],
        G_c=[[0.3], [0.1]], delays=(0.5, 1.0)),
        CostSpec(Q_c=[[1.0, 0.2], [0.2, 0.5]], mu=1.0, Ts=0.5, N=1,
                 zbar=[[1.0, 0.0]]), True))
    rng = np.random.default_rng(0)
    for i in range(9):
        plant, cost, kind = random_system(rng, i)
        if kind != "fractional":
            out.append((f"sweep{i}-{kind}", plant, cost, True))
    return [pytest.param(*p[1:], id=p[0]) for p in out]


def _rel(got, ref) -> float:
    ref = hpref.to_float(ref)
    return max_abs(got - ref) / max_abs(ref)


@pytest.mark.parametrize("plant,cost,integrals", _plants())
def test_expm_matches_the_reference(plant, cost, integrals):
    ref = hpref.reference(plant, cost, integrals=integrals)
    got = discretize_expm(build_deq(plant, cost))
    assert got.A.shape == ref.A.shape and got.B_o.shape == ref.B_o.shape
    assert _rel(got.A, ref.A) <= 1e-14
    assert _rel(got.B_o, ref.B_o) <= 1e-14
    if not integrals:
        return
    assert (got.R_ww is None) == (ref.R_ww is None)
    if ref.R_ww is not None:
        assert _rel(got.R_ww, ref.R_ww) <= 1e-14
    assert _rel(got.Q, ref.Q) <= 1e-13
    assert _rel(got.M, ref.M) <= 1e-13


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


@pytest.mark.xfail(strict=True, reason=(
    "Q and M of a fractional delay follow the three-block formula, not the "
    "exact discounted cost: on this plant at mu = 0 and w = [0; 1; -1] "
    "fixed, doubling and expm all give 1/2 w'Qw = 2.7451e-4, the exact "
    "value is 3.5006e-2"))
def test_fractional_delay_cost_is_exact():
    plant, cost, ref = _fractional_scalar(0.0)
    got = discretize_expm(build_deq(plant, cost))
    assert _rel(got.Q, ref.Q) <= 1e-13
    assert _rel(got.M, ref.M) <= 1e-13


@pytest.mark.xfail(strict=True, reason=(
    "expm takes A from the seed squared s times, which loses about 2^s "
    "ulps: 8.3e-14 relative at mu = 2000 (s = 11), 9.7e-12 at mu = 2e5 "
    "(s = 18); B_o is off by 3.5e-14 and 4.1e-12"))
@pytest.mark.parametrize("mu", [2000.0, 2e5])
def test_expm_transition_at_large_discount(mu):
    plant, cost = load_model(MODELS / "scalar.json")
    cost = CostSpec(Q_c=cost.Q_c, mu=mu, Ts=cost.Ts, N=1, zbar=cost.zbar)
    ref = hpref.reference(plant, cost, integrals=False)
    assert _rel(discretize_expm(build_deq(plant, cost)).A, ref.A) <= 1e-14
