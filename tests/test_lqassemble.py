"""Tests for the assembly layer: augmentation, stage costs, exporters.

The central check simulates the delayed continuous-time plant exactly
(piecewise integration between input breakpoints) and verifies that the
discretized core and the augmented recursion reproduce the sampled states
and outputs.
"""

import csv
import json
import math

import numpy as np
import pytest
from scipy.integrate import simpson

from lqdisc.matcore import DimensionError, DomainError, expm, max_abs, solve
from lqdisc.model import ContinuousStateSpace, CostSpec
from lqdisc.exactdefs import build_deq
from lqdisc.lqassemble import (DiscreteLQ, assemble_augmented,
                               build_discrete_lq, discretize_core,
                               expected_stage_cost, export_result_json,
                               export_stage_csv, realize_plant, stage_costs)


def _intexp(A, h):
    """(e^{Ah}, int_0^h e^{Ar} dr) from one block exponential."""
    n = A.shape[0]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = A
    blk[:n, n:] = np.eye(n)
    E = expm(blk * h)
    return E[:n, :n], E[:n, n:]


def _simulate_delayed(r, U, K, x0):
    """Sample the continuous plant exactly at t_k = k Ts.

    U maps step index k (from -m_bar on) to the held input vector over
    [k Ts, (k+1) Ts). Channel (i, j) is driven by u_j(t - tau); with
    tau = (m - v) Ts that input switches from U[k-m] to U[k-m+1] at
    s = (1 - v) Ts inside step k, so each segment integrates a constant
    input and the only error left is expm rounding.
    """
    Ts = r.Ts
    states = np.zeros((K + 1, r.n_x))
    states[0] = x0
    offsets = []
    row = 0
    for ch in r.channels:
        offsets.append(row)
        row += ch.A.shape[0]
    x = x0.copy()
    for k in range(K):
        nxt = x.copy()
        for ch, off in zip(r.channels, offsets):
            n = ch.A.shape[0]
            if n == 0:
                continue
            if ch.v > 0.0:
                s1 = (1.0 - ch.v) * Ts
                segments = ((s1, U[k - ch.m][ch.j - 1]),
                            (Ts - s1, U[k - ch.m + 1][ch.j - 1]))
            else:
                segments = ((Ts, U[k - ch.m][ch.j - 1]),)
            xc = x[off:off + n]
            for h, u_val in segments:
                Phi, J = _intexp(ch.A, h)
                xc = Phi @ xc + (J @ ch.B).ravel() * u_val
            nxt[off:off + n] = xc
        x = nxt
        states[k + 1] = x
    return states


def test_core_and_augmented_match_exact_simulation(mimo_model,
                                                   mimo_realization):
    plant, cost = mimo_model
    r = mimo_realization
    dlq = build_discrete_lq(plant, cost, method="expm")
    K = 5
    rng = np.random.default_rng(42)
    U = {k: rng.normal(size=r.n_u) for k in range(-r.m_bar, K)}
    x0 = rng.normal(size=r.n_x)
    states = _simulate_delayed(r, U, K, x0)

    # core recursion on the lifted input reproduces the sampled states
    x = x0.copy()
    for k in range(K):
        u_lift = np.concatenate([U[k - r.m_bar + p]
                                 for p in range(r.m_bar + 1)])
        x = dlq.A @ x + dlq.B_o @ u_lift
        assert max_abs(x - states[k + 1]) < 1e-12

    # augmented recursion carries the held window and maps the outputs
    xa = np.concatenate([x0] + [U[k] for k in range(-r.m_bar, 0)])
    for k in range(K):
        z_direct = r.C_c @ states[k]
        for ch in r.channels:
            if ch.D != 0.0:
                z_direct[ch.i - 1] += ch.D * U[k - ch.m][ch.j - 1]
        z_aug = dlq.C_aug @ xa + dlq.D_aug @ U[k]
        assert max_abs(z_aug - z_direct) < 1e-12
        xa = dlq.A_aug @ xa + dlq.B_aug @ U[k]
        assert max_abs(xa[:r.n_x] - states[k + 1]) < 1e-12


def test_assemble_passthrough_without_delays(scalar_model, scalar_deq):
    plant, _ = scalar_model
    core = discretize_core(scalar_deq, "expm")
    A_aug, B_aug, C_aug, D_aug = assemble_augmented(core, plant)
    assert A_aug is core.A
    assert B_aug is core.B_o
    assert np.array_equal(C_aug, plant.C_c)
    assert np.array_equal(D_aug, plant.D_c)


def test_assemble_rejects_mismatched_inputs(scalar_deq, mimo_realization):
    core = discretize_core(scalar_deq, "expm")
    with pytest.raises(DimensionError, match="columns"):
        assemble_augmented(core, mimo_realization)
    with pytest.raises(DimensionError, match="str"):
        assemble_augmented(core, "not a realization")


def test_augmented_shapes(mimo_model):
    plant, cost = mimo_model
    dlq = build_discrete_lq(plant, cost, method="expm")
    n_x, n_u, m_bar = 6, 2, 2
    n_aug = n_x + m_bar * n_u
    assert dlq.A_aug.shape == (n_aug, n_aug)
    assert dlq.B_aug.shape == (n_aug, n_u)
    assert dlq.C_aug.shape == (2, n_aug)
    assert dlq.D_aug.shape == (2, n_u)


def test_stage_costs_discount_telescoping(mimo_model):
    plant, cost = mimo_model
    dlq = build_discrete_lq(plant, cost, method="expm")
    st = dlq.stages
    zb = np.array([1.0, 0.5])
    gain = -math.expm1(-0.2) / 0.4
    assert st.rho_k[0] == pytest.approx(gain * float(zb @ cost.Q_c @ zb),
                                        abs=1e-15)
    # constant reference: every stage ratio is exactly the discount factor
    ratios = st.rho_k[1:] / st.rho_k[:-1]
    assert np.allclose(ratios, math.exp(-0.2), rtol=1e-13, atol=0.0)
    for k in (0, 7, 19):
        assert max_abs(st.Q_k[k] - st.scale[k] * dlq.Q) == 0.0
        assert max_abs(st.q_k[k] - st.scale[k] * (dlq.M @ zb)) < 1e-15


@pytest.mark.parametrize("mu", [0.0, 1e-9, 0.2, 2.0])
def test_rho_matches_quadrature(mu):
    cost = CostSpec(Q_c=[[1.0, 0.0], [0.0, 2.0]], mu=mu, Ts=1.0, N=6,
                    zbar=[[1.0, 0.5]])
    st = stage_costs(np.zeros((3, 3)), np.zeros((3, 2)), cost)
    zb = np.array([1.0, 0.5])
    c = float(zb @ cost.Q_c @ zb)
    s = np.linspace(0.0, cost.Ts, 4097)
    for k in (0, 3):
        integral = simpson(np.exp(-mu * (st.t_k[k] + s)) * 0.5 * c, x=s)
        assert abs(st.rho_k[k] - integral) < 1e-10


def test_rho_zero_discount_branch():
    cost = CostSpec(Q_c=[[2.0]], mu=0.0, Ts=0.5, N=3, zbar=[[3.0]])
    st = stage_costs(np.zeros((2, 2)), np.zeros((2, 1)), cost)
    # mu = 0: rho_k = (Ts/2) zbar'Q_c zbar at every stage
    assert np.all(st.rho_k == 0.25 * 18.0)
    assert np.all(st.scale == 1.0)


def test_stage_reference_held_last():
    cost = CostSpec(Q_c=[[1.0]], mu=0.0, Ts=1.0, N=4,
                    zbar=[[1.0], [2.0]])
    M = np.array([[1.0], [0.5]])
    st = stage_costs(np.zeros((2, 2)), M, cost)
    assert max_abs(st.q_k[0] - M[:, 0]) == 0.0
    for k in (1, 2, 3):
        assert max_abs(st.q_k[k] - 2.0 * M[:, 0]) == 0.0


def test_expected_stage_cost_hand_value():
    Q_k = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 4.0]])
    q_k = np.array([1.0, 0.0, -1.0])
    x = np.array([1.0, 2.0])
    u = np.array([0.5])
    P = np.array([[0.1, 0.0], [0.0, 0.2]])
    R_ww = np.array([[0.3, 0.0], [0.0, 0.1]])
    C_c = np.array([[1.0, 0.0], [0.0, 2.0]])
    got = expected_stage_cost(Q_k, q_k, 0.25, x, u, P_k=P, R_ww=R_ww,
                              C_c=C_c)
    # 1/2 w'Qw = 1 + 4 + 0.5 = 5.5; q'w = 0.5; rho = 0.25
    assert got.deterministic == pytest.approx(6.25, abs=1e-15)
    assert got.trace_state == pytest.approx(2.0 * 0.1 + 2.0 * 0.2, abs=1e-15)
    assert got.trace_noise == pytest.approx(0.3 + 4.0 * 0.1, abs=1e-15)


def test_expected_stage_cost_validation():
    Q_k = np.eye(3)
    with pytest.raises(DimensionError):
        expected_stage_cost(Q_k, np.zeros(3), 0.0, [1.0, 2.0, 3.0], [0.0])
    bad_p = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(DomainError):
        expected_stage_cost(Q_k, np.zeros(3), 0.0, [1.0, 2.0], [0.0],
                            P_k=bad_p)


def test_minimizer_invariant_across_methods(mimo_model):
    """The one-step minimizer over u_k is stable across methods.

    Only the current input is free; the state and the held past inputs
    are fixed, so the relevant block is the trailing n_u-by-n_u corner.
    """
    plant, cost = mimo_model
    n_u = 2
    w_fixed = np.random.default_rng(9).normal(size=12 - n_u)
    mins = []
    for method in ("fixed", "expm"):
        dlq = build_discrete_lq(plant, cost, method=method, scheme="rk4",
                                steps=1024)
        Q_k, q_k = dlq.stages.Q_k[2], dlq.stages.q_k[2]
        Quu = Q_k[-n_u:, -n_u:]
        Qux = Q_k[-n_u:, :-n_u]
        qu = q_k[-n_u:]
        mins.append(solve(Quu, -(Qux @ w_fixed + qu).reshape(-1, 1)))
    assert max_abs(mins[0] - mins[1]) < 1e-9


def test_export_json_roundtrip(tmp_path, mimo_model):
    plant, cost = mimo_model
    dlq = build_discrete_lq(plant, cost, method="expm")
    path = tmp_path / "result.json"
    export_result_json(dlq, path)
    doc = json.loads(path.read_text())
    for key in ("provenance", "A", "B_o", "Q", "M", "R_ww",
                "A_aug", "B_aug", "C_aug", "D_aug", "stages"):
        assert key in doc
    assert doc["R_ww"] is None
    assert max_abs(np.array(doc["A"]) - dlq.A) == 0.0
    assert doc["provenance"]["method"] == "expm"
    assert len(doc["stages"]["rho_k"]) == cost.N


def test_export_csv_format(tmp_path, mimo_model):
    plant, cost = mimo_model
    dlq = build_discrete_lq(plant, cost, method="expm")
    path = tmp_path / "stages.csv"
    export_stage_csv(dlq, path)
    raw = path.read_bytes()
    assert b"\r\n" in raw  # RFC 4180 line endings
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["k", "t_k", "rho_k", "q_norm"]
    assert len(rows) == cost.N + 1
    assert float(rows[1][2]) == pytest.approx(dlq.stages.rho_k[0])
    # full-precision scientific notation
    assert "e" in rows[1][2]


def test_build_discrete_lq_provenance_and_errors(scalar_model, mimo_model):
    plant, cost = scalar_model
    dlq = build_discrete_lq(plant, cost, method="doubling", steps=1024)
    assert dlq.provenance["doublings"] == 10
    assert dlq.provenance["steps"] == 1024
    with pytest.raises(DomainError, match="unknown method"):
        build_discrete_lq(plant, cost, method="magic")
    # any N: 9 squarings and 5 more composes reach 1000 = 0b1111101000
    for plant, cost in (scalar_model, mimo_model):
        doubled = build_discrete_lq(plant, cost, method="doubling",
                                    steps=1000)
        fixed = build_discrete_lq(plant, cost, method="fixed", steps=1000)
        assert doubled.provenance["steps"] == 1000
        assert doubled.provenance["doublings"] == 9
        for name in ("A", "B_o", "Q", "M"):
            gap = max_abs(getattr(doubled, name) - getattr(fixed, name))
            assert gap <= 1e-12, (name, gap)


def test_realize_plant_dispatch(mimo_model, scalar_model):
    mimo_plant, cost = mimo_model
    r = realize_plant(mimo_plant, cost.Ts)
    assert r.m_bar == 2
    assert realize_plant(r, cost.Ts) is r
    scalar_plant, _ = scalar_model
    assert realize_plant(scalar_plant, 1.0) is scalar_plant
    delayed = ContinuousStateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]],
                                   delays=(0.25,))
    assert realize_plant(delayed, 1.0).m_bar == 1
    with pytest.raises(DimensionError):
        realize_plant(42, 1.0)


def test_delayed_state_space_simulation_roundtrip():
    """Same simulation check on a state-space plant with mixed delays."""
    plant = ContinuousStateSpace(
        A_c=[[-0.6, 0.3], [0.0, -1.1]],
        B_c=[[1.0, 0.2], [0.0, 0.8]],
        C_c=[[1.0, 1.0]],
        D_c=[[0.0, 0.0]],
        delays=(0.4, 1.3),
    )
    cost = CostSpec(Q_c=[[1.0]], mu=0.1, Ts=1.0, N=4, zbar=[[0.0]])
    r = realize_plant(plant, cost.Ts)
    dlq = build_discrete_lq(plant, cost, method="expm")
    K = 6
    rng = np.random.default_rng(17)
    U = {k: rng.normal(size=2) for k in range(-r.m_bar, K)}

    # exact simulation of the original two-state plant
    x = np.zeros(2)
    A_c, B_c, Ts = np.asarray(plant.A_c), np.asarray(plant.B_c), cost.Ts
    truth = [x.copy()]
    for k in range(K):
        # both inputs switch inside the step: collect the breakpoints
        times = sorted({0.0, (1.0 - 0.6) * Ts, (1.0 - 0.7) * Ts, Ts})
        for s0, s1 in zip(times[:-1], times[1:]):
            u = np.array([
                U[k - 1 + (s0 >= (1.0 - 0.6) * Ts)][0],
                U[k - 2 + (s0 >= (1.0 - 0.7) * Ts)][1],
            ])
            Phi, J = _intexp(A_c, s1 - s0)
            x = Phi @ x + J @ B_c @ u
        truth.append(x.copy())

    xd = np.zeros(r.n_x)
    for k in range(K):
        u_lift = np.concatenate([U[k - r.m_bar + p]
                                 for p in range(r.m_bar + 1)])
        xd = dlq.A @ xd + dlq.B_o @ u_lift
        # replicas sum to the physical state through C_c
        assert max_abs(r.C_c @ xd - plant.C_c @ truth[k + 1]) < 1e-12
