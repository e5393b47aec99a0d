"""Assemble the discrete-time LQ problem over the horizon.

Combines a discretization core (A, B_o, Q, M, R_ww) with the delay
realization and the CostSpec into: the augmented state-space matrices
(state extended with the last m_bar inputs), the per-stage discounted cost
sequences Q_k, q_k, rho_k, and expected-cost evaluations for Gaussian
state uncertainty and integrated process noise.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .matcore import DimensionError, DomainError, Mat, is_psd
from .model import (ContinuousStateSpace, CostSpec, DelayRealization,
                    DelayedTransferModel, realize_delays)
from .exactdefs import CoreResult, DeqSystem, build_deq
from .fixedstep import (ButcherTableau, build_coefficients, discretize_fixed,
                        named_tableau)
from .stepdouble import discretize_step_doubling
from .vanloan import discretize_expm

# Below this value of mu*Ts the closed form for rho_k switches to its
# mu -> 0 limit to avoid cancellation.
MU_LIMIT_THRESHOLD = 1e-8

METHODS = ("fixed", "doubling", "expm")


@dataclass(frozen=True, eq=False)
class StageCosts:
    """Per-stage cost pieces: l_k(x,u) = 1/2 w'Q_k w + q_k'w + rho_k."""

    t_k: np.ndarray
    scale: np.ndarray          # e^{-mu t_k}
    Q_k: tuple
    q_k: tuple
    rho_k: np.ndarray


@dataclass(frozen=True, eq=False)
class DiscreteLQ:
    """Full discrete-time problem: core matrices, augmented system, stages."""

    A: Mat
    B_o: Mat
    Q: Mat
    M: Mat
    R_ww: Mat | None
    A_aug: Mat
    B_aug: Mat
    C_aug: Mat
    D_aug: Mat
    stages: StageCosts
    provenance: dict


@dataclass(frozen=True)
class ExpectedCost:
    """Deterministic stage cost at the mean plus the two trace corrections.

    The traces are reported raw: Tr(Q_k P~_k) enters the expected cost with
    a factor 1/2, and the process-noise term Tr(C R_ww C') is constant in
    (x, u), so neither moves the minimizer.
    """

    deterministic: float
    trace_state: float
    trace_noise: float


def assemble_augmented(core: CoreResult, realization) -> tuple[Mat, Mat, Mat, Mat]:
    """Augment the state with the held past inputs.

    With m_bar = 0 (or a plain plant) this is the identity: the core and
    output matrices pass through unchanged.
    """
    if isinstance(realization, DelayRealization):
        m_bar, n_u = realization.m_bar, realization.n_u
        C_c, D_o = realization.C_c, realization.D_o
    elif isinstance(realization, ContinuousStateSpace):
        m_bar, n_u = 0, realization.n_u
        C_c, D_o = realization.C_c, realization.D_c
    else:
        raise DimensionError(
            f"cannot assemble from {type(realization).__name__}")
    expected = (m_bar + 1) * n_u
    if core.B_o.shape[1] != expected:
        raise DimensionError(
            f"B_o has {core.B_o.shape[1]} columns, expected {expected} "
            f"for m_bar={m_bar}, n_u={n_u}")
    if m_bar == 0:
        return core.A, core.B_o, C_c, D_o
    B_o1, B_o2 = core.B_o[:, :-n_u], core.B_o[:, -n_u:]
    D_o1, D_o2 = D_o[:, :-n_u], D_o[:, -n_u:]
    n_x = core.A.shape[0]
    I_A, I_B = realization.I_A, realization.I_B
    A_aug = np.block([[core.A, B_o1],
                      [np.zeros((m_bar * n_u, n_x)), I_A]])
    B_aug = np.vstack([B_o2, I_B])
    C_aug = np.hstack([C_c, D_o1])
    return A_aug, B_aug, C_aug, D_o2


def stage_costs(Q: Mat, M: Mat, cost: CostSpec) -> StageCosts:
    """Discounted per-stage sequences for k = 0 .. N-1.

    Q_k = e^{-mu t_k} Q, q_k = e^{-mu t_k} M zbar_k, and rho_k uses the
    closed form e^{-mu t_k} (1 - e^{-mu Ts}) / (2 mu) * zbar'Q_c zbar,
    switching to a series expansion around the mu = 0 limit when mu*Ts is
    below 1e-8.
    """
    N, Ts, mu = cost.N, cost.Ts, cost.mu
    t_k = np.arange(N) * Ts
    scale = np.exp(-mu * t_k)
    x = mu * Ts
    if x < MU_LIMIT_THRESHOLD:
        # series limit of (1 - e^-x)/(2 mu); the x^3 remainder is ~1e-26
        # at the branch boundary, so the two branches join smoothly
        rho_gain = (Ts / 2.0) * (1.0 - x / 2.0 + x * x / 6.0)
    else:
        rho_gain = -math.expm1(-x) / (2.0 * mu)
    Q_k, q_k, rho_k = [], [], np.zeros(N)
    for k in range(N):
        zb = cost.zbar_at(k)
        Q_k.append(scale[k] * Q)
        q_k.append((scale[k] * M) @ zb)
        rho_k[k] = scale[k] * rho_gain * float(zb @ cost.Q_c @ zb)
    return StageCosts(t_k=t_k, scale=scale, Q_k=tuple(Q_k), q_k=tuple(q_k),
                      rho_k=rho_k)


def expected_stage_cost(Q_k: Mat, q_k, rho_k: float, x_mean, u,
                        P_k: Mat | None = None, R_ww: Mat | None = None,
                        C_c: Mat | None = None) -> ExpectedCost:
    """Expected stage cost for x ~ N(x_mean, P_k) plus process noise.

    E(1/2 w'Sw) = 1/2 m'Sm + 1/2 Tr(S R): the deterministic part evaluates
    the stage cost at the mean [x_mean; u]; trace_state is Tr(Q_k P~_k)
    with P_k zero-padded over the input block; trace_noise is
    Tr(C_c R_ww C_c').
    """
    w = np.concatenate([np.asarray(x_mean, float).reshape(-1),
                        np.asarray(u, float).reshape(-1)])
    if w.size != Q_k.shape[0]:
        raise DimensionError(
            f"[x; u] has size {w.size}, Q_k is {Q_k.shape[0]}x{Q_k.shape[0]}")
    q_vec = np.asarray(q_k, float).reshape(-1)
    det = 0.5 * float(w @ Q_k @ w) + float(q_vec @ w) + float(rho_k)
    trace_state = 0.0
    if P_k is not None:
        P_k = np.asarray(P_k, float)
        if not is_psd(P_k):
            raise DomainError("P_k must be positive semidefinite")
        n_x = P_k.shape[0]
        trace_state = float(np.trace(Q_k[:n_x, :n_x] @ P_k))
    trace_noise = 0.0
    if R_ww is not None and C_c is not None:
        trace_noise = float(np.trace(C_c @ R_ww @ C_c.T))
    return ExpectedCost(deterministic=det, trace_state=trace_state,
                        trace_noise=trace_noise)


def realize_plant(plant, Ts: float):
    """Return the object the ODE system should be built from.

    Transfer models and state-space plants with nonzero delays get a
    DelayRealization; undelayed state-space plants pass through and use
    the single-block structure.
    """
    if isinstance(plant, DelayedTransferModel):
        return realize_delays(plant, Ts)
    if isinstance(plant, ContinuousStateSpace):
        if plant.delays is not None and any(t > 0 for t in plant.delays):
            return realize_delays(plant, Ts)
        return plant
    if isinstance(plant, DelayRealization):
        return plant
    raise DimensionError(f"cannot realize {type(plant).__name__}")


def discretize_core(sys: DeqSystem, method: str, scheme: str = "rk4",
                    steps: int = 1024,
                    tableau: ButcherTableau | None = None) -> CoreResult:
    """Dispatch to one of the three discretization methods."""
    if method == "expm":
        return discretize_expm(sys)
    tb = tableau if tableau is not None else named_tableau(scheme)
    if method == "fixed":
        return discretize_fixed(sys, tb, steps)
    if method == "doubling":
        coeffs = build_coefficients(sys, tb, steps)
        return discretize_step_doubling(sys, tb, steps.bit_length() - 1,
                                        coeffs=coeffs)
    raise DomainError(f"unknown method {method!r}; choose from {METHODS}")


def build_discrete_lq(plant, cost: CostSpec, method: str = "expm",
                      scheme: str = "rk4", steps: int = 1024,
                      tableau: ButcherTableau | None = None) -> DiscreteLQ:
    """Full pipeline: realize, discretize, augment, and build stage costs."""
    realization = realize_plant(plant, cost.Ts)
    sys = build_deq(realization, cost)
    core = discretize_core(sys, method, scheme=scheme, steps=steps,
                           tableau=tableau)
    A_aug, B_aug, C_aug, D_aug = assemble_augmented(core, realization)
    stages = stage_costs(core.Q, core.M, cost)
    provenance = {
        "method": core.method,
        "scheme": core.scheme,
        "steps": core.steps,
        "doublings": core.doublings,
    }
    return DiscreteLQ(A=core.A, B_o=core.B_o, Q=core.Q, M=core.M,
                      R_ww=core.R_ww, A_aug=A_aug, B_aug=B_aug, C_aug=C_aug,
                      D_aug=D_aug, stages=stages, provenance=provenance)


def _listed(x) -> list | None:
    return None if x is None else np.asarray(x).tolist()


def export_result_json(dlq: DiscreteLQ, path) -> None:
    """Write the named matrices and stage arrays as JSON."""
    doc = {
        "provenance": dlq.provenance,
        "A": _listed(dlq.A), "B_o": _listed(dlq.B_o),
        "Q": _listed(dlq.Q), "M": _listed(dlq.M),
        "R_ww": _listed(dlq.R_ww),
        "A_aug": _listed(dlq.A_aug), "B_aug": _listed(dlq.B_aug),
        "C_aug": _listed(dlq.C_aug), "D_aug": _listed(dlq.D_aug),
        "stages": {
            "t_k": _listed(dlq.stages.t_k),
            "rho_k": _listed(dlq.stages.rho_k),
            "q_k": [_listed(q) for q in dlq.stages.q_k],
        },
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def export_stage_csv(dlq: DiscreteLQ, path) -> None:
    """Write the per-stage table (k, t_k, rho_k, ||q_k||) as RFC-4180 CSV."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["k", "t_k", "rho_k", "q_norm"])
        for k in range(dlq.stages.t_k.size):
            writer.writerow([
                k,
                f"{dlq.stages.t_k[k]:.16e}",
                f"{dlq.stages.rho_k[k]:.16e}",
                f"{np.linalg.norm(dlq.stages.q_k[k]):.16e}",
            ])
