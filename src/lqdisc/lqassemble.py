"""Assemble the discrete-time LQ problem over the horizon.

Combines a discretization core (A, B_o, Q, M, R_ww) with the delay
realization and the CostSpec into: the augmented state-space matrices
(state extended with the last m_bar inputs), the per-stage discounted cost
sequences q_k, rho_k (with Q_k = e^{-mu t_k} Q), and expected-cost
evaluations for Gaussian state uncertainty and integrated process noise.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import stat
from dataclasses import dataclass

import numpy as np

from .matcore import (DimensionError, DomainError, Mat, NumericalError, asmat,
                      is_psd)
from .model import CostSpec, DelayRealization, realize_plant
from .exactdefs import CoreResult, DeqSystem, build_deq
from .fixedstep import (ButcherTableau, build_coefficients, discretize_fixed,
                        named_tableau)
from .stepdouble import discretize_step_doubling
from .vanloan import discretize_expm

# Below this value of mu*Ts the closed form for rho_k switches to its
# mu -> 0 limit to avoid cancellation.
MU_LIMIT_THRESHOLD = 1e-8

METHODS = ("fixed", "doubling", "expm")

# The array or table size from which an export goes through floattext:
# export_result_json writes such an array with floattext.json_chunks
# instead of json.dumps(x.tolist()), and export_stage_csv such a table
# with floattext.csv_chunks instead of "%.16e" row by row; each pair gives
# the same bytes. Medians of 400 alternating calls (numpy 2.4, Python
# 3.11, 2-vCPU x86-64 VM), floattext's time over the library's: JSON
# 0.89x at 512 N(0,1) draws and 0.83x at 512 values of long_horizon's
# q_k (both writers break even near 450 values), 0.64x and 0.49x at 1024;
# on integer values such as t_k, which float.__repr__ writes fastest,
# 1.65x at 512 and 1.16x at 1024 (even near 1300). CSV: 0.86x and 0.77x
# at 100 rows (300 values) of long_horizon's table and of N(0,1) draws,
# 0.34x and 0.33x at 341 rows (1023 values). From 1024 on only integer
# arrays below about 1300 values pay (at most 1.16x), and short horizons
# never import floattext.
JSON_VECTOR_MIN = 1024


@dataclass(frozen=True, eq=False)
class StageCosts:
    """Per-stage cost pieces: l_k(x,u) = 1/2 w'Q_k w + q_k'w + rho_k,
    with Q_k = scale[k] Q."""

    t_k: np.ndarray
    scale: np.ndarray          # e^{-mu t_k}
    q_k: np.ndarray            # one row per stage, (N, n_x + (m_bar+1) n_u)
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

    With m_bar = 0 this is the identity: A and B_o pass through, with the
    realization's output matrices.
    """
    if not isinstance(realization, DelayRealization):
        raise DimensionError(
            f"cannot assemble from {type(realization).__name__}")
    m_bar, n_u = realization.m_bar, realization.n_u
    C_c, D_o = realization.C_c, realization.D_o
    expected = realization.n_slots
    if core.B_o.shape[1] != expected:
        raise DimensionError(
            f"B_o has {core.B_o.shape[1]} columns, expected {expected} "
            f"for m_bar={m_bar}, n_u={n_u}")
    if m_bar == 0:
        return core.A, core.B_o, C_c, D_o
    n_x = core.A.shape[0]
    A_aug = np.zeros((n_x + m_bar * n_u,) * 2)
    A_aug[:n_x, :n_x], A_aug[:n_x, n_x:] = core.A, core.B_o[:, :-n_u]
    A_aug[n_x:, n_x:] = realization.I_A
    B_aug = np.vstack([core.B_o[:, -n_u:], realization.I_B])
    C_aug = np.hstack([C_c, D_o[:, :-n_u]])
    return A_aug, B_aug, C_aug, D_o[:, -n_u:]


def stage_costs(Q: Mat, M: Mat, cost: CostSpec) -> StageCosts:
    """Discounted per-stage sequences for k = 0 .. N-1.

    The stage weight Q_k = e^{-mu t_k} Q is scale[k] Q and is not stored.
    q_k = e^{-mu t_k} M zbar_k, one row per stage, and rho_k uses the
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
    Z = cost.zbar_at(np.arange(N))       # zbar_k, one row per stage
    q_k = Z @ M.T
    q_k *= scale[:, None]
    rho_k = scale * rho_gain * np.sum((Z @ cost.Q_c) * Z, axis=1)
    return StageCosts(t_k=t_k, scale=scale, q_k=q_k, rho_k=rho_k)


def expected_stage_cost(Q_k: Mat, q_k, rho_k: float, x_mean, u,
                        P_k: Mat | None = None, R_ww: Mat | None = None,
                        C_c: Mat | None = None) -> ExpectedCost:
    """Expected stage cost for x ~ N(x_mean, P_k) plus process noise.

    E(1/2 w'Sw) = 1/2 m'Sm + 1/2 Tr(S R): the deterministic part evaluates
    the stage cost at the mean [x_mean; u]; trace_state is Tr(Q_k P~_k)
    with P_k zero-padded over the input block; trace_noise is
    Tr(C_c R_ww C_c'), R_ww and C_c given together or not at all.
    """
    x = np.asarray(x_mean, float).reshape(-1)
    w = np.concatenate([x, np.asarray(u, float).reshape(-1)])
    if w.size != Q_k.shape[0]:
        raise DimensionError(
            f"[x; u] has size {w.size}, Q_k is {Q_k.shape[0]}x{Q_k.shape[0]}")
    q_vec = np.asarray(q_k, float).reshape(-1)
    det = 0.5 * float(w @ Q_k @ w) + float(q_vec @ w) + float(rho_k)
    trace_state = 0.0
    if P_k is not None:
        P_k = np.asarray(P_k, float)
        if P_k.shape != (x.size, x.size):
            raise DimensionError(f"P_k is {P_k.shape} for {x.size} states")
        if not is_psd(P_k):
            raise DomainError("P_k must be positive semidefinite")
        trace_state = float(np.trace(Q_k[:x.size, :x.size] @ P_k))
    trace_noise = 0.0
    if R_ww is not None or C_c is not None:
        if R_ww is None or C_c is None:
            raise DimensionError("Tr(C_c R_ww C_c') needs both R_ww and C_c")
        R_ww, C_c = asmat(R_ww), asmat(C_c)
        if R_ww.shape != (C_c.shape[1],) * 2:
            raise DimensionError(f"C_c {C_c.shape}, R_ww {R_ww.shape} do not conform")
        trace_noise = float(np.trace(C_c @ R_ww @ C_c.T))
    return ExpectedCost(deterministic=det, trace_state=trace_state,
                        trace_noise=trace_noise)


def discretize_core(sys: DeqSystem, method: str,
                    scheme: str | ButcherTableau = "rk4",
                    steps: int = 1024) -> CoreResult:
    """Dispatch to one of the three discretization methods; `scheme` is a
    bundled scheme name or a ButcherTableau.

    Raises NumericalError when the result has a non-finite entry, and
    DomainError when `steps` is not an integer (numpy integers are).
    """
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {METHODS}")
    try:
        steps = operator.index(steps)
    except TypeError:
        raise DomainError(f"steps must be an integer, got {steps!r}") from None
    # overflow is reported once, by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "expm":
            core = discretize_expm(sys)
        else:
            tb = (scheme if isinstance(scheme, ButcherTableau)
                  else named_tableau(scheme))
            if method == "fixed":
                core = discretize_fixed(sys, tb, steps)
            else:
                coeffs = build_coefficients(sys, tb, steps)
                core = discretize_step_doubling(
                    sys, tb, steps.bit_length() - 1, coeffs=coeffs)
    for name in ("A", "B_o", "Q", "M", "R_ww"):
        value = getattr(core, name)
        if value is not None and not np.isfinite(value).all():
            raise NumericalError(
                f"method {method!r} gave non-finite entries in {name}")
    return core


def build_discrete_lq(plant, cost: CostSpec, method: str = "expm",
                      scheme: str | ButcherTableau = "rk4",
                      steps: int = 1024) -> DiscreteLQ:
    """Full pipeline: realize, discretize, augment, and build stage costs."""
    realization = realize_plant(plant, cost.Ts)
    sys = build_deq(realization, cost)
    core = discretize_core(sys, method, scheme=scheme, steps=steps)
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


def _overwrite(path, pieces) -> None:
    """Write the bytes `pieces` over the file at `path`, in place, each as
    it comes, so that a generator of pieces never holds the whole text.

    open(path, "w") cuts an existing file to zero length first, and ext4
    (auto_da_alloc) then writes such a file to disk when it is closed; the
    next export to the same path waits for that write to finish. Writing
    from offset 0 and cutting a regular file at the new end afterwards
    leaves the data to the kernel's normal writeback.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        for piece in pieces:
            f.write(piece)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()


def _json_array(x):
    """json.dumps(x.tolist()) of an exported array as ASCII bytes, in
    pieces; "null" for None."""
    if x is None:
        return [b"null"]
    x = np.asarray(x)
    if x.size >= JSON_VECTOR_MIN and x.dtype == np.float64 and x.ndim <= 2:
        # imported here, so that a process that writes no large array
        # does not compile it (about 2.6 ms without cached bytecode)
        from . import floattext
        return floattext.json_chunks(x)
    return [json.dumps(x.tolist()).encode("ascii")]


def export_result_json(dlq: DiscreteLQ, path) -> None:
    """Write the named matrices and stage arrays as JSON.

    One top-level key per line, each value in json.dumps's compact text,
    so the file parses to the same object as json.dumps(doc, indent=2)
    and every number is its float.__repr__. An array of at least
    JSON_VECTOR_MIN values (on a long horizon: t_k, rho_k and q_k) is
    written by `floattext.json_chunks`, which gives the same text from
    Schubfach's shortest digits (Giulietti 2020), computed a chunk of
    values at a time and written to the file as each chunk is done;
    float.__repr__ one value at a time costs more the larger the
    exponent, and q_k's discounted values fall to 1e-260 on a 3000-stage
    horizon. Smaller arrays go through json.dumps.
    """
    _overwrite(path, _json_pieces(dlq))


def _json_pieces(dlq: DiscreteLQ):
    """The bytes of result.json, a piece at a time."""
    yield b'{\n  "provenance": ' + json.dumps(dlq.provenance).encode("ascii")
    for name in ("A", "B_o", "Q", "M", "R_ww",
                 "A_aug", "B_aug", "C_aug", "D_aug"):
        yield f',\n  "{name}": '.encode("ascii")
        yield from _json_array(getattr(dlq, name))
    st = dlq.stages
    yield b',\n  "stages": {"t_k": '
    yield from _json_array(st.t_k)
    yield b', "rho_k": '
    yield from _json_array(st.rho_k)
    yield b', "q_k": '
    yield from _json_array(st.q_k)
    yield b"}\n}\n"


def export_stage_csv(dlq: DiscreteLQ, path) -> None:
    """Write the per-stage table (k, t_k, rho_k, ||q_k||) as RFC-4180 CSV.

    The rows are what csv.writer writes for these fields: no field needs
    quoting, and every line ends in CRLF. A table of at least
    JSON_VECTOR_MIN values is written by `floattext.csv_chunks`, which
    gives the same text from 17 correctly rounded digits, computed a
    chunk of rows at a time and written to the file as each chunk is
    done; smaller tables go through "%.16e" row by row.
    """
    st = dlq.stages
    q = st.q_k
    # sqrt(q.q), what np.linalg.norm evaluates for a 1-D row: a 1 x n by
    # n x 1 matmul calls the same dot kernel (einsum and norm(q, axis=1)
    # do not, and differ from it in the last bit on some rows)
    q_norm = np.sqrt((q[:, None, :] @ q[:, :, None])[:, 0, 0])
    table = np.column_stack([st.t_k, st.rho_k, q_norm])
    if table.size >= JSON_VECTOR_MIN:
        from . import floattext
        body = floattext.csv_chunks(table)
    else:
        body = ["".join("%d,%.16e,%.16e,%.16e\r\n" % (k, *row)
                        for k, row in enumerate(table.tolist()))
                .encode("ascii")]
    _overwrite(path, itertools.chain([b"k,t_k,rho_k,q_norm\r\n"], body))
