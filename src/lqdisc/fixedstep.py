"""Fixed-time-step Runge-Kutta discretization with constant coefficients.

Because every right-hand side in the system is linear with a constant
generator, the Runge-Kutta stage combinations collapse into constant
matrices (Lambda, Omega...) that are computed once per (tableau, step
size). The stage kernels take a stack of same-size generators, each with
its own step, so one stacked propagation steps every span generator G_p
and its discounted shifts at once, N steps of h_p/N on span p. The
coefficients form the one-step seed `Interval` of every span, which
`integrate` folds N times, one chunk of 64 steps per iteration: the
seed's powers P^i - I (i < 64) are built once, and each chunk's steps and
their increments to the integrals are a few batched products on that
stack. No expm and no linear solves inside the propagation loop.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .matcore import (DimensionError, DomainError, Mat, SingularMatrixError,
                      solve, symmetrize)
from .exactdefs import (_CHUNK, CoreResult, DeqSystem, Interval, _powers,
                        core_result)

_TABLEAU_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """Runge-Kutta coefficients (a, b, c) plus a structural kind tag."""

    name: str
    a: Mat
    b: Mat
    c: Mat
    kind: str

    def __post_init__(self):
        try:
            a = np.atleast_2d(np.asarray(self.a, dtype=float))
            b = np.asarray(self.b, dtype=float).reshape(-1)
            c = np.asarray(self.c, dtype=float).reshape(-1)
        except (TypeError, ValueError):
            raise DomainError(f"tableau {self.name}: non-numeric entries") from None
        if not all(np.all(np.isfinite(x)) for x in (a, b, c)):
            raise DomainError(f"tableau {self.name}: non-finite entries")
        s = b.size
        if a.shape != (s, s) or c.size != s:
            raise DimensionError(
                f"tableau {self.name}: a {a.shape}, b {b.size}, c {c.size} disagree")
        if abs(b.sum() - 1.0) > _TABLEAU_TOL:
            raise DomainError(f"tableau {self.name}: weights sum to {b.sum()}, not 1")
        if np.max(np.abs(a.sum(axis=1) - c)) > _TABLEAU_TOL:
            raise DomainError(f"tableau {self.name}: row sums of a do not match c")
        if self.kind not in ("explicit", "diagonally-implicit", "implicit"):
            raise DomainError(f"tableau {self.name}: unknown kind {self.kind!r}")
        if self.kind == "explicit" and np.any(np.abs(np.triu(a)) > 0):
            raise DomainError(f"tableau {self.name}: explicit requires strictly "
                              "lower-triangular a")
        if self.kind == "diagonally-implicit" and np.any(np.abs(np.triu(a, 1)) > 0):
            raise DomainError(f"tableau {self.name}: diagonally-implicit requires "
                              "lower-triangular a")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def stages(self) -> int:
        return self.b.size

    @classmethod
    def from_dict(cls, doc: dict) -> "ButcherTableau":
        if not isinstance(doc, dict):
            raise DomainError("tableau: top level must be an object")
        extra = set(doc) - {"name", "a", "b", "c", "kind"}
        if extra:
            raise DomainError(f"tableau: unknown keys {sorted(extra)}")
        try:
            return cls(name=doc["name"], a=doc["a"], b=doc["b"], c=doc["c"],
                       kind=doc["kind"])
        except KeyError as exc:
            raise DomainError(f"tableau: missing key {exc.args[0]!r}") from None

    @classmethod
    def from_file(cls, path) -> "ButcherTableau":
        """Read a JSON tableau; any error is a DomainError naming the file."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except (OSError, ValueError) as exc:
            raise DomainError(f"tableau file {path}: {exc}") from None


def _esdirk34() -> ButcherTableau:
    """4-stage, stiffly accurate, order-3 ESDIRK with the classic gamma.

    gamma is the middle root of g^3 - 3g^2 + 3g/2 - 1/6; the interior node
    c3 matches the published rounded tableau. The remaining entries follow
    from stage order 2 (stage 3) and the order-3 conditions, which makes
    the closed forms Lambda = (I - g z)^-3 (I + (1-3g) z + (1/2-3g+3g^2) z^2)
    hold to machine precision.
    """
    g = 0.4358665215
    for _ in range(4):
        f = ((g - 3.0) * g + 1.5) * g - 1.0 / 6.0
        fp = (3.0 * g - 6.0) * g + 1.5
        g = g - f / fp
    c3 = 0.468238744853137
    a32 = (c3 * c3 / 2 - g * c3) / (2 * g)
    a31 = c3 - g - a32
    b13 = np.linalg.solve(
        np.array([[1.0, 1.0, 1.0], [0.0, 2 * g, c3], [0.0, 4 * g * g, c3 * c3]]),
        np.array([1 - g, 0.5 - g, 1.0 / 3.0 - g]))
    a = [[0, 0, 0, 0],
         [g, g, 0, 0],
         [a31, a32, g, 0],
         [b13[0], b13[1], b13[2], g]]
    b = [b13[0], b13[1], b13[2], g]
    return ButcherTableau("esdirk34", a, b, [0, 2 * g, c3, 1.0],
                          "diagonally-implicit")


def _esdirk4() -> ButcherTableau:
    """6-stage, stiffly accurate, L-stable ESDIRK of order 4 (gamma = 1/4)."""
    d = 0.25
    s2 = np.sqrt(2.0)
    a = [
        [0, 0, 0, 0, 0, 0],
        [d, d, 0, 0, 0, 0],
        [(1 - s2) / 8, (1 - s2) / 8, d, 0, 0, 0],
        [(5 - 7 * s2) / 64, (5 - 7 * s2) / 64, 7 * (1 + s2) / 32, d, 0, 0],
        [(-13796 - 54539 * s2) / 125000, (-13796 - 54539 * s2) / 125000,
         (506605 + 132109 * s2) / 437500, 166 * (-97 + 376 * s2) / 109375, d, 0],
        [(1181 - 987 * s2) / 13782, (1181 - 987 * s2) / 13782,
         47 * (-267 + 1783 * s2) / 273343, -16 * (-22922 + 3525 * s2) / 571953,
         -15625 * (97 + 376 * s2) / 90749876, d],
    ]
    b = a[-1]
    c = [0, 0.5, (2 - s2) / 4, 5 / 8, 26 / 25, 1.0]
    return ButcherTableau("esdirk4", a, b, c, "diagonally-implicit")


def _named_tableaus() -> dict:
    return {
        "explicit-euler": ButcherTableau("explicit-euler", [[0.0]], [1.0], [0.0],
                                         "explicit"),
        "implicit-euler": ButcherTableau("implicit-euler", [[1.0]], [1.0], [1.0],
                                         "diagonally-implicit"),
        "explicit-trapezoidal": ButcherTableau(
            "explicit-trapezoidal", [[0, 0], [1.0, 0]], [0.5, 0.5], [0, 1.0],
            "explicit"),
        "implicit-trapezoidal": ButcherTableau(
            "implicit-trapezoidal", [[0, 0], [0.5, 0.5]], [0.5, 0.5], [0, 1.0],
            "diagonally-implicit"),
        "rk4": ButcherTableau(
            "rk4",
            [[0, 0, 0, 0], [0.5, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 1.0, 0]],
            [1 / 6, 1 / 3, 1 / 3, 1 / 6], [0, 0.5, 0.5, 1.0], "explicit"),
        "esdirk34": _esdirk34(),
        "esdirk4": _esdirk4(),
    }


TABLEAUS = _named_tableaus()
SCHEME_NAMES = tuple(sorted(TABLEAUS))


def named_tableau(name: str) -> ButcherTableau:
    try:
        return TABLEAUS[name]
    except KeyError:
        raise DomainError(
            f"unknown scheme {name!r}; choose from {', '.join(SCHEME_NAMES)}"
        ) from None


def _stage_error(exc: SingularMatrixError, what: str, tableau: ButcherTableau,
                 dt, G: Mat) -> SingularMatrixError:
    if np.ndim(dt):     # a step per generator: the singular one's
        dt = np.broadcast_to(dt, G.shape[:-2] + (1, 1))[
            exc.stack_index or ()][0, 0]
    return SingularMatrixError(
        f"singular {what} for scheme {tableau.name!r} at dt={dt:.6g}: {exc}",
        pivot_index=exc.pivot_index, stack_index=exc.stack_index)


def stage_coefficients(tableau: ButcherTableau, G: Mat, dt) -> Mat:
    """Constant stage coefficients Lambda_i with Lambda_i = I + dt sum_j
    a_ij G Lambda_j, solved once per (tableau, generator, step size), for
    each generator of a stack G (..., n, n): a stack (s, ..., n, n) over
    the s stages. dt is one step, or a stack (..., 1, 1) of steps that
    broadcasts against G.

    Each stage sums its nonzero dt a_ij G Lambda_j in order of j, each a
    product per matrix of the stack, so an explicit tableau gives every
    generator the bits of a call on its own. A diagonally implicit tableau
    factors I - dt d G once per distinct diagonal value d, one stacked
    solve, and reuses the inverses for every stage with that d. A fully
    implicit one makes one coupled stacked solve."""
    G = np.asarray(G, dtype=float)
    n = G.shape[-1]
    a = tableau.a
    s = tableau.stages
    eye = np.eye(n)
    if tableau.kind == "implicit":
        # coupled stages: (I - dt (a kron G)) X = [I; ...; I]
        big = np.eye(s * n) - dt * np.kron(a, G)
        try:
            X = solve(big, np.tile(eye, (s, 1)))
        except SingularMatrixError as exc:
            raise _stage_error(exc, "stage system", tableau, dt, G) from None
        return np.moveaxis(X.reshape(G.shape[:-2] + (s, n, n)), -3, 0)
    out = np.empty((s,) + G.shape)
    g_lam: dict[int, Mat] = {}          # G Lambda_j, formed at its first use
    inverses: dict[float, Mat] = {}     # (I - dt d G)^-1 per diagonal value d
    for i, row in enumerate(a.tolist()):
        rhs = eye
        for j in range(i):
            if row[j] != 0.0:
                if j not in g_lam:
                    g_lam[j] = G @ out[j]
                rhs = rhs + (dt * row[j]) * g_lam[j]
        d = row[i]
        if d != 0.0:
            if d not in inverses:
                try:
                    inverses[d] = solve(eye - (dt * d) * G, eye)
                except SingularMatrixError as exc:
                    raise _stage_error(exc, f"stage {i}", tableau,
                                       dt, G) from None
            rhs = inverses[d] @ rhs
        out[i] = rhs
    return out


def propagation(tableau: ButcherTableau, G: Mat, dt):
    """(Lambda, stages) for a generator stack G (..., n, n), stages as from
    `stage_coefficients`: Lambda = I + dt G sum_i b_i Lambda_i advances the
    state by dt."""
    G = np.asarray(G, dtype=float)
    stages = stage_coefficients(tableau, G, dt)
    theta = sum(bi * lam_i for bi, lam_i in zip(tableau.b, stages))
    return np.eye(G.shape[-1]) + dt * (G @ theta), stages


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """The one-step seed interval of every span, dt = h_p / n_steps."""

    scheme: str
    n_steps: int
    seed: Interval


def _quadrature(tableau: ButcherTableau, dt, terms: Mat) -> Mat:
    """dt sum_i b_i terms_i over a stack of per-stage terms: the tableau's
    own quadrature."""
    return dt * sum(bi * x for bi, x in zip(tableau.b, terms))


def build_coefficients(sys: DeqSystem, tableau: ButcherTableau,
                       n_steps: int) -> CoefficientSet:
    """Precompute the one-step interval of every span for N = n_steps
    substeps, dt_p = h_p / N on span p.

    One stacked propagation steps the span generators G_p, then G_p shifted
    by mu/2 and by mu, each span at its own dt_p: T, omega_q and omega_m.
    The integrals are the tableau's own quadrature dt sum_i b_i over the
    stages."""
    n_steps = operator.index(n_steps)
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    dt = sys.h_p[:, None, None] / n_steps
    eye = np.eye(sys.n_xu)
    lam, stages = propagation(tableau, np.stack([
        sys.G_p, sys.G_p - (sys.mu / 2.0) * eye, sys.G_p - sys.mu * eye]), dt)
    L_q, L_m = stages[:, 1], stages[:, 2]
    X_q = _quadrature(tableau, dt, L_q.swapaxes(-1, -2) @ sys.Qbar_p @ L_q)
    Y_m = _quadrature(tableau, dt, L_m.swapaxes(-1, -2) @ sys.Mbar_p)
    seed = Interval(T=lam[0], omega_q=lam[1], X_q=symmetrize(X_q),
                    omega_m=lam[2], Y_m=Y_m)
    return CoefficientSet(scheme=tableau.name, n_steps=n_steps, seed=seed)


def _chunk_powers(P: np.ndarray, sizes) -> tuple[np.ndarray, dict]:
    """The stack D_i = P^i - I (i < C) and, per chunk size m in `sizes`,
    the advance P^m - I and the power sum m I + sum_{i<m} D_i; per matrix
    of P when P is a stack."""
    eye = np.eye(P.shape[-1])
    stack, step = _powers(P - eye)
    return stack, {m: ((stack[m] if m < len(stack) else step).copy(),
                       m * eye + stack[:m].sum(axis=0)) for m in set(sizes)}


def integrate(coeffs: CoefficientSet, sys: DeqSystem) -> CoreResult:
    """Fold the seed of every span N times from the identity, one chunk of
    m <= C = 64 steps per iteration, from D_i = P^i - I (i < C) and P^C - I
    built once per seed transition P (the stacks T, omega_q and omega_m). A
    chunk's transitions (I + D_i) base and their increments to X_q are
    batched products over the stack of omega_q: one small product per
    step and span, which BLAS keeps on the calling thread. Y_m takes the
    power sum, and each base (T with its input integrals) advances by P^m.
    """
    seed, n = coeffs.seed, coeffs.n_steps
    sizes = [_CHUNK] * (n // _CHUNK) + [n % _CHUNK] * (n % _CHUNK > 0)
    pow_q, tq = _chunk_powers(seed.omega_q, sizes)
    tt = _chunk_powers(seed.T, sizes)[1]
    tm = _chunk_powers(seed.omega_m, sizes)[1]
    T = W_q = W_m = np.broadcast_to(np.eye(sys.n_xu), seed.T.shape)
    X_q, Y_m = np.zeros_like(seed.X_q), np.zeros_like(seed.Y_m)
    for m in sizes:
        Wk = W_q + pow_q[:m] @ W_q                   # omega_q^{k+i}
        X_q = X_q + (Wk.swapaxes(-1, -2) @ seed.X_q @ Wk).sum(axis=0)
        Y_m = Y_m + W_m.swapaxes(-1, -2) @ (
            tm[m][1].swapaxes(-1, -2) @ seed.Y_m)
        T = T + tt[m][0] @ T
        W_q = W_q + tq[m][0] @ W_q
        W_m = W_m + tm[m][0] @ W_m
    return core_result(sys, Interval(T, W_q, X_q, W_m, Y_m), "fixed",
                       scheme=coeffs.scheme, steps=coeffs.n_steps)


def discretize_fixed(sys: DeqSystem, tableau: ButcherTableau,
                     n_steps: int) -> CoreResult:
    """Convenience wrapper: build coefficients, then integrate."""
    return integrate(build_coefficients(sys, tableau, n_steps), sys)
