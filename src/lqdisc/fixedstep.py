"""Fixed-time-step Runge-Kutta discretization with constant coefficients.

Because every right-hand side in the system is linear with a constant
generator, the Runge-Kutta stage combinations collapse into constant
matrices (Lambda, Theta, Omega...) that are computed once per (tableau,
step size). They form the one-step seed `Interval`, which `integrate`
folds N times with `compose`: no expm and no linear solves inside the
propagation loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .matcore import (DimensionError, DomainError, Mat, SingularMatrixError,
                      solve, symmetrize)
from .exactdefs import (CoreResult, DeqSystem, Interval, compose,
                        core_result, projected_identity)

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
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        c = np.asarray(self.c, dtype=float).reshape(-1)
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
        extra = set(doc) - {"name", "a", "b", "c", "kind"}
        if extra:
            raise DomainError(f"tableau file: unknown keys {sorted(extra)}")
        try:
            return cls(name=doc["name"], a=doc["a"], b=doc["b"], c=doc["c"],
                       kind=doc["kind"])
        except KeyError as exc:
            raise DomainError(f"tableau file: missing key {exc.args[0]!r}") from None

    @classmethod
    def from_file(cls, path) -> "ButcherTableau":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


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
    t = {
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
    return t


TABLEAUS = _named_tableaus()
SCHEME_NAMES = tuple(sorted(TABLEAUS))


def named_tableau(name: str) -> ButcherTableau:
    try:
        return TABLEAUS[name]
    except KeyError:
        raise DomainError(
            f"unknown scheme {name!r}; choose from {', '.join(SCHEME_NAMES)}"
        ) from None


def stage_coefficients(tableau: ButcherTableau, G: Mat, dt: float) -> list[Mat]:
    """Constant stage coefficients Lambda_i with Lambda_i = I + dt sum_j
    a_ij G Lambda_j, solved once per (tableau, generator, step size)."""
    G = np.asarray(G, dtype=float)
    n = G.shape[0]
    a = tableau.a
    s = tableau.stages
    eye = np.eye(n)
    if tableau.kind == "implicit":
        # coupled stages: (I - dt (a kron G)) X = [I; ...; I]
        big = np.eye(s * n) - dt * np.kron(a, G)
        rhs = np.tile(eye, (s, 1))
        try:
            X = solve(big, rhs)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"singular stage system for scheme {tableau.name!r} at "
                f"dt={dt:.6g}: {exc}", pivot_index=exc.pivot_index) from None
        return [X[i * n:(i + 1) * n, :] for i in range(s)]
    out: list[Mat] = []
    for i in range(s):
        rhs = eye.copy()
        for j in range(i):
            if a[i, j] != 0.0:
                rhs = rhs + (dt * a[i, j]) * (G @ out[j])
        if a[i, i] != 0.0:
            try:
                lam_i = solve(eye - (dt * a[i, i]) * G, rhs)
            except SingularMatrixError as exc:
                raise SingularMatrixError(
                    f"singular stage {i} for scheme {tableau.name!r} at "
                    f"dt={dt:.6g}: {exc}", pivot_index=exc.pivot_index) from None
        else:
            lam_i = rhs
        out.append(lam_i)
    return out


def propagation(tableau: ButcherTableau, G: Mat, dt: float):
    """(Lambda, Theta, stage list) for one generator: Lambda advances the
    state by dt, Theta = sum_i b_i Lambda_i weights the stage values."""
    G = np.asarray(G, dtype=float)
    stages = stage_coefficients(tableau, G, dt)
    n = G.shape[0]
    theta = np.zeros((n, n))
    for bi, lam_i in zip(tableau.b, stages):
        theta = theta + bi * lam_i
    lam = np.eye(n) + dt * (G @ theta)
    return lam, theta, stages


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """The one-step seed interval at dt = Ts / n_steps, immutable and
    shareable."""

    scheme: str
    dt: float
    n_steps: int
    seed: Interval


def build_coefficients(sys: DeqSystem, tableau: ButcherTableau,
                       n_steps: int) -> CoefficientSet:
    """Precompute the one-step interval for N = n_steps substeps."""
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    dt = sys.Ts / n_steps
    lam, theta1, stages_a = propagation(tableau, sys.A_c, dt)
    omega_q, _, stages_q = propagation(tableau, sys.H_cq, dt)
    omega_m, _, stages_m = propagation(tableau, sys.H_cm, dt)

    S = sys.E1.T @ sys.Qbar_c @ sys.E1
    q_c_t = np.zeros_like(S)
    for bi, om in zip(tableau.b, stages_q):
        q_c_t = q_c_t + bi * (om.T @ S @ om)
    q_c_t = symmetrize(dt * q_c_t)

    ME = sys.E1.T @ sys.Mbar_c
    m_c_t = np.zeros_like(ME)
    for bi, om in zip(tableau.b, stages_m):
        m_c_t = m_c_t + bi * (om.T @ ME)
    m_c_t = dt * m_c_t

    r_c = None
    if sys.G_c is not None:
        GG = sys.G_c @ sys.G_c.T
        r_c = np.zeros_like(GG)
        for bi, li in zip(tableau.b, stages_a):
            r_c = r_c + bi * (li @ GG @ li.T)
        r_c = symmetrize(dt * r_c)

    lam_v = b_2 = None
    if sys.delay:
        lam_v, theta2, _ = propagation(tableau, sys.V @ sys.A_c, dt)
        b_2 = theta2 @ (dt * sys.B_2c_bar)

    seed = Interval(A=lam, B_1=theta1 @ (dt * sys.B_1c), A_v=lam_v, B_2=b_2,
                    omega_q=omega_q, X_q=q_c_t, omega_m=omega_m, Y_m=m_c_t,
                    R=r_c)
    return CoefficientSet(scheme=tableau.name, dt=dt, n_steps=n_steps,
                          seed=seed)


def integrate(coeffs: CoefficientSet, sys: DeqSystem) -> CoreResult:
    """Fold the seed N times from the E_2-projected identity; a fixed
    number of multiplies per step."""
    iv = projected_identity(sys, coeffs.seed)
    for _ in range(coeffs.n_steps):
        iv = compose(iv, coeffs.seed)
    return core_result(iv, "fixed", scheme=coeffs.scheme,
                       steps=coeffs.n_steps)


def discretize_fixed(sys: DeqSystem, tableau: ButcherTableau,
                     n_steps: int) -> CoreResult:
    """Convenience wrapper: build coefficients, then integrate."""
    return integrate(build_coefficients(sys, tableau, n_steps), sys)
