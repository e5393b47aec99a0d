"""Fixed-time-step Runge-Kutta discretization with constant coefficients.

Because every right-hand side in the system is linear with a constant
generator, the Runge-Kutta stage combinations collapse into constant
matrices (Lambda, Omega...) that are computed once per (tableau, step
size). The stage kernels take a stack of same-size generators, each with
its own step, so one stacked propagation steps every span generator G_p
and its discounted shifts at once, N steps of h_p/N on span p. The
coefficients form the one-step seed `Interval` of every span, which
`integrate` folds N times. The transitions and M are geometric sums of
the seed and come in closed form from its power differences P^i - I; Q
is formed step by step, 64 steps per iteration, each step's increment a
block of one Gram product of the seed's signed factor, so the fold stays
O(N). No expm and no linear solves inside the propagation loop. A step
outside the scheme's stability region, where the exact flow decays, is
refused with NumericalError.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .matcore import (DimensionError, DomainError, Mat, NumericalError,
                      SingularMatrixError, solve, symmetrize)
from .exactdefs import (_CHUNK, _SLAB, CoreResult, DeqSystem, Interval,
                        _power_end, _power_sum, _powers, core_result)

_TABLEAU_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """Runge-Kutta coefficients (a, b, c) plus a structural kind tag.

    `stability` holds the coefficients (num, den) of the stability function
    R(z) = 1 + z b' (I - z a)^-1 1 = 1 + num(z) / den(z): den (z^0 .. z^s)
    is det(I - z a), from the eigenvalues of a (its diagonal when a is
    lower-triangular), and num (z^1 .. z^s) is the polynomial w den, from
    w's Taylor coefficients b' a^(k-1) 1, k <= s. Near |R| = 1 on Re z < 0
    this is as accurate as a solve with I - z a, or more: at |z| near 1e8
    a solve puts implicit-trapezoidal's |R| 1e-7 off. They are formed with
    the tableau, once, not by each build."""

    name: str
    a: Mat
    b: Mat
    c: Mat
    kind: str
    stability: tuple = field(init=False, repr=False)

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
        den = np.poly(a if self.kind == "implicit" else np.diag(a))
        taylor = [b @ np.linalg.matrix_power(a, k) @ np.ones(s)
                  for k in range(s)]
        object.__setattr__(self, "stability",
                           (np.convolve(taylor, den)[:s], den))

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


def _check_stability(tableau: ButcherTableau, sys: DeqSystem, dt) -> None:
    """Raise NumericalError where |R(z)| >= 1 while Re z < 0, for
    z = dt_p (lambda - shift) over the steps dt_p of the spans, the
    eigenvalues lambda of every G_p (those of A_c, and 0) and the shifts
    0, mu/2 and mu: there the exact flow decays and the step does not.
    R(z) = 1 + w is the tableau's stability function, w = num(z) / den(z)
    from its polynomial coefficients (`ButcherTableau`'s `stability`). w is
    formed directly, so a tiny w takes no rounding from 1 + w: |1 + w| >=
    1 is |w|^2 >= -2 Re w, tested as |w| min(|w|, 2) >= -2 Re w, since a
    |w| above 2 is outside anyway and is not squared."""
    lam = np.append(np.linalg.eigvals(sys.A_c), 0.0)
    shifts = np.array([0.0, sys.mu / 2.0, sys.mu])
    z = dt[:, None, None] * (lam[:, None] - shifts)
    num, den = tableau.stability
    V = np.cumprod(np.repeat(z[..., None], tableau.stages, -1), -1)  # z^k
    w = (V @ num) / (1.0 + V @ den[1:])
    a = np.abs(w)
    outside = (z.real < 0) & (a * np.minimum(a, 2.0) >= -2.0 * w.real)
    if outside.any():
        p, j, i = np.argwhere(outside)[0]
        raise NumericalError(
            f"step outside the stability region of scheme {tableau.name!r} "
            f"at dt={dt[p]:.6g}: eigenvalue {lam[j]:.6g} with shift "
            f"{shifts[i]:.6g} gives z={z[p, j, i]:.6g} with |R(z)| = "
            f"{abs(1.0 + w[p, j, i]):.6g} >= 1")


def build_coefficients(sys: DeqSystem, tableau: ButcherTableau,
                       n_steps: int) -> CoefficientSet:
    """Precompute the one-step interval of every span for N = n_steps
    substeps, dt_p = h_p / N on span p.

    One stacked propagation steps the span generators G_p, then G_p shifted
    by mu/2 and by mu, each span at its own dt_p: T, omega_q and omega_m.
    The integrals are the tableau's own quadrature dt sum_i b_i over the
    stages.

    Raises NumericalError when a step leaves the scheme's stability region
    where the exact flow decays (`_check_stability`)."""
    n_steps = operator.index(n_steps)
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    dt = sys.h_p[:, None, None] / n_steps
    lam, stages = propagation(tableau, sys.generators, dt)
    _check_stability(tableau, sys, dt[:, 0, 0])
    L_q, L_m = stages[:, 1], stages[:, 2]
    X_q = _quadrature(tableau, dt, L_q.swapaxes(-1, -2) @ sys.Qbar_p @ L_q)
    Y_m = _quadrature(tableau, dt, L_m.swapaxes(-1, -2) @ sys.Mbar_p)
    seed = Interval(T=lam[0], omega_q=lam[1], X_q=symmetrize(X_q),
                    omega_m=lam[2], Y_m=Y_m)
    return CoefficientSet(scheme=tableau.name, n_steps=n_steps, seed=seed)


def integrate(coeffs: CoefficientSet, sys: DeqSystem) -> CoreResult:
    """Fold the seed of every span N times from the identity.

    T, omega_m and Y_m are geometric in the seed transitions P, each
    formed from the differences P^i - I: T^N - I by binary powering
    (`_power_end`), and omega_m^N - I with the power sum of Y_m =
    (N I + sum_{k<N} (P_m^k - I))' Y_m,seed from `_power_sum`. X_q =
    sum_{k<N} P_q^k' X_q,seed P_q^k is formed step by step, m <= C = 64
    steps per iteration. `eigh` factors the seed once, X_q,seed =
    F' diag(s) F with s the signs of its eigenvalues (rounding and
    negative weights can make it indefinite, so Cholesky may fail), and
    the blocks (F P_q^i)' (i < C) are written once, side by side, from the
    `_powers` of P_q, whose stack is then dropped. A chunk from the base
    W = P_q^k adds Z' diag(s) Z, Z' = W' [(F P_q^i)' ...]: one factor
    block per step, so the fold stays O(N). Both products are split into
    blocks of whole steps of at most _SLAB = 2^18 multiply-adds each, the
    size OpenBLAS runs on the calling thread: one block per chunk up to
    n_xu = 16, one step per block from n_xu = 41. Z' and its signed copy
    are allocated once per call and filled in place by every block, and
    the views of a whole chunk's blocks are made once per call. A
    non-finite entry of the seed's X_q is NaN in X_q (`eigh` factors the
    seed with it zeroed).
    """
    seed, n, n_xu = coeffs.seed, coeffs.n_steps, sys.n_xu
    eye = np.eye(n_xu)
    sum_m, end_m = _power_sum(seed.omega_m - eye, n)
    end_t = _power_end(seed.T - eye, n)
    finite = np.isfinite(seed.X_q)      # eigh may fail on inf or NaN
    lam, vec = np.linalg.eigh(np.where(finite, seed.X_q, 0.0))
    Ft = vec * np.sqrt(np.abs(lam))[..., None, :]        # F'
    pow_q, step_q = _powers(seed.omega_q - eye, min(_CHUNK, n + 1))
    c = min(_CHUNK, n)
    cols = np.empty(Ft.shape[:-1] + (c, n_xu))      # [(F P_q^i)' ...]
    blocks = np.moveaxis(cols, -2, 0)               # block i: (F P_q^i)'
    np.matmul(pow_q[:c].swapaxes(-1, -2), Ft, out=blocks)
    blocks += Ft
    cols = cols.reshape(Ft.shape[:-1] + (c * n_xu,))
    last = step_q if n % _CHUNK == 0 else pow_q[n % _CHUNK].copy()
    del pow_q
    width = min(max(1, _SLAB // n_xu ** 3), c) * n_xu   # columns per product
    Zt = np.empty(lam.size * width)     # Z' and Z' diag(s) of one block,
    Zs = np.empty_like(Zt)              # contiguous whatever its width
    signs = np.tile(np.sign(lam), width // n_xu)[..., None, :]

    def views(m):       # columns, Z', Z' diag(s) and signs of each block
        for j in range(0, m, width):
            w = min(width, m - j)
            z, zs = (b[:lam.size * w].reshape(lam.shape + (w,))
                     for b in (Zt, Zs))
            yield cols[..., j:j + w], z, zs, signs[..., :w]
    chunk = list(views(c * n_xu))       # the same for every whole chunk
    W_q = np.broadcast_to(eye, seed.omega_q.shape)
    X_q = np.where(finite, 0.0, np.nan)
    for k in range(0, n, _CHUNK):
        Wt = W_q.swapaxes(-1, -2)
        for col, z, zs, s in chunk if n - k >= c else views((n - k) * n_xu):
            np.matmul(Wt, col, out=z)
            np.multiply(z, s, out=zs)
            X_q += zs @ z.swapaxes(-1, -2)
        W_q = W_q + (step_q if n - k >= _CHUNK else last) @ W_q
    Y_m = (n * eye + sum_m).swapaxes(-1, -2) @ seed.Y_m
    return core_result(sys, Interval(eye + end_t, W_q, X_q, eye + end_m,
                                     Y_m), "fixed",
                       scheme=coeffs.scheme, steps=coeffs.n_steps)


def discretize_fixed(sys: DeqSystem, tableau: ButcherTableau,
                     n_steps: int) -> CoreResult:
    """Convenience wrapper: build coefficients, then integrate."""
    return integrate(build_coefficients(sys, tableau, n_steps), sys)
