"""Exact definitions of the discretization targets and a quadrature oracle.

The targets over one sampling interval are

    A(t)    = e^{A_c t}
    A_v(t)  = e^{V A_c t}
    B_1(t)  = int_0^t e^{A_c s} ds  B_1c
    B_2(t)  = int_0^t e^{V A_c s} ds  B_2c_bar
    Q(t)    = int_0^t e^{-mu s} Gamma(s)' Qbar_c Gamma(s) ds
    M(t)    = int_0^t e^{-mu s} Gamma(s)' Mbar_c ds
    R_ww(t) = int_0^t e^{A_c s} G_c G_c' e^{A_c' s} ds

with Gamma(s) = E_1 e^{H_c s} E_2 = [[A(s), B_o(s)], [0, I]]. The system
matrices come in two shapes: a single block [[A_c, B_c], [0, 0]] for plain
plants, and the three-block form (H_1c, H_2c, H_3c stacked diagonally with
combination selectors E_1 = [I, I, -I], E_2 = [I; I; I]) for delayed plants.

Every method computes the same object, an `Interval`: the transitions
and discounted integrals over one span of time. Two spans compose by one
law (`compose`), so the methods differ only in their seed interval (one
Runge-Kutta step, or the exact exponentials over Ts/2^s) and in how they
compose it: `fixed` folds the seed N times, `doubling` and `expm` power it.

`oracle_quadrature` evaluates every target by matrix exponentials at
composite-Simpson nodes; it is the slow ground truth the fast methods are
tested against, and uses neither seeds nor `compose`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matcore import DimensionError, DomainError, Mat, block, expm, symmetrize
from .model import ContinuousStateSpace, CostSpec, DelayRealization


@dataclass(frozen=True, eq=False)
class DeqSystem:
    """Assembled generators of the discretization ODE system."""

    delay: bool
    A_c: Mat
    B_1c: Mat
    B_2c_bar: Mat
    V: Mat
    C_c: Mat
    D_o: Mat
    mu: float
    Ts: float
    H_c: Mat
    H_cq: Mat
    H_cm: Mat
    E1: Mat
    E2: Mat
    Qbar_c: Mat
    Mbar_c: Mat
    H_1c: Mat | None = None
    H_2c: Mat | None = None
    H_3c: Mat | None = None
    G_c: Mat | None = None
    source: object = None

    @property
    def n_x(self):
        return self.A_c.shape[0]

    @property
    def n_in(self):
        """Input columns of B_1c: n_u for plain plants, (m_bar+1) n_u delayed."""
        return self.B_1c.shape[1]

    @property
    def n_xu(self):
        return self.n_x + self.n_in

    @property
    def n_h(self):
        """Size of the stacked generator H_c (3 n_xu delayed, n_xu plain)."""
        return self.H_c.shape[0]

    @property
    def n_z(self):
        return self.C_c.shape[0]

    def gamma(self, t: float) -> Mat:
        """Gamma(t) = E_1 e^{H_c t} E_2, the [[A, B_o], [0, I]] transition."""
        if self.delay:
            return expm(self.H_1c * t) + expm(self.H_2c * t) - expm(self.H_3c * t)
        return expm(self.H_c * t)

    def h_q(self, t: float) -> Mat:
        return expm(self.H_cq * t)

    def h_m(self, t: float) -> Mat:
        return expm(self.H_cm * t)

    def gamma_q(self, t: float) -> Mat:
        return self.E1 @ self.h_q(t) @ self.E2

    def gamma_m(self, t: float) -> Mat:
        return self.E1 @ self.h_m(t) @ self.E2


@dataclass(frozen=True, eq=False)
class CoreResult:
    """Discretization output (A, B_o, Q, M, optional R_ww) with provenance."""

    A: Mat
    B_o: Mat
    Q: Mat
    M: Mat
    R_ww: Mat | None
    method: str
    scheme: str | None = None
    steps: int | None = None
    doublings: int | None = None   # squarings: j for doubling, s for expm


class Interval(NamedTuple):
    """Transitions and discounted integrals over one span of time h.

    Exact for the expm seed; a Runge-Kutta step's approximation for the
    fixed-step seed. A_v and B_2 are None for plain plants.

    A, A_v        e^{A_c h} and e^{V A_c h}
    B_1, B_2      int_0^h e^{A_c s} ds B_1c, int_0^h e^{V A_c s} ds B_2c_bar
    omega_q       e^{H_cq h}, and omega_m = e^{H_cm h}
    X_q           int_0^h omega_q(s)' S omega_q(s) ds, S = E_1' Qbar_c E_1
    Y_m           int_0^h omega_m(s)' ds E_1' Mbar_c
    R             int_0^h A(s) G_c G_c' A(s)' ds (None without diffusion)

    In the E_2-projected form omega_q and omega_m carry a right factor E_2,
    so X_q and Y_m are already Q and M.
    """

    A: Mat
    B_1: Mat
    A_v: Mat | None
    B_2: Mat | None
    omega_q: Mat
    X_q: Mat
    omega_m: Mat
    Y_m: Mat
    R: Mat | None


def compose(a: Interval, b: Interval) -> Interval:
    """The span `a` followed by the span `b`.

    The integrals over `b` are carried back through the transitions of
    `a`; `a` may be E_2-projected, `b` may not.
    """
    return Interval(
        A=b.A @ a.A,
        B_1=a.B_1 + a.A @ b.B_1,
        A_v=None if a.A_v is None else b.A_v @ a.A_v,
        B_2=None if a.B_2 is None else a.B_2 + a.A_v @ b.B_2,
        omega_q=b.omega_q @ a.omega_q,
        X_q=a.X_q + a.omega_q.T @ b.X_q @ a.omega_q,
        omega_m=b.omega_m @ a.omega_m,
        Y_m=a.Y_m + a.omega_m.T @ b.Y_m,
        R=None if a.R is None else a.R + a.A @ b.R @ a.A.T)


def power(seed: Interval, n: int) -> Interval:
    """`seed` composed with itself n >= 1 times by binary powering:
    floor(log2 n) squarings and one more compose per further set bit."""
    if n < 1:
        raise DomainError(f"power needs n >= 1, got {n}")
    out = None
    while True:
        if n & 1:
            out = seed if out is None else compose(out, seed)
        n >>= 1
        if not n:
            return out
        seed = compose(seed, seed)


def projected_identity(sys: DeqSystem, like: Interval) -> Interval:
    """The zero-length span in E_2-projected form, with the optional parts
    of `like`. Folding from it carries omega E_2 (n_h x n_xu) instead of
    omega; composing it before a full interval projects that interval."""
    eye = np.eye(sys.n_x)
    zero_b = np.zeros((sys.n_x, sys.n_in))
    return Interval(
        A=eye, B_1=zero_b,
        A_v=None if like.A_v is None else eye,
        B_2=None if like.B_2 is None else zero_b,
        omega_q=sys.E2, X_q=np.zeros((sys.n_xu, sys.n_xu)),
        omega_m=sys.E2, Y_m=np.zeros((sys.n_xu, sys.n_z)),
        R=None if like.R is None else np.zeros((sys.n_x, sys.n_x)))


def core_result(iv: Interval, method: str, **provenance) -> CoreResult:
    """Read (A, B_o, Q, M, R_ww) off an E_2-projected interval."""
    return CoreResult(
        A=iv.A, B_o=iv.B_1 if iv.B_2 is None else iv.B_1 + iv.B_2,
        Q=symmetrize(iv.X_q), M=iv.Y_m,
        R_ww=None if iv.R is None else symmetrize(iv.R),
        method=method, **provenance)


def build_deq(plant, cost: CostSpec) -> DeqSystem:
    """Assemble the ODE-system generators for a plant and cost.

    A plain ContinuousStateSpace yields the single-block structure; a
    DelayRealization yields the three-block delayed structure. Zero delays
    through the delayed structure collapse to the plain one (V = 0,
    B_2c_bar = 0), which is checked by tests rather than special-cased here.
    """
    if cost.mu < 0:
        raise DomainError(f"discount must be >= 0, got {cost.mu}")
    if isinstance(plant, DelayRealization) and plant.Ts != cost.Ts:
        raise DomainError(f"delays were realized at Ts={plant.Ts}, but the "
                          f"cost has Ts={cost.Ts}")
    if isinstance(plant, ContinuousStateSpace):
        if plant.delays is not None and any(t > 0 for t in plant.delays):
            raise DimensionError(
                "state space has nonzero delays; realize_delays(...) first")
        delay = False
        A_c, B_1c, C_c, D_o = plant.A_c, plant.B_c, plant.C_c, plant.D_c
        V = np.zeros_like(A_c)
        B_2c_bar = np.zeros_like(B_1c)
        G_c = plant.G_c
    elif isinstance(plant, DelayRealization):
        delay = True
        A_c, B_1c, C_c, D_o = plant.A_c, plant.B_1c, plant.C_c, plant.D_o
        V = plant.V
        B_2c_bar = plant.B_2c_bar
        G_c = plant.G_c
    else:
        raise DimensionError(f"cannot build system from {type(plant).__name__}")

    n_x, n_in = B_1c.shape
    n_xu = n_x + n_in
    if C_c.shape[0] != cost.n_z:
        raise DimensionError(
            f"plant has {C_c.shape[0]} outputs but Q_c is {cost.n_z}x{cost.n_z}")

    zx = np.zeros((n_in, n_x))
    zu = np.zeros((n_in, n_in))
    H_1c = block([[A_c, B_1c], [zx, zu]])
    H_2c = block([[V @ A_c, B_2c_bar], [zx, zu]])
    H_3c = block([[V @ A_c, np.zeros_like(B_1c)], [zx, zu]])
    if delay:
        zh = np.zeros((n_xu, n_xu))
        H_c = block([[H_1c, zh, zh], [zh, H_2c, zh], [zh, zh, H_3c]])
        eye = np.eye(n_xu)
        E1 = np.hstack([eye, eye, -eye])
        E2 = np.vstack([eye, eye, eye])
    else:
        H_c = H_1c
        E1 = np.eye(n_xu)
        E2 = np.eye(n_xu)
    n_h = H_c.shape[0]
    H_cq = H_c - (cost.mu / 2.0) * np.eye(n_h)
    H_cm = H_c - cost.mu * np.eye(n_h)

    CD = np.hstack([C_c, D_o])
    Mbar_c = -CD.T @ cost.Q_c
    Qbar_c = symmetrize(-Mbar_c @ CD)  # = CD' Q_c CD

    return DeqSystem(delay=delay, A_c=A_c, B_1c=B_1c, B_2c_bar=B_2c_bar, V=V,
                     C_c=C_c, D_o=D_o, mu=cost.mu, Ts=cost.Ts, H_c=H_c,
                     H_cq=H_cq, H_cm=H_cm, E1=E1, E2=E2, Qbar_c=Qbar_c,
                     Mbar_c=Mbar_c,
                     H_1c=H_1c if delay else None,
                     H_2c=H_2c if delay else None,
                     H_3c=H_3c if delay else None,
                     G_c=G_c, source=plant)


def _simpson_weights(panels: int, h: float) -> np.ndarray:
    w = np.full(panels + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def oracle_quadrature(sys: DeqSystem, t: float | None = None,
                      panels: int = 4096, G_c: Mat | None = None
                      ) -> CoreResult:
    """Evaluate every target at t by composite Simpson over expm nodes.

    Error decays as O(panels^-4). `G_c` overrides the system's diffusion
    matrix; R_ww is None when neither is given.
    """
    if panels < 2 or panels % 2:
        raise DomainError(f"panels must be even and >= 2, got {panels}")
    if t is None:
        t = sys.Ts
    if G_c is None:
        G_c = sys.G_c
    h = t / panels
    w = _simpson_weights(panels, h)
    disc = np.exp(-sys.mu * h * np.arange(panels + 1))

    n_x = sys.n_x
    PA = expm(sys.A_c * h)
    PV = expm(sys.V @ sys.A_c * h)
    PH = expm(sys.H_c * h)
    GG = G_c @ G_c.T if G_c is not None else None

    XA = np.eye(n_x)                     # e^{A_c s_k}
    XV = np.eye(n_x)                     # e^{V A_c s_k}
    XH = np.eye(sys.n_h)                 # e^{H_c s_k}
    SA = np.zeros((n_x, n_x))            # int e^{A_c s} ds
    SV = np.zeros((n_x, n_x))
    SQ = np.zeros((sys.n_xu, sys.n_xu))
    SM = np.zeros((sys.n_xu, sys.n_z))
    SR = np.zeros((n_x, n_x)) if GG is not None else None

    for k in range(panels + 1):
        SA += w[k] * XA
        SV += w[k] * XV
        G = sys.E1 @ XH @ sys.E2
        SQ += (w[k] * disc[k]) * (G.T @ (sys.Qbar_c @ G))
        SM += (w[k] * disc[k]) * (G.T @ sys.Mbar_c)
        if GG is not None:
            SR += w[k] * (XA @ GG @ XA.T)
        if k < panels:
            XA = XA @ PA
            XV = XV @ PV
            XH = XH @ PH

    return CoreResult(A=XA, B_o=SA @ sys.B_1c + SV @ sys.B_2c_bar,
                      Q=symmetrize(SQ), M=SM,
                      R_ww=symmetrize(SR) if SR is not None else None,
                      method="oracle", steps=panels)


def b_alternative(A_c: Mat, B_c: Mat, Ts: float, N: int) -> Mat:
    """Integrate dB/dt = A_c B + B_c, B(0) = 0, with N classic-RK4 steps.

    The other form of the same integral (dB/dt = e^{A_c t} B_c) is what the
    fixed-step method uses; keeping both routes lets tests cross-check them.
    """
    A_c = np.asarray(A_c, dtype=float)
    B_c = np.asarray(B_c, dtype=float)
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    h = Ts / N
    B = np.zeros_like(B_c)
    for _ in range(N):
        k1 = A_c @ B + B_c
        k2 = A_c @ (B + 0.5 * h * k1) + B_c
        k3 = A_c @ (B + 0.5 * h * k2) + B_c
        k4 = A_c @ (B + h * k3) + B_c
        B = B + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return B
