"""Exact definitions of the discretization targets and a quadrature oracle.

The targets over one sampling interval are

    T(t)    = e^{H_j t} = [[A_j(t), B_j(t)], [0, I]], H_j the input blocks
    Q(t)    = int_0^t e^{-mu s} Gamma(s)' Qbar_c Gamma(s) ds
    M(t)    = int_0^t e^{-mu s} Gamma(s)' Mbar_c ds
    R_ww(t) = int_0^t e^{A_c s} G_c G_c' e^{A_c' s} ds

with Gamma(s) = E_1 e^{H_c s} E_2 = [[A(s), B_o(s)], [0, I]]. The system
matrices come in two shapes: a single block [[A_c, B_1c], [0, 0]] over the
lifted input when every delay is a whole number of samples (or there is
none), and the three-block form (H_1c, H_2c, H_3c stacked diagonally with
combination selectors E_1 = [I, I, -I], E_2 = [I; I; I]) when a delay has
a fractional part. Its input blocks are H_1c and H_2c (H_3c has none),
so A = A_0 = e^{A_c t} and B_o = sum_j B_j.

Every method computes the same object, an `Interval`: the transitions
and discounted integrals over one span of time. Two spans compose by one
law (`compose`), so the methods differ only in their seed interval (one
Runge-Kutta step, or the exact exponentials over Ts/2^s) and in how they
compose it: `fixed` folds the seed N times, `doubling` and `expm` power it.
R_ww has no discount, delay or input: `core_result` gives every method the
one `rww_expm` over Ts, exact to expm accuracy whatever the scheme.

`oracle_quadrature` evaluates every target by matrix exponentials at
composite-Simpson nodes, each node a two-level power of a node
exponential (a chunk base times an inner power). One Python iteration
covers C^2 = 4096 nodes and memory is O(C n_h^2) for any panel count. It
is the ground truth the methods are tested against, and uses neither
seeds nor `compose`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matcore import (DimensionError, DomainError, Mat, NumericalError,
                      _require_finite, asmat, expm, inf_norm, symmetrize)
from .model import CostSpec, realize_plant


@dataclass(frozen=True, eq=False)
class DeqSystem:
    """Assembled generators of the discretization ODE system.

    With a fractional delay (V != 0) H_c is the three-block stack of H_1c,
    H_2c and H_3c, each n_xu x n_xu. Otherwise H_c is the single block
    [[A_c, B_1c], [0, 0]] and E_1 = E_2 = I.
    """

    A_c: Mat
    B_1c: Mat
    B_2c_bar: Mat
    V: Mat
    C_c: Mat
    mu: float
    Ts: float
    H_c: Mat
    H_cq: Mat
    H_cm: Mat
    E1: Mat
    E2: Mat
    Qbar_c: Mat
    Mbar_c: Mat
    G_c: Mat | None = None

    @property
    def n_x(self):
        return self.A_c.shape[0]

    @property
    def n_in(self):
        """Input columns of B_1c: the (m_bar+1) n_u lifted input slots."""
        return self.B_1c.shape[1]

    @property
    def n_xu(self):
        return self.n_x + self.n_in

    @property
    def n_h(self):
        """Size of the generator H_c: 3 n_xu with a fractional delay,
        n_xu = n_x + (m_bar+1) n_u otherwise."""
        return self.H_c.shape[0]

    @property
    def n_z(self):
        return self.C_c.shape[0]

    @property
    def delay(self) -> bool:
        """True when H_c is the three-block stack of a fractional delay."""
        return self.n_h == 3 * self.n_xu

    def diagonal_blocks(self, X: Mat) -> np.ndarray:
        """The n_xu x n_xu diagonal blocks of an n_h x n_h matrix X (H_c,
        H_cq or H_cm): (n_h / n_xu, n_xu, n_xu). For H_c, H_1c, H_2c and
        H_3c with a fractional delay; H_c itself otherwise."""
        n = self.n_xu
        return np.stack([X[j * n:(j + 1) * n, j * n:(j + 1) * n]
                         for j in range(self.n_h // n)])

    def input_blocks(self, X: Mat) -> np.ndarray:
        """The diagonal blocks of X where H_c's carry an input, H_1c and
        with a fractional delay H_2c: (k, n_xu, n_xu)."""
        return self.diagonal_blocks(X)[:1 + self.delay]

    def gamma(self, t: float) -> Mat:
        """Gamma(t) = E_1 e^{H_c t} E_2, the [[A, B_o], [0, I]] transition,
        from one stacked exponential of the diagonal blocks of H_c."""
        E = expm(self.diagonal_blocks(self.H_c) * t)
        return E[0] + E[1] - E[2] if self.delay else E[0]


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
    fixed-step seed.

    T             e^{H_j h} = [[A_j, B_j], [0, I]] for the input blocks H_j
                  of H_c, stacked (k, n_xu, n_xu); A_0 = e^{A_c h}
    omega_q       e^{H_cq h}, and omega_m = e^{H_cm h}
    X_q           int_0^h omega_q(s)' S omega_q(s) ds, S = E_1' Qbar_c E_1
    Y_m           int_0^h omega_m(s)' ds E_1' Mbar_c

    In the E_2-projected form omega_q and omega_m carry a right factor E_2,
    so X_q and Y_m are already Q and M.
    """

    T: np.ndarray
    omega_q: Mat
    X_q: Mat
    omega_m: Mat
    Y_m: Mat


def compose(a: Interval, b: Interval) -> Interval:
    """The span `a` followed by the span `b`.

    T = b.T a.T carries the input integrals of `a` forward through the
    transitions of `b`, so spans with different inputs compose. The
    discounted integrals over `b` are carried back through the transitions
    of `a`. `a` may be E_2-projected, `b` may not.
    """
    return Interval(
        T=b.T @ a.T,
        omega_q=b.omega_q @ a.omega_q,
        X_q=a.X_q + a.omega_q.T @ b.X_q @ a.omega_q,
        omega_m=b.omega_m @ a.omega_m,
        Y_m=a.Y_m + a.omega_m.T @ b.Y_m)


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


def projected_identity(sys: DeqSystem) -> Interval:
    """The zero-length span of `sys` in E_2-projected form. Folding from it
    carries omega E_2 (n_h x n_xu) instead of omega; composing it before a
    full interval projects that interval."""
    n = sys.n_xu
    return Interval(
        T=np.broadcast_to(np.eye(n), (1 + sys.delay, n, n)),
        omega_q=sys.E2, X_q=np.zeros((n, n)),
        omega_m=sys.E2, Y_m=np.zeros((n, sys.n_z)))


def _upper(a, b, d) -> Mat:
    """[[a, b], [0, d]] from n x n blocks; d fixes n."""
    n = d.shape[0]
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = a
    M[:n, n:] = b
    M[n:, n:] = d
    return M


def rww_expm(A_c: Mat, G_c: Mat, t: float) -> Mat:
    """R_ww(t) = int_0^t e^{A_c s} G_c G_c' e^{A_c' s} ds by a Van Loan
    block exponential (1978), scaled and squared.

    C = exp(h [[-A_c, G_c G_c'], [0, A_c']]), h = t/2^s with s the least
    such that ||A_c||_1 h <= 1, gives E = C_22' = e^{A_c h} and R_ww(h) =
    E C_12; then s times R <- R + E R E', E <- E E. So the block never
    holds the e^{t ||A_c||} of its -A_c corner: a stable A_c of any norm
    gives R_ww, and an R_ww that overflows raises NumericalError.
    """
    A_c, G_c = _require_finite(asmat(A_c), "A_c"), asmat(G_c)
    n = A_c.shape[0]
    if A_c.shape != (n, n) or G_c.shape[0] != n:
        raise DimensionError(f"R_ww needs A_c square and G_c with its rows, "
                             f"got {A_c.shape} and {G_c.shape}")
    if not (math.isfinite(t) and t >= 0):
        raise DomainError(f"R_ww needs a finite t >= 0, got {t}")
    norm = inf_norm(A_c.T)
    # log2(||A_c||_1 t), without the product, which may overflow
    x = math.log2(norm) + math.log2(t) if norm and t else 0.0
    s = math.ceil(x) if x > 0 else 0
    h = math.ldexp(t, -s)
    with np.errstate(over="ignore", invalid="ignore"):
        c3 = expm(_upper(-h * A_c, h * (G_c @ G_c.T), h * A_c.T))
        E = c3[n:, n:].T
        R = E @ c3[:n, n:]
        for _ in range(s):
            R = R + E @ R @ E.T
            E = E @ E
    if not np.isfinite(R).all():
        raise NumericalError(
            f"R_ww over t = {t:.6g} overflows: e^(A_c t) leaves the double "
            f"range, ||A_c||_1 = {norm:.6g}")
    return symmetrize(R)


def core_result(sys: DeqSystem, iv: Interval, method: str,
                **provenance) -> CoreResult:
    """Read (A, B_o, Q, M) off an E_2-projected interval of `sys`; R_ww is
    `rww_expm` over Ts (None without G_c)."""
    n_x = sys.n_x
    return CoreResult(
        A=iv.T[0, :n_x, :n_x].copy(), B_o=iv.T[:, :n_x, n_x:].sum(axis=0),
        Q=symmetrize(iv.X_q), M=iv.Y_m,
        R_ww=None if sys.G_c is None else rww_expm(sys.A_c, sys.G_c, sys.Ts),
        method=method, **provenance)


def build_deq(plant, cost: CostSpec) -> DeqSystem:
    """Assemble the ODE-system generators for a plant and cost.

    `plant` is any plant `realize_plant` takes: a DelayRealization passes
    through, anything else is realized at cost.Ts. A realization whose
    delays are all whole samples (V = 0, none at all included) yields the
    single block [[A_c, B_1c], [0, 0]] over the lifted input, n_h = n_xu:
    the shift states are all such a delay adds. One with a fractional part
    yields the three-block delayed structure, n_h = 3 n_xu.
    """
    if cost.mu < 0:
        raise DomainError(f"discount must be >= 0, got {cost.mu}")
    plant = realize_plant(plant, cost.Ts)
    if plant.Ts != cost.Ts:
        raise DomainError(f"delays were realized at Ts={plant.Ts}, but the "
                          f"cost has Ts={cost.Ts}")
    A_c, B_1c, C_c, D_o = plant.A_c, plant.B_1c, plant.C_c, plant.D_o
    V, B_2c_bar, G_c = plant.V, plant.B_2c_bar, plant.G_c

    n_x, n_in = B_1c.shape
    n_xu = n_x + n_in
    if C_c.shape[0] != cost.n_z:
        raise DimensionError(
            f"plant has {C_c.shape[0]} outputs but Q_c is {cost.n_z}x{cost.n_z}")

    def generator(A, B):
        """[[A, B], [0, 0]]: the state block over held inputs."""
        H = np.zeros((n_xu, n_xu))
        H[:n_x, :n_x] = A
        H[:n_x, n_x:] = B
        return H

    H_c = generator(A_c, B_1c)
    if V.any():
        VA = V @ A_c
        blocks = (H_c, generator(VA, B_2c_bar), generator(VA, 0.0))
        H_c = np.zeros((3 * n_xu, 3 * n_xu))
        for j, H in enumerate(blocks):
            d = slice(j * n_xu, (j + 1) * n_xu)
            H_c[d, d] = H
        eye = np.eye(n_xu)
        E1 = np.hstack([eye, eye, -eye])
        E2 = np.vstack([eye, eye, eye])
    else:
        E1 = np.eye(n_xu)
        E2 = np.eye(n_xu)
    n_h = H_c.shape[0]
    H_cq = H_c - (cost.mu / 2.0) * np.eye(n_h)
    H_cm = H_c - cost.mu * np.eye(n_h)

    CD = np.hstack([C_c, D_o])
    Mbar_c = -CD.T @ cost.Q_c
    Qbar_c = symmetrize(-Mbar_c @ CD)  # = CD' Q_c CD

    return DeqSystem(A_c=A_c, B_1c=B_1c, B_2c_bar=B_2c_bar, V=V,
                     C_c=C_c, mu=cost.mu, Ts=cost.Ts, H_c=H_c,
                     H_cq=H_cq, H_cm=H_cm, E1=E1, E2=E2, Qbar_c=Qbar_c,
                     Mbar_c=Mbar_c, G_c=G_c)


# Nodes (or steps) per chunk of the validation references and of the
# `fixed` fold; a power of two, so P^0 .. P^{C-1} take log2(C) products.
_CHUNK = 64


def _powers(D: Mat) -> tuple[np.ndarray, Mat]:
    """For P = I + D: the stack P^i - I, i < C = _CHUNK, and P^C - I.

    Built by log2(C) stacked products, each doubling the stack with
    P^{i+n} - I = D_i + D_n + D_i D_n. When P is near I, products of P
    itself add a rounding error the size of an ulp of 1 per power, which
    the differences D_i avoid.
    """
    stack = np.zeros((_CHUNK,) + D.shape)
    n, step = 1, D
    while n < _CHUNK:
        new = np.matmul(stack[:n], step, out=stack[n:2 * n])
        new += stack[:n]
        new += step
        step = step + step + step @ step
        n *= 2
    return stack, step


def _simpson_weights(k: np.ndarray, panels: int, h: float) -> np.ndarray:
    """Composite-Simpson weights at the node indices k, zero past `panels`."""
    w = np.where(k % 2, 4.0, 2.0)
    w[(k == 0) | (k == panels)] = 1.0
    w[k > panels] = 0.0
    return w * (h / 3.0)


def oracle_quadrature(sys: DeqSystem, panels: int = 4096) -> CoreResult:
    """Evaluate every target at Ts by composite Simpson over expm nodes.

    The node exponentials e^{X s_k}, s_k = k Ts/panels, are powers of the
    three node steps P = e^{A_c h}, e^{V A_c h} and e^{H_c h} (the only
    three `expm` calls), taken on two levels: node k = C c + i (C = 64)
    is (I + E_c)(I + D_i), with D_i = P^i - I and E_c = (P^C)^c - I for
    i, c < C, both stacks from `_powers`. One Python iteration covers a
    block of up to C chunks, C^2 = 4096 nodes, whose chunk bases are one
    stacked product of the I + E_c with the block base (P^{C^2})^b.
    Inside a block the Simpson weights are contracted over one index
    first and the matrices after (Gamma as (E_1 chunk base) (P^i E_2)),
    so memory is O(C n_h^2) for any panel count. Every node is a plain
    power of a node exponential and every integral a plain weighted sum:
    the result shares no seed, no `compose` and no Runge-Kutta
    coefficient with the methods it checks.

    Error decays as O(panels^-4). R_ww is None when the system has no
    diffusion matrix G_c.
    """
    if panels < 2 or panels % 2:
        raise DomainError(f"panels must be even and >= 2, got {panels}")
    h = sys.Ts / panels
    C = _CHUNK

    n_x, n_h = sys.n_x, sys.n_h
    powA, stepA = _powers(expm(sys.A_c * h) - np.eye(n_x))
    powV, stepV = _powers(expm(sys.V @ sys.A_c * h) - np.eye(n_x))
    # Only the E_1 and E_2 projections of the n_h x n_h stacks are kept,
    # so the loop's two (L_c' Qbar_c L_c and its weighted sum over c) are
    # the only ones alive while it runs.
    dH, stepH = _powers(expm(sys.H_c * h) - np.eye(n_h))
    powHE2 = dH @ sys.E2                 # e^{H_c h i} E_2, i < C
    powHE2 += sys.E2
    del dH
    chunkA, blockA = _powers(stepA)      # (P^C)^c - I, c < C; P^{C^2} - I
    chunkV, blockV = _powers(stepV)
    chunkH, blockH = _powers(stepH)
    E1chunkH = sys.E1 @ chunkH           # E_1 e^{H_c h C c}, c < C
    E1chunkH += sys.E1
    del chunkH
    for stack in (powA, powV, chunkA, chunkV):
        stack += np.eye(n_x)             # e^{A_c h i}, e^{A_c h C c}, ...
    GAG = None                           # e^{A_c h i} G_c G_c' e^{A_c' h i}
    if sys.G_c is not None:
        GAG = powA @ (sys.G_c @ sys.G_c.T) @ powA.transpose(0, 2, 1)

    XA = np.eye(n_x)                     # block bases e^{A_c h C^2 b}, ...
    XV = np.eye(n_x)
    XH = np.eye(n_h)
    SA = np.zeros((n_x, n_x))            # int e^{A_c s} ds
    SV = np.zeros((n_x, n_x))
    SQ = np.zeros((sys.n_xu, sys.n_xu))
    SG = np.zeros((sys.n_xu, sys.n_xu))  # int e^{-mu s} Gamma(s) ds
    SR = np.zeros((n_x, n_x)) if GAG is not None else None

    for start in range(0, panels + 1, C * C):
        nc = min(C, -(-(panels + 1 - start) // C))   # chunks in the block
        k = start + np.arange(nc * C).reshape(nc, C)  # node C c + i
        W = _simpson_weights(k, panels, h)
        WD = W * np.exp(-sys.mu * h * k)
        BA = XA @ chunkA[:nc]            # chunk bases e^{A_c s_{Cc}}, ...
        BV = XV @ chunkV[:nc]
        L = E1chunkH[:nc] @ XH           # Gamma(s_{Cc+i}) = L_c powHE2_i
        SA += (BA @ np.einsum("ci,ijk->cjk", W, powA)).sum(0)
        SV += (BV @ np.einsum("ci,ijk->cjk", W, powV)).sum(0)
        SG += (L @ np.einsum("ci,ijk->cjk", WD, powHE2)).sum(0)
        SQ += (powHE2.transpose(0, 2, 1) @ np.einsum(
            "ci,cjk->ijk", WD, L.transpose(0, 2, 1) @ sys.Qbar_c @ L)
            @ powHE2).sum(0)
        if GAG is not None:
            SR += (BA @ np.einsum("ci,ijk->cjk", W, GAG)
                   @ BA.transpose(0, 2, 1)).sum(0)
        if start + C * C <= panels:
            XA = XA + XA @ blockA
            XV = XV + XV @ blockV
            XH = XH + XH @ blockH

    c, i = divmod(panels - start, C)     # the last node, in the last block
    return CoreResult(A=BA[c] @ powA[i],
                      B_o=SA @ sys.B_1c + SV @ sys.B_2c_bar,
                      Q=symmetrize(SQ), M=SG.T @ sys.Mbar_c,
                      R_ww=symmetrize(SR) if SR is not None else None,
                      method="oracle", steps=panels)


def b_alternative(A_c: Mat, B_c: Mat, Ts: float, N: int) -> Mat:
    """Integrate dB/dt = A_c B + B_c, B(0) = 0, with N classic-RK4 steps.

    On this linear ODE one RK4 step of size h is exactly B <- T B + c with
    T = sum_{k<=4} (h A_c)^k / k! and c = h sum_{k<=3} (h A_c)^k / (k+1)! B_c,
    so B_N = sum_{k<N} T^k c = N c + sum_{k<N} (T^k - I) c. The sum is
    taken a chunk of 64 steps at a time from the differences T^i - I,
    i < 64, which stay accurate where T itself is I plus a rounding error.
    It uses no matrix exponential and none of the discretization code, so
    it stays independent of the methods it checks.

    The other form of the same integral (dB/dt = e^{A_c t} B_c) is what the
    fixed-step method uses; keeping both routes lets tests cross-check them.
    """
    A_c = np.asarray(A_c, dtype=float)
    B_c = np.asarray(B_c, dtype=float)
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    h = Ts / N
    Z = h * A_c
    Z2 = Z @ Z
    eye = np.eye(A_c.shape[0])
    D = Z + Z2 @ (eye / 2 + Z / 6 + Z2 / 24)             # T - I
    c = h * ((eye + Z / 2 + Z2 @ (eye / 6 + Z / 24)) @ B_c)
    powD, stepD = _powers(D)
    partial = np.cumsum(powD, axis=0)    # sum_{i<m} (T^i - I) at [m - 1]
    S = np.zeros_like(D)                 # sum_{i<k} (T^i - I)
    base = np.zeros_like(D)              # T^k - I at the chunk start k
    for k in range(0, N, _CHUNK):
        m = min(_CHUNK, N - k)
        S += m * base + partial[m - 1] + base @ partial[m - 1]
        base = base + stepD + base @ stepD
    return N * c + S @ c
