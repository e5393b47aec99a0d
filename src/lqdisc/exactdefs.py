"""Exact definitions of the discretization targets and a quadrature oracle.

Inside one sampling interval every input is held. An input delayed by
(m - v) Ts feeds the slot of u_{k-m} until the switch time (1 - v) Ts and
the slot of u_{k-m+1} after it. Between the sorted switch times the pair
[x; u~] follows one constant generator per span, with one output map,

    G_p = [[A_c, B^(p)], [0, 0]],   z = [C_c, D^(p)] [x; u~],

each of size n_xu = n_x + (m_bar+1) n_u. A plant without a fractional
delay has one span, the whole interval. Over a span of length h the
targets are

    T(h)    = e^{G_p h} = [[A(h), B(h)], [0, I]]
    Q(h)    = int_0^h e^{-mu s} T(s)' Qbar_p T(s) ds
    M(h)    = int_0^h e^{-mu s} T(s)' Mbar_p ds

with Qbar_p = [C_c, D^(p)]' Q_c [C_c, D^(p)] and Mbar_p = -[C_c, D^(p)]' Q_c,
and the interval's A, B_o, Q and M are the spans chained in time order.
R_ww = int_0^Ts e^{A_c s} G_c G_c' e^{A_c' s} ds has no discount, delay or
input: `build_deq` takes it once from `rww_expm`.

Every method computes the same object, an `Interval` per span: the
transitions and discounted integrals over a span of time. Two spans
compose by one law (`compose`), so the methods differ only in their seed
interval (one Runge-Kutta step, or the exact exponentials over h/2^s) and
in how they compose it: `fixed` folds the seed N times, `doubling` and
`expm` power it. Each runs once on the stack of spans, and `core_result`
chains the spans.

`oracle_quadrature` evaluates every target by composite Simpson on each
span, from powers of one node exponential per span. It is the ground
truth the methods are tested against, and uses neither seeds nor `compose`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .matcore import (DimensionError, DomainError, Mat, NumericalError,
                      _require_finite, asmat, expm, inf_norm, symmetrize)
from .model import CostSpec, realize_plant


@dataclass(frozen=True, eq=False)
class DeqSystem:
    """Span generators of the discretization ODE system.

    The S spans between input switches end at the fractions `span_ends` of
    Ts (increasing, the last 1). Span p has the generator G_p[p] =
    [[A_c, B^(p)], [0, 0]] and the cost weights Qbar_p[p], Mbar_p[p] of its
    output map [C_c, D^(p)].

    H_c, kept for `gamma`, is G_p[0] or, with a fractional delay (V != 0),
    the three-block form: H_1c = G_p[0], H_2c = [[V A_c, B_2c_bar], [0, 0]]
    and H_3c = [[V A_c, 0], [0, 0]] on its diagonal.
    """

    A_c: Mat
    B_1c: Mat
    B_2c_bar: Mat
    V: Mat
    C_c: Mat
    mu: float
    Ts: float
    H_c: Mat
    span_ends: np.ndarray
    G_p: np.ndarray
    Qbar_p: np.ndarray
    Mbar_p: np.ndarray
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
        """Size of H_c: 3 n_xu with a fractional delay, n_xu otherwise."""
        return self.H_c.shape[0]

    @property
    def n_z(self):
        return self.C_c.shape[0]

    @property
    def delay(self) -> bool:
        """True when H_c is the three-block stack of a fractional delay."""
        return self.n_h == 3 * self.n_xu

    @cached_property
    def R_ww(self) -> Mat | None:
        """`rww_expm` over Ts, taken once per system (None without G_c)."""
        return None if self.G_c is None else rww_expm(self.A_c, self.G_c,
                                                      self.Ts)

    @cached_property
    def h_p(self) -> np.ndarray:
        """The span lengths, in time order: (S,)."""
        return self.Ts * np.diff(self.span_ends, prepend=0.0)

    def gamma(self, t) -> np.ndarray:
        """Gamma(t) = E_1 e^{H_c t} E_2 = e^{H_1c t} + e^{H_2c t} - e^{H_3c t}
        (e^{H_c t} without a fractional delay). At Ts it is the product of
        the span transitions, [[A, B_o], [0, I]].

        t is a time or an array of times; the result has one n_xu matrix
        per time, in t's shape. Every block at every time is one stacked
        exponential, which `expm` scales per matrix: the bits of separate
        calls at each time."""
        n = self.n_xu
        blocks = np.stack([self.H_c[j:j + n, j:j + n]
                           for j in range(0, self.n_h, n)])
        E = expm(blocks * np.asarray(t, dtype=float)[..., None, None, None])
        if not self.delay:
            return E[..., 0, :, :]
        return E[..., 0, :, :] + E[..., 1, :, :] - E[..., 2, :, :]


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
    """Transitions and discounted integrals over one span of time h, for
    a generator G = G_p; each field may carry a leading stack axis, one
    matrix per span.

    Exact for the expm seed; a Runge-Kutta step's approximation for the
    fixed-step seed.

    T             e^{G h} = [[A, B], [0, I]]
    omega_q       e^{(G - mu/2 I) h}, and omega_m = e^{(G - mu I) h}
    X_q           int_0^h omega_q(s)' Qbar_p omega_q(s) ds
    Y_m           int_0^h omega_m(s)' ds Mbar_p
    """

    T: np.ndarray
    omega_q: np.ndarray
    X_q: np.ndarray
    omega_m: np.ndarray
    Y_m: np.ndarray


def compose(a: Interval, b: Interval) -> Interval:
    """The span `a` followed by the span `b`, per matrix of a stack.

    T = b.T a.T carries the input integrals of `a` forward through the
    transitions of `b`, so spans with different inputs compose. The
    discounted integrals over `b` are carried back through the transitions
    of `a`.
    """
    return Interval(
        T=b.T @ a.T,
        omega_q=b.omega_q @ a.omega_q,
        X_q=a.X_q + a.omega_q.swapaxes(-1, -2) @ b.X_q @ a.omega_q,
        omega_m=b.omega_m @ a.omega_m,
        Y_m=a.Y_m + a.omega_m.swapaxes(-1, -2) @ b.Y_m)


def power(seed: Interval, n: int) -> Interval:
    """`seed` composed with itself n >= 1 times by binary powering:
    floor(log2 n) squarings and one more compose per further set bit.
    A stack of spans is powered span by span."""
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


def chain(spans: Interval) -> Interval:
    """The stacked spans composed in time order: one interval."""
    return reduce(compose, (Interval(*span) for span in zip(*spans)))


def _upper(a, b, d) -> Mat:
    """[[a, b], [0, d]] from n x n blocks or stacks of them; d fixes n."""
    n = d.shape[-1]
    M = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b), d.shape)[:-2]
                 + (2 * n, 2 * n))
    M[..., :n, :n] = a
    M[..., :n, n:] = b
    M[..., n:, n:] = d
    return M


def rww_expm(A_c: Mat, G_c: Mat, t: float) -> Mat:
    """R_ww(t) = int_0^t e^{A_c s} G_c G_c' e^{A_c' s} ds by a Van Loan
    block exponential (1978), scaled and squared.

    C = exp(h [[-A_c, W], [0, A_c']]), h = t/2^s with s the least such
    that ||A_c||_1 h <= 1, gives E = C_22' = e^{A_c h} and R_ww(h) = E C_12
    for W = G_c G_c'; then s times R <- R + E R E', E <- E E. So the block
    never holds the e^{t ||A_c||} of its -A_c corner: a stable A_c of any
    norm gives R_ww, and an R_ww that overflows raises NumericalError.
    R_ww is linear in W, so an h W with an entry of 1 or more is scaled by
    2^-e to a largest entry in [1/2, 1), and R back by 2^e: `expm` sees no
    wide-range block.
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
        W = h * (G_c @ G_c.T)
        e = max(math.frexp(np.abs(W).max(initial=0.0))[1], 0)
        c3 = expm(_upper(-h * A_c, np.ldexp(W, -e), h * A_c.T))
        E = c3[n:, n:].T
        R = E @ c3[:n, n:]
        for _ in range(s):
            R = R + E @ R @ E.T
            E = E @ E
        R = np.ldexp(R, e)
    if not np.isfinite(R).all():
        raise NumericalError(
            f"R_ww over t = {t:.6g} overflows: e^(A_c t) leaves the double "
            f"range, ||A_c||_1 = {norm:.6g}")
    return symmetrize(R)


def core_result(sys: DeqSystem, spans: Interval, method: str,
                **provenance) -> CoreResult:
    """Read (A, B_o, Q, M) off the spans of `sys`, chained in time order;
    R_ww is the system's."""
    iv, n_x = chain(spans), sys.n_x
    return CoreResult(
        A=iv.T[:n_x, :n_x].copy(), B_o=iv.T[:n_x, n_x:].copy(),
        Q=symmetrize(iv.X_q), M=iv.Y_m, R_ww=sys.R_ww,
        method=method, **provenance)


def build_deq(plant, cost: CostSpec) -> DeqSystem:
    """Assemble the span generators for a plant and cost.

    `plant` is any plant `realize_plant` takes: a DelayRealization passes
    through, anything else is realized at cost.Ts. The switch times are
    (1 - v) Ts for every fractional part v of the realization: V's diagonal
    (state rows) and the v grid (feedthrough). From a span on past its
    switch time, row r of B^(p) is B_2c's instead of B_1c's, and the gain
    D_ij moves from the slot of u_{k-m_ij} to the next one. Delays of whole
    samples (V = 0, none at all included) give one span, the generator
    [[A_c, B_1c], [0, 0]] over the lifted input.
    """
    if cost.mu < 0:
        raise DomainError(f"discount must be >= 0, got {cost.mu}")
    plant = realize_plant(plant, cost.Ts)
    if plant.Ts != cost.Ts:
        raise DomainError(f"delays were realized at Ts={plant.Ts}, but the "
                          f"cost has Ts={cost.Ts}")
    A_c, B_1c, C_c, V, v = plant.A_c, plant.B_1c, plant.C_c, plant.V, plant.v

    n_x, n_in = B_1c.shape
    n_xu = n_x + n_in
    if C_c.shape[0] != cost.n_z:
        raise DimensionError(
            f"plant has {C_c.shape[0]} outputs but Q_c is {cost.n_z}x{cost.n_z}")

    v_x = np.diag(V)
    parts = np.concatenate([v_x, v.ravel()])
    switches = np.array(sorted(set((1.0 - parts[parts > 0]).tolist())))
    starts = np.concatenate([[0.0], switches])   # span starts, fractions of Ts
    S = len(starts)
    late_x = (v_x > 0) & (starts[:, None] >= 1.0 - v_x)            # (S, n_x)
    G_p = np.zeros((S, n_xu, n_xu))
    G_p[:, :n_x, :n_x] = A_c
    G_p[:, :n_x, n_x:] = np.where(late_x[:, :, None], plant.B_2c, B_1c)
    CD = np.zeros((S, cost.n_z, n_xu))
    CD[:, :, :n_x] = C_c
    CD[:, :, n_x:] = plant.D_o
    p, i, j = np.nonzero((v > 0) & (starts[:, None, None] >= 1.0 - v))
    col = n_x + (plant.m_bar - plant.m[i, j]) * plant.n_u + j
    CD[p, i, col + plant.n_u] = CD[p, i, col]
    CD[p, i, col] = 0.0
    Mbar_p = -CD.swapaxes(1, 2) @ cost.Q_c
    Qbar_p = symmetrize(-Mbar_p @ CD)  # = CD' Q_c CD

    H_c = G_p[0]
    if V.any():         # H_1c, H_2c and H_3c on the diagonal
        H_c = np.zeros((3, n_xu, 3, n_xu))
        H_c[0, :, 0] = G_p[0]
        H_c[1, :n_x, 1, :n_x] = H_c[2, :n_x, 2, :n_x] = V @ A_c
        H_c[1, :n_x, 1, n_x:] = plant.B_2c_bar
        H_c = H_c.reshape(3 * n_xu, 3 * n_xu)
    return DeqSystem(A_c=A_c, B_1c=B_1c, B_2c_bar=plant.B_2c_bar, V=V,
                     C_c=C_c, mu=cost.mu, Ts=cost.Ts, H_c=H_c,
                     span_ends=np.append(switches, 1.0), G_p=G_p,
                     Qbar_p=Qbar_p, Mbar_p=Mbar_p, G_c=plant.G_c)


# Nodes (or steps) per chunk of the validation references and of the
# `fixed` fold; a power of two, so P^0 .. P^{C-1} take log2(C) products.
_CHUNK = 64


def _powers(D: Mat, count: int = _CHUNK) -> tuple[np.ndarray, Mat | None]:
    """For P = I + D: the stack P^i - I, i < count <= C = _CHUNK, and
    P^C - I (None when count < C).

    Built by log2(C) stacked products, each doubling the stack with
    P^{i+n} - I = D_i + D_n + D_i D_n. When P is near I, products of P
    itself add a rounding error the size of an ulp of 1 per power, which
    the differences D_i avoid.
    """
    stack = np.zeros((count,) + D.shape)
    n, step = 1, D
    while n < count:
        k = min(n, count - n)
        new = np.matmul(stack[:k], step, out=stack[n:n + k])
        new += stack[:k]
        new += step
        step = step + step + step @ step
        n *= 2
    return stack, step if count == _CHUNK else None


def _simpson_weights(k: np.ndarray, panels: int, h) -> np.ndarray:
    """Composite-Simpson weights at the node indices k < panels, zero from
    `panels` on (the last node, of weight h/3, is the caller's), for a node
    spacing h (or a stack of them, broadcast against k)."""
    w = np.where(k % 2, 4.0, 2.0)
    w[k == 0] = 1.0
    w[k >= panels] = 0.0
    return w * (h / 3.0)


# Largest m k n of one product in `_slab_matmul`. Up to 2^18 OpenBLAS runs
# a GEMM on the calling thread (SMP_THRESHOLD_MIN 65536 times
# GEMM_MULTITHREAD_THRESHOLD 4); above it wakes its threads, and the small
# products that follow run slower.
_SLAB = 2 ** 18


def _slab_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks (..., m, k) and (..., k, n), one slab of rows of a
    at a time, so that every product has m k n <= _SLAB (or one row)."""
    (m, k), n = a.shape[-2:], b.shape[-1]
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (m, n))
    rows = max(1, _SLAB // (k * n))
    for r in range(0, m, rows):
        np.matmul(a[..., r:r + rows, :], b, out=out[..., r:r + rows, :])
    return out


def oracle_quadrature(sys: DeqSystem, panels: int = 4096) -> CoreResult:
    """Evaluate every target at Ts by composite Simpson on every span.

    Span p has `panels` panels of h = h_p/panels. Its node exponentials
    e^{G_p k h} are powers of P = e^{G_p h} (one stacked `expm`): node
    k = C^2 b + C c + i (C = 64) is L_c P^i, with L_c = X_b (P^C)^c for
    the block base X_b = (P^{C^2})^b. P^i - I and (P^C)^c - I come from
    `_powers`, the latter only for the chunks c the panels reach. One
    Python iteration covers a block of C^2 = 4096 nodes of every span:
    one batched matmul contracts the weights (S, C, nc) with the stacked
    L_c and L_c' Qbar_p L_c (S, nc, 2 n_xu^2), in slabs of rows small
    enough that OpenBLAS stays on the calling thread (`_slab_matmul`).
    The sums over i, sum_i U_i P^i and sum_i P^i' V_i P^i, are taken once
    after the last block, so memory is O(C S n_xu^2) for any panel count.
    The loop stops at node panels - 1: the last node, of weight h/3, is
    the span transition e^{G_p h_p}, which the chaining of the spans
    needs anyway. The spans' integrals are summed through Phi_p, the
    product of the earlier spans' transitions: Q adds Phi_p' Q_p Phi_p,
    M adds Phi_p' M_p, R_ww adds A_p R_p A_p' (A_p the top-left block of
    Phi_p). Every node is a plain power of a node exponential and every
    integral a plain weighted sum: no seed, no `compose` and no
    Runge-Kutta coefficient of the methods.

    Error decays as O(panels^-4). R_ww is None when the system has no
    diffusion matrix G_c.
    """
    if panels < 2 or panels % 2:
        raise DomainError(f"panels must be even and >= 2, got {panels}")
    C = _CHUNK
    n_x, n, S = sys.n_x, sys.n_xu, len(sys.h_p)
    eye = np.eye(n)
    h = (sys.h_p / panels)[:, None, None]
    t0 = sys.Ts * np.append(0.0, sys.span_ends[:-1])[:, None, None]
    powP, stepP = _powers(expm(sys.G_p * h) - eye)
    powP = np.ascontiguousarray(powP.swapaxes(0, 1))
    powP += eye                          # e^{G_p h i}, i < C: (S, C, n, n)
    chunkP, blockP = _powers(stepP, min(C, panels // C + 1))
    chunkP = chunkP.swapaxes(0, 1) + eye  # e^{G_p h C c}
    GG = None if sys.G_c is None else sys.G_c @ sys.G_c.T
    SR = np.zeros((S, n_x, n_x))         # int e^{A_c s} G_c G_c' e^{A_c' s}
    if GG is not None:                   # e^{A_c h i} G_c G_c' e^{A_c' h i}
        powA = powP[..., :n_x, :n_x]
        GAG = (powA @ GG @ powA.swapaxes(-1, -2)).reshape(S, C, n_x * n_x)

    X = eye                              # block bases e^{G_p h C^2 b}
    UV = np.zeros((S, C, 2, n, n))       # sum_c w_ci [L_c, L_c' Qbar_p L_c]
    for start in range(0, panels, C * C):
        nc = min(C, -(-(panels - start) // C))   # chunks in the block
        k = start + np.arange(nc * C).reshape(nc, C)  # node C c + i
        W = _simpson_weights(k, panels, h)       # (S, nc, C)
        WD = W * np.exp(-sys.mu * (t0 + h * k))
        LQL = np.empty((S, nc, 2, n, n))
        L = np.matmul(chunkP[:, :nc], X[..., None, :, :],
                      out=LQL[:, :, 0])  # chunk bases e^{G_p s_{Cc}}
        np.matmul(L.swapaxes(-1, -2) @ sys.Qbar_p[:, None], L,
                  out=LQL[:, :, 1])
        UV += _slab_matmul(WD.swapaxes(1, 2), LQL.reshape(S, nc, -1)
                           ).reshape(UV.shape)
        if GG is not None:
            BA = L[..., :n_x, :n_x]
            SR += (BA @ _slab_matmul(W, GAG).reshape(S, nc, n_x, n_x)
                   @ BA.swapaxes(-1, -2)).sum(1)
        if start + C * C <= panels:
            X = X + X @ blockP

    c, i = divmod(panels % (C * C), C)   # the last node, past X
    ends = chunkP[:, c] @ X @ powP[:, i]   # span transitions e^{G_p h_p}
    last = h / 3.0 * np.exp(-sys.mu * (t0 + sys.h_p[:, None, None]))
    SG = (UV[:, :, 0] @ powP).sum(1) + last * ends  # int e^{-mu t} T ds
    SQ = (powP.swapaxes(-1, -2) @ UV[:, :, 1] @ powP).sum(1) \
        + last * (ends.swapaxes(-1, -2) @ sys.Qbar_p @ ends)
    if GG is not None:
        A_end = ends[:, :n_x, :n_x]
        SR += h / 3.0 * (A_end @ GG @ A_end.swapaxes(-1, -2))
    Phi = eye
    Q, M = np.zeros((n, n)), np.zeros((n, sys.n_z))
    R = None if GG is None else np.zeros((n_x, n_x))
    for p in range(S):
        Q += Phi.T @ SQ[p] @ Phi
        M += Phi.T @ SG[p].T @ sys.Mbar_p[p]
        if R is not None:
            R += Phi[:n_x, :n_x] @ SR[p] @ Phi[:n_x, :n_x].T
        Phi = ends[p] @ Phi
    return CoreResult(A=Phi[:n_x, :n_x], B_o=Phi[:n_x, n_x:],
                      Q=symmetrize(Q), M=M,
                      R_ww=None if R is None else symmetrize(R),
                      method="oracle", steps=panels)


def _power_sum(D: Mat, N: int) -> tuple[Mat, Mat]:
    """For P = I + D and N >= 0: sum_{k<N} (P^k - I) and P^N - I, per
    matrix of D when D is a stack. `b_alternative` takes its RK4 step sum
    from it, and the `fixed` fold its transitions and the power sum of M.

    Step k = C j + i (C = _CHUNK) has P^k - I = E_j + D_i + E_j D_i, with
    D_i = P^i - I (i < C) from one `_powers` and E_j = P^{Cj} - I. So the
    q = N div C whole chunks sum to C sum E_j + q sum D_i + (sum E_j)
    (sum D_i), where sum_{j<q} E_j is this same sum for P^C over q steps:
    two levels up to C^2 = 4096 steps, one more per further factor of C.
    The last N mod C steps start from E_q.
    """
    q, m = divmod(N, _CHUNK)
    powD, stepD = _powers(D, min(_CHUNK, N + 1))
    head = powD[:m].sum(0)               # sum_{i<m} D_i
    if not q:
        return head, powD[m]
    SE, E = _power_sum(stepD, q)
    SD = powD.sum(0)
    return (_CHUNK * SE + q * SD + SE @ SD + m * E + head + E @ head,
            E + powD[m] + E @ powD[m])


def b_alternative(A_c: Mat, B_c: Mat, Ts: float, N: int) -> Mat:
    """Integrate dB/dt = A_c B + B_c, B(0) = 0, with N classic-RK4 steps.

    On this linear ODE one RK4 step of size h is exactly B <- T B + c with
    T = sum_{k<=4} (h A_c)^k / k! and c = h sum_{k<=3} (h A_c)^k / (k+1)! B_c,
    so B_N = sum_{k<N} T^k c = N c + sum_{k<N} (T^k - I) c. `_power_sum`
    takes that sum in closed form on two levels of 64-step chunks (three
    above 4096 steps) from the differences T^i - I, which stay accurate
    where T itself is I plus a rounding error. It uses no matrix
    exponential, and of the discretization code it shares only the power
    helpers `_powers` and `_power_sum` (as the oracle shares `_powers`):
    its T and c are its own RK4 formulas, so it stays independent of the
    methods it checks.

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
    return N * c + _power_sum(D, N)[0] @ c
