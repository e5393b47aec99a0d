"""A 30-digit reference for one sampling interval, from the plant alone.

`reference(plant, cost)` evaluates A, B_o, Q, M and R_ww with mpmath at
30 significant digits. It reads only the physical plant and the cost: the
state-space matrices or the transfer channels of the model, their delays,
Q_c, mu and Ts. It takes no DelayRealization and no DeqSystem, and forms
its own coordinates, the ones the package documents:

* the state stacks one block for a state-space plant, or one
  observable-canonical block per transfer channel, the input index outer
  and the output index inner;
* the lifted input is [u_{k-m_bar}; ...; u_{k-1}; u_k], n_u entries per
  slot, where an input delayed by m whole samples reads u_{k-m}.

Inside the interval every input is held. An input delayed by
tau = (m - v) Ts, 0 <= v < 1, feeds the slot of u_{k-m} until the switch
time (1 - v) Ts and the slot of u_{k-m+1} from then on, in the state
equation and in the output z = C x + D u alike. Between switch times the
pair [x; u~] follows one constant generator G_p = [[A_c, B^(p)], [0, 0]],
whose transition over a span is its Taylor series, summed until a term is
below 1e-40 of the leading one. The cost integrals

    Q    = int_0^Ts e^{-mu s} L(s)' Q_c L(s) ds,  L(s) = [C, D^(p)] Phi(s)
    M    = -int_0^Ts e^{-mu s} L(s)' Q_c ds
    R_ww = int_0^Ts e^{A_c s} G_c G_c' e^{A_c' s} ds

are Gauss-Legendre sums with NODES nodes on every span between switch
times, so the integrands are analytic on each. Nothing here is a matrix
exponential routine, a Runge-Kutta stage or a Van Loan block, which the
methods use, and the lifted input keeps all its slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from lqdisc.model import ContinuousStateSpace, DelayedTransferModel

DPS = 30
NODES = 24
# A delay within this many samples of a whole number is a whole number,
# as in the model's documented realization.
WHOLE_TOL = 1e-12


@dataclass
class Reference:
    """The interval's matrices as object arrays of mpf."""

    A: np.ndarray
    B_o: np.ndarray
    Q: np.ndarray | None
    M: np.ndarray | None
    R_ww: np.ndarray | None
    switch_times: tuple


def _mp(x) -> np.ndarray:
    """A float matrix as an object array of exactly equal mpf entries."""
    return np.vectorize(mp.mpf, otypes=[object])(np.atleast_2d(
        np.asarray(x, dtype=float)))


def _zeros(rows: int, cols: int) -> np.ndarray:
    return np.full((rows, cols), mp.mpf(0), dtype=object)


def _eye(n: int) -> np.ndarray:
    out = _zeros(n, n)
    for i in range(n):
        out[i, i] = mp.mpf(1)
    return out


def _split(tau: float, Ts: float) -> tuple[int, mp.mpf]:
    """tau/Ts = m - v with integer m >= 0 and 0 <= v < 1."""
    ratio = mp.mpf(tau) / mp.mpf(Ts)
    nearest = int(mp.nint(ratio))
    if abs(ratio - nearest) <= WHOLE_TOL:
        return nearest, mp.mpf(0)
    m = int(mp.ceil(ratio))
    return m, m - ratio


def _plant_blocks(plant):
    """(A, C, G, inputs, feedthrough) in the reference's coordinates.

    `inputs` lists (column of A's size, input j, tau) and `feedthrough`
    lists (output i, input j, gain, tau).
    """
    if isinstance(plant, ContinuousStateSpace):
        n_u = plant.n_u
        taus = plant.delays or (0.0,) * n_u
        B = _mp(plant.B_c)
        D = _mp(plant.D_c)
        inputs = [(B[:, j], j, taus[j]) for j in range(n_u)]
        feed = [(i, j, D[i, j], taus[j])
                for i in range(plant.n_z) for j in range(n_u)]
        G = None if plant.G_c is None else _mp(plant.G_c)
        return _mp(plant.A_c), _mp(plant.C_c), G, inputs, feed
    if not isinstance(plant, DelayedTransferModel):
        raise TypeError(f"not a plant: {type(plant).__name__}")
    n_z, n_u = plant.n_z, plant.n_u
    chans = [plant.channel(i, j) for j in range(1, n_u + 1)
             for i in range(1, n_z + 1)]
    sizes = [len(ch.den) - 1 for ch in chans]
    n_x = sum(sizes)
    A, C = _zeros(n_x, n_x), _zeros(n_z, n_x)
    inputs, feed = [], []
    row = 0
    for ch, n in zip(chans, sizes):
        den = [mp.mpf(c) / mp.mpf(ch.den[0]) for c in ch.den]
        num = [mp.mpf(0)] * (len(den) - len(ch.num)) + [
            mp.mpf(c) / mp.mpf(ch.den[0]) for c in ch.num]
        gain = num[0]
        b = _zeros(n_x, 1)[:, 0]
        for k in range(n):
            # observable canonical: -den down the first column, ones on the
            # superdiagonal, C = e_1, B the strictly proper remainder
            A[row + k, row] = -den[k + 1]
            if k + 1 < n:
                A[row + k, row + k + 1] = mp.mpf(1)
            b[row + k] = num[k + 1] - gain * den[k + 1]
        if n:
            C[ch.i - 1, row] = mp.mpf(1)
            inputs.append((b, ch.j - 1, ch.tau))
        feed.append((ch.i - 1, ch.j - 1, gain, ch.tau))
        row += n
    return A, C, None, inputs, feed


def _taylor(Gen: np.ndarray, n_x: int, h) -> list:
    """Top n_x rows of Gen^k / k! until a term, scaled by h^k, is below
    1e-40 of the first."""
    terms = [_eye(Gen.shape[0])[:n_x]]
    k = 0
    while True:
        k += 1
        nxt = (terms[-1] @ Gen) / k
        terms.append(nxt)
        size = max((abs(x) for x in nxt.flat), default=mp.mpf(0))
        if size * abs(h) ** k < mp.mpf(10) ** -40 and k > 4:
            return terms


def _horner(terms: list, s) -> np.ndarray:
    """sum_k terms[k] s^k."""
    out = terms[-1]
    for T in reversed(terms[:-1]):
        out = out * s + T
    return out


def _spans(plant, Ts: float):
    """The plant in the reference's coordinates, split at its switch times.

    Returns (n_x, m_bar, G, switches, spans): G is the diffusion matrix
    (None without one) and each span is (t0, h, terms, CD), its start, its
    length, the Taylor terms of its generator (top n_x rows) and its
    output map [C, D^(p)]. Call inside `mp.workdps`.
    """
    A_c, C, G, inputs, feed = _plant_blocks(plant)
    n_x, n_z = A_c.shape[0], C.shape[0]
    n_u = plant.n_u
    delays = [_split(t, Ts) for *_, t in inputs + feed]
    m_bar = max(m for m, _ in delays)
    n_xu = n_x + (m_bar + 1) * n_u
    Ts = mp.mpf(Ts)
    switches = sorted({(1 - v) * Ts for _, v in delays if v > 0})
    edges = [mp.mpf(0)] + switches + [Ts]

    def slot(j, tau, s):
        """The lifted-input slot that input j, delayed by tau, feeds at
        time s of the interval."""
        m, v = _split(tau, Ts)
        return (m_bar - m + (1 if v > 0 and s > (1 - v) * Ts else 0)
                ) * n_u + j

    spans = []
    for t0, t1 in zip(edges[:-1], edges[1:]):
        mid, h = (t0 + t1) / 2, t1 - t0
        Gen = _zeros(n_xu, n_xu)
        Gen[:n_x, :n_x] = A_c
        CD = _zeros(n_z, n_xu)
        CD[:, :n_x] = C
        for b, j, tau in inputs:
            Gen[:n_x, n_x + slot(j, tau, mid)] += b
        for i, j, gain, tau in feed:
            CD[i, n_x + slot(j, tau, mid)] += gain
        spans.append((t0, h, _taylor(Gen, n_x, h), CD))
    return n_x, m_bar, G, tuple(switches), spans


def reference(plant, cost, integrals: bool = True) -> Reference:
    """A, B_o and, with `integrals`, Q, M and R_ww of one interval."""
    with mp.workdps(DPS):
        mu = mp.mpf(cost.mu)
        Qc = _mp(cost.Q_c)
        n_x, _, G, switches, spans = _spans(plant, cost.Ts)
        n_z, n_xu = spans[0][3].shape
        X, W = mp.gauss_quadrature(NODES, "legendre")
        GG = None if G is None else G @ G.T
        Phi = _eye(n_xu)                      # [[A(s), B_o(s)], [0, I]]
        Q, M = _zeros(n_xu, n_xu), _zeros(n_xu, n_z)
        R = None if GG is None else _zeros(n_x, n_x)
        for t0, h, terms, CD in spans:
            if integrals:
                for x, w in zip(X, W):
                    s = (x + 1) * h / 2
                    top = _horner(terms, s) @ Phi
                    L = CD @ np.vstack([top, Phi[n_x:]])
                    wd = w * h / 2 * mp.exp(-mu * (t0 + s))
                    Q += wd * (L.T @ Qc @ L)
                    M -= wd * (L.T @ Qc)
                    if R is not None:
                        E = top[:, :n_x]
                        R += (w * h / 2) * (E @ GG @ E.T)
            Phi = np.vstack([_horner(terms, h) @ Phi, Phi[n_x:]])
        return Reference(A=Phi[:n_x, :n_x], B_o=Phi[:n_x, n_x:],
                         Q=Q if integrals else None,
                         M=M if integrals else None,
                         R_ww=R if integrals else None,
                         switch_times=switches)


def horizon_cost(plant, cost, x0, inputs) -> mp.mpf:
    """The continuous discounted cost of a whole horizon,

        1/2 int_0^{N Ts} e^{-mu t} (z - zbar_k)' Q_c (z - zbar_k) dt,

    over the cost's N stages, zbar_k = cost.zbar_at(k) on stage k. The
    plant starts at x0 (in the reference's coordinates) and the rows of
    `inputs` are the held inputs u_{-m_bar}, ..., u_{N-1}. Each stage is
    split at its switch times, where the state equation and the output
    z = C x + D u both move to the next held input; each span is summed
    with NODES Gauss-Legendre nodes.
    """
    with mp.workdps(DPS):
        mu, Ts = mp.mpf(cost.mu), mp.mpf(cost.Ts)
        Qc = _mp(cost.Q_c)
        n_x, m_bar, _, _, spans = _spans(plant, cost.Ts)
        u = _mp(inputs)
        if u.shape != (m_bar + cost.N, plant.n_u):
            raise ValueError(f"need {m_bar + cost.N} rows of {plant.n_u} "
                             f"inputs, got {u.shape}")
        x = _mp(x0).reshape(-1)
        X, W = mp.gauss_quadrature(NODES, "legendre")
        total = mp.mpf(0)
        for k in range(cost.N):
            zbar = _mp(cost.zbar_at(k)).reshape(-1)
            held = u[k:k + m_bar + 1].reshape(-1)   # u_{k-m_bar} .. u_k
            for t0, h, terms, CD in spans:
                y = np.concatenate([x, held])
                ty = [T @ y for T in terms]         # x(t0 + s) = sum ty_i s^i
                for xg, w in zip(X, W):
                    s = (xg + 1) * h / 2
                    e = CD @ np.concatenate([_horner(ty, s), held]) - zbar
                    total += (w * h / 4 * mp.exp(-mu * (k * Ts + t0 + s))
                              * (e @ Qc @ e))
                x = _horner(ty, h)
        return total


def to_float(x: np.ndarray | None) -> np.ndarray | None:
    return None if x is None else np.array(x, dtype=float)
