"""Exact discretization via block matrix exponentials (Van Loan, 1978).

Each integral of the seed interval over h is the off-diagonal block of one
matrix exponential, for every span generator G_p at once (one stacked
`expm` per kind), with G_q = G_p - (mu/2) I and G_m = G_p - mu I:

    Phi_1 = exp(h [[-G_q', Qbar_p], [0, G_q]])
        =>  Omega_q = Phi_1_22,  X_q = Phi_1_22' Phi_1_12
    Phi_2 = exp(h [[0, I], [0, G_m']])
        =>  Omega_m = Phi_2_22',  Y_m = Phi_2_12 Mbar_p
    Phi_3 = exp(h G_p)
        =>  T, the transition [[A, B], [0, I]]

R_ww is no part of the seed: `build_deq` takes it from `rww_expm`.

The -G_q' block grows like e^{||h G_q||}, so a long or strongly
discounted span overflows Phi_1. The discounted fields of span p are
therefore taken at h_p/2^s, one s for all spans (the largest that the
1-norms of h_p G_q and h_p G_m need), and squared s times with `compose`:
the scaling and squaring of `matcore.expm` (Al-Mohy & Higham, 2011), over
each span. T needs no such step: Phi_3 is taken over the whole span.
"""

from __future__ import annotations

import math

import numpy as np

from .matcore import expm
# rww_expm is re-exported: lqdisc.vanloan.rww_expm is public
from .exactdefs import (CoreResult, DeqSystem, Interval, _upper, core_result,
                        power, rww_expm)

# Largest 1-norm of h G_q and h G_m taken by the seed exponentials.
SEED_NORM = 1.0


def squarings(sys: DeqSystem) -> int:
    """Smallest s >= 0 with the 1-norms of (h_p/2^s) G_q and G_m <= SEED_NORM
    on every span."""
    eye = np.eye(sys.n_xu)
    norm = max((sys.h_p * np.abs(sys.G_p - shift * eye).sum(axis=-2).max(
        axis=-1)).max() for shift in (sys.mu / 2.0, sys.mu))
    if not norm > SEED_NORM:
        return 0
    return math.ceil(math.log2(norm / SEED_NORM))


def exact_seed(sys: DeqSystem, h, s: int = 0) -> Interval:
    """The stack of span intervals over h (one length for every span, or
    one per span) from three stacked exponentials.

    T is e^{G_p h}, one exponential over the whole of h. The discounted
    fields are taken over h/2^s and squared s times with `power`, their
    seed's T being I: so T takes no rounding from the squarings.
    """
    h = np.reshape(h, (-1, 1, 1))
    n = sys.n_xu
    eye = np.eye(n)
    G_q = sys.G_p - (sys.mu / 2.0) * eye
    G_m = sys.G_p - sys.mu * eye
    phi1 = expm(h / 2 ** s * _upper(-G_q.swapaxes(-1, -2), sys.Qbar_p, G_q))
    phi2 = expm(h / 2 ** s * _upper(0.0, eye, G_m.swapaxes(-1, -2)))
    omega_q = phi1[..., n:, n:]
    seed = Interval(
        T=np.broadcast_to(eye, omega_q.shape),
        omega_q=omega_q, X_q=omega_q.swapaxes(-1, -2) @ phi1[..., :n, n:],
        omega_m=phi2[..., n:, n:].swapaxes(-1, -2),
        Y_m=phi2[..., :n, n:] @ sys.Mbar_p)
    return power(seed, 2 ** s)._replace(T=expm(h * sys.G_p))


def discretize_expm(sys: DeqSystem) -> CoreResult:
    """Exact (to expm accuracy) discretization over one interval Ts.

    Every span's interval over h_p, its discounted fields from h_p/2^s
    squared s times and its T from one exponential over h_p, so A and B_o
    take no rounding from the squarings at any discount. The spans are
    chained; `doublings` records s.
    """
    s = squarings(sys)
    return core_result(sys, exact_seed(sys, sys.h_p, s), "expm", doublings=s)
