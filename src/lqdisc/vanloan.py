"""Exact discretization via block matrix exponentials (Van Loan, 1978).

Each integral of the seed interval over h is the off-diagonal block of one
matrix exponential:

    Phi_1 = exp(h [[-H_cq', S ], [0, H_cq ]]),  S = E_1' Qbar_c E_1
        =>  Omega_q = Phi_1_22,  X_q = Phi_1_22' Phi_1_12
    Phi_2 = exp(h [[0, I], [0, H_cm']])
        =>  Omega_m = Phi_2_22',  Y_m = Phi_2_12 E_1' Mbar_c
    Phi_3 = exp(h H_c)
        =>  [[A, B_1], [0, I]] and [[A_v, B_2], [0, I]] on its diagonal
    C_3   = exp(h [[-A_c, G_c G_c'], [0, A_c']])
        =>  R_ww = C_3_22' C_3_12

The R_ww combination uses C_3_22' on the left (equivalently A(h) C_3_12,
with no transpose on A); the other placement is not symmetric and fails
the quadrature cross-check.

The -H_cq' block grows like e^{||h H_cq||}, so a long or strongly
discounted interval overflows Phi_1. The seed is therefore taken at
h = t/2^s, with s chosen from the 1-norms of t H_cq and t H_cm, and
squared s times with `compose` (Higham, 2005).
"""

from __future__ import annotations

import math

import numpy as np

from .matcore import Mat, asmat, block, expm, symmetrize
from .exactdefs import (CoreResult, DeqSystem, Interval, compose,
                        core_result, power, projected_identity)

# Largest 1-norm of h H_cq and h H_cm taken by the seed exponentials.
SEED_NORM = 1.0


def squarings(sys: DeqSystem, t: float) -> int:
    """Smallest s >= 0 with the 1-norms of (t/2^s) H_cq, H_cm <= SEED_NORM."""
    norm = t * max(np.linalg.norm(sys.H_cq, 1), np.linalg.norm(sys.H_cm, 1))
    if not norm > SEED_NORM:
        return 0
    return math.ceil(math.log2(norm / SEED_NORM))


def exact_seed(sys: DeqSystem, h: float, G_c: Mat | None = None) -> Interval:
    """The interval over h from three exponentials, four with G_c."""
    n_h, n_x, n_xu = sys.n_h, sys.n_x, sys.n_xu
    S = sys.E1.T @ sys.Qbar_c @ sys.E1
    zero = np.zeros((n_h, n_h))
    eye = np.eye(n_h)
    phi1 = expm(h * block([[-sys.H_cq.T, S], [zero, sys.H_cq]]))
    phi2 = expm(h * block([[zero, eye], [zero, sys.H_cm.T]]))
    phi3 = expm(h * sys.H_c)
    if G_c is None:
        G_c = sys.G_c
    omega_q = phi1[n_h:, n_h:]
    v = slice(n_xu, n_xu + n_x)
    return Interval(
        A=phi3[:n_x, :n_x], B_1=phi3[:n_x, n_x:n_xu],
        A_v=phi3[v, v] if sys.delay else None,
        B_2=phi3[v, n_xu + n_x:2 * n_xu] if sys.delay else None,
        omega_q=omega_q, X_q=omega_q.T @ phi1[:n_h, n_h:],
        omega_m=phi2[n_h:, n_h:].T,
        Y_m=phi2[:n_h, n_h:] @ (sys.E1.T @ sys.Mbar_c),
        R=None if G_c is None else rww_expm(sys.A_c, G_c, h))


def discretize_expm(sys: DeqSystem, t: float | None = None,
                    G_c: Mat | None = None) -> CoreResult:
    """Exact (to expm accuracy) discretization at t (default one interval).

    The seed over t/2^s is squared s times; `doublings` records s.
    """
    if t is None:
        t = sys.Ts
    s = squarings(sys, t)
    iv = power(exact_seed(sys, t / 2 ** s, G_c=G_c), 2 ** s)
    return core_result(compose(projected_identity(sys, iv), iv), "expm",
                       doublings=s)


def rww_expm(A_c: Mat, G_c: Mat, t: float) -> Mat:
    """R_ww(t) = int_0^t e^{A_c s} G_c G_c' e^{A_c' s} ds via one exponential."""
    A_c = asmat(A_c)
    G_c = asmat(G_c)
    n = A_c.shape[0]
    z = np.zeros((n, n))
    c3 = expm(t * block([[-A_c, G_c @ G_c.T], [z, A_c.T]]))
    return symmetrize(c3[n:, n:].T @ c3[:n, n:])
