"""Exact discretization via block matrix exponentials (Van Loan, 1978).

Each integral of the seed interval over h is the off-diagonal block of one
matrix exponential:

    Phi_1 = exp(h [[-H_cq', S ], [0, H_cq ]]),  S = E_1' Qbar_c E_1
        =>  Omega_q = Phi_1_22,  X_q = Phi_1_22' Phi_1_12
    Phi_2 = exp(h [[0, I], [0, H_cm']])
        =>  Omega_m = Phi_2_22',  Y_m = Phi_2_12 E_1' Mbar_c
    Phi_3 = exp(h H_j), one stack over the input blocks H_j of H_c
        =>  T, the transitions [[A_j, B_j], [0, I]]
    C_3   = exp(h [[-A_c, G_c G_c'], [0, A_c']])
        =>  R_ww = C_3_22' C_3_12

The R_ww combination uses C_3_22' on the left (equivalently A(h) C_3_12,
with no transpose on A); the other placement is not symmetric and fails
the quadrature cross-check.

The -H_cq' block grows like e^{||h H_cq||}, so a long or strongly
discounted interval overflows Phi_1. The seed is therefore taken at
h = Ts/2^s, with s chosen from the 1-norms of Ts H_cq and Ts H_cm, and
squared s times with `compose`: the scaling and squaring that
`matcore.expm` applies to its Taylor approximant (Paterson-Stockmeyer,
degree and squarings from the alpha_p power-norm bound of Al-Mohy &
Higham, 2011), here over the whole interval.
"""

from __future__ import annotations

import math

import numpy as np

from .matcore import Mat, NumericalError, asmat, expm, symmetrize
from .exactdefs import (CoreResult, DeqSystem, Interval, compose,
                        core_result, power, projected_identity)

# Largest 1-norm of h H_cq and h H_cm taken by the seed exponentials.
SEED_NORM = 1.0


def squarings(sys: DeqSystem) -> int:
    """Smallest s >= 0 with the 1-norms of (Ts/2^s) H_cq, H_cm <= SEED_NORM."""
    norm = sys.Ts * max(np.linalg.norm(sys.H_cq, 1), np.linalg.norm(sys.H_cm, 1))
    if not norm > SEED_NORM:
        return 0
    return math.ceil(math.log2(norm / SEED_NORM))


def _upper(a, b, d) -> Mat:
    """[[a, b], [0, d]] from n x n blocks; d fixes n."""
    n = d.shape[0]
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = a
    M[:n, n:] = b
    M[n:, n:] = d
    return M


def exact_seed(sys: DeqSystem, h: float) -> Interval:
    """The interval over h from three exponentials, four with G_c."""
    n_h = sys.n_h
    S = sys.E1.T @ sys.Qbar_c @ sys.E1
    phi1 = expm(h * _upper(-sys.H_cq.T, S, sys.H_cq))
    phi2 = expm(h * _upper(0.0, np.eye(n_h), sys.H_cm.T))
    omega_q = phi1[n_h:, n_h:]
    return Interval(
        T=expm(h * sys.input_blocks(sys.H_c)),
        omega_q=omega_q, X_q=omega_q.T @ phi1[:n_h, n_h:],
        omega_m=phi2[n_h:, n_h:].T,
        Y_m=phi2[:n_h, n_h:] @ (sys.E1.T @ sys.Mbar_c),
        R=None if sys.G_c is None else rww_expm(sys.A_c, sys.G_c, h))


def discretize_expm(sys: DeqSystem) -> CoreResult:
    """Exact (to expm accuracy) discretization over one interval Ts.

    The seed over Ts/2^s is squared s times; `doublings` records s.
    """
    s = squarings(sys)
    iv = power(exact_seed(sys, sys.Ts / 2 ** s), 2 ** s)
    return core_result(sys, compose(projected_identity(sys, iv), iv), "expm",
                       doublings=s)


def rww_expm(A_c: Mat, G_c: Mat, t: float) -> Mat:
    """R_ww(t) = int_0^t e^{A_c s} G_c G_c' e^{A_c' s} ds via one exponential.

    The block holds both -A_c and A_c', so it grows like e^{t ||A_c||}
    whatever the sign of A_c's eigenvalues; where it overflows, this
    raises NumericalError naming t and ||A_c||_1 instead of returning NaN.
    """
    A_c = asmat(A_c)
    G_c = asmat(G_c)
    n = A_c.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        c3 = expm(t * _upper(-A_c, G_c @ G_c.T, A_c.T))
        R = c3[n:, n:].T @ c3[:n, n:]
    if not np.isfinite(R).all():
        raise NumericalError(
            f"R_ww over t = {t:.6g} overflows: its Van Loan block grows like "
            f"e^(t ||A_c||), ||A_c||_1 = {np.linalg.norm(A_c, 1):.6g}")
    return symmetrize(R)
