"""Step-doubling discretization: N substeps by binary powering.

The fixed-step recurrences are geometric in the constant coefficients, so
the one-step seed interval composed with itself reaches N steps in
floor(log2 N) squarings, plus one compose per further set bit of N; the
seeds of all spans are powered as one stack, N steps on every span.
Composing an interval with itself updates each integral with the factors
of the half it doubles, before the transitions are squared:

    X_q(2n) = X_q(n) + Omega_q(n)' X_q(n) Omega_q(n)
    Y_m(2n) = Y_m(n) + Omega_m(n)' Y_m(n)
"""

from __future__ import annotations

import operator

from .matcore import DomainError
from .exactdefs import CoreResult, DeqSystem, core_result, power
from .fixedstep import ButcherTableau, CoefficientSet, build_coefficients


def discretize_step_doubling(sys: DeqSystem, tableau: ButcherTableau,
                             j: int, coeffs: CoefficientSet | None = None
                             ) -> CoreResult:
    """Discretize with N = 2^j substeps, or with coeffs.n_steps substeps
    (any N >= 1) when coefficients are given; j is then floor(log2 N),
    the number of squarings."""
    j = operator.index(j)
    if j < 0:
        raise DomainError(f"doubling exponent must be >= 0, got {j}")
    if coeffs is None:
        coeffs = build_coefficients(sys, tableau, 2 ** j)
    n = operator.index(coeffs.n_steps)
    if n.bit_length() - 1 != j:
        raise DomainError(
            f"coefficient set was built for N={n}, which takes "
            f"{n.bit_length() - 1} doublings, not {j}")
    return core_result(sys, power(coeffs.seed, n), "doubling",
                       scheme=coeffs.scheme, steps=n, doublings=j)
