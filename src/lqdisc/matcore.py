"""Dense real-matrix kernel shared by the discretization modules.

Thin wrappers around numpy/scipy that add the dimension and conditioning
checks the rest of the package relies on: matrix exponential, pivot-checked
linear solve, and symmetry/PSD helpers.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

Mat = np.ndarray

# Relative pivot tolerance for declaring a solve singular.
PIVOT_RTOL = 1e-13


class DimensionError(ValueError):
    """Operands do not conform."""


class DomainError(ValueError):
    """Input values outside the operation's domain (non-finite, negative...)."""


class NumericalError(ValueError):
    """A computation broke down (singular stage, non-finite result)."""


class SingularMatrixError(NumericalError):
    """Linear solve hit a pivot below tolerance."""

    def __init__(self, message, pivot_index=None):
        super().__init__(message)
        self.pivot_index = pivot_index


def asmat(x) -> Mat:
    """Coerce to a 2-D float64 array (vectors become columns)."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise DimensionError(f"expected at most 2 dimensions, got {a.ndim}")
    return a


def _require_square(X: Mat, name: str) -> Mat:
    X = asmat(X)
    if X.shape[0] != X.shape[1]:
        raise DimensionError(f"{name} must be square, got {X.shape}")
    return X


def _require_finite(X: Mat, name: str) -> Mat:
    if not np.all(np.isfinite(X)):
        raise DomainError(f"{name} has non-finite entries")
    return X


def expm(X: Mat) -> Mat:
    """Matrix exponential e^X (scaling-and-squaring)."""
    X = _require_finite(_require_square(X, "expm argument"), "expm argument")
    return scipy.linalg.expm(X)


def solve(A: Mat, B: Mat) -> Mat:
    """Solve A X = B with partial pivoting; raise on tiny pivots."""
    A = _require_finite(_require_square(A, "solve matrix"), "solve matrix")
    B = asmat(B)
    if B.shape[0] != A.shape[0]:
        raise DimensionError(f"rhs rows {B.shape[0]} != matrix size {A.shape[0]}")
    with warnings.catch_warnings():
        # The pivot check below supersedes scipy's singularity warning.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivots = np.abs(np.diag(lu))
    tol = PIVOT_RTOL * max(inf_norm(A), 1e-300)
    bad = np.nonzero(pivots <= tol)[0]
    if bad.size:
        raise SingularMatrixError(
            f"singular matrix in solve: pivot {bad[0]} is {pivots[bad[0]]:.3e} "
            f"(tolerance {tol:.3e})",
            pivot_index=int(bad[0]),
        )
    return scipy.linalg.lu_solve((lu, piv), B, check_finite=False)


def inf_norm(X: Mat) -> float:
    """Induced infinity norm (max absolute row sum)."""
    X = asmat(X)
    if X.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(X), axis=1)))


def max_abs(X: Mat) -> float:
    """Largest absolute entry; the error measure used throughout."""
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        return 0.0
    return float(np.max(np.abs(X)))


def symmetrize(X: Mat) -> Mat:
    X = _require_square(X, "symmetrize argument")
    return 0.5 * (X + X.T)


def is_symmetric(X: Mat, tol: float = 1e-12) -> bool:
    X = asmat(X)
    if X.shape[0] != X.shape[1]:
        return False
    return max_abs(X - X.T) <= tol * max(max_abs(X), 1.0)


def min_eig_sym(X: Mat) -> float:
    """Smallest eigenvalue of a symmetric matrix (symmetrized first)."""
    X = _require_square(X, "min_eig_sym argument")
    if X.size == 0:
        return 0.0
    return float(np.min(scipy.linalg.eigvalsh(symmetrize(X))))


def is_psd(X: Mat, tol: float = 1e-10) -> bool:
    """PSD test: min eigenvalue >= -tol * max(||X||inf, 1)."""
    return min_eig_sym(X) >= -tol * max(inf_norm(X), 1.0)
