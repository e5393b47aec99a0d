"""Dense real-matrix kernel shared by the discretization modules.

Numpy only, with the dimension and conditioning checks the rest of the
package relies on: the matrix exponential (truncated Taylor series by
Paterson-Stockmeyer with scaling and squaring, Al-Mohy & Higham 2011),
a pivot-checked linear solve, and symmetry/PSD helpers. The two seed
kernels, `expm` and `solve`, take a stack (..., n, n) of same-size
matrices and treat each matrix as a separate call would, with one
batched pass of numpy work per stack; a single matrix is a stack of one.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

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
    """Linear solve hit a pivot below tolerance; `stack_index` is the index
    of the singular matrix in a stack (None for a single matrix)."""

    def __init__(self, message, pivot_index=None, stack_index=None):
        super().__init__(message)
        self.pivot_index = pivot_index
        self.stack_index = stack_index


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
    if not np.isfinite(X).all():
        raise DomainError(f"{name} has non-finite entries")
    return X


# Taylor degrees m = 4q + 3, each with the largest 1-norm at which the
# truncated series T_m is accurate to unit roundoff u = 2^-53:
# theta_m solves sum_k |c_k| theta^(k-1) = u over the series
# log(e^-x T_m(x)) = sum_{k>m} c_k x^k (Al-Mohy & Higham 2011). Degree 31
# would never be the cheapest: what it covers with s squarings, degree 23
# covers with s + 1 (2 theta_23 > theta_31) at one product less.
_DEGREES = (3, 7, 11, 15, 19, 23, 27)
_THETA = (1.3863478661191213e-5, 2.3844555325002736e-2,
          2.1423580684517107e-1, 6.4108352330411986e-1,
          1.2603810606426388, 2.0147107809446162, 2.861449633934264)
# Per degree from 7 up, highest first: (products, log2 theta_m, index, p).
# The products are X^2, X^3, X^4 and one per block after the first; p is
# the largest of 3, 4, 5 with p (p - 1) <= m + 1, so alpha_p may bound
# the degree's backward error (see _scaled).
_STEPS = tuple((3 + m // 4, math.log2(theta), d,
                max(p for p in (3, 4, 5) if p * (p - 1) <= m + 1))
               for d, (m, theta) in reversed(list(enumerate(zip(_DEGREES,
                                                                 _THETA))))
               if m > 3)
# Row j: the coefficients 1/(4j + i)!, i = 0..3, of the block B_j.
_ROWS = tuple(np.array([[1.0 / math.factorial(4 * j + i) for i in range(4)]
                        for j in range(m // 4 + 1)]) for m in _DEGREES)


def _square_stack(X, name: str) -> Mat:
    """Coerce to a float64 stack (..., n, n) of square matrices; below two
    dimensions as `asmat`."""
    a = np.asarray(X, dtype=float)
    if a.ndim < 2:
        a = asmat(a)
    if a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"{name} must be square, got {a.shape}")
    return a


def _norms(X: Mat, axis: int) -> Mat:
    """Per matrix of a stack: the 1-norm (axis -2) or inf-norm (axis -1)."""
    return np.abs(X).sum(axis=axis).max(axis=-1, initial=0.0)


def _powers(X: Mat, k: int) -> Mat:
    """[I, X, X^2, X^3, X^4] of each matrix of a stack X (p, n, n), as
    (p, 5, n, n); X^4 is left zero for k = 3."""
    p, n = X.shape[:2]
    P = np.zeros((p, 5, n, n))
    P.reshape(p, -1)[:, :n * n:n + 1] = 1.0
    P[:, 1] = X
    np.matmul(X, X, out=P[:, 2])
    np.matmul(P[:, 2:3], P[:, 1:k - 1], out=P[:, 3:k + 1])  # X^2 [X, X^2]
    return P


def _taylor(P: Mat, d: int) -> Mat:
    """T_m(X), m = _DEGREES[d], per matrix from P = [I, X, ..., X^4]
    (p, 5, n, n) by Paterson-Stockmeyer: T_m = sum_j (X^4)^j B_j with
    B_j = sum_i X^i / (4j + i)!, in Horner form in X^4."""
    p, n = P.shape[0], P.shape[-1]
    B = (_ROWS[d] @ P[:, :4].reshape(p, 4, n * n)).reshape(p, -1, n, n)
    R, X4 = B[:, -1], P[:, 4]
    for j in range(B.shape[1] - 2, -1, -1):
        R = R @ X4
        R += B[:, j]
    return R


def _step(log2_alpha: tuple) -> tuple:
    """(degree index, squarings) for log2_alpha[p - 3] = log2(alpha_p),
    p = 3, 4, 5: the fewest products plus squarings, the fewest squarings
    on a tie."""
    best = (math.inf,)
    for products, log2_theta, d, p in _STEPS:
        s = math.ceil(log2_alpha[p - 3] - log2_theta)
        if s < 0:
            s = 0
        if products + s < best[0]:
            best = (products + s, d, s)
    return best[1:]


def _scaled(X: Mat, norm1: list) -> tuple:
    """Degree index, squarings s and the powers [I, X_s, ..., X_s^4] of
    X_s = 2^-s X, per matrix of a stack X (p, n, n) of 1-norms norm1.

    With d_k = ||X^k||^(1/k), alpha_p = max(d_p, d_(p+1)) bounds the
    backward error of T_m where p (p - 1) <= m + 1 (Al-Mohy & Higham 2011,
    Thm 4.2), and so does its minimum over smaller p, and ||X||. Each
    matrix takes the degree m >= 7 and the s >= 0 with
    2^-s alpha <= theta_m at the fewest products plus squarings, first
    from X^2, X^3, X^4, which T_m uses anyway (alpha_3). Where that asks
    for two squarings or more and d_4 is at most alpha_3 / 2, X^5 and X^6
    give alpha_4 and alpha_5: on a non-normal matrix, such as a Van Loan
    block with a large coupling, they save squarings, and each squaring
    costs accuracy. A matrix of 1-norm 2^128 or more has its powers taken
    of 2^-e X, with 1-norm below 1, so that none overflows; the powers of
    X_s are then scaled by 2^(k (e - s)), exactly.
    """
    e = [math.frexp(x)[1] if x >= 2.0 ** 128 else 0 for x in norm1]
    if any(e):
        X = np.ldexp(X, np.negative(e)[:, None, None])
    P = _powers(X, 4)
    alpha, steps, refine = [], [], []
    for i, (x, (y2, y3, y4)) in enumerate(
            zip(norm1, _norms(P[:, 2:], -2).tolist())):
        d3, d4 = y3 ** (1 / 3), y4 ** 0.25
        a = min(math.ldexp(x, -e[i]), max(y2 ** 0.5, d3), max(d3, d4))
        alpha.append(a)
        # a zero alpha (vanishing powers) counts as the least double
        t = e[i] + math.log2(max(a, 5e-324))
        steps.append(_step((t, t, t)))
        if steps[-1][1] >= 2 and d4 <= a / 2:
            refine.append((i, d4))
    if refine:
        Y = _rows_of(P, [i for i, _ in refine])
        y5 = _norms(Y[:, 4] @ Y[:, 1], -2).tolist()
        y6 = _norms(Y[:, 4] @ Y[:, 2], -2).tolist()
        for (i, d4), x5, x6 in zip(refine, y5, y6):
            d5 = x5 ** 0.2
            a4 = min(alpha[i], max(d4, d5))
            a5 = min(a4, max(d5, x6 ** (1 / 6)))
            steps[i] = _step(tuple(e[i] + math.log2(max(a, 5e-324))
                                   for a in (alpha[i], a4, a5)))
    degree = [d for d, _ in steps]
    s = [si for _, si in steps]
    shift = [[k * (ei - si) for k in range(1, 5)] for ei, si in zip(e, s)]
    if any(map(any, shift)):
        np.ldexp(P[:, 1:], np.array(shift)[..., None, None], out=P[:, 1:])
    return degree, s, P


def expm(X: Mat) -> Mat:
    """Matrix exponential e^X by Taylor scaling and squaring, per matrix of
    a stack (..., n, n); one matrix is a stack of one.

    The truncated series T_m of degree m = 3, 7, ..., 27 is evaluated by
    Paterson-Stockmeyer from X^2, X^3 and X^4 with matrix products alone,
    and no LAPACK call: a solve, as a Pade approximant needs, costs as
    much as 11-13 products of its size on numpy with OpenBLAS. A matrix
    whose 1-norm is at most theta_27 takes the cheapest degree with
    ||X||_1 <= theta_m, unscaled. Above, the degree m >= 7 and the
    squarings s come from alpha = min(||X||, max(d_2, d_3), max(d_3, d_4)),
    d_k = ||X^k||^(1/k), with 2^-s alpha <= theta_m (Al-Mohy & Higham
    2011), and from X^5 and X^6 too where the powers fall off fast (see
    `_scaled`). X^2, X^3 and X^4 are formed once for both. No 1-norm in the
    double range overflows them, and e^X below the double range comes
    back as zeros.

    Each matrix gets its own degree and squarings, so a stack gives, matrix
    by matrix, the results of separate calls. The matrices of one degree,
    scaled or not, go through the approximant as one stack.
    """
    X = _square_stack(X, "expm argument")
    shape, n = X.shape, X.shape[-1]
    X = X.reshape((-1, n, n))
    norm1 = _norms(X, -2).tolist()
    if not max(norm1, default=0.0) < math.inf:
        _require_finite(X, "expm argument")
        raise DomainError("expm argument has a 1-norm that overflows")
    degree = [bisect.bisect_left(_THETA, x) for x in norm1]
    s = [0] * len(degree)
    direct = [i for i, d in enumerate(degree) if d < len(_THETA)]
    R = None
    if len(direct) < len(degree):
        scaled = [i for i, d in enumerate(degree) if d == len(_THETA)]
        ds, ss, P = _scaled(_rows_of(X, scaled), [norm1[i] for i in scaled])
        for i, di, si in zip(scaled, ds, ss):
            degree[i], s[i] = di, si
        R = _fill(R, X, scaled, degree, P)
    if direct:
        k = 4 if max(degree[i] for i in direct) else 3
        R = _fill(R, X, direct, degree, _powers(_rows_of(X, direct), k))
    for k in range(max(s, default=0)):
        live = [i for i, si in enumerate(s) if si > k]
        if len(live) == len(s):
            R = R @ R
        else:
            R[live] = R[live] @ R[live]
    return (X.copy() if R is None else R).reshape(shape)


def _rows_of(X: Mat, index: list) -> Mat:
    """X[index], without a copy when index is the whole stack."""
    return X if len(index) == len(X) else X[index]


def _fill(R, X: Mat, index: list, degree: list, P: Mat) -> Mat:
    """R with R[index] = T_m of the matrices X[index], whose powers are P,
    m = _DEGREES[degree[i]], one stack per degree; R is made when None."""
    groups = {}
    for j, i in enumerate(index):
        groups.setdefault(degree[i], []).append(j)
    for d, sel in groups.items():
        T = _taylor(_rows_of(P, sel), d)
        if len(sel) == len(X):
            return T
        if R is None:
            R = np.empty_like(X)
        R[[index[j] for j in sel]] = T
    return R


def _first_small_pivot(A: Mat, tol: float):
    """(index, |pivot|) of the first pivot <= tol of A's LU factorization
    with partial pivoting (largest entry, first on ties), or None."""
    U = A.copy()
    n = U.shape[0]
    for k in range(n):
        p = k + int(np.argmax(np.abs(U[k:, k])))
        if p != k:
            U[[k, p], k:] = U[[p, k], k:]
        pivot = abs(U[k, k])
        if pivot <= tol:
            return k, pivot
        U[k + 1:, k] *= 1.0 / U[k, k]
        U[k + 1:, k + 1:] -= np.outer(U[k + 1:, k], U[k, k + 1:])
    return None


def solve(A: Mat, B: Mat) -> Mat:
    """Solve A X = B with partial pivoting, per matrix of a stack A
    (..., n, n); raise on tiny pivots. B is one right-hand side (n, k) for
    every matrix, or a stack (..., n, k) of the same stack shape. One
    matrix is a stack of one.

    With partial pivoting |l_ij| <= 1, so U^-1 = A^-1 P' L has
    ||U^-1||_inf <= n ||A^-1||_inf and every pivot is at least
    1 / (n ||A^-1||_inf). One inverse is taken for the whole stack, and
    where that bound is twice a matrix's tolerance its inverse answers.
    Each other matrix (every one, when the stacked inverse raises) goes
    through an explicit elimination, in stack order, which finds the
    first pivot at or below the tolerance; the error names the stack
    index and the pivot.
    """
    A = _require_finite(_square_stack(A, "solve matrix"), "solve matrix")
    B = np.asarray(B, dtype=float)
    if B.ndim < 2:
        B = asmat(B)
    stack, n = A.shape[:-2], A.shape[-1]
    if B.shape[-2] != n:
        raise DimensionError(f"rhs rows {B.shape[-2]} != matrix size {n}")
    if B.ndim > 2 and B.shape[:-2] != stack:
        raise DimensionError(
            f"rhs stack {B.shape[:-2]} != matrix stack {stack}")
    tol = PIVOT_RTOL * np.maximum(_norms(A, -1), 1e-300)
    try:
        inverse = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        inverse = np.full(A.shape, np.nan)
    X = inverse @ B
    answered = n * _norms(inverse, -1) * tol <= 0.5
    for i in np.ndindex(stack):
        if answered[i]:
            continue
        bad = _first_small_pivot(A[i], tol[i])
        if bad is not None:
            k, pivot = bad
            where = f"stack index {i[0] if len(i) == 1 else i}, " if i else ""
            raise SingularMatrixError(
                f"singular matrix in solve: {where}pivot {k} is {pivot:.3e} "
                f"(tolerance {tol[i]:.3e})",
                pivot_index=k, stack_index=i or None)
        X[i] = np.linalg.solve(A[i], B[i] if B.ndim > 2 else B)
    return X


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
    return float(np.min(np.linalg.eigvalsh(symmetrize(X))))


def is_psd(X: Mat, tol: float = 1e-10) -> bool:
    """PSD test: min eigenvalue >= -tol * max(||X||inf, 1)."""
    return min_eig_sym(X) >= -tol * max(inf_norm(X), 1.0)
