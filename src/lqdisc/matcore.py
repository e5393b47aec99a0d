"""Dense real-matrix kernel shared by the discretization modules.

Numpy only, with the dimension and conditioning checks the rest of the
package relies on: the matrix exponential (Pade scaling and squaring,
Higham 2005 and Al-Mohy & Higham 2009), a pivot-checked linear solve, and
symmetry/PSD helpers. The two seed kernels, `expm` and `solve`, take a
stack (..., n, n) of same-size matrices and treat each matrix as a
separate call would, with one batched pass of numpy work per stack; a
single matrix is a stack of one.
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


def _pade(m: int) -> tuple:
    """Coefficients b_0..b_m of the [m/m] Pade numerator of e^x, b_m = 1."""
    return tuple(float(math.factorial(2 * m - j)
                       // (math.factorial(j) * math.factorial(m - j)))
                 for j in range(m + 1))


# Largest 1-norm at which the degree-m approximant is accurate to unit
# roundoff (Higham 2005), and the degree-13 bound on the power-norm
# estimate (Al-Mohy & Higham 2009).
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068))
_THETA_BOUNDS = [theta for _, theta in _THETA]
_THETA_13 = 4.25
_B = {m: _pade(m) for m in (3, 5, 7, 9, 13)}
# Degree m < 13: U = X W_0, V = W_1 with W = rows @ [I, X^2, X^4, ...].
_ODD_EVEN = {m: np.array([b[1::2], b[0::2]]) for m, b in _B.items() if m < 13}
# Degree 13: U = X (X^6 W_0 + W_1), V = X^6 W_2 + W_3 over [I, X^2, X^4, X^6].
_ROWS_13 = np.array([[0.0, *_B[13][9::2]], _B[13][1:9:2],
                     [0.0, *_B[13][8:13:2]], _B[13][0:8:2]])
# log2(u / |c_27|): u the unit roundoff, c_27 the leading coefficient of
# the degree-13 backward error series.
_LOG2_U_C27 = -53 + math.log2(math.factorial(26) * math.factorial(27)
                              / math.factorial(13) ** 2)


def _ell(X: Mat, norm1: float) -> int:
    """Squarings the degree-13 approximant needs beyond the power-norm
    choice (Al-Mohy & Higham 2009): ceil(log2(alpha / u) / 26)
    with alpha = |c_27| || |X|^27 ||_1 / ||X||_1, or 0. Since
    || |X|^27 ||_1 <= ||X||_1^27, it is 0 when ||X||_1^26 |c_27| <= u."""
    log2_bound = 26 * math.log2(norm1)
    if log2_bound <= _LOG2_U_C27:
        return 0
    C = np.abs(X) / norm1               # ||C||_1 = 1: no power overflows
    v = C.sum(axis=0)                   # 1' C
    C2 = C @ C
    C4 = C2 @ C2
    C8 = C4 @ C4
    v = v @ C2 @ C8 @ (C8 @ C8)         # 1' C^(1 + 2 + 8 + 16)
    top = float(v.max())
    if top == 0.0:
        return 0
    return max(math.ceil((log2_bound + math.log2(top) - _LOG2_U_C27) / 26), 0)


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


def _even_powers(X: Mat, k: int) -> Mat:
    """[X^2, X^4, ..., X^(2k)] of each matrix of a stack X (p, n, n), as
    (p, k, n, n)."""
    P = np.empty(X.shape[:1] + (k,) + X.shape[1:])
    np.matmul(X, X, out=P[:, 0])
    for j in range(1, k):
        np.matmul(P[:, j - 1], P[:, 0], out=P[:, j])
    return P


def _combine(rows: Mat, P: Mat) -> Mat:
    """rows @ [I, P_1, ..., P_k] over the flattened matrices, per stack
    member: (p, r, n, n) from P (p, k, n, n)."""
    p, k, n = P.shape[:2] + P.shape[-1:]
    W = rows[:, 1:] @ P.reshape(p, k, n * n)
    W[..., ::n + 1] += rows[:, :1]
    return W.reshape(p, len(rows), n, n)


def _pade_ratio(U: Mat, V: Mat) -> Mat:
    """r_m = (V - U)^-1 (V + U)."""
    return np.linalg.solve(V - U, V + U)


def _approximant(X: Mat, d: int, norm1: list) -> Mat:
    """The approximant of degree index d (3, 5, 7, 9, then 13 with its
    squarings) on a stack X (p, n, n) of 1-norms norm1."""
    if d < len(_THETA):
        m = _THETA[d][0]
        W = _combine(_ODD_EVEN[m], _even_powers(X, m // 2))
        return _pade_ratio(X @ W[:, 0], W[:, 1])
    P = _even_powers(X, 3)
    s = []
    for Xi, (n4, n6), norm in zip(X, _norms(P[:, 1:], -2).tolist(), norm1):
        eta = max(n4 ** 0.25, (n4 * n6) ** 0.1)
        si = max(math.ceil(math.log2(eta / _THETA_13)), 0) if eta > 0.0 else 0
        s.append(si + _ell(Xi * 2.0 ** -si, norm * 2.0 ** -si))
    if max(s):
        scale = np.array([2.0 ** -si for si in s])
        X = X * scale[:, None, None]
        P *= (scale[:, None] ** np.array([2, 4, 6]))[..., None, None]
    W = _combine(_ROWS_13, P)
    U = X @ (P[:, 2] @ W[:, 0] + W[:, 1])
    R = _pade_ratio(U, P[:, 2] @ W[:, 2] + W[:, 3])
    for _ in range(min(s)):             # the squarings every matrix takes
        R = R @ R
    for k in range(min(s), max(s)):
        live = [i for i, si in enumerate(s) if si > k]
        R[live] = R[live] @ R[live]
    return R


def expm(X: Mat) -> Mat:
    """Matrix exponential e^X by Pade scaling and squaring, per matrix of a
    stack (..., n, n); one matrix is a stack of one.

    Each matrix gets its own degree and squarings, so a stack gives, matrix
    by matrix, the results of separate calls. Degree 3, 5, 7 or 9 when the
    1-norm is at most its threshold (Higham 2005). Above, degree 13 with s
    squarings picked from ||X^4||^(1/4) and
    ||X^10||^(1/10) <= (||X^4|| ||X^6||)^(1/10), the powers the degree-13
    approximant forms anyway (Al-Mohy & Higham 2009). The matrices of one
    degree go through the approximant as one stack.
    """
    X = _square_stack(X, "expm argument")
    shape, n = X.shape, X.shape[-1]
    X = X.reshape((-1, n, n))
    norm1 = _norms(X, -2).tolist()
    if not max(norm1, default=0.0) < math.inf:
        _require_finite(X, "expm argument")
        raise DomainError("expm argument has a 1-norm that overflows")
    degree = [bisect.bisect_left(_THETA_BOUNDS, x) for x in norm1]
    groups = set(degree)
    if len(groups) == 1:
        return _approximant(X, groups.pop(), norm1).reshape(shape)
    R = np.empty_like(X)
    for d in groups:
        sel = [i for i, di in enumerate(degree) if di == d]
        R[sel] = _approximant(X[sel], d, [norm1[i] for i in sel])
    return R.reshape(shape)


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
