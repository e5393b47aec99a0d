"""Unit tests for the dense-matrix kernel."""

import numpy as np
import pytest

from lqdisc.matcore import (DimensionError, DomainError, SingularMatrixError,
                            asmat, expm, inf_norm, is_psd, is_symmetric,
                            max_abs, min_eig_sym, solve, symmetrize)


def expm_taylor(X, terms=40):
    """Plain series oracle, adequate for ||X|| <= 1."""
    out = np.eye(X.shape[0])
    term = np.eye(X.shape[0])
    for k in range(1, terms + 1):
        term = term @ X / k
        out = out + term
    return out


def test_expm_matches_taylor_series_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5):
        for _ in range(5):
            X = rng.normal(size=(n, n))
            X *= 0.8 / max(inf_norm(X), 1e-12)
            assert max_abs(expm(X) - expm_taylor(X)) < 1e-14


def test_expm_nilpotent():
    X = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert max_abs(expm(X) - np.array([[1.0, 1.0], [0.0, 1.0]])) < 1e-15


def test_expm_rejects_bad_input():
    with pytest.raises(DimensionError):
        expm(np.ones((2, 3)))
    with pytest.raises(DomainError):
        expm(np.array([[np.nan]]))


def test_solve_matches_numpy():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(6, 6)) + 6 * np.eye(6)
    B = rng.normal(size=(6, 3))
    assert max_abs(solve(A, B) - np.linalg.solve(A, B)) < 1e-12


def test_solve_singular_reports_pivot():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as exc:
        solve(A, np.eye(2))
    assert exc.value.pivot_index == 1


def test_solve_shape_mismatch():
    with pytest.raises(DimensionError):
        solve(np.eye(2), np.ones((3, 1)))


def test_norm_hand_values():
    X = np.array([[1.0, -2.0], [3.0, 0.5]])
    assert inf_norm(X) == 3.5
    assert max_abs(X) == 3.0
    assert inf_norm(np.zeros((0, 0))) == 0.0
    assert max_abs(np.zeros((0, 0))) == 0.0


def test_asmat_promotes_scalars_and_vectors():
    assert asmat(2.0).shape == (1, 1)
    assert asmat([1.0, 2.0]).shape == (2, 1)
    with pytest.raises(DimensionError):
        asmat(np.zeros((2, 2, 2)))


def test_symmetry_helpers():
    X = np.array([[1.0, 2.0], [0.0, 5.0]])
    S = symmetrize(X)
    assert np.array_equal(S, S.T)
    assert is_symmetric(S)
    assert not is_symmetric(X)
    assert not is_symmetric(np.ones((2, 3)))


def test_min_eig_and_psd_tolerance():
    assert min_eig_sym(np.diag([3.0, -2.0])) == pytest.approx(-2.0)
    assert is_psd(np.eye(3))
    assert is_psd(-5e-11 * np.eye(3))     # inside the -1e-10 band
    assert not is_psd(-1e-9 * np.eye(3))  # outside it
