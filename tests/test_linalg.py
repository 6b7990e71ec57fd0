"""Tests for the dense linear-algebra substrate."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import compatamg as cm
from compatamg.linalg import (
    COND_LIMIT,
    SingularMatrixError,
    lu_solver,
    require_nonsingular,
    spd_sqrt_pair,
)
from conftest import random_spd, random_stable

A2 = np.array([[1.0, 0.0], [-1.0, 1.0]])


@pytest.mark.parametrize(
    "A,f,c,ff,fc,cf,cc",
    [
        (A2, (0,), (1,), [[1.0]], [[0.0]], [[-1.0]], [[1.0]]),
        (np.eye(3), (0, 2), (1,), np.eye(2), [[0.0], [0.0]], [[0.0, 0.0]], [[1.0]]),
        (
            np.array([[2.0, -1.0], [-1.0, 2.0]]),
            (1,),
            (0,),
            [[2.0]],
            [[-1.0]],
            [[-1.0]],
            [[2.0]],
        ),
    ],
)
def test_partition_blocks(A, f, c, ff, fc, cf, cc):
    Ap = cm.partition(A, cm.CFPartition(A.shape[0], f, c))
    np.testing.assert_array_equal(Ap.ff, ff)
    np.testing.assert_array_equal(Ap.fc, fc)
    np.testing.assert_array_equal(Ap.cf, cf)
    np.testing.assert_array_equal(Ap.cc, cc)


def test_partition_dimension_mismatch():
    with pytest.raises(ValueError):
        cm.partition(np.eye(3), cm.CFPartition(2, (0,), (1,)))
    with pytest.raises(ValueError):
        cm.partition(np.ones((2, 3)), cm.CFPartition(2, (0,), (1,)))


@pytest.mark.parametrize(
    "f,c",
    [((), (0, 1)), ((0,), (0, 1)), ((0,), (2,)), ((0, 1), (1,))],
)
def test_partition_invalid_splits(f, c):
    with pytest.raises(ValueError):
        cm.CFPartition(2, f, c)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 10_000))
def test_reassembly_exact(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    k = int(rng.integers(1, n))
    idx = rng.permutation(n)
    part = cm.CFPartition(n, tuple(idx[:k]), tuple(idx[k:]))
    Ap = cm.partition(A, part)
    np.testing.assert_array_equal(Ap.reassemble(), A)
    np.testing.assert_array_equal(part.from_ffirst(part.to_ffirst(A)), A)


@pytest.mark.parametrize(
    "A,f,expected",
    [
        (A2, (0,), [[1.0]]),
        (np.array([[2.0, -1.0], [-1.0, 2.0]]), (0,), [[1.5]]),
        (np.eye(4), (0, 1), np.eye(2)),
    ],
)
def test_schur_c(A, f, expected):
    n = A.shape[0]
    c = tuple(i for i in range(n) if i not in f)
    S = cm.schur_c(cm.partition(A, cm.CFPartition(n, f, c)))
    np.testing.assert_allclose(S, expected, atol=1e-14)


@pytest.mark.parametrize(
    "A,f,expected",
    [
        (A2, (0,), [[1.0]]),
        (np.array([[2.0, -1.0], [-1.0, 2.0]]), (0,), [[1.5]]),
        (np.eye(4), (0, 1), np.eye(2)),
    ],
)
def test_schur_f(A, f, expected):
    n = A.shape[0]
    c = tuple(i for i in range(n) if i not in f)
    S = cm.schur_f(cm.partition(A, cm.CFPartition(n, f, c)))
    np.testing.assert_allclose(S, expected, atol=1e-14)


def test_schur_singular_block_raises():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    Ap = cm.partition(A, cm.CFPartition(2, (0,), (1,)))
    with pytest.raises(SingularMatrixError):
        cm.schur_c(Ap)
    with pytest.raises(SingularMatrixError):
        cm.schur_f(Ap)


@pytest.mark.parametrize(
    "A", [np.array([[1.0, 1.0], [1.0, 1.0]]), np.diag([1.0, 1e-13])], ids=["exact", "near"]
)
def test_guard_rejects_singular_matrices_by_name(A):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError, match="the test matrix") as exc:
            require_nonsingular(A, "the test matrix")
        with pytest.raises(SingularMatrixError, match="the test matrix"):
            lu_solver(A, "the test matrix")
    assert f"{COND_LIMIT:.0e}" in str(exc.value)


def test_guard_accepts_ill_conditioned_but_nonsingular():
    A = np.diag([1.0, 1e-9])
    require_nonsingular(A)
    np.testing.assert_allclose(lu_solver(A)(np.ones(2)), [1.0, 1e9], rtol=1e-15)


def test_lu_solver_solves_with_a_and_its_transpose():
    rng = np.random.default_rng(11)
    A = random_stable(rng, 9)
    B = rng.standard_normal((9, 3))
    solve = lu_solver(A)
    np.testing.assert_allclose(A @ solve(B), B, atol=1e-12)
    np.testing.assert_allclose(A.T @ solve(B, trans=1), B, atol=1e-12)


def test_structured_lu_solver_matches_scipy_solve_on_tridiagonal():
    rng = np.random.default_rng(12)
    n = 30
    A = np.diag(rng.uniform(0.1, 1.0, n)) + np.diag(rng.standard_normal(n - 1), 1)
    A += np.diag(rng.standard_normal(n - 1), -1)
    b = rng.standard_normal(n)
    solve = lu_solver(A, structured=True)
    np.testing.assert_array_equal(solve(b), scipy.linalg.solve(A, b))
    np.testing.assert_allclose(A.T @ solve(b, trans=1), b, atol=1e-12)
    B = rng.standard_normal((n, 3))
    np.testing.assert_allclose(A @ solve(B), B, atol=1e-12)


def test_schur_inverse_identity():
    # the C-block of the inverse is the inverse of the C-Schur complement,
    # and likewise on the F side
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = random_stable(rng, 10)
        part = cm.default_splitting(10, "alternate")
        Ap = cm.partition(A, part)
        Ainv = np.linalg.inv(A)
        c, f = list(part.cpoints), list(part.fpoints)
        np.testing.assert_allclose(
            Ainv[np.ix_(c, c)], np.linalg.inv(cm.schur_c(Ap)), rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            Ainv[np.ix_(f, f)], np.linalg.inv(cm.schur_f(Ap)), rtol=1e-10, atol=1e-12
        )


def test_realize_norm_identity_and_astara():
    M = cm.realize_norm("identity", A2)
    np.testing.assert_array_equal(M, np.eye(2))
    M = cm.realize_norm("AstarA", A2)
    np.testing.assert_allclose(M, [[2.0, -1.0], [-1.0, 1.0]], atol=1e-15)


def test_realize_norm_sqrt_squares_to_astara():
    rng = np.random.default_rng(5)
    for _ in range(5):
        A = random_stable(rng, 9)
        S = cm.realize_norm("SqrtAstarA", A)
        T = cm.realize_norm("AstarA", A)
        np.testing.assert_allclose(S @ S, T, rtol=1e-10, atol=1e-12)
        assert cm.spd_check(S)


def test_realize_norm_prerequisites():
    nonsym = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        cm.realize_norm("A", nonsym)
    indefinite_sym = np.array([[1.0, 3.0], [-1.0, -1.0]])  # sym part [[1,1],[1,-1]]
    with pytest.raises(ValueError):
        cm.realize_norm("Asym", indefinite_sym)
    with pytest.raises(ValueError):
        cm.realize_norm("AstarAsymInvA", indefinite_sym)
    with pytest.raises(ValueError):
        cm.realize_norm(cm.NormSpec("Custom", np.array([[0.0, 1.0], [-1.0, 0.0]])), A2)
    payload = np.array([[2.0, 0.0], [0.0, 3.0]])
    np.testing.assert_array_equal(
        cm.realize_norm(cm.NormSpec("Custom", payload), A2), payload
    )


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        cm.NormSpec("no-such-norm")
    with pytest.raises(ValueError):
        cm.NormSpec("identity", np.eye(2))
    with pytest.raises(ValueError):
        cm.NormSpec("Custom")
    assert cm.NormSpec("astara").tag == "AstarA"


@pytest.mark.parametrize(
    "M,expected",
    [
        (np.eye(3), True),
        (np.array([[0.0, 1.0], [-1.0, 0.0]]), False),
        (np.array([[2.0, -1.0], [-1.0, 2.0]]), True),
        (np.array([[1.0, 0.0], [0.0, -1.0]]), False),
    ],
)
def test_spd_check(M, expected):
    assert cm.spd_check(M) is expected


def test_spd_check_scaling():
    rng = np.random.default_rng(1)
    M = random_spd(rng, 6)
    assert cm.spd_check(M) and cm.spd_check(1e6 * M) and cm.spd_check(1e-6 * M)


def test_m_adjoint_examples():
    T = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(cm.m_adjoint(T, np.eye(2)), T.T, atol=1e-15)
    S = np.array([[2.0, -1.0], [-1.0, 2.0]])
    np.testing.assert_allclose(cm.m_adjoint(S, np.eye(2)), S, atol=1e-15)
    T = np.array([[0.0, 1.0], [0.0, 1.0]])
    M = np.diag([1.0, 4.0])
    np.testing.assert_allclose(
        cm.m_adjoint(T, M), [[0.0, 0.0], [0.25, 1.0]], atol=1e-14
    )


def test_m_adjoint_inner_product_identity():
    # <T x, y>_M == <x, adj(T) y>_M on random draws
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        T = rng.standard_normal((n, n))
        M = random_spd(rng, n)
        adj = cm.m_adjoint(T, M)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        lhs = (T @ x) @ (M @ y)
        rhs = x @ (M @ (adj @ y))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_m_adjoint_requires_spd():
    with pytest.raises(ValueError):
        cm.m_adjoint(np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_operator_m_norm_examples():
    assert cm.operator_m_norm(np.array([[0.0, 0.0], [0.0, 1.0]]), np.eye(2)) == pytest.approx(1.0)
    assert cm.operator_m_norm(np.array([[0.0, 1.0], [0.0, 1.0]]), np.eye(2)) == pytest.approx(np.sqrt(2.0))
    rng = np.random.default_rng(9)
    M = random_spd(rng, 5)
    assert cm.operator_m_norm(np.eye(5), M) == pytest.approx(1.0, abs=1e-12)


def test_operator_m_norm_consistency():
    rng = np.random.default_rng(11)
    for _ in range(20):
        T = rng.standard_normal((7, 7))
        assert abs(cm.operator_m_norm(T, np.eye(7)) - np.linalg.norm(T, 2)) <= 1e-12
        M = random_spd(rng, 7)
        a = cm.operator_m_norm(T, M)
        b = cm.operator_m_norm(T, 37.5 * M)
        assert abs(a - b) <= 1e-10 * a


def test_spd_sqrt_pair():
    rng = np.random.default_rng(13)
    M = random_spd(rng, 8)
    S, Si = spd_sqrt_pair(M)
    np.testing.assert_allclose(S @ S, M, rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(S @ Si, np.eye(8), atol=1e-12)
    with pytest.raises(ValueError):
        spd_sqrt_pair(np.diag([1.0, -1.0]))

