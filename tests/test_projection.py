"""Tests for coarse-grid correction projections and their measurements."""

import json

import numpy as np
import pytest
import scipy.linalg

import compatamg as cm
from compatamg.linalg import SingularMatrixError, _tridiagonal_product, _tridiagonal_rows, orth_basis
from compatamg.projection import _galerkin
from compatamg.transfer import _ideal_block
from conftest import (
    ORDERS,
    SPLITS,
    TRIDIAGONAL_KINDS,
    random_pair_case,
    random_spd,
    random_stable,
    tridiagonal_problem,
)

A2 = np.array([[1.0, 0.0], [-1.0, 1.0]])
P2 = cm.CFPartition(2, (0,), (1,))
I2 = np.eye(2)
# on A = I: Pi = [[0, 1], [0, 1]], a rank-1 oblique projection, and Pi = diag(0, 1)
PI_OBLIQUE = cm.coarse_correction(I2, cm.make_pair(P2, [[0.0]], [[1.0]]))
PI_ORTHO = cm.coarse_correction(I2, cm.make_pair(P2, [[0.0]], [[0.0]]))


def _split(n):
    return cm.default_splitting(n, "alternate")


def test_build_pi_smallest_example():
    pair = cm.make_pair(P2, np.array([[1.0]]), np.array([[0.0]]))
    pi, K = cm.build_pi(A2, pair)
    np.testing.assert_allclose(pi, [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(K, [[1.0]], atol=1e-15)


def test_build_pi_idempotent_and_rank():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A, _, pair = random_pair_case(rng)
        pi, _ = cm.build_pi(A, pair)
        scale = np.linalg.norm(pi)
        assert np.linalg.norm(pi @ pi - pi) <= 1e-10 * scale
        assert abs(np.trace(pi) - pair.nc) <= 1e-10 * max(1, scale)


def test_build_pi_galerkin_spd():
    # symmetric pair on an SPD matrix gives a correction symmetric in A
    A = cm.generate(cm.ProblemSpec("laplacian1d", n=12))
    part = _split(12)
    W = cm.ideal_w(cm.partition(A, part))
    pair = cm.TransferPair(
        part.assemble_rows(W, np.eye(part.nc)),
        part.assemble_rows(W, np.eye(part.nc)),
        part,
    )
    pi, _ = cm.build_pi(A, pair)
    AP = A @ pi
    assert np.linalg.norm(AP - AP.T) <= 1e-12 * np.linalg.norm(AP)
    assert abs(cm.pi_m_norm(cm.coarse_correction(A, pair), A) - 1.0) <= 1e-10


def test_build_pi_singular_coarse_operator():
    part = cm.CFPartition(4, (0, 1), (2, 3))
    pair = cm.make_pair(part, np.eye(2), -np.eye(2))  # R*P = 0 with A = I
    with pytest.raises(SingularMatrixError, match="incompatible"):
        cm.build_pi(np.eye(4), pair)


def test_hand_made_corrections_are_the_2x2_projections():
    for corr, dense in ((PI_OBLIQUE, [[0.0, 1.0], [0.0, 1.0]]), (PI_ORTHO, np.diag([0.0, 1.0]))):
        np.testing.assert_array_equal(cm.build_pi(I2, corr.pair)[0], dense)


def test_pi_m_norm_examples():
    assert cm.pi_m_norm(PI_ORTHO, np.eye(2)) == pytest.approx(1.0)
    assert cm.pi_m_norm(PI_OBLIQUE, np.eye(2)) == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize(
    "measure",
    [cm.pi_m_norm, cm.nonorth_measure, cm.min_canonical_angle, cm.orthogonality_checks],
)
def test_measures_reject_a_dense_projection(measure):
    with pytest.raises(TypeError, match="coarse_correction"):
        measure(np.diag([0.0, 1.0]), np.eye(2))


def test_norm_equals_complement_norm():
    rng = np.random.default_rng(2)
    for _ in range(20):
        A, M, pair = random_pair_case(rng)
        pi, _ = cm.build_pi(A, pair)
        a = cm.pi_m_norm(cm.coarse_correction(A, pair), M)
        b = cm.operator_m_norm(np.eye(pi.shape[0]) - pi, M)
        assert abs(a - b) <= 1e-10 * max(1.0, a)


def test_nonorth_measure_examples():
    pair = cm.make_pair(P2, np.array([[1.0]]), np.array([[0.0]]))
    assert cm.nonorth_measure(cm.coarse_correction(A2, pair), np.eye(2)) <= 1e-10
    assert cm.nonorth_measure(PI_OBLIQUE, np.eye(2)) == pytest.approx(1.0, abs=1e-12)


def test_nonorth_measure_consistency():
    # the amplification over the M-complement satisfies norm^2 = 1 + sup^2
    rng = np.random.default_rng(4)
    for _ in range(50):
        A, M, pair = random_pair_case(rng)
        corr = cm.coarse_correction(A, pair)
        nrm = cm.pi_m_norm(corr, M)
        sup = cm.nonorth_measure(corr, M)
        assert abs(np.sqrt(nrm**2 - 1.0) - sup) <= 1e-8 * max(1.0, sup)


def test_min_canonical_angle_examples():
    pair = cm.make_pair(P2, np.array([[1.0]]), np.array([[0.0]]))
    corr = cm.coarse_correction(A2, pair)
    assert cm.min_canonical_angle(corr, np.eye(2)) == pytest.approx(np.pi / 2)
    assert cm.min_canonical_angle(PI_OBLIQUE, np.eye(2)) == pytest.approx(np.pi / 4)


def test_angle_norm_identities():
    rng = np.random.default_rng(6)
    for _ in range(30):
        A, M, pair = random_pair_case(rng)
        corr = cm.coarse_correction(A, pair)
        nrm = cm.pi_m_norm(corr, M)
        th = cm.min_canonical_angle(corr, M)
        assert abs(nrm * np.sin(th) - 1.0) <= 1e-8
        assert abs(nrm**2 - (1.0 + 1.0 / np.tan(th) ** 2)) <= 1e-7 * max(1, nrm**2)


def test_orthogonality_checks_examples():
    all_true = cm.orthogonality_checks(PI_ORTHO, np.eye(2))
    assert all_true.all_true and all_true.agree
    all_false = cm.orthogonality_checks(PI_OBLIQUE, np.eye(2))
    assert not any(all_false.as_dict().values())
    assert all_false.agree


@pytest.mark.parametrize("m2", [0.5, 1.0, 2.0, 4.0])
def test_orthogonality_checks_diag_family(m2):
    # a projection is M-orthogonal exactly when its complement amplification
    # vanishes; this oblique projection never is, for any diagonal SPD M
    M = np.diag([1.0, m2])
    checks = cm.orthogonality_checks(PI_OBLIQUE, M)
    assert checks.agree
    assert checks.all_true == (cm.nonorth_measure(PI_OBLIQUE, M) <= 1e-8)
    assert not checks.all_true


def test_checks_agree_on_random_and_catalog():
    rng = np.random.default_rng(8)
    for _ in range(25):
        A, M, pair = random_pair_case(rng)
        assert cm.orthogonality_checks(cm.coarse_correction(A, pair), M).agree
    A = random_stable(np.random.default_rng(9), 12)
    part = _split(12)
    for entry in cm.catalog_pairs(A, part):
        if entry.skipped:
            continue
        M = cm.realize_norm(entry.norm, A)
        checks = cm.orthogonality_checks(cm.coarse_correction(A, entry.pair), M)
        assert checks.agree and checks.all_true


def test_verify_compat_equation_examples():
    A = cm.generate(cm.ProblemSpec("advection1d", n=16))
    part = _split(16)
    pair, tag = cm.single_operator_pair(A, part, 1)
    assert cm.verify_compat_equation(A, cm.realize_norm(tag, A), pair)

    rng = np.random.default_rng(10)
    Ar = random_stable(rng, 12)
    pr = _split(12)
    zero = cm.make_pair(pr, np.zeros((pr.nf, pr.nc)), np.zeros((pr.nf, pr.nc)))
    assert not cm.verify_compat_equation(Ar, np.eye(12), zero)


def test_verify_compat_equation_decides_a_pair_with_a_singular_coarse_operator():
    # R*P = 0 with A = I: the guard rejects K, yet range(P) and range(R) are
    # orthogonal subspaces and the equation gets its verdict
    part = cm.CFPartition(4, (0, 1), (2, 3))
    pair = cm.make_pair(part, np.eye(2), -np.eye(2))
    with pytest.raises(SingularMatrixError):
        cm.coarse_correction(np.eye(4), pair)
    assert not cm.verify_compat_equation(np.eye(4), np.eye(4), pair)
    same = cm.make_pair(part, np.eye(2), np.eye(2))
    assert cm.verify_compat_equation(np.eye(4), np.eye(4), same)


def test_uniqueness_block_diagonal_family():
    # restriction ideal on A with zero interpolation block stays orthogonal in
    # every norm whose matrix is block diagonal over the splitting
    rng = np.random.default_rng(12)
    A = random_stable(rng, 20)
    part = _split(20)
    pair = cm.make_pair(
        part, cm.ideal_z(cm.partition(A, part)), np.zeros((part.nf, part.nc))
    )
    corr = cm.coarse_correction(A, pair)
    for _ in range(5):
        Mff = random_spd(rng, part.nf)
        Mcc = random_spd(rng, part.nc)
        Mf = np.zeros((20, 20))
        Mf[: part.nf, : part.nf] = Mff
        Mf[part.nf :, part.nf :] = Mcc
        M = part.from_ffirst(Mf)
        assert cm.verify_compat_equation(A, M, pair)
        assert cm.orthogonality_checks(corr, M).all_true


def m_adjoint(T, M):
    """Adjoint of T in the M-inner product, M^{-1} T* M."""
    return np.linalg.solve(M, T.T @ M)


def test_adjoint_norm_invariant():
    # the M-adjoint M^{-1} Pi* M has the norm of Pi
    rng = np.random.default_rng(14)
    for _ in range(15):
        A, M, pair = random_pair_case(rng)
        pi, _ = cm.build_pi(A, pair)
        a = cm.pi_m_norm(cm.coarse_correction(A, pair), M)
        b = cm.operator_m_norm(m_adjoint(pi, M), M)
        assert abs(a - b) <= 1e-10 * max(1.0, a)


def _m_orthonormal_basis(X, M):
    """Basis of range(X) whose columns are orthonormal in the M-inner product."""
    B = orth_basis(X)
    L = np.linalg.cholesky(B.T @ M @ B)
    return scipy.linalg.solve_triangular(L, B.T, lower=True).T


def test_m_orthonormal_representation():
    # with M-orthonormal bases V for the range and U for the range of the
    # M-adjoint, the projection is V (U*MV)^{-1} U*M and its M-norm is
    # the spectral norm of (U*MV)^{-1}
    rng = np.random.default_rng(16)
    for _ in range(10):
        A, M, pair = random_pair_case(rng)
        pi, _ = cm.build_pi(A, pair)
        V = _m_orthonormal_basis(pi, M)
        U = _m_orthonormal_basis(m_adjoint(pi, M), M)
        Kc = U.T @ M @ V
        nrm = cm.pi_m_norm(cm.coarse_correction(A, pair), M)
        assert abs(np.linalg.norm(np.linalg.inv(Kc), 2) - nrm) <= 1e-8 * max(1, nrm)
        rebuilt = V @ np.linalg.solve(Kc, U.T @ M)
        assert np.linalg.norm(rebuilt - pi) <= 1e-8 * max(1, np.linalg.norm(pi))


def test_projection_report_serialization():
    rng = np.random.default_rng(18)
    A, M, pair = random_pair_case(rng)
    report = cm.projection_report(A, pair, M)
    assert set(report) == {
        "pi_norm",
        "nonorth_sup",
        "min_angle",
        "compat_eq",
        "orthogonality_checks",
    }
    loaded = json.loads(json.dumps(report))
    assert loaded == report
    assert report["pi_norm"] >= 1.0 - 1e-12
    assert not report["compat_eq"]
    assert not any(report["orthogonality_checks"].values())

    Ao = cm.generate(cm.ProblemSpec("advection1d", n=10))
    po = _split(10)
    pair_o, tag = cm.single_operator_pair(Ao, po, 1)
    rep_o = cm.projection_report(Ao, pair_o, cm.realize_norm(tag, Ao, factored=True))
    assert rep_o["compat_eq"] and all(rep_o["orthogonality_checks"].values())
    assert rep_o["pi_norm"] == 1.0 and rep_o["nonorth_sup"] <= 1e-14


@pytest.mark.parametrize("zero", ["Z", "W", None])
def test_galerkin_skips_zero_blocks_with_the_same_bits(zero):
    # a dense A keeps the block products Z* A[F, :] + A[C, :] and
    # (R*A)[:, F] W + (R*A)[:, C]; an exactly zero block adds exact zeros,
    # so skipping it keeps every bit. With Z = 0, K is A[C, F] W + A[C, C]
    # and R*A = A[C, :] is left to the correction's first read
    from compatamg.projection import _galerkin

    rng = np.random.default_rng(46)
    A = random_stable(rng, 30)
    part = _split(30)
    f, c = list(part.fpoints), list(part.cpoints)
    blocks = {k: rng.standard_normal((part.nf, part.nc)) for k in "ZW"}
    if zero:
        blocks[zero][:] = 0.0
    pair = cm.make_pair(part, blocks["Z"], blocks["W"])
    RA, K = _galerkin(cm.ProblemStore(A), pair, None)
    RA_ref = blocks["Z"].T @ A[f]
    RA_ref += A[c]
    K_ref = RA_ref[:, f] @ blocks["W"] + RA_ref[:, c]
    assert (RA is None) == (zero == "Z")
    if RA is not None:
        assert RA.tobytes() == RA_ref.tobytes()
    assert K.tobytes() == K_ref.tobytes()
    assert cm.coarse_correction(A, pair).RA.tobytes() == RA_ref.tobytes()


def _tridiagonal_case(kind, split, n, blocks, seed):
    """(A, part, store, Z, W) on a tridiagonal A: Z and W drawn at random, or
    the store's ideal blocks of A, whose entries off A's pattern are zeros
    of either sign."""
    A = tridiagonal_problem(kind, n)
    part = cm.default_splitting(n, split, seed=3)
    store = cm.ProblemStore(A)
    if blocks == "ideal":
        Z, W = (_ideal_block(store, part, "A", side) for side in "ZW")
    else:
        rng = np.random.default_rng(seed)
        Z, W = rng.standard_normal((2, part.nf, part.nc))
    return A, part, store, Z, W


@pytest.mark.parametrize("blocks", ["random", "ideal"])
@pytest.mark.parametrize("split", SPLITS)
@pytest.mark.parametrize("kind", TRIDIAGONAL_KINDS)
def test_galerkin_on_a_tridiagonal_a_matches_the_dense_products(kind, split, blocks):
    # R*A is (A*R)* from A's three diagonals, to round-off of the dense GEMM;
    # K is read off the F and C rows of A*R alone, with the bits of the
    # products on the whole of R*A
    A, part, store, Z, W = _tridiagonal_case(kind, split, 40, blocks, 47)
    pair = cm.make_pair(part, Z, W)
    diags = store.tridiagonal()
    RA_formed, K = _galerkin(store, pair, diags)
    assert RA_formed is None
    RA = cm.coarse_correction(A, pair).RA
    RA_ref = _tridiagonal_product(diags, part.assemble_rows(Z, np.eye(part.nc)), trans=1).T
    assert RA.tobytes() == RA_ref.tobytes()
    f, c = part.fidx, part.cidx
    assert K.tobytes() == (RA_ref[:, f] @ W + RA_ref[:, c]).tobytes()
    eps = np.finfo(float).eps
    R, P = pair.R, pair.P
    assert np.all(np.abs(RA - R.T @ A) <= 4 * eps * (np.abs(R.T) @ np.abs(A)))
    np.testing.assert_allclose(K, R.T @ A @ P, rtol=0, atol=1e-13 * np.abs(R.T @ A @ P).max())


@pytest.mark.parametrize("blocks", ["random", "ideal"])
@pytest.mark.parametrize("split", SPLITS)
@pytest.mark.parametrize("kind", TRIDIAGONAL_KINDS)
def test_galerkin_k_of_a_zero_z_pair_on_a_tridiagonal_a_matches_the_dense_product(kind, split, blocks):
    # with Z = 0, K is the C rows of A P, taken on A's three diagonals: each
    # entry is a sum of at most three products, a few ulps of |R*| |A| |P|,
    # with the bits of those rows of the whole product A P, signed zeros
    # included; R*A = A[C, :] is formed only when the correction reads it
    n = 41
    A, part, store, _, W = _tridiagonal_case(kind, split, n, blocks, 50)
    pair = cm.make_pair(part, np.zeros((part.nf, part.nc)), W)
    diags = store.tridiagonal()
    RA, K = _galerkin(store, pair, diags)
    assert RA is None
    RA = cm.coarse_correction(A, pair).RA
    P_ref = part.assemble_rows(W, np.eye(part.nc))
    assert K.tobytes() == _tridiagonal_product(diags, P_ref)[part.cidx].tobytes()
    R, P = pair.R, pair.P
    assert RA.tobytes() == A[list(part.cpoints)].tobytes()
    bound = 4 * np.finfo(float).eps * (np.abs(R.T) @ np.abs(A) @ np.abs(P))
    assert np.all(np.abs(K - R.T @ A @ P) <= bound)


@pytest.mark.parametrize("blocks", ["random", "ideal"])
@pytest.mark.parametrize("split", SPLITS)
@pytest.mark.parametrize("kind", TRIDIAGONAL_KINDS)
def test_galerkin_k_of_a_zero_w_pair_on_a_tridiagonal_a_keeps_the_bits_of_the_full_product(kind, split, blocks):
    # with W = 0, K is the transpose of the C rows of A* R, from A's three
    # diagonals and Z, with the bits of the C columns of the whole R*A; the
    # correction forms that R*A, (A* R)*, only when it is read
    A, part, store, Z, _ = _tridiagonal_case(kind, split, 41, blocks, 51)
    pair = cm.make_pair(part, Z, np.zeros((part.nf, part.nc)))
    diags = store.tridiagonal()
    RA, K = _galerkin(store, pair, diags)
    assert RA is None
    RA_ref = _tridiagonal_product(diags, part.assemble_rows(Z, np.eye(part.nc)), trans=1).T
    assert K.tobytes() == RA_ref[:, part.cidx].tobytes()
    assert cm.coarse_correction(A, pair).RA.tobytes() == RA_ref.tobytes()


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("split", SPLITS)
@pytest.mark.parametrize("kind", TRIDIAGONAL_KINDS)
def test_row_kernel_keeps_the_bits_of_the_full_product(kind, split, n):
    # every row subset of A X and A* X for X = [B; I], with B holding zeros
    # of both signs, has the bits of those rows of the product on A's
    # diagonals; on -A the identity rows' fill is the other signed zero
    A = tridiagonal_problem(kind, n)
    part = cm.default_splitting(n, split, seed=n)
    rng = np.random.default_rng(n)
    B = rng.standard_normal((part.nf, part.nc))
    B[rng.random(B.shape) < 0.3] = 0.0
    B[rng.random(B.shape) < 0.3] = -0.0
    for M in (A, -A):
        diags = cm.ProblemStore(M).tridiagonal()
        X = part.assemble_rows(B, np.eye(part.nc))
        for trans in (0, 1):
            full = _tridiagonal_product(diags, X, trans=trans)
            for rows in (part.fidx, part.cidx, np.arange(n), np.arange(n)[::-1]):
                Y = _tridiagonal_rows(diags, part, B, rows, trans=trans)
                assert Y.tobytes() == full[rows].tobytes()
