"""Tests for the dense linear-algebra substrate."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import compatamg as cm
import compatamg.linalg as linalg
from compatamg.linalg import (
    COND_LIMIT,
    SingularMatrixError,
    RANK_RTOL,
    lu_solver,
    orth_basis,
    require_nonsingular,
    solve_checked,
    spd_sqrt_pair,
)
from conftest import (
    ORDERS,
    SPLITS,
    TRIDIAGONAL_KINDS,
    GatheringStore,
    assert_same_array,
    random_spd,
    random_stable,
    tridiagonal_problem,
)

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


def test_partition_index_arrays_are_read_only_copies_of_the_points():
    part = cm.CFPartition(6, (4, 0, 2), np.array([5, 1, 3]))
    for idx, points in ((part.fidx, part.fpoints), (part.cidx, part.cpoints)):
        assert idx.dtype == np.intp and not idx.flags.writeable
        assert tuple(idx.tolist()) == points
        with pytest.raises(ValueError):
            idx[0] = 0
    np.testing.assert_array_equal(part.perm, [4, 0, 2, 5, 1, 3])
    X = np.arange(12.0).reshape(6, 2)
    np.testing.assert_array_equal(part.f_rows(X), X[[4, 0, 2]])
    np.testing.assert_array_equal(part.c_rows(X), X[[5, 1, 3]])


def test_partition_equality_and_hash_read_only_the_points():
    # a partition keys store entries: the index arrays must not change
    # which partitions are equal, or make them unhashable
    a = cm.CFPartition(5, (0, 2, 4), (1, 3))
    b = cm.CFPartition(5, [np.int64(0), 2, 4], np.array([1, 3]))
    c = cm.CFPartition(5, (2, 0, 4), (1, 3))
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert hash(a) == hash((5, (0, 2, 4), (1, 3)))
    assert {a: 1}[b] == 1
    assert repr(a) == "CFPartition(n=5, fpoints=(0, 2, 4), cpoints=(1, 3))"


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 10_000))
def test_reassembly_exact(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    k = int(rng.integers(1, n))
    idx = rng.permutation(n)
    part = cm.CFPartition(n, tuple(idx[:k]), tuple(idx[k:]))
    Ap = cm.partition(A, part)
    f, c = list(part.fpoints), list(part.cpoints)
    B = np.empty_like(A)
    B[np.ix_(f, f)], B[np.ix_(f, c)] = Ap.ff, Ap.fc
    B[np.ix_(c, f)], B[np.ix_(c, c)] = Ap.cf, Ap.cc
    np.testing.assert_array_equal(B, A)
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


def test_singular_matrix_error_is_a_value_error():
    assert issubclass(SingularMatrixError, ValueError)


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
    solve = lu_solver(A)
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
    "parse,spelling,canonical",
    [
        (lambda t: cm.NormSpec(t).tag, "sqrt_astara", "SqrtAstarA"),
        (lambda t: cm.NormSpec(t).tag, "Astar-AsymInv A", "AstarAsymInvA"),
        (lambda t: cm.NormSpec(t).tag, "a_sym", "Asym"),
        (lambda t: cm.QChoice(t).tag, "A-inv star", "AinvStar"),
        (lambda t: cm.QChoice(t).tag, "a_a_star", "AAstar"),
        (lambda t: cm.ProblemSpec(t, n=4).kind, "Advection-Diffusion_1d", "advdiff1d"),
        (lambda t: cm.ProblemSpec(t, n=4).kind, "laplacian 1d", "laplacian1d"),
        (lambda t: cm.RelaxSpec(t).kind, "F-Jacobi", "fjacobi"),
        (lambda t: cm.RelaxSpec(t).kind, "f exact", "fexact"),
        (lambda t: cm.default_splitting(4, t).fpoints, "First-Half_F", (0, 1)),
        (lambda t: cm.default_splitting(4, t).fpoints, "first half", (0, 1)),
    ],
)
def test_tag_aliases_ignore_case_and_separators(parse, spelling, canonical):
    assert parse(spelling) == canonical


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



@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    rank_frac=st.floats(0.0, 1.0),
)
def test_orth_basis_matches_the_svd_range(seed, n, m, rank_frac):
    # X = U diag(s) V* of rank r with s in [1e-3, 1] scaled by a random power
    # of ten, so the numerical rank is r
    rng = np.random.default_rng(seed)
    r = round(rank_frac * min(n, m))
    U, _ = np.linalg.qr(rng.standard_normal((n, r)))
    V, _ = np.linalg.qr(rng.standard_normal((m, r)))
    s = 10.0 ** rng.uniform(-3.0, 0.0, r) * 10.0 ** rng.uniform(-6.0, 6.0)
    X = (U * s) @ V.T
    B = orth_basis(X)

    sv = np.linalg.svd(X, compute_uv=False)
    svd_rank = 0 if sv[0] == 0.0 else int(np.count_nonzero(sv > RANK_RTOL * sv[0]))
    assert B.shape == (n, svd_rank) == (n, r)
    np.testing.assert_allclose(B.T @ B, np.eye(r), rtol=0, atol=1e-12)
    if r:
        # largest principal-angle sine between range(B) and the SVD range
        Usvd = np.linalg.svd(X, full_matrices=False)[0][:, :r]
        assert np.linalg.norm(Usvd - B @ (B.T @ Usvd), 2) <= 1e-10


@pytest.mark.parametrize("shape", [(0, 0), (5, 0), (0, 3)])
def test_orth_basis_of_an_empty_matrix(shape):
    B = orth_basis(np.zeros(shape))
    assert B.shape == (shape[0], 0)


@pytest.mark.parametrize("shape", [(1, 1), (6, 4), (4, 6)])
def test_orth_basis_of_a_zero_matrix(shape):
    B = orth_basis(np.zeros(shape))
    assert B.shape == (shape[0], 0)


def test_orth_basis_examples():
    B = orth_basis(np.array([[3.0, 6.0], [0.0, 0.0], [4.0, 8.0]]))
    assert B.shape == (3, 1)
    np.testing.assert_allclose(np.abs(B[:, 0]), [0.6, 0.0, 0.8], atol=1e-15)
    np.testing.assert_allclose(np.abs(orth_basis(np.eye(3))), np.eye(3), atol=0)


def _structure_kinds(rng, n):
    """One matrix of each structure scipy.linalg.solve tells apart, and three
    general ones: banded wider than tridiagonal, Hessenberg and symmetric up
    to one ulp-sized entry."""
    D = rng.standard_normal((n, n)) + n * np.eye(n)
    S = D + D.T
    near = S.copy()
    near[0, -1] += 1e-14
    return {
        "diagonal": np.diag(np.diag(D)),
        "upper": np.triu(D),
        "lower": np.tril(D),
        "bidiagonal": np.tril(np.triu(D), 1),
        "tridiagonal": np.triu(np.tril(D, 1), -1),
        "symmetric": S,
        "spd": D @ D.T + np.eye(n),
        "dense": D,
        "pentadiagonal": np.triu(np.tril(D, 2), -2),
        "hessenberg": np.triu(D, -1),
        "near_symmetric": near,
    }


@pytest.mark.parametrize("n", [2, 5, 150])
def test_checked_solve_and_inverse_run_on_the_guards_factor(monkeypatch, n):
    # every structure is solved, and inverted by a solve of the identity, on
    # the guard's own factor (or its tridiagonal elimination), never by a
    # second factorization in scipy.linalg.solve or scipy.linalg.inv, to a
    # relative residual of 1e-12
    rng = np.random.default_rng(8)

    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.linalg.solve or scipy.linalg.inv was called")

    monkeypatch.setattr(scipy.linalg, "solve", forbidden)
    monkeypatch.setattr(scipy.linalg, "inv", forbidden)
    for name, A in _structure_kinds(rng, n).items():
        for B in (rng.standard_normal((n, 3)), rng.standard_normal(n)):
            X = solve_checked(A, B)
            assert X.shape == B.shape, name
            assert np.linalg.norm(A @ X - B) <= 1e-12 * np.linalg.norm(B), name
        X = solve_checked(A, np.eye(n))
        assert np.linalg.norm(A @ X - np.eye(n)) <= 1e-12 * np.sqrt(n), name


@pytest.mark.parametrize("tag", ["AstarA", "AstarAsymInvA"])
def test_norm_factor_h_is_g_inverse_adjoint_times_a_adjoint(tag):
    # the factor's H is G^{-*} A*, so A G^{-1} = H* and G A^{-1} = H^{-*}
    rng = np.random.default_rng(41)
    n = 12
    A = random_stable(rng, n)
    G = cm.realize_norm(tag, A, factored=True)
    eye = np.eye(n)
    Gd = G.apply(eye)
    close = dict(rtol=1e-12, atol=1e-12 * np.linalg.norm(A))
    np.testing.assert_allclose(np.linalg.solve(Gd.T, A.T), G.H.apply(eye), **close)
    np.testing.assert_allclose(A @ np.linalg.inv(Gd), G.H.apply_adj(eye), **close)
    np.testing.assert_allclose(Gd @ np.linalg.inv(A), G.H.solve_adj(eye), **close)


def test_store_keeps_a_failed_entry_without_a_reference_cycle():
    # the error of a failed entry is raised again to every caller, and the
    # store is freed by reference counting, not left to the cycle collector;
    # so is a store that a two-grid method was bound to, whose entries (the
    # pair's correction, the A_ff factor, the ideal blocks) never refer back
    # to it, while the pair built through it lives on
    import gc
    import weakref

    A = random_stable(np.random.default_rng(43), 8)
    store = cm.ProblemStore(A)
    for _ in range(2):
        with pytest.raises(ValueError, match="requires A to be SPD"):
            cm.realize_norm("A", store, factored=True)
    ref = weakref.ref(store)
    del store
    assert ref() is None

    n = 40
    store = cm.ProblemStore(cm.generate(cm.ProblemSpec("advdiff1d", n=n, epsilon=0.05)))
    pair, _ = cm.single_operator_pair(store, cm.default_splitting(n, "alternate"), "single2")
    spec = cm.TwoGridSpec(pair, post=cm.RelaxSpec("fexact"))
    cm.two_grid_conv_factor(store, spec)
    cm.iterate(store, spec, np.ones(n), np.zeros(n), 3)
    ref = weakref.ref(store)
    gc.disable()
    try:
        del store
        assert ref() is None
    finally:
        gc.enable()

    # so is a store made from A's diagonals, and one made from it, once the
    # dense A they share was built for a measure and the corrections bound
    # on them hold its reader
    store = cm.problem_store(cm.ProblemSpec("advdiff1d", n=n, epsilon=0.05))
    part = cm.default_splitting(n, "alternate")
    pair_store = cm.ProblemStore(store)
    pair, norm = cm.single_operator_pair(pair_store, part, "single3")
    spec = cm.TwoGridSpec(pair, pre=cm.RelaxSpec("jacobi"), post=cm.RelaxSpec("fexact"))
    cm.two_grid_conv_factor(pair_store, spec)
    cm.iterate(pair_store, spec, np.ones(n), np.zeros(n), 3)
    G = cm.realize_norm(norm, pair_store, factored=True)
    assert cm.pi_m_norm(cm.coarse_correction(pair_store, pair), G) == pytest.approx(1.0)
    refs = weakref.ref(store), weakref.ref(pair_store)
    gc.disable()
    try:
        del store, pair_store, G
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def _constant_diagonals(n, dl, d, du):
    return linalg._Diagonals(np.full(n - 1, dl), np.full(n, d), np.full(n - 1, du))


@pytest.mark.parametrize("kind", ["advection1d", "laplacian1d", "advdiff1d"])
def test_a_store_made_from_diagonals_builds_its_dense_a_once_on_first_read(monkeypatch, kind):
    # the store holds read-only copies of the diagonals it was given, with the
    # values a store of the dense A reads off it; the dense A is built on the
    # first read only, with generate's bits, and is the one array that every
    # store made from it reads, so a norm factor realized on it recognises it
    spec = cm.ProblemSpec(kind, n=9, epsilon=0.01)
    builds = []
    dense = linalg._Diagonals.dense
    monkeypatch.setattr(linalg._Diagonals, "dense", lambda d: (builds.append(1), dense(d))[1])
    store = cm.problem_store(spec)
    ref = cm.ProblemStore(cm.generate(spec))
    builds.clear()
    assert store.n == 9 and store.shape == (9, 9)
    for v, w in zip(store.tridiagonal(), ref.tridiagonal()):
        assert v.tobytes() == w.tobytes() and not v.flags.writeable
    child = cm.ProblemStore(cm.ProblemStore(store))
    assert child.n == 9 and builds == []
    A = child.A
    assert builds == [1] and A.tobytes() == ref.A.tobytes() and A.flags.c_contiguous
    assert store.A is A and cm.ProblemStore(store).A is A and builds == [1]
    G = cm.realize_norm("AstarA", store, factored=True)
    assert G.h_on(child.A) is not None


def test_threads_reading_a_store_made_from_diagonals_share_one_dense_a(monkeypatch):
    # case threads read A through stores made from one command's store; more
    # threads than cores, under a short switch interval, build it once and
    # all get that one array
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    builds = []
    dense = linalg._Diagonals.dense
    monkeypatch.setattr(linalg._Diagonals, "dense", lambda d: (builds.append(1), dense(d))[1])
    store = cm.problem_store(cm.ProblemSpec("advdiff1d", n=300, epsilon=0.01))
    stores = [store] + [cm.ProblemStore(store) for _ in range(15)]
    start = threading.Barrier(len(stores))  # every thread reads at once
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(stores)) as ex:
            arrays = list(ex.map(lambda s: (start.wait(timeout=30), s.A)[1], stores, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert builds == [1]
    assert all(A is arrays[0] for A in arrays)


def test_a_non_finite_diagonal_is_rejected_with_the_dense_message():
    # a non-finite entry on any of the three diagonals is rejected by a store
    # made from them as by a store of the dense array, and so is a 1D problem
    # whose epsilon / h^2 overflows
    for k in range(3):
        for bad in (np.nan, np.inf, -np.inf):
            diags = _constant_diagonals(6, -1.0, 2.0, -1.0)
            diags[k][1] = bad
            messages = []
            for A in (diags, diags.dense()):
                with pytest.raises(ValueError) as err:
                    cm.ProblemStore(A)
                messages.append(str(err.value))
            assert messages == ["A contains non-finite entries"] * 2
    spec = cm.ProblemSpec("advdiff1d", n=50, epsilon=1e306)
    for make in (cm.problem_store, lambda s: cm.ProblemStore(cm.generate(s))):
        with pytest.raises(ValueError, match="^A contains non-finite entries$"):
            make(spec)


def test_diagonals_of_order_2_take_the_dense_path():
    # scipy's dgttrf wrapper rejects n = 2, so a store made from diagonals of
    # order 2 holds their dense array as a store of that array does
    for spec in (cm.ProblemSpec("laplacian1d", n=2), cm.ProblemSpec("advdiff1d", n=2, epsilon=0.1)):
        store, ref = cm.problem_store(spec), cm.ProblemStore(cm.generate(spec))
        assert store.tridiagonal() is None and store.n == 2
        assert store.A.tobytes() == ref.A.tobytes()
        assert len(linalg._guarded_lu(store.A, "A")) == 2
    with pytest.raises(ValueError, match="^A contains non-finite entries$"):
        cm.ProblemStore(_constant_diagonals(2, -1.0, np.nan, -1.0))


def test_a_problem_store_is_the_one_handle_on_its_matrix(monkeypatch):
    # every entry point that takes A takes its ProblemStore in its place, with
    # the same bits, so no public callable takes a store beside A; a two-grid
    # method is bound once per store, guarding K and A_ff once between the
    # calls on it
    import inspect

    for name in cm.__all__:
        obj = getattr(cm, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
            assert "store" not in inspect.signature(obj).parameters, name

    n = 24
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=n, epsilon=0.05))
    part = cm.default_splitting(n, "alternate")
    b = np.random.default_rng(47).standard_normal(n)

    def bits(x):
        if isinstance(x, tuple):
            return tuple(bits(v) for v in x)
        if isinstance(x, cm.TransferPair):
            return x.Z.tobytes(), x.W.tobytes()
        if isinstance(x, cm.NormFactor):
            return x.apply(np.eye(n)).tobytes(), x.solve_adj(np.eye(n)).tobytes()
        if isinstance(x, cm.CatalogEntry):
            return x.reason, None if x.pair is None else bits(x.pair)
        if isinstance(x, cm.CoarseCorrection):
            return x.RA.tobytes(), x.B.tobytes()
        if isinstance(x, dict):
            return {k: bits(v) for k, v in x.items()}
        if isinstance(x, list):
            return [bits(v) for v in x]
        return np.asarray(x).tobytes()

    pair, _ = cm.single_operator_pair(A, part, "single2")
    reduced = cm.TwoGridSpec(pair, post=cm.RelaxSpec("fexact"))
    dense = cm.TwoGridSpec(pair, cm.RelaxSpec("jacobi"), cm.RelaxSpec("fexact"))
    calls = {
        "realize_norm": lambda a: (cm.realize_norm("AstarAsymInvA", a),
                                   cm.realize_norm("AstarA", a, factored=True)),
        "ideal_pair": lambda a: cm.ideal_pair(a, part, "AstarA", "Asym", "R"),
        "catalog_pairs": lambda a: list(cm.catalog_pairs(a, part)),
        "ideal_blocks_pair": lambda a: cm.ideal_blocks_pair(a, part, "Ainv", "Asym"),
        "single_operator_pair": lambda a: cm.single_operator_pair(a, part, 4),
        "two_grid_conv_factor": lambda a: (cm.two_grid_conv_factor(a, reduced),
                                           cm.two_grid_conv_factor(a, dense)),
        "two_grid_propagator": lambda a: cm.two_grid_propagator(a, dense),
        "iterate": lambda a: cm.iterate(a, dense, b, np.zeros(n), 8),
        "coarse_correction": lambda a: cm.coarse_correction(a, pair),
        "build_pi": lambda a: cm.build_pi(a, pair),
        "projection_report": lambda a: cm.projection_report(
            a, pair, cm.realize_norm("AstarAsymInvA", a, factored=True)),
        "verify_compat_equation": lambda a: (
            cm.verify_compat_equation(a, cm.realize_norm("AstarA", a, factored=True), pair),
            cm.verify_compat_equation(a, np.eye(n), pair)),
        "air_cpoint_residual": lambda a: cm.air_cpoint_residual(a, pair, b),
        "relax_propagator": lambda a: (cm.relax_propagator(a, cm.RelaxSpec("fexact"), part),
                                       cm.relax_propagator(a, cm.RelaxSpec("fjacobi"), part)),
    }
    for name, call in calls.items():
        assert bits(call(A)) == bits(call(cm.ProblemStore(A))), name

    guard = linalg._guarded_lu
    counts = []
    monkeypatch.setattr(
        linalg, "_guarded_lu", lambda M, what, *norm: (counts.append(what), guard(M, what, *norm))[1]
    )
    store = cm.ProblemStore(A)
    cm.two_grid_conv_factor(store, reduced)
    cm.iterate(store, reduced, b, np.zeros(n), 8)
    assert sorted(counts) == ["A_ff", "coarse operator R*AP"]


def _count_dgetrf(monkeypatch):
    """Record the order of every dgetrf the package makes."""
    real = linalg.lapack.dgetrf
    orders = []
    monkeypatch.setattr(
        linalg.lapack, "dgetrf", lambda a, *args, **kw: (orders.append(len(a)), real(a, *args, **kw))[1]
    )
    return orders


def _dense_estimate(A):
    lu, _, info = scipy.linalg.lapack.dgetrf(A)
    assert info == 0
    return 1.0 / scipy.linalg.lapack.dgecon(lu, np.linalg.norm(A, 1))[0]


@pytest.mark.parametrize("n", [60, 600, 2000])
@pytest.mark.parametrize("kind", ["laplacian1d", "advection1d", "advdiff1d"])
def test_tridiagonal_guard_matches_the_dense_estimate_without_dgetrf(monkeypatch, kind, n):
    # the guard on a tridiagonal A and on its diagonal A_ff reads the dgtcon
    # estimate off the dgttrf factor: the dgecon estimate to 1e-10, and no
    # dense LU is made
    A = cm.generate(cm.ProblemSpec(kind, n=n, epsilon=0.01 if kind == "advdiff1d" else 0.0))
    f = list(cm.default_splitting(n, "alternate").fpoints)
    Aff = A[np.ix_(f, f)]
    real = linalg.lapack.dgtcon
    rconds = []

    def dgtcon(*args, **kwargs):
        out = real(*args, **kwargs)
        rconds.append(out[0])
        return out

    monkeypatch.setattr(linalg.lapack, "dgtcon", dgtcon)
    orders = _count_dgetrf(monkeypatch)
    for M in (A, Aff):
        require_nonsingular(M)
    solve = lu_solver(A)
    assert orders == [] and len(rconds) == 3
    monkeypatch.undo()
    for rcond, M in zip(rconds, (A, Aff)):
        np.testing.assert_allclose(1.0 / rcond, _dense_estimate(M), rtol=1e-10)
    b = np.ones(n)
    assert np.linalg.norm(A @ solve(b) - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("n", [3, 40])
def test_tridiagonal_guard_rejects_exactly_singular_matrices_without_warning(monkeypatch, n):
    # a zero column, and a zero on the diagonal of a diagonal matrix
    A = np.diag(np.full(n, 2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    A[:, 1] = 0.0
    D = np.diag(np.arange(n, dtype=float))
    orders = _count_dgetrf(monkeypatch)
    for M in (A, D):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError, match="the test matrix"):
                lu_solver(M, "the test matrix")
    assert orders == []


def test_diagonal_and_order_two_matrices_are_guarded_and_solved():
    # a diagonal matrix takes the tridiagonal path; order two takes the
    # dense one, since scipy's dgttrf wrapper rejects n = 2
    D = np.diag([1.0, -3.0, 1e-9, 4.0])
    assert len(linalg._guarded_lu(D, "D")) == 5
    np.testing.assert_allclose(lu_solver(D)(np.ones(4)), [1.0, -1 / 3, 1e9, 0.25], rtol=1e-15)
    np.testing.assert_allclose(lu_solver(D)(np.ones(4), trans=1), [1.0, -1 / 3, 1e9, 0.25], rtol=1e-15)
    with pytest.raises(SingularMatrixError):
        require_nonsingular(np.diag([1.0, 1e-13, 1.0]))
    A = np.array([[2.0, 1.0], [-1.0, 3.0]])
    assert linalg._Diagonals.scan(A)[1] is None and len(linalg._guarded_lu(A, "A")) == 2
    np.testing.assert_allclose(A @ lu_solver(A)(np.ones(2)), np.ones(2), rtol=1e-15)


@pytest.mark.parametrize("trans", [0, 1])
@pytest.mark.parametrize("rhs", ["vector", "C", "F"])
def test_diagonal_solve_divides_with_the_values_and_order_of_dgttrs(rhs, trans):
    # a diagonal A's factor has no interchange, multiplier or fill: its
    # solve divides by the diagonal and returns what dgttrs returns, values
    # (up to the sign of a zero) and memory order alike
    rng = np.random.default_rng(31)
    for n in (3, 17, 200):
        d = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        X = {"vector": rng.standard_normal(n), "C": rng.standard_normal((n, 5)),
             "F": np.asfortranarray(rng.standard_normal((n, 4)))}[rhs]
        X[0] = 0.0
        got = lu_solver(np.diag(d))(X, trans=trans)
        want = scipy.linalg.lapack.dgttrs(*linalg._guarded_lu(np.diag(d), "D"), X,
                                          trans="NT"[trans])[0]
        assert np.array_equal(got, want)
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert got.flags.c_contiguous == want.flags.c_contiguous


@pytest.mark.parametrize("d, estimate", [([1.0, 0.0, 2.0], "inf"), ([3.0, -2.0, 0.0, 5.0], "inf"),
                                         ([1.0, 1e-13, 1.0], "1.000e+13")])
def test_a_zero_or_tiny_diagonal_entry_raises_before_any_solve(d, estimate):
    with pytest.raises(SingularMatrixError) as exc:
        lu_solver(np.diag(d), "D")
    assert str(exc.value) == (
        f"D is numerically singular (1-norm condition estimate ~{estimate} exceeds 1e+12)"
    )


@pytest.mark.parametrize("shape", [(4,), (6,), (1,), (4, 3), (1, 3), (5, 2, 1)])
def test_diagonal_solve_refuses_a_right_hand_side_of_another_length(shape):
    # division would broadcast a length-1 right-hand side; dgttrs refuses it
    solve = lu_solver(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), "D")
    with pytest.raises(ValueError, match=r"right-hand side of shape .* for D of order 5"):
        solve(np.ones(shape))


def test_a_row_interchange_without_fill_is_no_diagonal_solve():
    # [[0, 1], [2, 0]] in a tridiagonal A: dgttrf swaps two rows and leaves
    # no multiplier, superdiagonal or fill, yet A is not diagonal
    A = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    dl, _, du, du2, ipiv = linalg._guarded_lu(A, "A")
    assert not (dl.any() or du.any() or du2.any()) and list(ipiv) != [1, 2, 3]
    b = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(A @ lu_solver(A)(b), b)
    np.testing.assert_array_equal(A.T @ lu_solver(A)(b, trans=1), b)


def test_no_dense_lu_of_a_tridiagonal_matrix_is_made(monkeypatch):
    # the guard's dgttrf factor is the tridiagonal A's only factor: the
    # store's solve and the dense inverse companions run on it
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=50, epsilon=0.05))
    store = cm.ProblemStore(A)
    orders = _count_dgetrf(monkeypatch)
    store.lu_solve()
    X = cm.realize_q("Ainv", A)
    Xt = cm.realize_q("AinvStar", A)
    assert orders == []
    assert np.linalg.norm(A @ X - np.eye(50)) <= 1e-12 * np.sqrt(50)
    assert np.linalg.norm(A.T @ Xt - np.eye(50)) <= 1e-12 * np.sqrt(50)


def test_figure1_inverse_blocks_share_one_guard_of_a_cc(monkeypatch):
    # the ideal blocks of A^{-1} and A^{-*} on every figure1 edge are read off
    # A through one guard of A_cc, and A itself gets no dense LU
    from compatamg.cli import FIGURE_EDGES

    guard = linalg._guarded_lu
    names = []
    monkeypatch.setattr(
        linalg, "_guarded_lu", lambda A, what, *norm: (names.append(what), guard(A, what, *norm))[1]
    )
    n = 40
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=n, epsilon=0.01))
    part = cm.default_splitting(n, "alternate")
    store = cm.ProblemStore(A)
    orders = _count_dgetrf(monkeypatch)
    for _, _, r_q, p_q in FIGURE_EDGES:
        cm.ideal_blocks_pair(store, part, r_q, p_q)
    assert names.count("A_cc") == 1 and "A" not in names
    assert n not in orders


@pytest.mark.parametrize("diagonal", [False, True])
def test_tridiagonal_product_matches_the_dense_product(diagonal):
    # A X and A* X from the three diagonals, for a vector and a block, to a
    # few ulps of |A| |X|
    rng = np.random.default_rng(44)
    n = 37
    A = np.diag(rng.standard_normal(n))
    if not diagonal:
        A += np.diag(rng.standard_normal(n - 1), 1) + np.diag(rng.standard_normal(n - 1), -1)
    diags = linalg._Diagonals.scan(A)[1]
    assert diags is not None
    for X in (rng.standard_normal(n), rng.standard_normal((n, 5))):
        for trans, M in ((0, A), (1, A.T)):
            Y = diags.product(X, trans=trans)
            assert Y.shape == X.shape
            bound = 4 * np.finfo(float).eps * (np.abs(M) @ np.abs(X))
            assert np.all(np.abs(Y - M @ X) <= bound)


def test_tridiagonal_detection_rejects_any_entry_off_the_band():
    A = cm.generate(cm.ProblemSpec("laplacian1d", n=12))
    assert linalg._Diagonals.scan(A)[1] is not None
    for i, j in ((0, 2), (11, 0), (5, 9)):
        B = A.copy()
        B[i, j] = 1e-300
        assert linalg._Diagonals.scan(B)[1] is None
    assert linalg._Diagonals.scan(np.zeros((4, 3)))[1] is None


def test_store_diagonals_of_a_are_read_only_copies():
    # every case thread of a command reads the one entry: writing to it must
    # fail, and it must not be a view that keeps A alive
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=9, epsilon=0.01))
    store = linalg.ProblemStore(A)
    diags = store.tridiagonal()
    assert store.tridiagonal() is diags
    for k, v in zip((-1, 0, 1), diags):
        assert not v.flags.writeable and v.base is None
        np.testing.assert_array_equal(v, np.diag(A, k))
        with pytest.raises(ValueError):
            v[0] = 0.0


@pytest.mark.parametrize("rows, cols", [
    ([-1], [-2, -1]),
    ([1], [0, 0]),
    ([0, 2, 2], [3, 1, -6, 1, 3]),
    ([], [1]),
    ([True, False, True, False, False, True], [5, 0]),
], ids=str)
def test_a_block_read_off_the_diagonals_indexes_as_numpy_does(rows, cols):
    # A[np.ix_(rows, cols)] for index lists: a negative index counts from
    # the end, and a repeated one repeats its row or column
    spec = cm.ProblemSpec("advdiff1d", n=6, epsilon=0.01)
    ref = GatheringStore(cm.generate(spec)).block(rows, cols)
    for store in (cm.problem_store(spec), cm.ProblemStore(cm.generate(spec))):
        assert store.tridiagonal() is not None
        B = store.block(rows, cols)
        assert B.shape == ref.shape and B.tobytes() == ref.tobytes()


@pytest.mark.parametrize("rows, cols", [([6], [0]), ([0], [-7])])
def test_a_block_read_off_the_diagonals_rejects_an_index_out_of_range(rows, cols):
    spec = cm.ProblemSpec("advdiff1d", n=6, epsilon=0.01)
    for store in (cm.problem_store(spec), GatheringStore(cm.generate(spec))):
        with pytest.raises(IndexError):
            store.block(rows, cols)


def _gathers(monkeypatch):
    """Record every np.ix_ the package makes."""
    calls = []
    ix = np.ix_
    monkeypatch.setattr(np, "ix_", lambda *idx: (calls.append(idx), ix(*idx))[1])
    return calls


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("split", SPLITS)
@pytest.mark.parametrize("kind", TRIDIAGONAL_KINDS)
def test_blocks_read_off_the_diagonals_keep_the_gathered_bits(kind, split, n):
    # every block of a tridiagonal A, and every solve with A_ff and A_cc,
    # has the values and memory order of the gathered block's
    A = tridiagonal_problem(kind, n)
    part = cm.default_splitting(n, split, seed=n)
    store, ref = cm.ProblemStore(A), GatheringStore(A)
    for rows in (part.fidx, part.cidx):
        for cols in (part.fidx, part.cidx):
            assert_same_array(store.block(rows, cols), ref.block(rows, cols))
    X = np.random.default_rng(n).standard_normal((n, 3))
    for name, idx in (("ff_solve", part.fidx), ("cc_solve", part.cidx)):
        solve, want = getattr(store, name)(part), getattr(ref, name)(part)
        for rhs in (X[idx], X[idx, 0]):
            for trans in (0, 1):
                assert_same_array(solve(rhs, trans=trans), want(rhs, trans=trans))
    Y = np.random.default_rng(n + 1).standard_normal((n, 2))
    for trans in (0, 1):
        assert_same_array(store.lu_solve()(Y, trans=trans), lu_solver(A, "A")(Y, trans=trans))


@pytest.mark.parametrize("case", ["sorted", "unsorted"])
def test_a_block_is_factored_on_its_diagonals_when_sorted_and_of_order_3(monkeypatch, case):
    # at n = 5 under the alternate splitting A_ff has order 3 and is factored
    # on diagonals read off A's, while A_cc, of order 2, and an A_ff whose
    # F-points are out of order are factored as dense blocks, scattered off
    # A's diagonals by block, with the solves of the gathered blocks: only
    # the gathering reference gathers
    n = 5
    A = tridiagonal_problem("advdiff1d", n)
    part = cm.default_splitting(n, "alternate")
    if case == "unsorted":
        part = cm.CFPartition(n, part.fpoints[::-1], part.cpoints)
    gathers = _gathers(monkeypatch)
    store, ref = cm.ProblemStore(A), GatheringStore(A)
    x = np.arange(1.0, part.nf + 1.0)
    assert_same_array(store.ff_solve(part)(x), ref.ff_solve(part)(x))
    assert len(gathers) == 1
    gathers.clear()
    y = np.arange(1.0, part.nc + 1.0)
    assert_same_array(store.cc_solve(part)(y), ref.cc_solve(part)(y))
    assert len(gathers) == 1


@pytest.mark.parametrize("split", ["alternate", "firsthalf"])
def test_a_zero_on_the_a_ff_diagonal_raises_the_gathered_message(split):
    # advection1d is lower bidiagonal, so a zero on A_ff's diagonal makes it
    # singular under either splitting
    n = 17
    A = tridiagonal_problem("advection1d", n).copy()
    part = cm.default_splitting(n, split)
    f = part.fidx[2]
    A[f, f] = 0.0
    messages = []
    for store in (cm.ProblemStore(A), GatheringStore(A)):
        with pytest.raises(SingularMatrixError) as err:
            store.ff_solve(part)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("A_ff is numerically singular")


def test_a_pair_store_shares_a_and_its_factors_but_not_its_pair_entries():
    # ProblemStore(store) takes the store's validated A and its entries of A
    # alone, but holds its own ideal blocks and bindings
    n = 17
    A = tridiagonal_problem("advdiff1d", n)
    part = cm.default_splitting(n, "alternate")
    store = cm.ProblemStore(A)
    first, second = cm.ProblemStore(store), cm.ProblemStore(cm.ProblemStore(store))
    assert first.A is store.A is second.A
    assert first.tridiagonal() is store.tridiagonal() is second.tridiagonal()
    assert first.ff_solve(part) is second.ff_solve(part) is store.ff_solve(part)
    assert first.norm1() == second.norm1() == pytest.approx(np.linalg.norm(A, 1), rel=1e-15)
    pair, _ = cm.single_operator_pair(first, part, "single3")
    assert cm.ideal_blocks_pair(first, part, "identity", "A").W is pair.W
    assert cm.ideal_blocks_pair(second, part, "identity", "A").W is not pair.W
    assert store.peek(("ideal", "W", "A", part)) is None
