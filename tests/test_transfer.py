"""Tests for transfer-operator construction."""

from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import compatamg as cm
from compatamg.linalg import RANK_RTOL, ProblemStore, SingularMatrixError
from compatamg.transfer import _ideal_block
from conftest import (
    ORDERS,
    SPLITS,
    TRIDIAGONAL_KINDS,
    GatheringStore,
    assert_same_array,
    random_nonsingular,
    random_partition,
    random_spd,
    random_stable,
    tridiagonal_problem,
)

A2 = np.array([[1.0, 0.0], [-1.0, 1.0]])
P2 = cm.CFPartition(2, (0,), (1,))


def _split(n):
    return cm.default_splitting(n, "alternate")


def test_ideal_w_examples():
    np.testing.assert_allclose(cm.ideal_w(cm.partition(A2, P2)), [[0.0]], atol=1e-15)
    Ad = np.array([[2.0, -1.0], [-1.0, 2.0]])
    np.testing.assert_allclose(cm.ideal_w(cm.partition(Ad, P2)), [[0.5]], atol=1e-15)
    # on the transposed inverse the ideal interpolation block is A_cf* A_cc^{-*}
    Q = np.linalg.inv(A2).T
    np.testing.assert_allclose(cm.ideal_w(cm.partition(Q, P2)), [[-1.0]], atol=1e-14)


def test_ideal_z_examples():
    np.testing.assert_allclose(cm.ideal_z(cm.partition(A2, P2)), [[1.0]], atol=1e-15)
    np.testing.assert_allclose(
        cm.ideal_z(cm.partition(np.eye(2), P2)), [[0.0]], atol=1e-15
    )


def test_ideal_adjoint_duality():
    # Z on the adjoint companion equals the adjoint of W on the companion
    rng = np.random.default_rng(2)
    part = _split(6)
    for _ in range(50):
        Q = random_nonsingular(rng, 6)
        Zt = cm.ideal_z(cm.partition(Q.T, part))
        W = cm.ideal_w(cm.partition(Q, part))
        np.testing.assert_allclose(Zt, W, rtol=0, atol=1e-12 * max(1, np.linalg.norm(W)))


def test_ideal_annihilation():
    # F-rows of Q P_ideal(Q) vanish and C-rows equal the C-Schur complement
    rng = np.random.default_rng(4)
    drawn = 0
    while drawn < 20:
        n = int(rng.integers(4, 12))
        part = random_partition(rng, n)
        Q = random_nonsingular(rng, n)
        Qp = cm.partition(Q, part)
        if np.linalg.cond(Qp.ff) > 1e3:
            continue
        drawn += 1
        P = cm.p_ideal(Qp)
        QP = Q @ P
        S = cm.schur_c(Qp)
        scale = max(1.0, np.linalg.norm(Q) * np.linalg.norm(P))
        assert np.max(np.abs(part.f_rows(QP))) <= 1e-12 * scale
        np.testing.assert_allclose(part.c_rows(QP), S, rtol=1e-12, atol=1e-12 * scale)
        # mirrored statement for restriction: C-columns of R* Q
        RQ = cm.r_ideal(Qp).T @ Q
        assert np.max(np.abs(RQ[:, list(part.fpoints)])) <= 1e-12 * scale
        np.testing.assert_allclose(
            RQ[:, list(part.cpoints)], S, rtol=1e-12, atol=1e-12 * scale
        )


def test_compatible_w_from_z_identity_examples():
    rng = np.random.default_rng(6)
    A = random_stable(rng, 10)
    part = _split(10)
    Ap = cm.partition(A, part)
    # ideal restriction makes zero interpolation compatible
    W = cm.compatible_w_from_z(Ap, cm.ideal_z(Ap), "identity")
    assert np.max(np.abs(W)) <= 1e-12
    # zero restriction block pairs with the inverse-adjoint ideal interpolation
    W0 = cm.compatible_w_from_z(Ap, np.zeros((part.nf, part.nc)), "identity")
    np.testing.assert_allclose(W0, Ap.cf.T @ np.linalg.inv(Ap.cc).T, rtol=1e-10)
    np.testing.assert_allclose(
        W0, cm.ideal_w(cm.partition(np.linalg.inv(A).T, part)), rtol=1e-9
    )


def test_compatible_w_from_z_astara_example():
    rng = np.random.default_rng(8)
    A = random_stable(rng, 10)
    part = _split(10)
    Ap = cm.partition(A, part)
    W = cm.compatible_w_from_z(Ap, np.zeros((part.nf, part.nc)), "astara")
    np.testing.assert_allclose(W, cm.ideal_w(Ap), rtol=1e-10)


def test_compatible_z_from_w_examples():
    rng = np.random.default_rng(10)
    A = random_stable(rng, 10)
    part = _split(10)
    Ap = cm.partition(A, part)
    Z = cm.compatible_z_from_w(Ap, np.zeros((part.nf, part.nc)), "identity")
    np.testing.assert_allclose(Z, cm.ideal_z(Ap), rtol=1e-10)
    Z = cm.compatible_z_from_w(Ap, cm.ideal_w(Ap), "astara")
    assert np.max(np.abs(Z)) <= 1e-12


def test_compatible_round_trip():
    rng = np.random.default_rng(12)
    A = random_stable(rng, 8)
    part = cm.CFPartition(8, tuple(range(5)), tuple(range(5, 8)))
    Ap = cm.partition(A, part)
    for norm in ("identity", "astara"):
        Z = rng.standard_normal((5, 3))
        W = cm.compatible_w_from_z(Ap, Z, norm)
        Zrt = cm.compatible_z_from_w(Ap, W, norm)
        np.testing.assert_allclose(Zrt, Z, rtol=0, atol=1e-10 * max(1, np.linalg.norm(Z)))


def test_closed_form_equivalence():
    # the W produced by one form satisfies the companion form's equation
    rng = np.random.default_rng(14)
    for _ in range(10):
        A = random_stable(rng, 9)
        part = _split(9)
        Ap = cm.partition(A, part)
        Z = rng.standard_normal((part.nf, part.nc))
        W = cm.compatible_w_from_z(Ap, Z, "identity")
        res = Z.T @ (Ap.ff - Ap.fc @ W.T) - (Ap.cc @ W.T - Ap.cf)
        assert np.max(np.abs(res)) <= 1e-10 * max(1, np.linalg.norm(W))
        W = cm.compatible_w_from_z(Ap, Z, "astara")
        res = Z @ (Ap.cf @ W + Ap.cc) - (Ap.ff @ W + Ap.fc)
        assert np.max(np.abs(res)) <= 1e-10 * max(1, np.linalg.norm(W))


def test_compatible_rejects_other_norms():
    Ap = cm.partition(A2, P2)
    with pytest.raises(ValueError):
        cm.compatible_w_from_z(Ap, np.zeros((1, 1)), "Asym")


def test_compatible_singular_coefficient():
    A = np.array([[1.0, 1.0], [1.0, 0.0]])  # A_cc = 0
    Ap = cm.partition(A, P2)
    with pytest.raises(SingularMatrixError, match="no compatible W"):
        cm.compatible_w_from_z(Ap, np.zeros((1, 1)), "identity")


def test_ideal_pair_identity_norm():
    rng = np.random.default_rng(16)
    A = random_stable(rng, 12)
    part = _split(12)
    pair = cm.ideal_pair(A, part, "identity", "identity", anchor="P")
    # companion reduces to A itself: restriction ideal on A, zero interpolation
    np.testing.assert_allclose(pair.Z, cm.ideal_z(cm.partition(A, part)), rtol=1e-10)
    assert np.max(np.abs(pair.W)) <= 1e-12


def test_ideal_pair_astara_norm():
    rng = np.random.default_rng(18)
    A = random_stable(rng, 12)
    part = _split(12)
    pair = cm.ideal_pair(A, part, "AstarA", "A", anchor="P")
    # companion A (A*A)^{-1} A* = I: restriction selects coarse equations only
    assert np.max(np.abs(pair.Z)) <= 1e-10
    np.testing.assert_allclose(pair.W, cm.ideal_w(cm.partition(A, part)), rtol=1e-10)


def test_ideal_pair_asyminv_companion():
    # in the norm A* Asym^{-1} A the companion A M^{-1} A* reduces to Asym:
    # anchored on P_ideal(A), the derived restriction is R_ideal(Asym)
    rng = np.random.default_rng(20)
    A = random_stable(rng, 12)
    part = _split(12)
    pair = cm.ideal_pair(A, part, "AstarAsymInvA", "A", anchor="P")
    np.testing.assert_allclose(
        pair.Z, cm.ideal_z(cm.partition((A + A.T) / 2.0, part)), rtol=1e-8
    )
    np.testing.assert_array_equal(pair.W, cm.ideal_w(cm.partition(A, part)))


def test_ideal_pair_compat_equation_all_norms():
    rng = np.random.default_rng(22)
    A = random_stable(rng, 10)
    part = _split(10)
    for norm in ("identity", "Asym", "AstarA", "SqrtAstarA", "AstarAsymInvA"):
        M = cm.realize_norm(norm, A)
        for anchor in ("P", "R"):
            pair = cm.ideal_pair(A, part, norm, "Asym", anchor=anchor)
            assert cm.verify_compat_equation(A, M, pair)


def test_compatible_solves_satisfy_range_condition():
    rng = np.random.default_rng(24)
    A = random_stable(rng, 10)
    part = _split(10)
    Ap = cm.partition(A, part)
    for norm in ("identity", "AstarA"):
        Z = rng.standard_normal((part.nf, part.nc))
        W = cm.compatible_w_from_z(Ap, Z, norm)
        pair = cm.make_pair(part, Z, W)
        assert cm.verify_compat_equation(A, cm.realize_norm(norm, A), pair)


def test_svd_route():
    # pairs orthogonal in the singular-value norm match ranges through the SVD factors
    rng = np.random.default_rng(26)
    A = random_stable(rng, 12)
    part = _split(12)
    pair = cm.ideal_pair(A, part, "SqrtAstarA", "identity", anchor="P")
    U, s, Vh = np.linalg.svd(A)
    s = np.linalg.svd(np.hstack([Vh @ pair.P, U.T @ pair.R]), compute_uv=False)
    assert np.count_nonzero(s > RANK_RTOL * s[0]) == part.nc
    M = cm.realize_norm("SqrtAstarA", A)
    assert abs(cm.pi_m_norm(cm.coarse_correction(A, pair), M) - 1.0) <= 1e-8


def _dense_cell(A, part, norm, q, anchor, C=None):
    """(Z, W) of a cell from dense matrices, or the error of its first guard.

    The norm M and the companion Q are realized densely, and the derived
    companion C, unless given, is A M^{-1} Q* (anchor P) or Q* A^{-*} M
    (anchor R). The pair is (R_ideal(C), P_ideal(Q)) for anchor P and
    (R_ideal(Q), P_ideal(C)) for anchor R.
    """
    M = cm.realize_norm(norm, A)
    Qp = cm.partition(cm.realize_q(q, A), part)
    if anchor == "P":
        W = cm.ideal_w(Qp)
        C = A @ np.linalg.solve(M, Qp.base.T) if C is None else C
        return cm.ideal_z(cm.partition(C, part)), W
    Z = cm.ideal_z(Qp)
    C = Qp.base.T @ np.linalg.solve(A.T, M) if C is None else C
    return Z, cm.ideal_w(cm.partition(C, part))


def _assert_block_close(got, want, rtol, what):
    err = np.linalg.norm(got - want)
    assert err <= rtol * max(1.0, np.linalg.norm(want)), (what, err)


def test_catalog_shape_and_examples():
    rng = np.random.default_rng(28)
    A = random_stable(rng, 14)
    part = _split(14)
    entries = list(cm.catalog_pairs(A, part))
    assert len(entries) == 50
    by_key = {(e.table, e.norm, e.q): e for e in entries}
    Ap = cm.partition(A, part)

    # identity norm, Q = A: the derived companion is A A*
    e = by_key[(1, "identity", "A")]
    assert e.companion_expr == "A A*" and not e.skipped
    _assert_block_close(e.pair.Z, cm.ideal_z(cm.partition(A @ A.T, part)), 1e-10, e)
    np.testing.assert_array_equal(e.pair.W, cm.ideal_w(Ap))

    # A*A norm anchored on R_ideal(I) = [0; I]: the derived companion is A
    e = by_key[(2, "AstarA", "identity")]
    assert e.companion_expr == "A" and e.label == "single" and not e.skipped
    assert not e.pair.Z.any()
    _assert_block_close(e.pair.W, cm.ideal_w(Ap), 1e-10, e)

    e = by_key[(1, "Asym", "A")]
    C = A @ np.linalg.solve((A + A.T) / 2.0, A.T)
    _assert_block_close(e.pair.Z, cm.ideal_z(cm.partition(C, part)), 1e-9, e)

    # A-norm rows are skipped on a nonsymmetric matrix, with recorded reasons
    skipped = [e for e in entries if e.skipped]
    assert len(skipped) == 10
    assert all(e.norm == "A" and "SPD" in e.reason for e in skipped)
    assert sum(e.label == "single" for e in entries) == 16


def _eval_companion_expr(expr, A):
    Asym = (A + A.T) / 2.0
    tok = {
        "A": A,
        "A*": A.T,
        "Asym": Asym,
        "Asym^-1": np.linalg.inv(Asym),
        "A^-*": np.linalg.inv(A).T,
        "A^2": A @ A,
        "I": np.eye(A.shape[0]),
    }
    out = np.eye(A.shape[0])
    for t in expr.split():
        out = out @ tok[t]
    return out


_ORACLE_KINDS = ("random", "advection1d", "laplacian1d", "advdiff1d")


@pytest.mark.parametrize("policy", ["alternate", "firsthalf", "random"])
@pytest.mark.parametrize("kind", _ORACLE_KINDS)
def test_every_cell_is_the_dense_pair_of_its_companion_expression(kind, policy):
    # every catalog cell is (R_ideal(C), P_ideal(Q)) in table 1 and
    # (R_ideal(Q), P_ideal(C)) in table 2, with C evaluated densely from the
    # cell's printed companion expression; the inverse companions, which
    # the catalog does not sweep, are checked through ideal_pair against
    # their dense A M^{-1} Q* and Q* A^{-*} M. A cell is skipped exactly
    # when the dense construction's guard raises
    for n in (12, 17, 24):
        A = cm.generate(cm.ProblemSpec(kind, n=n, epsilon=0.05, seed=n))
        part = cm.default_splitting(n, policy, seed=n)
        store = ProblemStore(A)
        cells = [(e, e.pair, e.reason, e.companion_expr)
                 for e in cm.catalog_pairs(store, part)]
        for norm in _RECIPE_NORMS:
            for q in ("Ainv", "AinvStar"):
                for anchor in ("P", "R"):
                    e = (norm, q, anchor)
                    try:
                        pair, reason = cm.ideal_pair(store, part, norm, q, anchor), None
                    except ValueError as err:
                        pair, reason = None, str(err)
                    cells.append((e, pair, reason, None))
        for e, pair, reason, expr in cells:
            norm, q, anchor = e if expr is None else (e.norm, e.q, e.anchor)
            what = (kind, n, policy, e)
            try:
                C = None if expr is None else _eval_companion_expr(expr, A)
                Z, W = _dense_cell(A, part, norm, q, anchor, C)
            except ValueError:
                assert pair is None and reason, what
                continue
            assert reason is None, (what, reason)
            _assert_block_close(pair.Z, Z, 1e-8, what)
            _assert_block_close(pair.W, W, 1e-8, what)


@pytest.mark.parametrize("kind, epsilon, computable", [
    ("laplacian1d", 0.0, 50),
    ("advdiff1d", 0.01, 40),
])
def test_catalog_cells_are_exact_to_round_off(kind, epsilon, computable):
    # derived blocks are completed through the norm factor G, so no cell
    # squares cond(A) by forming M = A*A: every computable cell of these
    # ill-conditioned problems is M-orthogonal to sin theta_max <= 1e-10
    n = 200
    A = cm.generate(cm.ProblemSpec(kind=kind, n=n, epsilon=epsilon))
    store = ProblemStore(A)
    sines = {}
    for e in cm.catalog_pairs(store, _split(n)):
        if not e.skipped:
            G = cm.realize_norm(e.norm, store, factored=True)
            sines[(e.table, e.norm, e.q)] = cm.coarse_correction(A, e.pair).angles(G).sin_max
    assert len(sines) == computable
    worst = max(sines, key=sines.get)
    assert sines[worst] <= 1e-10, (worst, sines[worst])


@pytest.mark.parametrize("spd", [False, True])
def test_catalog_cells_match_per_cell_construction(spd):
    # the sweep gives the bits of building every cell on its own by
    # ideal_pair, and a skipped cell's ideal_pair raises the same reason
    rng = np.random.default_rng(33)
    n = 12
    A = random_spd(rng, n, shift=0.5) if spd else random_stable(rng, n)
    part = _split(n)
    for e in cm.catalog_pairs(A, part):
        if e.skipped:
            with pytest.raises(ValueError) as err:
                cm.ideal_pair(A, part, e.norm, e.q, e.anchor)
            assert str(err.value) == e.reason
            continue
        pair = cm.ideal_pair(A, part, e.norm, e.q, e.anchor)
        assert e.pair.Z.tobytes() == pair.Z.tobytes()
        assert e.pair.W.tobytes() == pair.W.tobytes()


def test_catalog_builds_each_block_once_and_completes_each_cell_once(monkeypatch):
    import compatamg.linalg as linalg
    import compatamg.transfer as transfer

    completions, guards, builds, norms = [], [], [], []
    complete, guard, get = transfer._complete, linalg._guarded_lu, ProblemStore.get
    realize_norm = transfer.realize_norm

    def counted_complete(store, G, part, anchor, block):
        completions.append(anchor)
        return complete(store, G, part, anchor, block)

    def counted_realize_norm(norm, *args, **kwargs):
        norms.append(norm)
        return realize_norm(norm, *args, **kwargs)

    def counted_get(self, key, build):
        def counted_build():
            builds.append(key)
            return build()
        return get(self, key, counted_build)

    monkeypatch.setattr(transfer, "_complete", counted_complete)
    monkeypatch.setattr(
        linalg, "_guarded_lu", lambda A, what, *norm: (guards.append((what, A.shape)), guard(A, what, *norm))[1]
    )
    monkeypatch.setattr(ProblemStore, "get", counted_get)
    monkeypatch.setattr(transfer, "realize_norm", counted_realize_norm)
    rng = np.random.default_rng(34)
    n = 12
    A = random_stable(rng, n)
    c = (1, 4, 7, 10)  # n_c = 4, n_f = 8
    part = cm.CFPartition(n, tuple(i for i in range(n) if i not in c), c)
    entries = list(cm.catalog_pairs(A, part))
    # each norm once per row, its factor (or its failure) once per store
    assert norms == list(transfer.CATALOG_NORMS) * 2
    assert sorted(k for k in builds if k[0] == "factor") == sorted(
        ("factor", tag) for tag in transfer.CATALOG_NORMS)
    # each anchored block once per store: W of every Q for table 1, Z for table 2
    ideal = [k for k in builds if k[0] == "ideal" and k[1] in ("Z", "W")]
    assert len(ideal) == len(set(ideal)) == 10
    assert len(builds) == len(set(builds))
    # one completion, and one n_c x n_c guard, per computable cell
    computable = sum(not e.skipped for e in entries)
    assert computable == 40
    assert completions == ["P"] * 20 + ["R"] * 20
    nc = part.nc
    assert guards.count(("C-block of compatible completion", (nc, nc))) == computable
    # the only n_f x n_f guards are A's ff-block and the ff-blocks of the
    # three realized companions, Asym, A*A and A A*, each once for both
    # sides, whose blocks are built together as one store entry
    nf = part.nf
    ff = sorted(what for what, shape in guards if shape == (nf, nf))
    assert ff == ["A_ff"] + ["ff-block of companion"] * 3
    assert sorted(k[2] for k in builds if k[:2] == ("ideal", "ZW")) == ["AAstar", "AstarA", "Asym"]
    assert len(guards) == computable + len(ff) + 1  # and A's own, once


def test_catalog_is_a_generator_guarded_at_the_call():
    # entries are built as they are taken, and none carries a companion
    rng = np.random.default_rng(35)
    A = random_stable(rng, 8)
    sweep = cm.catalog_pairs(A, _split(8))
    assert not isinstance(sweep, (list, tuple))
    first = next(sweep)
    assert (first.table, first.norm, first.q) == (1, "identity", "identity")
    assert not hasattr(first, "companion")
    assert sum(1 for _ in sweep) == 49
    with pytest.raises(SingularMatrixError):
        cm.catalog_pairs(np.zeros((8, 8)), _split(8))


def test_catalog_order_is_row_major():
    rng = np.random.default_rng(30)
    A = random_stable(rng, 8)
    entries = cm.catalog_pairs(A, _split(8))
    keys = [(e.table, e.norm, e.q) for e in entries]
    from compatamg.transfer import CATALOG_NORMS, CATALOG_QS

    expected = [
        (t, n, q) for t in (1, 2) for n in CATALOG_NORMS for q in CATALOG_QS
    ]
    assert keys == expected


def test_change_of_basis_examples():
    pair = cm.change_of_basis_pair(A2, P2)
    explicit = cm.make_pair(P2, np.array([[-1.0]]), np.array([[0.0]]))
    pi1, _ = cm.build_pi(A2, pair)
    pi2, _ = cm.build_pi(A2, explicit)
    np.testing.assert_allclose(pi1, pi2, atol=1e-14)

    part = _split(6)
    pid = cm.change_of_basis_pair(np.eye(6), part)
    assert np.max(np.abs(part.f_rows(pid.R))) == 0.0
    np.testing.assert_array_equal(part.c_rows(pid.R), np.eye(3))
    np.testing.assert_array_equal(pid.R, pid.P)


def test_change_of_basis_matches_explicit_inverse_pair():
    rng = np.random.default_rng(32)
    A = random_stable(rng, 10)
    part = cm.CFPartition(10, tuple(range(6)), tuple(range(6, 10)))
    Ap = cm.partition(A, part)
    pair = cm.change_of_basis_pair(A, part)
    Z = sla.solve(Ap.cc, Ap.cf).T          # adjoint of the C-block solve
    W = sla.solve(Ap.cc.T, Ap.fc.T).T
    explicit = cm.make_pair(part, Z, W)
    pi1, _ = cm.build_pi(A, pair)
    pi2, _ = cm.build_pi(A, explicit)
    assert np.linalg.norm(pi1 - pi2) <= 1e-10


def test_change_of_basis_singular_cc():
    A = np.array([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SingularMatrixError):
        cm.change_of_basis_pair(A, P2)


def test_inverse_companion_with_a_singular_cc_block_names_it():
    # det Q_ff = det S_cc / det S for Q = S^{-1}: an inverse companion's
    # ideal block is undefined exactly when the cc-block of its inverse is
    # singular, and the error names that block: A_cc for A^{-1} and A^{-*}
    A = np.array([[1.0, 1.0], [1.0, 0.0]])
    for q in ("Ainv", "AinvStar"):
        with pytest.raises(SingularMatrixError, match="A_cc"):
            cm.ideal_blocks_pair(A, P2, "identity", q)
        with pytest.raises(SingularMatrixError, match="A_cc"):
            cm.ideal_pair(A, P2, "identity", q, "P")
    # here A_cc = 1, but the completion A^{-*} P of P = P_ideal(A^{-1}) in
    # the identity norm, [0; 1], has a zero C-block: the derived companion
    # A A^{-*} of table 1 has a singular ff-block
    A = np.array([[1.0, 1.0], [-1.0, 1.0]])
    cm.ideal_blocks_pair(A, P2, "identity", "Ainv")
    with pytest.raises(SingularMatrixError, match="ff-block of companion"):
        cm.ideal_z(cm.partition(A @ np.linalg.inv(A).T, P2))
    with pytest.raises(SingularMatrixError, match="C-block of compatible completion"):
        cm.ideal_pair(A, P2, "identity", "Ainv", "P")


_RECIPE_NORMS = ("identity", "A", "Asym", "AstarA", "SqrtAstarA", "AstarAsymInvA")


@pytest.mark.parametrize("policy", ["alternate", "firsthalf", "random"])
def test_inverse_blocks_match_the_dense_inverse(policy):
    # the blocks read off A, and the derived blocks read off the derived
    # companion's inverse, are those of the dense A^{-1} and A^{-*}
    n = 40
    A = cm.generate(cm.ProblemSpec("random", n=n, seed=5))
    part = cm.default_splitting(n, policy, seed=5)
    store = ProblemStore(A)

    def close(got, want):
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))

    for q in ("Ainv", "AinvStar"):
        Q = cm.partition(cm.realize_q(q, A), part)
        close(_ideal_block(store, part, q, "W"), cm.ideal_w(Q))
        close(_ideal_block(store, part, q, "Z"), cm.ideal_z(Q))
        for norm in _RECIPE_NORMS:
            for anchor in ("P", "R"):
                try:
                    pair = cm.ideal_pair(store, part, norm, q, anchor)
                except ValueError:
                    continue
                Z, W = _dense_cell(A, part, norm, q, anchor)
                close(pair.Z, Z)
                close(pair.W, W)


@pytest.mark.parametrize("kind, epsilon, computable", [
    ("laplacian1d", 0.0, 24),
    ("advdiff1d", 0.01, 20),
])
def test_inverse_cells_are_exact_to_round_off(kind, epsilon, computable):
    # no n x n inverse is formed, so the exact pairs on A^{-1} and A^{-*} of
    # these ill-conditioned problems verify: the compatibility equation and
    # all four orthogonality checks hold, and sin theta_max <= 1e-12
    n = 200
    A = cm.generate(cm.ProblemSpec(kind, n=n, epsilon=epsilon))
    part = _split(n)
    store = ProblemStore(A)
    sines = {}
    for norm in _RECIPE_NORMS:
        for q in ("Ainv", "AinvStar"):
            for anchor in ("P", "R"):
                try:
                    pair = cm.ideal_pair(store, part, norm, q, anchor)
                except ValueError:
                    continue
                G = cm.realize_norm(norm, store, factored=True)
                rep = cm.projection_report(A, pair, G, 1e-8)
                cell = (anchor, norm, q)
                assert rep["compat_eq"], cell
                assert all(rep["orthogonality_checks"].values()), cell
                sines[cell] = cm.coarse_correction(A, pair).angles(G).sin_max
    assert len(sines) == computable
    worst = max(sines, key=sines.get)
    assert sines[worst] <= 1e-12, (worst, sines[worst])


def test_transfer_pair_validation():
    part = _split(4)
    R = part.assemble_rows(np.zeros((2, 2)), np.eye(2))
    bad = part.assemble_rows(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="full column rank"):
        cm.TransferPair(bad, R, part)
    noid = part.assemble_rows(np.zeros((2, 2)), 2.0 * np.eye(2))
    with pytest.raises(ValueError, match="identity"):
        cm.TransferPair(noid, R, part)
    # same matrices are fine once declared as a change of basis
    cm.TransferPair(noid, R, part, cblocks=(2.0 * np.eye(2), np.eye(2)))
    # ... but only with the C-point blocks they actually carry
    with pytest.raises(ValueError, match="C-point rows"):
        cm.TransferPair(noid, R, part, cblocks=(3.0 * np.eye(2), np.eye(2)))
    with pytest.raises(ValueError, match="C-point rows"):
        cm.TransferPair(noid, R, part, cblocks=(2.0 * np.eye(2), 2.0 * np.eye(2)))
    with pytest.raises(ValueError, match="2x2"):
        cm.TransferPair(noid, R, part, cblocks=(2.0 * np.eye(3), np.eye(2)))


def test_change_of_basis_pair_declares_its_cblocks():
    A = cm.generate(cm.ProblemSpec("advection1d", n=12))
    part = _split(12)
    pair = cm.change_of_basis_pair(A, part)
    Y, V = pair.cblocks
    np.testing.assert_array_equal(part.c_rows(pair.R), Y)
    np.testing.assert_array_equal(part.c_rows(pair.P), V)


def test_single_operator_pair_lookup():
    rng = np.random.default_rng(34)
    A = random_stable(rng, 8)
    part = _split(8)
    by_index, tag_i = cm.single_operator_pair(A, part, 2)
    by_name, tag_n = cm.single_operator_pair(A, part, "single2")
    assert tag_i == tag_n == "Asym"
    np.testing.assert_array_equal(by_index.R, by_name.R)
    with pytest.raises(ValueError):
        cm.single_operator_pair(A, part, 5)
    with pytest.raises(ValueError):
        cm.single_operator_pair(A, part, "nope")


def test_general_w_from_z_matches_known_solutions():
    rng = np.random.default_rng(36)
    A = random_stable(rng, 12)
    part = _split(12)
    Ap = cm.partition(A, part)
    Asym = (A + A.T) / 2.0

    # symmetric-part norm, restriction ideal on A: interpolation ideal on Asym
    W = cm.compatible_w_from_z_general(Ap, cm.ideal_z(Ap), cm.realize_norm("Asym", A))
    np.testing.assert_allclose(W, cm.ideal_w(cm.partition(Asym, part)), rtol=1e-9)

    # stronger norm, restriction ideal on Asym: interpolation ideal on A
    M = cm.realize_norm("AstarAsymInvA", A)
    W = cm.compatible_w_from_z_general(Ap, cm.ideal_z(cm.partition(Asym, part)), M)
    np.testing.assert_allclose(W, cm.ideal_w(Ap), rtol=1e-9)


def test_general_w_from_z_agrees_with_closed_form():
    rng = np.random.default_rng(38)
    A = random_stable(rng, 10)
    part = _split(10)
    Ap = cm.partition(A, part)
    Z = rng.standard_normal((part.nf, part.nc))
    Wg = cm.compatible_w_from_z_general(Ap, Z, np.eye(10))
    Wc = cm.compatible_w_from_z(Ap, Z, "identity")
    np.testing.assert_allclose(Wg, Wc, rtol=1e-9, atol=1e-11)
    # and the resulting correction is orthogonal in the requested norm
    rng2 = np.random.default_rng(39)
    M = random_spd(rng2, 10, shift=0.5)
    Wm = cm.compatible_w_from_z_general(Ap, Z, M)
    pair = cm.make_pair(part, Z, Wm)
    assert abs(cm.pi_m_norm(cm.coarse_correction(A, pair), M) - 1.0) <= 1e-8


@lru_cache(maxsize=None)
def _catalog_of(kind, n):
    eps = 0.01 if kind == "advdiff1d" else 0.0
    A = cm.generate(cm.ProblemSpec(kind, n=n, epsilon=eps))
    part = _split(n)
    return A, part, tuple(cm.catalog_pairs(A, part))


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(("random", "advection1d", "laplacian1d", "advdiff1d")),
    n=st.sampled_from((24, 40)),
    cell=st.integers(0, 49),
)
def test_general_w_from_z_reproduces_every_catalog_cell(kind, n, cell):
    # from a computable cell's Z and its norm M, the general solve gives the
    # cell's W back, and the pair it makes is M-orthogonal. W is compared
    # relative to the cell's P = [W; I]: several cells have W = 0 up to
    # round-off
    A, part, entries = _catalog_of(kind, n)
    e = entries[cell]
    assume(not e.skipped)
    M = cm.realize_norm(e.norm, A)
    W = cm.compatible_w_from_z_general(cm.partition(A, part), e.pair.Z, M)
    assert np.linalg.norm(W - e.pair.W) <= 1e-8 * np.linalg.norm(e.pair.P)
    G = cm.realize_norm(e.norm, A, factored=True)
    corr = cm.coarse_correction(A, cm.make_pair(part, e.pair.Z, W))
    assert abs(cm.pi_m_norm(corr, G) - 1.0) <= 1e-8


_COMPLETION_NORMS = ("identity", "A", "Asym", "AstarA", "SqrtAstarA", "AstarAsymInvA", "Custom")


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(_ORACLE_KINDS),
    n=st.integers(8, 24),
    policy=st.sampled_from(("alternate", "firsthalf", "random")),
    seed=st.integers(0, 2**16),
)
def test_general_completion_is_compatible_in_every_norm(kind, n, policy, seed):
    # a random Z completed in any norm, passed as its factor, gives a pair
    # whose correction is orthogonal in that norm to sin theta_max <= 1e-9;
    # in the identity and A*A norms it is the closed form's W
    A = cm.generate(cm.ProblemSpec(kind, n=n, epsilon=0.05, seed=seed))
    part = cm.default_splitting(n, policy, seed=seed)
    Ap = cm.partition(A, part)
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((part.nf, part.nc))
    store = ProblemStore(A)
    completed = []
    for tag in _COMPLETION_NORMS:
        norm = cm.NormSpec("Custom", random_spd(rng, n)) if tag == "Custom" else tag
        try:
            G = cm.realize_norm(norm, store, factored=True)
        except ValueError:  # the norm's precondition fails on this A
            continue
        W = cm.compatible_w_from_z_general(Ap, Z, G)
        pair = cm.make_pair(part, Z, W)
        sin_max = cm.coarse_correction(A, pair).angles(G).sin_max
        assert sin_max <= 1e-9, (tag, sin_max)
        if tag in ("identity", "AstarA"):
            Wc = cm.compatible_w_from_z(Ap, Z, tag)
            assert np.linalg.norm(W - Wc) <= 1e-8 * np.linalg.norm(pair.P), tag
        completed.append(tag)
    assert {"identity", "AstarA", "SqrtAstarA", "Custom"} <= set(completed)


@pytest.mark.parametrize("tag", ["AstarA", "AstarAsymInvA"])
def test_general_completion_through_a_factor_of_another_matrix_matches_its_dense_norm(tag):
    # H = G^{-*} A* of a factor holds only on the matrix the factor was
    # realized on: a factor of A2 completes Z on A as the dense M of that
    # norm does, and the correction is orthogonal in M, whether the factor
    # belongs to A2 or to A itself
    n = 40
    A = cm.generate(cm.ProblemSpec("random", n=n, seed=11))
    A2 = cm.generate(cm.ProblemSpec("random", n=n, seed=12))
    part = _split(n)
    Ap = cm.partition(A, part)
    Z = np.random.default_rng(13).standard_normal((part.nf, part.nc))
    for B in (A2, A):
        M = cm.realize_norm(tag, B)
        want = cm.compatible_w_from_z_general(Ap, Z, M)
        W = cm.compatible_w_from_z_general(Ap, Z, cm.realize_norm(tag, B, factored=True))
        assert np.linalg.norm(W - want) <= 1e-10 * np.linalg.norm(want), tag
        corr = cm.coarse_correction(A, cm.make_pair(part, Z, W))
        assert abs(cm.pi_m_norm(corr, M) - 1.0) <= 1e-10, tag


def test_realize_q_tags():
    rng = np.random.default_rng(40)
    A = random_stable(rng, 6)
    np.testing.assert_array_equal(cm.realize_q("identity", A), np.eye(6))
    np.testing.assert_array_equal(cm.realize_q("A", A), A)
    np.testing.assert_allclose(cm.realize_q("Asym", A), (A + A.T) / 2)
    np.testing.assert_allclose(cm.realize_q("AstarA", A), A.T @ A)
    np.testing.assert_allclose(cm.realize_q("AAstar", A), A @ A.T)
    np.testing.assert_allclose(cm.realize_q("AinvStar", A) @ A.T, np.eye(6), atol=1e-10)
    np.testing.assert_allclose(cm.realize_q("Ainv", A) @ A, np.eye(6), atol=1e-10)
    with pytest.raises(ValueError):
        cm.QChoice("unknown")


@pytest.mark.parametrize("kind", ["random", "advdiff1d", "laplacian1d"])
def test_store_blocks_of_a_keep_the_bits_of_the_partitioned_companion(kind):
    # the store reads Z_ideal(A) and W_ideal(A) off A's F/C slices and its
    # A_ff solver; they must be the blocks ideal_z and ideal_w give on the
    # partitioned A, bit for bit, on every splitting
    A = cm.generate(cm.ProblemSpec(kind, n=40, epsilon=0.01, seed=3))
    rng = np.random.default_rng(41)
    for part in (cm.default_splitting(40, "alternate"), random_partition(rng, 40)):
        store = cm.ProblemStore(A)
        Q = cm.partition(A, part)
        z = _ideal_block(store, part, "A", "Z")
        w = _ideal_block(store, part, "A", "W")
        assert z.tobytes() == cm.ideal_z(Q).tobytes()
        assert w.tobytes() == cm.ideal_w(Q).tobytes()
        zero = np.zeros((part.nf, part.nc))
        np.testing.assert_array_equal(_ideal_block(store, part, "identity", "Z"), zero)
        np.testing.assert_array_equal(_ideal_block(store, part, "identity", "W"), zero)


def test_store_blocks_of_a_share_one_guarded_lu_of_a_ff(monkeypatch):
    import compatamg.linalg as linalg

    guard = linalg._guarded_lu
    counts = []
    monkeypatch.setattr(
        linalg, "_guarded_lu", lambda A, what, *norm: (counts.append(what), guard(A, what, *norm))[1]
    )
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=30, epsilon=0.05))
    part = cm.default_splitting(30, "alternate")
    store = cm.ProblemStore(A)
    for name in ("single1", "single2", "single3", "single4"):
        cm.single_operator_pair(store, part, name)
    # Z_ideal(A) and W_ideal(A) through the store's one "A_ff" guard, both
    # Asym blocks through the one guard of its companion entry, the
    # identity's without any
    assert sorted(counts) == ["A_ff", "ff-block of companion"]


def test_make_pair_writes_the_pair_transfer_pair_would_check():
    # R and P are written once, read-only, and equal what TransferPair
    # builds and checks from the assembled arrays
    rng = np.random.default_rng(45)
    part = random_partition(rng, 11)
    Z = rng.standard_normal((part.nf, part.nc))
    W = rng.standard_normal((part.nf, part.nc))
    pair = cm.make_pair(part, Z, W)
    eye = np.eye(part.nc)
    ref = cm.TransferPair(part.assemble_rows(Z, eye), part.assemble_rows(W, eye), part)
    for got, want in ((pair.R, ref.R), (pair.P, ref.P)):
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert pair.cblocks is None and pair.part is part
    assert pair.Z.tobytes() == Z.tobytes() and pair.W.tobytes() == W.tobytes()
    with pytest.raises(ValueError, match="Z must be"):
        cm.make_pair(part, Z[:-1], W)
    with pytest.raises(ValueError, match="W must be"):
        cm.make_pair(part, Z, W[:, :-1])
    bad = W.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        cm.make_pair(part, Z, bad)


def test_a_classical_pair_holds_its_blocks_and_assembles_r_and_p_once_on_read():
    rng = np.random.default_rng(52)
    part = random_partition(rng, 13)
    Z = np.asfortranarray(rng.standard_normal((part.nf, part.nc)))
    W = rng.standard_normal((part.nf, part.nc))
    pair = cm.make_pair(part, Z, W)
    # the blocks are copies of their own, read-only and C-ordered, as rows
    # gathered from an assembled operator are
    for got, given in ((pair.Z, Z), (pair.W, W)):
        assert got is not given and got.tobytes() == np.ascontiguousarray(given).tobytes()
        assert got.flags.c_contiguous and not got.flags.writeable
    assert pair.Z is pair.Z
    blocks = pair.Z, pair.W
    R, P = pair.R, pair.P
    eye = np.eye(part.nc)
    assert R.tobytes() == part.assemble_rows(Z, eye).tobytes()
    assert P.tobytes() == part.assemble_rows(W, eye).tobytes()
    assert pair.R is R and pair.P is P and not R.flags.writeable
    # an assembled operator is kept beside its block, which stays the very one
    assert pair.Z is blocks[0] and pair.W is blocks[1]
    assert pair.Z.tobytes() == np.ascontiguousarray(Z).tobytes()
    assert pair.W.tobytes() == W.tobytes()


def test_make_pair_rejects_a_read_only_block_holding_nan():
    part = _split(6)
    W = np.zeros((part.nf, part.nc))
    W[1, 2] = np.nan
    W.setflags(write=False)
    with pytest.raises(ValueError, match="W contains non-finite entries"):
        cm.make_pair(part, np.zeros((part.nf, part.nc)), W)


@pytest.mark.parametrize("policy", ["alternate", "random"])
def test_ideal_blocks_pair_holds_the_store_blocks_themselves(policy):
    # the store's ideal blocks are read-only and C-ordered, so a pair holds
    # them as they are, and its zero_blocks still read them
    n = 20
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=n, epsilon=0.05))
    part = cm.default_splitting(n, policy, seed=2)
    store = ProblemStore(A)
    tags = ("identity", "A", "Asym", "AstarA", "AAstar", "Ainv", "AinvStar")
    for r_q in tags:
        for p_q in tags:
            pair = cm.ideal_blocks_pair(store, part, r_q, p_q)
            for block, q, side in ((pair.Z, r_q, "Z"), (pair.W, p_q, "W")):
                assert block is _ideal_block(store, part, q, side)
                assert block.flags.c_contiguous and not block.flags.writeable
            assert pair.zero_blocks == (r_q == "identity", p_q == "identity")


def _counted_zero_blocks(pair):
    f = pair.part.fidx
    return np.count_nonzero(pair.R[f]) == 0, np.count_nonzero(pair.P[f]) == 0


def test_each_pair_decides_its_zero_blocks_once_as_count_nonzero_does():
    n = 24
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=n, epsilon=0.01))
    part = _split(n)
    store = ProblemStore(A)
    pairs = [cm.single_operator_pair(store, part, k)[0] for k in range(1, 5)]
    rng = np.random.default_rng(48)
    blocks = [rng.standard_normal((part.nf, part.nc)) for _ in range(2)]
    zero = np.zeros((part.nf, part.nc))
    for Z, W in ((zero, zero), (zero, blocks[1]), (blocks[0], zero), blocks):
        pairs.append(cm.make_pair(part, Z, W))
        pairs.append(cm.TransferPair(pairs[-1].R, pairs[-1].P, part))
    pairs.append(cm.change_of_basis_pair(A, part))
    seen = set()
    for pair in pairs:
        assert pair.zero_blocks == _counted_zero_blocks(pair)
        seen.add(pair.zero_blocks)
        if pair.cblocks is None:
            # a classical pair [B; I] has B = 0 exactly when its only
            # nonzeros are the n_c ones of I
            assert pair.zero_blocks == tuple(
                np.count_nonzero(op) == part.nc for op in (pair.R, pair.P)
            )
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("anchor", ["P", "R"])
@pytest.mark.parametrize("custom_norm", [False, True])
def test_ideal_pair_takes_a_custom_companion(anchor, custom_norm):
    # a Custom Q holds an array, so it keys no memo: the pair is built, and
    # its correction is orthogonal in the norm M it was built for
    rng = np.random.default_rng(49)
    n = 8
    A = cm.generate(cm.ProblemSpec("random", n=n, seed=3))
    part = _split(n)
    Q = random_spd(rng, n)
    norm = cm.NormSpec("Custom", random_spd(rng, n)) if custom_norm else "identity"
    pair = cm.ideal_pair(A, part, norm, cm.QChoice("Custom", Q), anchor)
    Qp = cm.partition(Q, part)
    anchored = (pair.W, cm.ideal_w(Qp)) if anchor == "P" else (pair.Z, cm.ideal_z(Qp))
    np.testing.assert_allclose(*anchored, rtol=1e-12, atol=1e-12)
    G = cm.realize_norm(norm, A, factored=True)
    report = cm.projection_report(A, pair, G)
    assert report["compat_eq"] and all(report["orthogonality_checks"].values())
    assert abs(report["pi_norm"] - 1.0) <= 1e-10


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("split", SPLITS)
@pytest.mark.parametrize("kind", TRIDIAGONAL_KINDS)
def test_ideal_blocks_read_off_the_diagonals_keep_the_gathered_bits(kind, split, n):
    # the ideal blocks of A, A^{-1} and A^{-*} on a tridiagonal A take A_cf,
    # A_fc and the A_ff and A_cc factors off its diagonals, with the values
    # and memory order of the gathered blocks'
    A = tridiagonal_problem(kind, n)
    part = cm.default_splitting(n, split, seed=n)
    store, ref = ProblemStore(A), GatheringStore(A)
    for q in ("A", "Ainv", "AinvStar"):
        for side in ("Z", "W"):
            assert_same_array(_ideal_block(store, part, q, side), _ideal_block(ref, part, q, side))
