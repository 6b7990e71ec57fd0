"""Tests for transfer-operator construction."""

from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import compatamg as cm
from compatamg.linalg import SingularMatrixError, numerical_rank
from compatamg.transfer import _companion, _ideal_block, _ideal_cell, _norm_row
from conftest import random_nonsingular, random_partition, random_spd, random_stable

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
    rng = np.random.default_rng(20)
    A = random_stable(rng, 12)
    M = cm.realize_norm("AstarAsymInvA", A)
    comp = _companion(A, _norm_row(A, M, "P"), cm.realize_q("A", A), "P")
    np.testing.assert_allclose(comp, (A + A.T) / 2.0, rtol=1e-9, atol=1e-11)
    part = _split(12)
    pair = cm.ideal_pair(A, part, "AstarAsymInvA", "A", anchor="P")
    np.testing.assert_allclose(
        pair.Z, cm.ideal_z(cm.partition((A + A.T) / 2.0, part)), rtol=1e-8
    )


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
    assert numerical_rank(np.hstack([Vh @ pair.P, U.T @ pair.R])) == part.nc
    M = cm.realize_norm("SqrtAstarA", A)
    pi, _ = cm.build_pi(A, pair)
    assert abs(cm.pi_m_norm(pi, M) - 1.0) <= 1e-8


def _cell_companion(A, part, e):
    """The companion slice the sweep forms for entry e: F columns for table 1, F rows for table 2."""
    row = _norm_row(A, cm.realize_norm(e.norm, A), e.anchor)
    return _ideal_cell(A, part, row, e.q, e.anchor, {})[1]


def _companion_slice(C, part, anchor):
    f = list(part.fpoints)
    return C[:, f] if anchor == "P" else C[f]


def test_catalog_shape_and_examples():
    rng = np.random.default_rng(28)
    A = random_stable(rng, 14)
    part = _split(14)
    entries = list(cm.catalog_pairs(A, part))
    assert len(entries) == 50
    by_key = {(e.table, e.norm, e.q): e for e in entries}

    e = by_key[(1, "identity", "A")]
    assert e.companion_expr == "A A*" and not e.skipped
    np.testing.assert_allclose(
        _cell_companion(A, part, e), _companion_slice(A @ A.T, part, "P"), rtol=1e-12
    )

    e = by_key[(2, "AstarA", "identity")]
    assert e.companion_expr == "A" and e.label == "single" and not e.skipped
    np.testing.assert_allclose(
        _cell_companion(A, part, e), _companion_slice(A, part, "R"), rtol=1e-9, atol=1e-11
    )

    e = by_key[(1, "Asym", "A")]
    Asym = (A + A.T) / 2.0
    np.testing.assert_allclose(
        _cell_companion(A, part, e),
        _companion_slice(A @ np.linalg.solve(Asym, A.T), part, "P"),
        rtol=1e-9,
    )

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


@pytest.mark.parametrize("spd", [False, True])
def test_catalog_expressions_match_companions(spd):
    # every printed companion expression reduces to the anchored formula,
    # A M^{-1} Q* for table 1 and Q* A^{-*} M for table 2, on the slice the
    # sweep forms: the F columns for table 1, the F rows for table 2
    rng = np.random.default_rng(31)
    A = random_spd(rng, 10, shift=0.5) if spd else random_stable(rng, 10)
    part = _split(10)
    for e in cm.catalog_pairs(A, part):
        if e.skipped:
            continue
        np.testing.assert_allclose(
            _companion_slice(_eval_companion_expr(e.companion_expr, A), part, e.anchor),
            _cell_companion(A, part, e),
            rtol=1e-9,
            atol=1e-11,
            err_msg=f"table {e.table} ({e.norm}, {e.q}): {e.companion_expr}",
        )


@pytest.mark.parametrize("spd", [False, True])
def test_catalog_cells_match_per_cell_construction(spd):
    # the row-scoped sweep gives the bits of building every cell on its own,
    # with the companion slice formed by a dense solve against M and the
    # derived ideal block read off a matrix that holds only that slice
    rng = np.random.default_rng(33)
    n = 12
    A = random_spd(rng, n, shift=0.5) if spd else random_stable(rng, n)
    part = _split(n)
    f = list(part.fpoints)
    for e in cm.catalog_pairs(A, part):
        if e.skipped:
            with pytest.raises((ValueError, SingularMatrixError)):
                cm.ideal_pair(A, part, e.norm, e.q, e.anchor)
            continue
        M, Qm = cm.realize_norm(e.norm, A), cm.realize_q(e.q, A)
        only_slice = np.zeros((n, n))
        if e.anchor == "P":
            comp = A @ sla.solve(M, Qm[f].T, assume_a="pos")
            only_slice[:, f] = comp
            ref = cm.make_pair(
                part,
                cm.ideal_z(cm.partition(only_slice, part)),
                cm.ideal_w(cm.partition(Qm, part)),
            )
        else:
            comp = Qm[:, f].T @ sla.solve(A.T, M)
            only_slice[f] = comp
            ref = cm.make_pair(
                part,
                cm.ideal_z(cm.partition(Qm, part)),
                cm.ideal_w(cm.partition(only_slice, part)),
            )
        pair = cm.ideal_pair(A, part, e.norm, e.q, e.anchor)
        np.testing.assert_array_equal(_cell_companion(A, part, e), comp)
        for other in (ref, pair):
            np.testing.assert_array_equal(e.pair.R, other.R)
            np.testing.assert_array_equal(e.pair.P, other.P)


def test_catalog_builds_each_norm_per_row_and_each_companion_once(monkeypatch):
    import compatamg.transfer as transfer

    calls = {"realize_norm": 0, "realize_q": 0, "_companion": 0, "_w_of": 0, "_z_of": 0}

    def counted(name):
        inner = getattr(transfer, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(transfer, name, counted(name))
    rng = np.random.default_rng(34)
    A = random_stable(rng, 12)
    entries = list(cm.catalog_pairs(A, _split(12)))
    assert calls["realize_norm"] <= 10
    # each companion Q once per table, each cell's companion slice once
    assert calls["realize_q"] == 10
    assert calls["_companion"] == sum(not e.skipped for e in entries) == 40
    # the anchored ideal block once per table and companion (W of Q in table
    # 1, Z of Q in table 2), the companion side's once per cell
    assert calls["_w_of"] == calls["_z_of"] == 5 + 20


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
    pi, _ = cm.build_pi(A, pair)
    assert abs(cm.pi_m_norm(pi, M) - 1.0) <= 1e-8


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
        linalg, "_guarded_lu", lambda A, what: (counts.append(what), guard(A, what))[1]
    )
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=30, epsilon=0.05))
    part = cm.default_splitting(30, "alternate")
    store = cm.ProblemStore(A)
    for name in ("single1", "single2", "single3", "single4"):
        cm.single_operator_pair(A, part, name, store)
    # Z_ideal(A) and W_ideal(A) through the store's one "A_ff" guard, the
    # Asym blocks through one guard each, the identity's without any
    assert sorted(counts) == ["A_ff", "ff-block of companion", "ff-block of companion"]
