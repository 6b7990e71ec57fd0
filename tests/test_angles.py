"""Tests for the canonical-angle kernel and the factored norms that feed it."""

import json
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import compatamg as cm
import compatamg.projection as projection
from compatamg.cli import main
from compatamg.linalg import RANK_RTOL
from compatamg.transfer import CATALOG_QS
from conftest import random_spd

NORM_TAGS = ("identity", "A", "Asym", "AstarA", "SqrtAstarA", "AstarAsymInvA", "Custom")
RTOL = 1e-9


def _spec(tag, rng, n):
    return cm.NormSpec(tag, random_spd(rng, n, shift=0.5)) if tag == "Custom" else tag


def _problem(rng, n, tag):
    """Well-conditioned A; symmetric when the norm tag needs A itself SPD."""
    A = random_spd(rng, n, shift=1.0)
    if tag != "A":
        K = rng.standard_normal((n, n))
        A = A + (K - K.T) / 2.0
    return A


def test_canonical_angles_of_two_lines():
    for theta in (0.0, 1e-9, 0.3, np.pi / 4, 1.2, 1.5):
        X = np.array([[1.0], [0.0], [0.0]])
        Y = np.array([[np.cos(theta)], [np.sin(theta)], [0.0]])
        ang = cm.canonical_angles(X, 5.0 * Y)
        assert ang.sin_max == pytest.approx(np.sin(theta), rel=1e-14, abs=1e-16)
        assert ang.cos_max == pytest.approx(np.cos(theta), rel=1e-12, abs=1e-16)
        assert ang.min_angle == pytest.approx(np.pi / 2 - theta, rel=1e-12)
        assert ang.pi_norm == pytest.approx(1.0 / np.cos(theta), rel=1e-12)


def test_canonical_angles_of_two_planes_in_three_space():
    # k = 2 > n/2: one row of the reflected basis lies outside the other
    # plane, so one sine is read and the other is zero
    theta = 0.4
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    Y = np.array([[1.0, 0.0], [0.0, np.cos(theta)], [0.0, np.sin(theta)]])
    Y = Y @ [[2.0, 1.0], [0.0, 3.0]]
    ang = cm.canonical_angles(X, Y)
    np.testing.assert_allclose(ang.sines, [np.sin(theta), 0.0], rtol=1e-14, atol=1e-16)
    np.testing.assert_allclose(ang.cosines, [1.0, np.cos(theta)], rtol=1e-14)
    assert ang.pi_norm == pytest.approx(1.0 / np.cos(theta), rel=1e-14)


def test_canonical_angles_equal_subspaces_read_exactly_one():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((30, 7))
    ang = cm.canonical_angles(X, X @ rng.standard_normal((7, 7)))
    assert ang.pi_norm == 1.0
    assert ang.nonorth_sup <= 1e-14
    with pytest.raises(ValueError, match="same shape"):
        cm.canonical_angles(X, X[:, :3])


def _angles_with_sine(s):
    """CanonicalAngles of two lines at the sine s."""
    return cm.CanonicalAngles(np.array([[s]]), np.array([[np.sqrt(1.0 - s * s)]]))


def test_small_sines_read_pi_norm_exactly_one():
    # below 2^-27 the sine is round-off of an exact pair: 1 - s*s rounds to
    # 1, so pi_norm is 1.0 and not 1 +- 1 ulp
    rng = np.random.default_rng(4)
    sines = np.concatenate([[0.0, 2.0**-27, np.nextafter(2.0**-27, 0.0), 1e-14, 7e-9],
                            10.0 ** rng.uniform(-300.0, np.log10(2.0**-27), 4000)])
    for s in sines:
        ang = _angles_with_sine(float(s))
        assert ang.cos_max == 1.0 and ang.pi_norm == 1.0, s
    # up to pi/4 the cosine stays within one ulp of sqrt(1 - s^2), decided in
    # exact rational arithmetic
    for s in np.concatenate([[1e-8, 1e-4, 0.3, 0.707], rng.uniform(0.0, 0.707, 200)]):
        ang = _angles_with_sine(float(s))
        c = ang.cos_max
        ulp = Fraction(float(np.spacing(c)))
        exact = 1 - Fraction(ang.sin_max) ** 2
        assert (Fraction(c) - ulp) ** 2 <= exact <= (Fraction(c) + ulp) ** 2, s


@pytest.mark.parametrize("tag", NORM_TAGS)
def test_factor_reproduces_the_dense_norm(tag):
    rng = np.random.default_rng(3)
    n = 9
    A = _problem(rng, n, tag)
    spec = _spec(tag, rng, n)
    M = cm.realize_norm(spec, A)
    G = cm.realize_norm(spec, A, factored=True)
    X = rng.standard_normal((n, 4))
    scale = np.linalg.norm(M, 2)
    np.testing.assert_allclose(G.gram(X), M @ X, atol=1e-12 * scale)
    np.testing.assert_allclose(G.solve(G.solve_adj(M @ X)), X, atol=1e-10)
    np.testing.assert_allclose(G.solve(G.apply(X)), X, atol=1e-12)
    np.testing.assert_allclose(G.solve_adj(G.apply_adj(X)), X, atol=1e-12)
    Y = rng.standard_normal((n, 3))
    np.testing.assert_allclose(G.apply(X).T @ Y, X.T @ G.apply_adj(Y), atol=1e-12 * scale)


def test_factor_keeps_the_dense_preconditions():
    nonsym = np.array([[2.0, 1.0], [0.0, 2.0]])
    indefinite = np.diag([1.0, -1.0])
    for tag, A in (("A", nonsym), ("Asym", indefinite), ("AstarAsymInvA", indefinite)):
        with pytest.raises(ValueError) as dense:
            cm.realize_norm(tag, A)
        with pytest.raises(ValueError) as factored:
            cm.realize_norm(tag, A, factored=True)
        assert str(dense.value) == str(factored.value)
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    for tag in ("AstarA", "SqrtAstarA"):
        with pytest.raises(cm.SingularMatrixError):
            cm.realize_norm(tag, singular, factored=True)


def test_shared_lu_factor_is_thread_safe():
    rng = np.random.default_rng(5)
    A = _problem(rng, 60, "AstarA")
    G = cm.realize_norm("AstarA", A, factored=True)
    blocks = [rng.standard_normal((60, 8)) for _ in range(64)]
    serial = [G.solve_adj(B) for B in blocks]
    with ThreadPoolExecutor(max_workers=4) as ex:
        parallel = list(ex.map(G.solve_adj, blocks))
    for a, b in zip(serial, parallel):
        np.testing.assert_array_equal(a, b)


def _case(seed, n, tag, compatible):
    rng = np.random.default_rng(seed)
    A = _problem(rng, n, tag)
    part = cm.default_splitting(n, "alternate")
    spec = _spec(tag, rng, n)
    if compatible:
        try:
            pair = cm.ideal_pair(A, part, spec, "A", anchor="P")
        except (ValueError, cm.SingularMatrixError):
            assume(False)
    else:
        Z = rng.standard_normal((part.nf, part.nc))
        W = rng.standard_normal((part.nf, part.nc))
        pair = cm.make_pair(part, Z, W)
    assume(np.linalg.cond(pair.R.T @ A @ pair.P) < 1e6)
    return A, pair, spec


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 40),
    tag=st.sampled_from(NORM_TAGS),
    compatible=st.booleans(),
)
def test_kernel_matches_the_dense_oracle(seed, n, tag, compatible):
    A, pair, spec = _case(seed, n, tag, compatible)
    M = cm.realize_norm(spec, A)
    G = cm.realize_norm(spec, A, factored=True)
    pi, _ = cm.build_pi(A, pair)
    oracle = cm.operator_m_norm(pi, M)
    assume(oracle < 1e4)

    corr = cm.coarse_correction(A, pair)
    nrm = cm.pi_m_norm(corr, G)
    sup = cm.nonorth_measure(corr, G)
    ang = cm.min_canonical_angle(corr, G)

    assert abs(nrm - oracle) <= RTOL * oracle
    assert abs(nrm * np.sin(ang) - 1.0) <= RTOL
    assert abs(sup**2 - (nrm**2 - 1.0)) <= RTOL * nrm**2
    complement = cm.operator_m_norm(np.eye(n) - pi, M)
    assert abs(nrm - complement) <= RTOL * nrm
    if compatible:
        assert abs(nrm - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [600, 1000])
def test_astara_factor_verifies_the_ill_conditioned_laplacian(n):
    # cond(A) is 1.5e5 at n = 600; forming M = A*A would square it past the
    # SPD check, while the factor G = A measures the exact pair at 1
    A = cm.generate(cm.ProblemSpec("laplacian1d", n=n))
    part = cm.default_splitting(n, "alternate")
    pair, tag = cm.single_operator_pair(A, part, "single3")
    assert tag == "AstarA"
    G = cm.realize_norm(tag, A, factored=True)
    assert abs(cm.pi_m_norm(cm.coarse_correction(A, pair), G) - 1.0) <= 1e-10


@pytest.mark.parametrize("n", [600, 1000])
def test_orthogonality_checks_agree_on_the_ill_conditioned_laplacian(n):
    # matches_m_adjoint tests G Pi G^{-1} for symmetry, which costs one cond(A)
    # in round-off; comparing Pi with M^{-1} Pi* M would cost cond(A)^2
    A = cm.generate(cm.ProblemSpec("laplacian1d", n=n))
    part = cm.default_splitting(n, "alternate")
    pair, tag = cm.single_operator_pair(A, part, "single3")
    pi, _ = cm.build_pi(A, pair)
    G = cm.realize_norm(tag, A, factored=True)
    checks = cm.orthogonality_checks(cm.coarse_correction(A, pair), G)
    assert checks.all_true and checks.agree
    assert checks.range_match == _four_svd_range_match(pi, G)


def _svd_rank(X):
    if X.size == 0:
        return 0
    s = np.linalg.svd(X, compute_uv=False)
    return 0 if s[0] == 0.0 else int(np.count_nonzero(s > RANK_RTOL * s[0]))


def _svd_basis(X):
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros((X.shape[0], 0))
    return U[:, s > RANK_RTOL * s[0]]


def _four_svd_range_match(pi, G):
    """range(M Pi) = range(Pi*) by four SVDs: rank of Pi, bases of both ranges,
    and the rank of the bases stacked side by side."""
    rank = _svd_rank(pi)
    U1 = _svd_basis(G.apply_adj(G.apply(pi)))
    U2 = _svd_basis(pi.T)
    return U1.shape[1] == rank and U2.shape[1] == rank \
        and _svd_rank(np.hstack([U1, U2])) == rank


def _range_test_pairs(A, part, rng):
    """single1..4, every computable catalog cell, random pairs, and a
    compatible pair perturbed by 1e-7."""
    pairs = []
    for k in (1, 2, 3, 4):
        try:
            pairs.append(cm.single_operator_pair(A, part, k)[0])
        except (ValueError, cm.SingularMatrixError):
            pass
    pairs += [e.pair for e in cm.catalog_pairs(A, part) if not e.skipped]
    for seed in (0, 1):
        g = np.random.default_rng(seed)
        pairs.append(cm.make_pair(part, g.standard_normal((part.nf, part.nc)),
                                  g.standard_normal((part.nf, part.nc))))
    exact = pairs[0]
    bump = np.zeros_like(exact.P)
    bump[list(part.fpoints)] = 1e-7 * rng.standard_normal((part.nf, part.nc))
    pairs.append(cm.TransferPair(exact.R, exact.P + bump, part))
    return pairs


@pytest.mark.parametrize("kind", ["random", "advection1d", "laplacian1d", "advdiff1d"])
def test_range_match_follows_the_four_svd_rule(kind):
    n = 24
    rng = np.random.default_rng(5)
    A = cm.generate(cm.ProblemSpec(kind, n=n, seed=3))
    part = cm.default_splitting(n, "alternate")
    factors = []
    for tag in NORM_TAGS:
        try:
            factors.append(cm.realize_norm(_spec(tag, rng, n), A, factored=True))
        except ValueError:
            pass
    decisions = []
    for pair in _range_test_pairs(A, part, rng):
        try:
            corr = cm.coarse_correction(A, pair)
        except cm.SingularMatrixError:
            continue
        pi, _ = cm.build_pi(A, pair)
        for G in factors:
            got = cm.orthogonality_checks(corr, G).range_match
            assert got == _four_svd_range_match(pi, G), (G.tag, pair)
            decisions.append(got)
    assert any(decisions) and not all(decisions)


def test_orthogonality_checks_make_no_square_svd(monkeypatch):
    # the range test works on n x r bases: no SVD or eigenvalue problem of
    # an n x n (or larger) matrix, through np.linalg.svd, numpy's norm(X, 2)
    # or the Gram matrix of the sines
    n = 60
    A = cm.generate(cm.ProblemSpec("random", n=n, seed=1))
    part = cm.default_splitting(n, "alternate")
    pair, tag = cm.single_operator_pair(A, part, "single1")
    corr = cm.coarse_correction(A, pair)
    G = cm.realize_norm(tag, A, factored=True)
    shapes = []

    def recording(fn):
        def wrapper(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", recording(np.linalg.svd))
    monkeypatch.setattr(np.linalg._linalg, "svd", recording(np.linalg._linalg.svd))
    monkeypatch.setattr(scipy.linalg, "eigh", recording(scipy.linalg.eigh))
    assert cm.orthogonality_checks(corr, G).all_true
    assert shapes
    assert all(min(s[-2:]) < n for s in shapes), shapes


def _stack_rank_compat(A, G, pair):
    """The former compat_eq rule: [M P | A* R] has numerical rank n_c, by one
    SVD of the n x 2n_c stack."""
    return _svd_rank(np.hstack([G.gram(pair.P), A.T @ pair.R])) == pair.nc


@pytest.mark.parametrize("kind", ["random", "advection1d", "laplacian1d", "advdiff1d"])
def test_compat_eq_and_checks_follow_the_dense_oracles(kind):
    # compat_eq, decided in G-space off the kernel, follows the stack-rank
    # rule on a correction and on its pair; the four checks read off the
    # correction's thin factors agree with it, and range_match follows the
    # four-SVD rule on the dense projection
    n = 24
    rng = np.random.default_rng(5)
    A = cm.generate(cm.ProblemSpec(kind, n=n, seed=3))
    part = cm.default_splitting(n, "alternate")
    factors = []
    for tag in NORM_TAGS:
        try:
            factors.append(cm.realize_norm(_spec(tag, rng, n), A, factored=True))
        except ValueError:
            pass
    decisions = []
    for pair in _range_test_pairs(A, part, rng):
        try:
            corr = cm.coarse_correction(A, pair)
        except cm.SingularMatrixError:
            continue
        pi, _ = cm.build_pi(A, pair)
        for G in factors:
            got = cm.verify_compat_equation(A, G, corr)
            assert got == _stack_rank_compat(A, G, pair), (G.tag, pair)
            assert got == cm.verify_compat_equation(A, G, pair)
            checks = cm.orthogonality_checks(corr, G)
            assert checks.agree and checks.all_true == got, (G.tag, pair)
            assert checks.range_match == _four_svd_range_match(pi, G), (G.tag, pair)
            decisions.append(got)
    assert any(decisions) and not all(decisions)


def test_compat_eq_reads_exact_pairs_with_a_large_z_entry():
    # one Z entry of 2e8 against a 1e-8 cut: the stack-rank rule saw the
    # column scale and rejected most of these exact A*A-compatible pairs
    oracle = []
    for kind in ("random", "advection1d", "laplacian1d", "advdiff1d"):
        for n in (16, 24):
            A = cm.generate(cm.ProblemSpec(kind, n=n, seed=1))
            part = cm.default_splitting(n, "alternate")
            Z = np.random.default_rng(1).standard_normal((part.nf, part.nc))
            Z[0, 0] = 2e8
            W = cm.compatible_w_from_z(cm.partition(A, part), Z, "AstarA")
            pair = cm.make_pair(part, Z, W)
            G = cm.realize_norm("AstarA", A, factored=True)
            report = cm.projection_report(A, pair, G)
            assert report["compat_eq"], (kind, n)
            assert all(report["orthogonality_checks"].values()), (kind, n)
            assert abs(report["pi_norm"] - 1.0) <= 1e-12
            oracle.append(_stack_rank_compat(A, G, pair))
    assert not all(oracle)


def _record_decompositions(monkeypatch, shapes):
    """Record the shape of every SVD, QR and symmetric eigenvalue problem
    made from now on, by family.

    A QR counts under "qr" in the default or economic mode and under
    "qr <mode>" otherwise; a Householder application (LAPACK dormqr) counts
    under "dormqr" with the shape of its reflector matrix, and its workspace
    query (lwork = -1) does not count.
    """
    def recording(fn, family):
        def wrapper(a, *args, **kwargs):
            key = family
            if family == "qr" and kwargs.get("mode", "economic") != "economic":
                key = f"qr {kwargs['mode']}"
            shapes.setdefault(key, []).append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper

    def recording_dormqr(side, trans, a, tau, c, lwork, **kwargs):
        if lwork != -1:
            shapes.setdefault("dormqr", []).append(np.shape(a))
        return dormqr(side, trans, a, tau, c, lwork, **kwargs)

    dormqr = scipy.linalg.lapack.dormqr
    monkeypatch.setattr(np.linalg, "svd", recording(np.linalg.svd, "svd"))
    monkeypatch.setattr(np.linalg._linalg, "svd", recording(np.linalg._linalg.svd, "svd"))
    monkeypatch.setattr(scipy.linalg, "svd", recording(scipy.linalg.svd, "svd"))
    monkeypatch.setattr(scipy.linalg, "eigh", recording(scipy.linalg.eigh, "eigh"))
    monkeypatch.setattr(scipy.linalg, "qr", recording(scipy.linalg.qr, "qr"))
    monkeypatch.setattr(scipy.linalg.lapack, "dormqr", recording_dormqr)


def test_projection_report_forms_no_dense_pi_and_decomposes_nothing_square(monkeypatch, tmp_path):
    # every case is measured from the pair's thin factors: build_pi is never
    # called, and no SVD or QR has both dimensions >= n, in projection_report
    # and in the tables and figure1 sweeps
    n = 60
    A = cm.generate(cm.ProblemSpec("random", n=n, seed=1))
    part = cm.default_splitting(n, "alternate")
    cases = [cm.single_operator_pair(A, part, k) for k in (1, 2, 3, 4)]
    g = np.random.default_rng(2)
    cases.append((cm.make_pair(part, g.standard_normal((part.nf, part.nc)),
                               g.standard_normal((part.nf, part.nc))), "SqrtAstarA"))
    cases = [(pair, cm.realize_norm(tag, A, factored=True)) for pair, tag in cases]
    shapes = {}

    def no_build_pi(*args, **kwargs):
        raise AssertionError("projection_report formed the dense Pi")

    monkeypatch.setattr(projection, "build_pi", no_build_pi)
    _record_decompositions(monkeypatch, shapes)
    reports = [cm.projection_report(A, pair, G) for pair, G in cases]
    assert all(r["compat_eq"] for r in reports[:4]) and not reports[4]["compat_eq"]
    made = sum(shapes.values(), [])
    assert made
    assert all(min(s[-2:]) < n for s in made), made

    n = 24
    for command in ("tables", "figure1"):
        shapes.clear()
        out = tmp_path / f"{command}.json"
        main([command, "--problem", "random", "--n", str(n), "--output", str(out)])
        assert json.loads(out.read_text())["results"]
        made = sum(shapes.values(), [])
        assert made
        assert all(min(s[-2:]) < n for s in made), (command, made)


def _kernel_calls(n, cases):
    """The decompositions of the given number of cases of n x n/2 pairs: per
    case the kernel's economic QR of G P, raw QR of G^{-*} A* R, dormqr with
    those reflectors, and the eigenvalues of the n/2 x n/2 Gram matrix of the
    block outside range(G^{-*} A* R), whose top eigenvector gives sin(theta_max)."""
    return {"qr": [(n, n // 2)] * cases, "qr raw": [(n, n // 2)] * cases,
            "dormqr": [(n, n // 2)] * cases, "eigh": [(n // 2, n // 2)] * cases}


def test_tables_cell_makes_two_thin_qrs_and_one_small_eigensolve(monkeypatch, tmp_path):
    # the kernel's reflection of G P decides compat_eq too, and every angle of
    # a compatible cell is below pi/4, so its cosines are not read
    n = 24
    shapes = {}
    _record_decompositions(monkeypatch, shapes)
    out = tmp_path / "tables.json"
    assert main(["tables", "--problem", "random", "--n", str(n), "--output", str(out)]) == 0
    measured = [r for r in json.loads(out.read_text())["results"] if not r.get("skipped")]
    assert len(measured) == 40 and all(r["compat_eq"] and r["pass"] for r in measured)
    assert shapes == _kernel_calls(n, len(measured))


def test_verify_pairs_case_makes_two_thin_qrs_and_one_small_eigensolve(monkeypatch, tmp_path):
    # range_match, matches_m_adjoint and compat_eq are read off the kernel,
    # so a case makes the kernel's two QRs, its reflection and the Gram
    # eigenvalues of its sines and nothing more; the non-orthogonal random:7
    # case, at theta_max >= pi/4, also reads the cosines, one n_c x n_c SVD
    n = 24
    shapes = {}
    _record_decompositions(monkeypatch, shapes)
    out = tmp_path / "verify.json"
    argv = ["verify-pairs", "--problem", "random", "--n", str(n), "--output", str(out)]
    for name in ("single1", "single2", "single3", "single4", "random:7"):
        argv += ["--pair", name]
    assert main(argv) == 0
    results = json.loads(out.read_text())["results"]
    assert all(r["compat_eq"] and all(r["orthogonality_checks"].values())
               for r in results[:4])
    control = results[4]
    assert control["min_angle"] < np.pi / 4
    assert not control["compat_eq"] and not any(control["orthogonality_checks"].values())
    expected = _kernel_calls(n, len(results))
    expected["svd"] = [(n // 2, n // 2)]
    assert shapes == expected

    # once the kernel has run for the case, the checks and compat_eq
    # decompose nothing
    A = cm.generate(cm.ProblemSpec("random", n=n))
    part = cm.default_splitting(n, "alternate")
    pair, tag = cm.single_operator_pair(A, part, "single3")
    G = cm.realize_norm(tag, A, factored=True)
    corr = cm.coarse_correction(A, pair)
    cm.pi_m_norm(corr, G)
    shapes.clear()
    assert cm.orthogonality_checks(corr, G).all_true
    assert cm.verify_compat_equation(A, G, corr)
    assert shapes == {}


@pytest.mark.parametrize("kind, n, epsilon, cells", [("laplacian1d", 300, 0.0, 50),
                                                     ("advdiff1d", 200, 0.01, 40)])
def test_catalog_cells_keep_the_equivalence_chain(kind, n, epsilon, cells):
    # the four orthogonality conditions and the compatibility equation are
    # equivalent, so on the production path they agree on every computable
    # cell, the exact A*A cells whose original-space range test read
    # cond(A)^2 round-off among them. The pi_norm verdict is left out of the
    # chain: it is quadratic in the angle, and the identity-norm AinvStar/Ainv
    # pairs (t2:identity:AinvStar on laplacian1d at n = 600) carry a real
    # angle of about 1.6e-7 from construction round-off, which three of the
    # four checks see and |pi_norm - 1| <= tol does not
    A = cm.generate(cm.ProblemSpec(kind, n=n, epsilon=epsilon))
    part = cm.default_splitting(n, "alternate")
    factors = {}
    measured = 0
    for entry in cm.catalog_pairs(A, part):
        if entry.skipped:
            continue
        if entry.norm not in factors:
            factors[entry.norm] = cm.realize_norm(entry.norm, A, factored=True)
        G = factors[entry.norm]
        corr = cm.coarse_correction(A, entry.pair)
        chain = list(cm.orthogonality_checks(corr, G).as_dict().values())
        chain.append(cm.verify_compat_equation(A, G, corr))
        assert all(chain) or not any(chain), (entry.table, entry.norm, entry.q, chain)
        measured += 1
    # SPD A makes the norm-A row computable too
    assert measured == cells


@pytest.mark.parametrize("kind, n, epsilon", [("random", 100, 0.0), ("laplacian1d", 300, 0.0),
                                               ("advdiff1d", 200, 0.01)])
def test_reflector_sines_and_compat_eq_match_the_explicit_basis(kind, n, epsilon):
    # the kernel reads the sines off the rows of G P's basis that its
    # Householder reflection puts outside range(G^{-*} A* R), and compat_eq
    # off the same rows; both match the explicit-basis formulas. SqrtAstarA is
    # not a catalog norm, so its cells are built on the catalog companions.
    # Every sine of an exact cell is round-off: the two formulas agree to
    # 8 eps absolute, and on the catalog cells compat_eq follows the
    # stack-rank oracle. The explicit residual Qv - Qu (Qu* Qv) cancels down
    # to a floor near 4 eps (its smallest sines read 1e-15 on laplacian1d,
    # where the reflection reads 5e-17), so the two differ by 4 eps there.
    # A random pair and an exact pair perturbed by 1e-7 read compat_eq
    # false, as on the pair path; the oracle misses the perturbation on
    # advdiff1d.
    eps = np.finfo(float).eps
    A = cm.generate(cm.ProblemSpec(kind, n=n, epsilon=epsilon))
    part = cm.default_splitting(n, "alternate")
    # (norm, pair, exact, catalog cell)
    cases = [(e.norm, e.pair, True, True) for e in cm.catalog_pairs(A, part) if not e.skipped]
    for anchor in ("P", "R"):
        for q in CATALOG_QS:
            try:
                cases.append(("SqrtAstarA", cm.ideal_pair(A, part, "SqrtAstarA", q, anchor),
                              True, False))
            except (ValueError, cm.SingularMatrixError):
                pass
    base = cases[0][1]
    bump = np.zeros_like(base.P)
    rng = np.random.default_rng(5)
    bump[list(part.fpoints)] = 1e-7 * rng.standard_normal((part.nf, part.nc))
    g = np.random.default_rng(0)
    for pair in (cm.TransferPair(base.R, base.P + bump, part),
                 cm.make_pair(part, g.standard_normal((part.nf, part.nc)),
                              g.standard_normal((part.nf, part.nc)))):
        cases.append((cases[0][0], pair, False, False))
    factors = {}
    decisions = []
    for norm, pair, exact, oracle in cases:
        if norm not in factors:
            factors[norm] = cm.realize_norm(norm, A, factored=True)
        G = factors[norm]
        corr = cm.coarse_correction(A, pair)
        sines = corr.angles(G).sines
        GP, GAR = projection._blocks(G, A, pair, corr)
        Qu, _ = scipy.linalg.qr(GP, mode="economic")
        Qv, _ = scipy.linalg.qr(GAR, mode="economic")
        explicit = np.clip(np.linalg.svd(Qv - Qu @ (Qu.T @ Qv), compute_uv=False), 0.0, 1.0)
        if exact:
            assert np.max(np.abs(sines - explicit)) <= 8 * eps, (norm, pair)
        else:
            np.testing.assert_allclose(sines, explicit, rtol=1e-12, atol=8 * eps)
        got = cm.verify_compat_equation(A, G, corr)
        if oracle:
            assert got == _stack_rank_compat(A, G, pair), (norm, pair)
        assert got == cm.verify_compat_equation(A, G, pair), (norm, pair)
        decisions.append(got)
    assert not any(decisions[-2:]) and all(decisions[:-2])


def _reflected(X, Y):
    """Z = H* Qu: the thin QR basis Qu of X in the Householder frame H of Y's QR."""
    Qu, _ = scipy.linalg.qr(X, mode="economic")
    (h, tau), _ = scipy.linalg.qr(Y, mode="raw")
    dormqr = scipy.linalg.lapack.dormqr
    lwork = int(dormqr("L", "T", h, tau, Qu, -1)[1][0])
    return dormqr("L", "T", h, tau, Qu, lwork)[0]


@pytest.mark.parametrize("theta_max", [0.3, 1.2])
def test_cosines_are_read_lazily_with_the_eager_bits(monkeypatch, theta_max):
    # subspaces at the angles 0.05 .. theta_max, below and above pi/4
    rng = np.random.default_rng(11)
    n, k = 30, 5
    Q, _ = np.linalg.qr(rng.standard_normal((n, 2 * k)))
    theta = np.linspace(0.05, theta_max, k)
    X = Q[:, :k] @ rng.standard_normal((k, k))
    Y = (Q[:, :k] * np.cos(theta) + Q[:, k:] * np.sin(theta)) @ rng.standard_normal((k, k))
    ang = cm.canonical_angles(X, Y)
    svds = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        svds.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert ang.sin_max == pytest.approx(np.sin(theta_max), rel=1e-12)
    assert ang.pi_norm == pytest.approx(1.0 / np.cos(theta_max), rel=1e-12)
    ang.nonorth_sup, ang.min_angle
    assert len(svds) == (0 if theta_max < np.pi / 4 else 1)
    Z = _reflected(X, Y)
    eager = np.clip(svd(Z[:k].T, compute_uv=False), 0.0, 1.0)
    np.testing.assert_array_equal(ang.cosines, eager)
    assert len(svds) == 1



def _dense_adjoint_ratio(A, pair, G):
    """||X - X*||_F / ||X||_F for the formed X = G Pi G^{-1} = (G P)(G^{-*} B*)*."""
    B = scipy.linalg.solve(pair.R.T @ A @ pair.P, pair.R.T @ A)
    X = G.apply(pair.P) @ G.solve_adj(B.T).T
    return np.linalg.norm(X - X.T) / np.linalg.norm(X)


@pytest.mark.parametrize("kind, n, epsilon", [("random", 120, 0.0), ("laplacian1d", 300, 0.0),
                                               ("advdiff1d", 200, 0.01)])
def test_frame_adjoint_ratio_matches_the_formed_x(kind, n, epsilon):
    # matches_m_adjoint reads ||X - X*|| / ||X|| in the kernel's frame, from
    # one n_c x n_c solve with K: it equals the ratio of the formed n x n X,
    # and on exact pairs both are round-off far below the 1e-8 tolerance. The
    # formed X carries cond(A) round-off for the A*A norm (5e-11 on random),
    # the frame reads at most 1.1e-13
    rng = np.random.default_rng(8)
    A = cm.generate(cm.ProblemSpec(kind, n=n, epsilon=epsilon))
    part = cm.default_splitting(n, "alternate")
    pairs = [cm.single_operator_pair(A, part, k)[0] for k in (1, 2, 3, 4)]
    pairs.append(cm.make_pair(part, rng.standard_normal((part.nf, part.nc)),
                              rng.standard_normal((part.nf, part.nc))))
    checked = 0
    for tag in NORM_TAGS:
        try:
            G = cm.realize_norm(_spec(tag, rng, n), A, factored=True)
        except ValueError:
            continue
        for pair in pairs:
            corr = cm.coarse_correction(A, pair)
            asym, xnorm = corr.adjoint_defect(G)
            frame, dense = asym / xnorm, _dense_adjoint_ratio(A, pair, G)
            if dense > 1e-6:
                assert frame == pytest.approx(dense, rel=1e-6), (tag, frame, dense)
            else:
                assert frame <= 1e-12 and dense <= 1e-9, (tag, frame, dense)
            checked += 1
    assert checked >= 5 * 6


def _extended_sin_max(E):
    """sin(theta_max) = ||E||_2 as a Rayleigh quotient in long double, taken at
    the top eigenvector of E* E; the vector's error enters squared."""
    v = np.linalg.eigh(E.T @ E)[1][:, -1].astype(np.longdouble)
    Ev = E.astype(np.longdouble) @ v
    return np.sqrt((Ev @ Ev) / (v @ v))


@pytest.mark.parametrize("kind, n", [("random", 60), ("laplacian1d", 300), ("advdiff1d", 200)])
def test_gram_sin_max_matches_the_svd(kind, n):
    # sin(theta_max) as ||E v|| at the top eigenvector v of E* E keeps the relative
    # accuracy of the largest singular value of E, on exact pairs (sines of
    # round-off), on oblique pairs and on subspaces at prescribed angles. It
    # is within 4 eps, relative, of a long-double value, where the SVD's is
    # off by up to 4.7 eps here, so the two differ by up to 6 eps.
    eps = np.finfo(float).eps
    extended = np.finfo(np.longdouble).eps < eps / 100
    rng = np.random.default_rng(12)
    A = cm.generate(cm.ProblemSpec(kind, n=n, epsilon=0.01))
    part = cm.default_splitting(n, "alternate")
    angles = []
    for entry in cm.catalog_pairs(A, part):
        if not entry.skipped:
            G = cm.realize_norm(entry.norm, A, factored=True)
            angles.append(cm.coarse_correction(A, entry.pair).angles(G))
    Q, _ = np.linalg.qr(rng.standard_normal((n, 2 * 5)))
    for theta_max in (1e-12, 1e-6, 0.3, 1.2, 1.5):
        theta = np.linspace(theta_max / 7, theta_max, 5)
        X = Q[:, :5] @ rng.standard_normal((5, 5))
        Y = (Q[:, :5] * np.cos(theta) + Q[:, 5:] * np.sin(theta)) @ rng.standard_normal((5, 5))
        angles.append(cm.canonical_angles(X, Y))
    for ang in angles:
        gram, svd = ang.sine_top, ang.sines[0]
        assert abs(gram - svd) <= 8 * eps * svd, (gram, svd)
        if extended:
            ref = _extended_sin_max(ang.outside)
            assert abs(gram - ref) <= 4 * eps * ref, (gram, float(ref))
