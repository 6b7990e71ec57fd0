"""Tests for relaxation, two-grid propagation, and convergence measurement."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import compatamg as cm
import compatamg.linalg
from compatamg.solver import _bind
from conftest import (
    ORDERS,
    SPLITS,
    TRIDIAGONAL_KINDS,
    GatheringStore,
    norm_matrix,
    operator_m_norm,
    random_pair_case,
    tridiagonal_problem,
)

A2 = np.array([[1.0, 0.0], [-1.0, 1.0]])
P2 = cm.CFPartition(2, (0,), (1,))


def _split(n):
    return cm.default_splitting(n, "alternate")


def _air_pair(A, part):
    """Ideal restriction on A with zero interpolation block."""
    return cm.make_pair(part, cm.ideal_z(cm.partition(A, part)), np.zeros((part.nf, part.nc)))


def test_relax_none_is_identity():
    E = cm.relax_propagator(A2, cm.RelaxSpec("none"))
    np.testing.assert_array_equal(E, np.eye(2))
    E = cm.relax_propagator(A2, cm.RelaxSpec("jacobi", sweeps=0))
    np.testing.assert_array_equal(E, np.eye(2))


def test_relax_fexact_smallest():
    E = cm.relax_propagator(A2, cm.RelaxSpec("fexact"), P2)
    np.testing.assert_allclose(E, [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)
    # residual of the relaxed error vanishes on F-points
    A = cm.generate(cm.ProblemSpec("advection1d", n=16))
    part = _split(16)
    E = cm.relax_propagator(A, cm.RelaxSpec("fexact"), part)
    res = A @ E
    assert np.max(np.abs(res[list(part.fpoints)])) <= 1e-12


def test_relax_jacobi_contracts_on_spd():
    A = cm.generate(cm.ProblemSpec("laplacian1d", n=16))
    E = cm.relax_propagator(A, cm.RelaxSpec("jacobi", omega=1.0))
    assert cm.conv_factor(E) < 1.0


def test_relax_fjacobi_touches_f_points_only():
    A = cm.generate(cm.ProblemSpec("laplacian1d", n=8))
    part = _split(8)
    E = cm.relax_propagator(A, cm.RelaxSpec("fjacobi", omega=0.8, sweeps=2), part)
    np.testing.assert_array_equal(E[list(part.cpoints)][:, list(part.fpoints)].shape,
                                  (part.nc, part.nf))
    # C-point rows are untouched by F-relaxation
    np.testing.assert_allclose(E[list(part.cpoints)],
                               np.eye(8)[list(part.cpoints)], atol=1e-15)


def test_relax_errors():
    with pytest.raises(ValueError):
        cm.RelaxSpec("sor")
    with pytest.raises(ValueError):
        cm.RelaxSpec("jacobi", omega=2.5)
    with pytest.raises(ValueError):
        cm.relax_propagator(np.array([[0.0, 1.0], [1.0, 0.0]]), cm.RelaxSpec("jacobi"))
    with pytest.raises(ValueError):
        cm.relax_propagator(A2, cm.RelaxSpec("fexact"))  # partition required


@pytest.mark.parametrize("sweeps", [1.5, 2.0, True, "2", None])
def test_relax_sweeps_must_be_an_integer(sweeps):
    # a non-integer count is refused when the spec is made, not by the
    # matrix power or the iteration that reads it
    with pytest.raises(ValueError, match=rf"^sweeps must be an integer, got {sweeps!r}$"):
        cm.RelaxSpec("jacobi", sweeps=sweeps)
    with pytest.raises(ValueError, match="sweeps must be >= 0"):
        cm.RelaxSpec("jacobi", sweeps=-1)
    spec = cm.RelaxSpec("jacobi", sweeps=np.int64(2))
    np.testing.assert_array_equal(cm.relax_propagator(A2, spec),
                                  cm.relax_propagator(A2, cm.RelaxSpec("jacobi", sweeps=2)))


def test_two_grid_no_relaxation():
    rng = np.random.default_rng(0)
    A, M, pair = random_pair_case(rng)
    E = cm.two_grid_propagator(A, cm.TwoGridSpec(pair=pair))
    pi, _ = cm.build_pi(A, pair)
    np.testing.assert_allclose(E, np.eye(A.shape[0]) - pi, atol=1e-13)
    nrm = cm.pi_m_norm(cm.coarse_correction(A, pair), M)
    assert abs(operator_m_norm(E, M) - nrm) <= 1e-10 * nrm


def test_two_grid_exact_direct_method():
    # ideal restriction plus an exact F-solve is a two-level direct method
    A = cm.generate(cm.ProblemSpec("advection1d", n=64))
    part = _split(64)
    spec = cm.TwoGridSpec(pair=_air_pair(A, part), post=cm.RelaxSpec("fexact"))
    E = cm.two_grid_propagator(A, spec)
    assert cm.conv_factor(E) <= 1e-12


def test_two_grid_galerkin_norm_one():
    A = cm.generate(cm.ProblemSpec("laplacian1d", n=16))
    part = _split(16)
    W = cm.ideal_w(cm.partition(A, part))
    P = part.assemble_rows(W, np.eye(part.nc))
    pair = cm.TransferPair(P, P, part)
    E = cm.two_grid_propagator(A, cm.TwoGridSpec(pair=pair))
    assert abs(operator_m_norm(E, A) - 1.0) <= 1e-10


def test_conv_factor_examples():
    assert cm.conv_factor(np.zeros((4, 4))) == 0.0
    rng = np.random.default_rng(2)
    A, _, pair = random_pair_case(rng)
    E = cm.two_grid_propagator(A, cm.TwoGridSpec(pair=pair))
    rho = cm.conv_factor(E)
    for tag in ("identity", "Asym", "AstarA", "SqrtAstarA", "AstarAsymInvA"):
        M = norm_matrix(tag, A)
        assert rho <= operator_m_norm(E, M) + 1e-12


def test_conv_factor_matches_jacobi_eigen_oracle():
    n, omega = 32, 2.0 / 3.0
    A = cm.generate(cm.ProblemSpec("laplacian1d", n=n))
    E = cm.relax_propagator(A, cm.RelaxSpec("jacobi", omega=omega))
    # eigenvalues of the 1D Laplacian stencil are 2 - 2 cos(k pi h)
    k = np.arange(1, n + 1)
    lam = 1.0 - omega * (1.0 - np.cos(k * np.pi / (n + 1)))
    assert abs(cm.conv_factor(E) - np.max(np.abs(lam))) <= 1e-12


def test_air_cpoint_residual_zero_for_ideal_restriction():
    A = cm.generate(cm.ProblemSpec("advection1d", n=32))
    part = _split(32)
    pair = _air_pair(A, part)
    rng = np.random.default_rng(3)
    for _ in range(10):
        e = rng.standard_normal(32)
        assert cm.air_cpoint_residual(A, pair, e) <= 1e-12 * np.linalg.norm(e)


def test_iterate_and_cpoint_residual_take_n_finite_entries():
    # a vector of the wrong length or with a NaN or infinity is named, not
    # broadcast or carried into the history; an (n, 1) column is accepted
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=8, epsilon=0.05))
    store = cm.ProblemStore(A)
    pair, _ = cm.single_operator_pair(store, _split(8), "single1")
    spec = cm.TwoGridSpec(pair, post=cm.RelaxSpec("fexact"))
    b, x0 = np.ones(8), np.zeros(8)
    for args, message in (((np.ones(7), x0), "b must have 8 entries, got 7"),
                          ((b, np.zeros(9)), "x0 must have 8 entries, got 9"),
                          ((np.full(8, np.nan), x0), "b contains non-finite entries"),
                          ((b, np.full(8, np.inf)), "x0 contains non-finite entries")):
        with pytest.raises(ValueError, match=message):
            cm.iterate(store, spec, *args, 2)
    column = cm.iterate(store, spec, b[:, None], x0[:, None], 2)
    assert column.tobytes() == cm.iterate(store, spec, b, x0, 2).tobytes()
    for e, message in ((np.ones(7), "e must have 8 entries, got 7"),
                       (np.full(8, np.nan), "e contains non-finite entries")):
        with pytest.raises(ValueError, match=message):
            cm.air_cpoint_residual(store, pair, e)
    assert cm.air_cpoint_residual(store, pair, b[:, None]) == cm.air_cpoint_residual(store, pair, b)


def test_air_cpoint_residual_grows_with_perturbation():
    A = cm.generate(cm.ProblemSpec("advection1d", n=32))
    part = _split(32)
    Z = cm.ideal_z(cm.partition(A, part))
    rng = np.random.default_rng(4)
    noise = rng.standard_normal(Z.shape)
    e = rng.standard_normal(32)
    res = []
    for delta in (0.0, 1e-8, 1e-4, 1e-2):
        pair = cm.make_pair(part, Z + delta * noise, np.zeros_like(Z))
        res.append(cm.air_cpoint_residual(A, pair, e))
    assert res[0] <= 1e-12 * np.linalg.norm(e)
    assert res[1] < res[2] < res[3]
    assert res[1] <= 1e-5


@pytest.mark.parametrize("kind", ["advection1d", "random"])
def test_air_cpoint_residual_of_a_non_ideal_pair_matches_the_dense_pi(kind):
    # the correction is applied to e as P K^{-1} (R*A e); it reads the C rows
    # of (I - Pi) e with Pi formed by build_pi, to round-off
    A = cm.generate(cm.ProblemSpec(kind, n=32, seed=2))
    part = _split(32)
    rng = np.random.default_rng(49)
    pair = cm.make_pair(part, rng.standard_normal((part.nf, part.nc)),
                        rng.standard_normal((part.nf, part.nc)))
    pi, _ = cm.build_pi(A, pair)
    for _ in range(5):
        e = rng.standard_normal(32)
        ref = float(np.max(np.abs((e - pi @ e)[list(part.cpoints)])))
        assert ref > 1e-3
        got = cm.air_cpoint_residual(A, pair, e)
        assert got == pytest.approx(ref, rel=1e-10)


def test_air_c_supported_error_is_annihilated():
    # error in the range of zero-block interpolation is removed entirely
    A = cm.generate(cm.ProblemSpec("advection1d", n=32))
    part = _split(32)
    pair = _air_pair(A, part)
    pi, _ = cm.build_pi(A, pair)
    rng = np.random.default_rng(5)
    e = np.zeros(32)
    e[list(part.cpoints)] = rng.standard_normal(part.nc)
    v = e - pi @ e
    assert np.linalg.norm(v) <= 1e-12 * np.linalg.norm(e)


def test_iterate_direct_method_one_sweep():
    A = cm.generate(cm.ProblemSpec("advection1d", n=64))
    part = _split(64)
    spec = cm.TwoGridSpec(pair=_air_pair(A, part), post=cm.RelaxSpec("fexact"))
    rng = np.random.default_rng(6)
    b = rng.standard_normal(64)
    hist = cm.iterate(A, spec, b, np.zeros(64), 2)
    assert hist[1] <= 1e-12 * hist[0]


def test_iterate_fixed_point():
    A = cm.generate(cm.ProblemSpec("laplacian1d", n=12))
    part = _split(12)
    pair = _air_pair(A, part)
    rng = np.random.default_rng(7)
    x_star = rng.standard_normal(12)
    b = A @ x_star
    hist = cm.iterate(
        A,
        cm.TwoGridSpec(pair=pair, pre=cm.RelaxSpec("jacobi")),
        b,
        x_star,
        4,
    )
    assert np.max(hist) <= 1e-13 * np.linalg.norm(b)


def test_iterate_matches_propagator():
    # residual history equals residuals of propagated error for k <= 5
    rng = np.random.default_rng(8)
    A, _, pair = random_pair_case(rng)
    n = A.shape[0]
    spec = cm.TwoGridSpec(
        pair=pair,
        pre=cm.RelaxSpec("jacobi", omega=0.5),
        post=cm.RelaxSpec("fjacobi", omega=0.7, sweeps=2),
    )
    b = rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    hist = cm.iterate(A, spec, b, x0, 5)
    E = cm.two_grid_propagator(A, spec)
    e = np.linalg.solve(A, b) - x0
    for k in range(6):
        rk = np.linalg.norm(A @ np.linalg.matrix_power(E, k) @ e)
        assert abs(hist[k] - rk) <= 1e-10 * max(1.0, rk)


RELAX_CHOICES = {
    "none": cm.RelaxSpec("none"),
    "fexact": cm.RelaxSpec("fexact"),
    "jacobi": cm.RelaxSpec("jacobi", omega=0.6, sweeps=2),
}


@pytest.mark.parametrize("pre", sorted(RELAX_CHOICES))
@pytest.mark.parametrize("post", sorted(RELAX_CHOICES))
def test_two_grid_propagator_equals_the_naive_product(pre, post):
    rng = np.random.default_rng(12)
    A, _, pair = random_pair_case(rng, n=14)
    spec = cm.TwoGridSpec(pair=pair, pre=RELAX_CHOICES[pre], post=RELAX_CHOICES[post])
    Epre = cm.relax_propagator(A, spec.pre, pair.part)
    Epost = cm.relax_propagator(A, spec.post, pair.part)
    cgc = np.eye(14) - cm.build_pi(A, pair)[0]
    np.testing.assert_array_equal(cm.two_grid_propagator(A, spec), Epost @ cgc @ Epre)


def _reference_history(A, spec, b, x0, iters):
    """iterate as a loop that solves with R*AP afresh on every iteration."""
    part = spec.pair.part
    Epre = cm.relax_propagator(A, spec.pre, part)
    Epost = cm.relax_propagator(A, spec.post, part)
    R, P = spec.pair.R, spec.pair.P
    K = R.T @ A @ P
    x_star = np.linalg.solve(A, b)
    x = np.array(x0, dtype=float)
    history = [np.linalg.norm(b - A @ x)]
    for _ in range(iters):
        # relaxation acts on the error; the coarse correction on the residual
        x = x_star - Epre @ (x_star - x)
        x = x + P @ scipy.linalg.solve(K, R.T @ (b - A @ x))
        x = x_star - Epost @ (x_star - x)
        history.append(np.linalg.norm(b - A @ x))
    return np.array(history)


@pytest.mark.parametrize("pre,post", [("none", "fexact"), ("jacobi", "fexact"), ("fexact", "fexact")])
def test_iterate_matches_a_solve_per_iteration(pre, post):
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=80, epsilon=0.05))
    part = _split(80)
    pair, _ = cm.single_operator_pair(A, part, "single3")
    spec = cm.TwoGridSpec(pair=pair, pre=RELAX_CHOICES[pre], post=RELAX_CHOICES[post])
    rng = np.random.default_rng(13)
    b = rng.standard_normal(80)
    hist = cm.iterate(A, spec, b, np.zeros(80), 12)
    ref = _reference_history(A, spec, b, np.zeros(80), 12)
    assert np.max(np.abs(hist - ref)) <= 1e-10 * hist[0]


def test_iterate_factors_once_per_call(monkeypatch):
    guard = compatamg.linalg._guarded_lu
    counts = []
    monkeypatch.setattr(
        compatamg.linalg, "_guarded_lu", lambda A, what, *norm: (counts.append(what), guard(A, what, *norm))[1]
    )
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=40, epsilon=0.05))
    part = _split(40)
    pair, _ = cm.single_operator_pair(A, part, "single1")
    spec = cm.TwoGridSpec(pair=pair, pre=cm.RelaxSpec("fexact"), post=cm.RelaxSpec("fexact"))
    b = np.ones(40)
    calls = []
    for iters in (1, 30):
        counts.clear()
        cm.iterate(A, spec, b, np.zeros(40), iters)
        calls.append(sorted(counts))
    assert calls[0] == calls[1]
    assert calls[0].count("coarse operator R*AP") == 1


@pytest.mark.parametrize("name", ["single1", "single3"])
def test_iterate_keeps_the_bits_of_a_scipy_solve_per_iteration(name):
    # K = R*AP, formed as every layer forms it (here as its diagonals, which
    # build_pi returns as an array), is tridiagonal, which
    # scipy.linalg.solve solves by tridiagonal elimination; the prepared
    # solve must give the same bits. The residuals b - A x are products on
    # A's three diagonals, and the coarse step works on Z and W, so the
    # history follows the dense loop to round-off
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=60, epsilon=0.05))
    pair, _ = cm.single_operator_pair(A, _split(60), name)
    R, P = pair.R, pair.P
    K = cm.build_pi(A, pair)[1]
    solve_k = _bind(cm.ProblemStore(A), pair).solve
    b = np.random.default_rng(14).standard_normal(60)
    x = np.zeros(60)
    ref = [np.linalg.norm(b - A @ x)]
    for _ in range(5):
        rhs = R.T @ (b - A @ x)
        y = scipy.linalg.solve(K, rhs)
        assert solve_k(rhs).tobytes() == y.tobytes()
        x = x + P @ y
        ref.append(np.linalg.norm(b - A @ x))
    ref = np.array(ref)
    hist = cm.iterate(A, cm.TwoGridSpec(pair=pair), b, np.zeros(60), 5)
    above = ref > 1e-10 * ref[0]
    assert above.all()
    np.testing.assert_allclose(hist[above], ref[above], rtol=1e-13, atol=0.0)


def test_iterate_rate_matches_conv_factor():
    A = cm.generate(cm.ProblemSpec("laplacian1d", n=32))
    part = _split(32)
    W = cm.ideal_w(cm.partition(A, part))
    P = part.assemble_rows(W, np.eye(part.nc))
    pair = cm.TransferPair(P, P, part)
    spec = cm.TwoGridSpec(pair=pair, pre=cm.RelaxSpec("jacobi"), post=cm.RelaxSpec("jacobi"))
    rng = np.random.default_rng(9)
    b = rng.standard_normal(32)
    # 14 iterations keep the measurement window above the round-off floor
    # (rho ~ 0.11 reaches machine epsilon by iteration ~16)
    hist = cm.iterate(A, spec, b, np.zeros(32), 14)
    rho = cm.conv_factor(cm.two_grid_propagator(A, spec))
    rate = cm.observed_rate(hist)
    assert abs(rate - rho) <= 0.1 * rho


def test_correction_annihilates_interpolation_range():
    rng = np.random.default_rng(10)
    A, _, pair = random_pair_case(rng)
    pi, _ = cm.build_pi(A, pair)
    n = A.shape[0]
    assert np.linalg.norm((np.eye(n) - pi) @ pair.P) <= 1e-12 * np.linalg.norm(pair.P)


def test_divergence_exhibit():
    # a generic pair on a random stable nonsymmetric matrix amplifies error in
    # every realizable norm
    A = cm.generate(cm.ProblemSpec("random", n=30, seed=7))
    part = _split(30)
    rng = np.random.default_rng(42)
    pair = cm.make_pair(
        part,
        rng.standard_normal((part.nf, part.nc)),
        rng.standard_normal((part.nf, part.nc)),
    )
    pi, _ = cm.build_pi(A, pair)
    assert cm.pi_m_norm(cm.coarse_correction(A, pair), np.eye(30)) > 1.0 + 1e-3
    E = np.eye(30) - pi
    for tag in ("identity", "Asym", "AstarA", "SqrtAstarA", "AstarAsymInvA"):
        assert operator_m_norm(E, norm_matrix(tag, A)) > 1.0


def test_observed_rate_handles_short_and_zero_histories():
    assert np.isnan(cm.observed_rate([1.0]))
    assert cm.observed_rate([1.0, 0.5, 0.25, 0.125], window=(0, 3)) == pytest.approx(0.5)
    assert cm.observed_rate([1.0, 0.0, 0.0], window=(0, 2)) == 0.0


REDUCED_SIDES = [("none", "fexact"), ("fexact", "none"), ("fexact", "fexact")]


def _dense_rho(A, spec):
    return cm.conv_factor(cm.two_grid_propagator(A, spec))


def _random_recipe_pair(A, seed):
    """The pair of the CLI recipe random:<seed> on the alternate splitting."""
    part = _split(A.shape[0])
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((part.nf, part.nc))
    W = rng.standard_normal((part.nf, part.nc))
    return cm.make_pair(part, Z, W)


@pytest.mark.parametrize("pre,post", REDUCED_SIDES)
def test_reduced_conv_factor_matches_the_dense_propagator(pre, post):
    rng = np.random.default_rng(15)
    cases = [random_pair_case(rng, n=n)[::2] for n in (12, 20, 40)]
    for n, seed in ((30, 1), (60, 2)):
        A = cm.generate(cm.ProblemSpec("random", n=n, seed=seed))
        cases.append((A, _random_recipe_pair(A, seed)))
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=60, epsilon=0.05))
    cases.append((A, _random_recipe_pair(A, 3)))
    for A, pair in cases:
        spec = cm.TwoGridSpec(pair=pair, pre=cm.RelaxSpec(pre), post=cm.RelaxSpec(post))
        dense = _dense_rho(A, spec)
        assert dense > 1e-3
        assert abs(cm.two_grid_conv_factor(A, spec) - dense) <= 1e-10 * dense


def test_reduced_conv_factor_ignores_the_sweep_count():
    rng = np.random.default_rng(16)
    A, _, pair = random_pair_case(rng, n=16)
    once = cm.TwoGridSpec(pair=pair, post=cm.RelaxSpec("fexact"))
    thrice = cm.TwoGridSpec(pair=pair, post=cm.RelaxSpec("fexact", sweeps=3))
    assert cm.two_grid_conv_factor(A, thrice) == cm.two_grid_conv_factor(A, once)
    assert abs(_dense_rho(A, thrice) - _dense_rho(A, once)) <= 1e-10 * _dense_rho(A, once)


FALLBACK_SIDES = [
    ("none", "none"),
    ("jacobi", "none"),
    ("none", "fjacobi"),
    ("jacobi", "fexact"),
    ("fexact", "fjacobi"),
]


@pytest.mark.parametrize("pre,post", FALLBACK_SIDES)
def test_conv_factor_falls_back_to_the_dense_propagator(pre, post):
    relax = {
        "none": cm.RelaxSpec("none"),
        "jacobi": cm.RelaxSpec("jacobi", omega=0.6),
        "fjacobi": cm.RelaxSpec("fjacobi", omega=0.7, sweeps=2),
        "fexact": cm.RelaxSpec("fexact"),
    }
    rng = np.random.default_rng(17)
    A, _, pair = random_pair_case(rng, n=14)
    spec = cm.TwoGridSpec(pair=pair, pre=relax[pre], post=relax[post])
    assert cm.two_grid_conv_factor(A, spec) == _dense_rho(A, spec)


@pytest.mark.parametrize("post", ["jacobi", "fexact"])
def test_conv_factor_falls_back_without_a_classical_pair(post):
    A = cm.generate(cm.ProblemSpec("advection1d", n=16))
    part = _split(16)
    relax = cm.RelaxSpec(post, omega=0.6)
    for pair in (None, cm.change_of_basis_pair(A, part)):
        if pair is None and post == "fexact":
            continue  # F-relaxation needs the pair's partition
        spec = cm.TwoGridSpec(pair=pair, post=relax)
        assert cm.two_grid_conv_factor(A, spec) == _dense_rho(A, spec)


def test_reduced_conv_factor_keeps_the_guard_messages():
    part = cm.CFPartition(4, (0, 1), (2, 3))
    pair = cm.make_pair(part, np.eye(2), -np.eye(2))  # R*P = 0 with A = I
    spec = cm.TwoGridSpec(pair=pair, post=cm.RelaxSpec("fexact"))
    with pytest.raises(compatamg.linalg.SingularMatrixError, match="incompatible.*R\\*AP"):
        cm.two_grid_conv_factor(np.eye(4), spec)
    A = np.eye(4)
    A[0, 0] = 0.0  # singular A_ff, nonsingular K
    good = cm.make_pair(part, np.zeros((2, 2)), np.zeros((2, 2)))
    spec = cm.TwoGridSpec(pair=good, pre=cm.RelaxSpec("fexact"))
    with pytest.raises(compatamg.linalg.SingularMatrixError, match="A_ff"):
        cm.two_grid_conv_factor(A, spec)


def test_prepared_method_shares_its_guards(monkeypatch):
    guard = compatamg.linalg._guarded_lu
    counts = []
    monkeypatch.setattr(
        compatamg.linalg, "_guarded_lu", lambda A, what, *norm: (counts.append(what), guard(A, what, *norm))[1]
    )
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=40, epsilon=0.05))
    pair, _ = cm.single_operator_pair(A, _split(40), "single2")
    spec = cm.TwoGridSpec(pair=pair, pre=cm.RelaxSpec("fexact"), post=cm.RelaxSpec("fexact"))
    b = np.ones(40)
    plain = cm.iterate(A, spec, b, np.zeros(40), 6)
    counts.clear()
    store = cm.ProblemStore(A)
    rho = cm.two_grid_conv_factor(store, spec)
    hist = cm.iterate(store, cm.TwoGridSpec(pair, spec.pre, spec.post), b, np.zeros(40), 6)
    assert sorted(counts) == ["A_ff", "coarse operator R*AP"]
    assert rho == cm.two_grid_conv_factor(A, spec)
    np.testing.assert_array_equal(hist, plain)
    # a binding to another matrix is not reused
    counts.clear()
    cm.iterate(A.copy(), spec, b, np.zeros(40), 1)
    assert sorted(counts) == ["A_ff", "coarse operator R*AP"]


@pytest.mark.parametrize("kind", ["advdiff1d", "laplacian1d"])
@pytest.mark.parametrize("name", ["single1", "single3"])
@pytest.mark.parametrize("pre,post", REDUCED_SIDES)
def test_conv_factor_is_exactly_zero_for_a_one_sided_ideal_pair(monkeypatch, kind, name, pre, post):
    # Z = Z_ideal(A) (single1) or W = W_ideal(A) (single3) makes the two-sided
    # T vanish exactly: rho is 0.0 with no eigensolve, where the one-sided
    # form read round-off (2.9e-12 for single1 at n = 1000). The dense
    # propagator is nilpotent, E^2 = 0 to round-off; its computed eigenvalues
    # scatter to sqrt(eps) ||E|| instead, so they are no oracle here
    A = cm.generate(cm.ProblemSpec(kind, n=200, epsilon=0.01))
    pair, _ = cm.single_operator_pair(A, _split(200), name)
    spec = cm.TwoGridSpec(pair=pair, pre=cm.RelaxSpec(pre), post=cm.RelaxSpec(post))
    E = cm.two_grid_propagator(A, spec)
    assert np.linalg.norm(E @ E, 2) <= 1e-12 * max(1.0, np.linalg.norm(E, 2)) ** 2
    monkeypatch.setattr(np.linalg, "eigvals", None)
    assert cm.two_grid_conv_factor(A, spec) == 0.0


def test_reading_p_keeps_the_ideal_block_that_makes_rho_zero():
    # single3's W is the store's own W_ideal(A); reading P leaves the pair
    # that very block, so rho = 0 is read off it and Z_ideal(A) is not built
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=40, epsilon=0.05))
    part = _split(40)
    store = cm.ProblemStore(A)
    pair = cm.ideal_blocks_pair(store, part, "identity", "A")
    assert pair.P.shape == (40, part.nc)
    method = cm.TwoGridSpec(pair, post=cm.RelaxSpec("fexact"))
    assert cm.two_grid_conv_factor(store, method) == 0.0
    assert store.peek(("ideal", "Z", "A", part)) is None


RELAX_OPERATORS = {
    "jacobi": cm.RelaxSpec("jacobi", omega=0.6, sweeps=2),
    "fjacobi": cm.RelaxSpec("fjacobi", omega=0.7, sweeps=2),
    "fexact": cm.RelaxSpec("fexact"),
    "none": cm.RelaxSpec("none"),
}


@pytest.mark.parametrize("pre,post", [("jacobi", "fexact"), ("fjacobi", "none"),
                                      ("fexact", "fjacobi"), ("none", "jacobi")])
def test_iterate_applies_each_relaxation_without_forming_n_inverse(monkeypatch, pre, post):
    import compatamg.solver as solver

    A = cm.generate(cm.ProblemSpec("advdiff1d", n=80, epsilon=0.05))
    pair, _ = cm.single_operator_pair(A, _split(80), "single2")
    spec = cm.TwoGridSpec(pair=pair, pre=RELAX_OPERATORS[pre], post=RELAX_OPERATORS[post])
    b = np.random.default_rng(18).standard_normal(80)
    ref = _reference_history(A, spec, b, np.zeros(80), 12)

    def no_n_inverse(*args, **kwargs):
        raise AssertionError("iterate formed N^{-1}")

    monkeypatch.setattr(solver, "_n_inverse", no_n_inverse)
    hist = cm.iterate(A, spec, b, np.zeros(80), 12)
    assert np.max(np.abs(hist - ref)) <= 1e-10 * hist[0]


def test_bound_method_skips_the_scan_of_its_matrix(monkeypatch):
    # A is scanned once, when its store is made, by one nonzero count that
    # finds it tridiagonal, so no isfinite runs over the n x n A; the calls
    # on that store skip the scan
    import compatamg.solver as solver

    A = cm.generate(cm.ProblemSpec("advdiff1d", n=40, epsilon=0.05))
    pair, _ = cm.single_operator_pair(A, _split(40), "single3")
    store = cm.ProblemStore(A)
    bound = cm.TwoGridSpec(pair, cm.RelaxSpec("jacobi"), cm.RelaxSpec("fexact"))
    scans = []
    real = compatamg.linalg._Diagonals.scan
    monkeypatch.setattr(compatamg.linalg._Diagonals, "scan",
                        lambda a, name="matrix": (scans.append(np.shape(a)), real(a, name))[1])
    for module in (solver, compatamg.linalg):
        as_matrix = module.as_matrix
        monkeypatch.setattr(
            module, "as_matrix",
            lambda a, name="matrix", f=as_matrix: (scans.append(("as_matrix", np.shape(a))), f(a, name))[1],
        )
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a, *args, **kwargs: (
        scans.append(("isfinite", np.shape(a))), isfinite(a, *args, **kwargs))[1])
    cm.two_grid_conv_factor(store, bound)
    cm.two_grid_propagator(store, bound)
    cm.iterate(store, bound, np.ones(40), np.zeros(40), 3)
    assert (40, 40) not in scans
    cm.iterate(A.copy(), bound, np.ones(40), np.zeros(40), 1)
    assert (40, 40) in scans
    assert ("as_matrix", (40, 40)) not in scans and ("isfinite", (40, 40)) not in scans


def test_prepared_method_binds_to_the_store_of_its_pair(monkeypatch):
    guard = compatamg.linalg._guarded_lu
    counts = []
    monkeypatch.setattr(
        compatamg.linalg, "_guarded_lu", lambda A, what, *norm: (counts.append(what), guard(A, what, *norm))[1]
    )
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=40, epsilon=0.05))
    store = cm.ProblemStore(A)
    pair, _ = cm.single_operator_pair(store, _split(40), "single1")
    assert counts == ["A_ff"]
    bound = cm.TwoGridSpec(pair, post=cm.RelaxSpec("fexact"))
    assert cm.two_grid_conv_factor(store, bound) == 0.0
    cm.iterate(store, bound, np.ones(40), np.zeros(40), 3)
    # the F-relaxation and rho reuse the A_ff factor the pair was built with
    assert counts == ["A_ff", "coarse operator R*AP"]


@pytest.mark.parametrize("name", ["single1", "single3", "random", "cblocks"])
def test_coarse_step_on_blocks_matches_r_and_p(name):
    # a classical pair applies R* r as Z* r[F] + r[C] and P y as [W y; y],
    # skipping a zero block; a pair with C-blocks applies R and P
    from compatamg.solver import _coarse_step

    A = cm.generate(cm.ProblemSpec("advdiff1d", n=40, epsilon=0.05))
    part = _split(40)
    rng = np.random.default_rng(48)
    if name == "cblocks":
        pair = cm.change_of_basis_pair(A, part)
    elif name == "random":
        pair = cm.make_pair(part, rng.standard_normal((part.nf, part.nc)),
                            rng.standard_normal((part.nf, part.nc)))
    else:
        pair, _ = cm.single_operator_pair(A, part, name)
    solve_k = _bind(cm.ProblemStore(A), pair).solve
    r = rng.standard_normal(40)
    ref = pair.P @ solve_k(pair.R.T @ r)
    got = _coarse_step(pair, solve_k)(r)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("name", ["single1", "single3"])
def test_converge_path_forms_no_n_by_nc_block(name):
    # single1 has W = 0 and single3 Z = 0: K comes from A's diagonals and
    # the nonzero block, rho = 0 from the store's own ideal block, and the
    # iteration works on Z and W, so nothing of n x n_c doubles is allocated
    # and the pair's R and P are never assembled
    n = 400
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=n, epsilon=0.01))
    part = _split(n)
    store = cm.ProblemStore(A)
    pair, _ = cm.single_operator_pair(store, part, name)
    b = np.random.default_rng(15).standard_normal(n)
    x0 = np.zeros(n)
    tracemalloc.start()
    try:
        method = cm.TwoGridSpec(pair, post=cm.RelaxSpec("fexact"))
        rho = cm.two_grid_conv_factor(store, method)
        history = cm.iterate(store, method, b, x0, 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rho == 0.0 and history[-1] < 1e-9 * history[0]
    assert peak < 8 * n * part.nc
    assert "R" not in vars(pair) and "P" not in vars(pair)


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("split", SPLITS)
@pytest.mark.parametrize("kind", TRIDIAGONAL_KINDS)
def test_nonzero_t_rho_keeps_the_gathered_bits(kind, split, n):
    # rho of a random pair with exact F-relaxation reads A_ff off the
    # diagonals of a tridiagonal A, with the bits of the gathered A_ff
    A = tridiagonal_problem(kind, n)
    part = cm.default_splitting(n, split, seed=n)
    rng = np.random.default_rng(2)
    pair = cm.make_pair(part, rng.standard_normal((part.nf, part.nc)),
                        rng.standard_normal((part.nf, part.nc)))
    spec = cm.TwoGridSpec(pair, post=cm.RelaxSpec("fexact"))
    rho = cm.two_grid_conv_factor(cm.ProblemStore(A), spec)
    assert rho > 0.0
    assert rho == cm.two_grid_conv_factor(GatheringStore(A), spec)
