"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line. Run with -s to see the lines as they complete:

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np

import compatamg as cm
from compatamg.cli import FIGURE_EDGES
from conftest import random_pair_case, random_spd

NORM_TOL = 1e-8

# running log of |  ||pi||_M - ||I-pi||_M  | / max(1, norm) across criteria 1-5
_norm_identity_log = []
_hundred_cache = []


class _report:
    def __init__(self, num, desc):
        self.num, self.desc = num, desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.num:>2} ({self.desc}): {status}")
        return False


def _log_norm_identity(corr, M):
    a = cm.pi_m_norm(corr, M)
    pi, _ = cm.build_pi(corr.A, corr.pair)
    b = cm.operator_m_norm(np.eye(pi.shape[0]) - pi, M)
    _norm_identity_log.append(abs(a - b) / max(1.0, a))


def _red_list_cases():
    problems = [
        cm.ProblemSpec("advection1d", n=16),
        cm.ProblemSpec("advection1d", n=64),
        cm.ProblemSpec("advection2d", nx=8, ny=8),
        cm.ProblemSpec("random", n=40, seed=0),
        cm.ProblemSpec("random", n=40, seed=1),
        cm.ProblemSpec("random", n=40, seed=2),
    ]
    for spec in problems:
        A = cm.generate(spec)
        part = cm.default_splitting(A.shape[0], "alternate")
        for item in range(1, 5):
            pair, tag = cm.single_operator_pair(A, part, item)
            yield spec.kind, item, A, part, pair, cm.realize_norm(tag, A)


def _hundred_cases():
    if not _hundred_cache:
        rng = np.random.default_rng(20240811)
        _hundred_cache.extend(random_pair_case(rng, n=12) for _ in range(100))
    return _hundred_cache


def test_criterion_01_single_operator_pairs():
    # the four one-companion pair recipes give unit-norm corrections on
    # advection (1D and 2D) and random stable nonsymmetric problems
    with _report(1, "single-operator pair reproduction"):
        t0 = time.perf_counter()
        count = 0
        for kind, item, A, part, pair, M in _red_list_cases():
            corr = cm.coarse_correction(A, pair)
            err = abs(cm.pi_m_norm(corr, M) - 1.0)
            assert err <= NORM_TOL, f"{kind} item {item}: |pi_norm - 1| = {err:.3e}"
            _log_norm_identity(corr, M)
            count += 1
        assert count == 24
        assert time.perf_counter() - t0 < 10.0


def test_criterion_02_pairing_diagram():
    # all ten diagram edges: six verify on the nonsymmetric problem where the
    # A-norm rows are skipped, and those four verify on an SPD Laplacian
    with _report(2, "pairing-diagram reproduction"):
        t0 = time.perf_counter()

        def run_edges(A, part):
            verified, skipped = {}, []
            for style, norm, r_q, p_q in FIGURE_EDGES:
                try:
                    M = cm.realize_norm(norm, A)
                except ValueError:
                    skipped.append((style, r_q, p_q))
                    continue
                Z = cm.ideal_z(cm.partition(cm.realize_q(r_q, A), part))
                W = cm.ideal_w(cm.partition(cm.realize_q(p_q, A), part))
                pair = cm.make_pair(part, Z, W)
                verified[(style, r_q, p_q)] = (cm.coarse_correction(A, pair), M)
            return verified, skipped

        A = cm.generate(cm.ProblemSpec("random", n=30, seed=0))
        part = cm.default_splitting(30, "alternate")
        verified, skipped = run_edges(A, part)
        assert len(verified) == 6 and len(skipped) == 4
        assert all(style == "dotted" for style, _, _ in skipped)

        L = cm.generate(cm.ProblemSpec("laplacian1d", n=32))
        lpart = cm.default_splitting(32, "alternate")
        lverified, lskipped = run_edges(L, lpart)
        assert len(lverified) == 10 and not lskipped

        for corr, M in list(verified.values()) + list(lverified.values()):
            assert abs(cm.pi_m_norm(corr, M) - 1.0) <= NORM_TOL
            _log_norm_identity(corr, M)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_03_catalog_sweep():
    # every computable catalog cell satisfies both the range condition and the
    # unit-norm condition; prerequisite failures are recorded skips
    with _report(3, "catalog sweep"):
        A = cm.generate(cm.ProblemSpec("random", n=24, seed=0))
        part = cm.default_splitting(24, "alternate")
        entries = list(cm.catalog_pairs(A, part))
        assert len(entries) == 50
        passing = 0
        for entry in entries:
            if entry.skipped:
                assert entry.reason
                continue
            M = cm.realize_norm(entry.norm, A)
            corr = cm.coarse_correction(A, entry.pair)
            assert cm.verify_compat_equation(A, M, entry.pair), (
                f"range test failed at table {entry.table} ({entry.norm}, {entry.q})"
            )
            err = abs(cm.pi_m_norm(corr, M) - 1.0)
            assert err <= NORM_TOL, (
                f"norm test failed at table {entry.table} ({entry.norm}, {entry.q}): {err:.3e}"
            )
            _log_norm_identity(corr, M)
            passing += 1
        assert passing >= 15


def test_criterion_04_norm_decomposition_laws():
    # squared norm splits into 1 plus the squared complement amplification,
    # and the norm is the reciprocal of the minimal-angle sine
    with _report(4, "norm decomposition laws"):
        for A, M, pair in _hundred_cases():
            corr = cm.coarse_correction(A, pair)
            nrm = cm.pi_m_norm(corr, M)
            sup = cm.nonorth_measure(corr, M)
            ang = cm.min_canonical_angle(corr, M)
            assert abs(nrm**2 - (1.0 + sup**2)) <= 1e-7 * max(1.0, nrm**2)
            assert abs(nrm * np.sin(ang) - 1.0) <= 1e-7
            _log_norm_identity(corr, M)


def test_criterion_05_equivalence_chain():
    # the four orthogonality conditions, the range condition, and unit norm
    # agree on every random case and every catalog pair
    with _report(5, "equivalence chain"):
        discordant = []

        def check(A, M, pair, label):
            corr = cm.coarse_correction(A, pair)
            flags = list(cm.orthogonality_checks(corr, M, NORM_TOL).as_dict().values())
            flags.append(cm.verify_compat_equation(A, M, pair))
            flags.append(abs(cm.pi_m_norm(corr, M) - 1.0) <= NORM_TOL)
            if any(flags) != all(flags):
                discordant.append((label, flags))

        for i, (A, M, pair) in enumerate(_hundred_cases()):
            check(A, M, pair, f"random case {i}")
        A = cm.generate(cm.ProblemSpec("random", n=24, seed=0))
        part = cm.default_splitting(24, "alternate")
        for entry in cm.catalog_pairs(A, part):
            if entry.skipped:
                continue
            M = cm.realize_norm(entry.norm, A)
            check(A, M, entry.pair, f"catalog t{entry.table} ({entry.norm}, {entry.q})")
        assert not discordant, f"discordant cases: {discordant}"


def test_criterion_06_cpoint_exactness():
    # ideal restriction leaves corrected error only on F-points, and with an
    # exact post F-solve the two-grid method is direct
    with _report(6, "C-point exactness of ideal restriction"):
        A = cm.generate(cm.ProblemSpec("advection1d", n=64))
        part = cm.default_splitting(64, "alternate")
        pair, _ = cm.single_operator_pair(A, part, 1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            e = rng.standard_normal(64)
            assert cm.air_cpoint_residual(A, pair, e) <= 1e-12 * np.linalg.norm(e)
        spec = cm.TwoGridSpec(pair=pair, post=cm.RelaxSpec("fexact"))
        rho = cm.conv_factor(cm.two_grid_propagator(A, spec))
        assert rho <= 1e-10
        # every single-operator pair has an ideal operator on A on one side,
        # so each is direct with a post F-solve, also at n = 1000
        A = cm.generate(cm.ProblemSpec("advdiff1d", n=1000, epsilon=0.01))
        part = cm.default_splitting(1000, "alternate")
        for item in range(1, 5):
            pair, _ = cm.single_operator_pair(A, part, item)
            spec = cm.TwoGridSpec(pair=pair, post=cm.RelaxSpec("fexact"))
            assert cm.two_grid_conv_factor(A, spec) <= 1e-10


def test_criterion_07_norm_equals_complement_norm():
    # every nontrivial correction built in criteria 1-5 satisfies
    # ||pi||_M = ||I - pi||_M
    with _report(7, "norm equals complement norm"):
        if not _norm_identity_log:
            for _, _, A, part, pair, M in _red_list_cases():
                _log_norm_identity(cm.coarse_correction(A, pair), M)
        assert len(_norm_identity_log) > 0
        assert max(_norm_identity_log) <= 1e-10


def test_criterion_08_block_diagonal_norm_family():
    # ideal restriction with zero interpolation block stays orthogonal in
    # every block-diagonal SPD norm over the splitting
    with _report(8, "block-diagonal norm family"):
        A = cm.generate(cm.ProblemSpec("random", n=20, seed=4))
        part = cm.default_splitting(20, "alternate")
        pair = cm.make_pair(
            part, cm.ideal_z(cm.partition(A, part)), np.zeros((part.nf, part.nc))
        )
        corr = cm.coarse_correction(A, pair)
        rng = np.random.default_rng(8)
        for _ in range(5):
            Mf = np.zeros((20, 20))
            Mf[: part.nf, : part.nf] = random_spd(rng, part.nf)
            Mf[part.nf :, part.nf :] = random_spd(rng, part.nc)
            M = part.from_ffirst(Mf)
            assert cm.orthogonality_checks(corr, M, NORM_TOL).all_true
            assert cm.verify_compat_equation(A, M, pair)


def test_criterion_09_change_of_basis():
    # the C-block-scaled pair induces the same correction as the explicit
    # inverse-companion operators
    with _report(9, "change of basis"):
        for seed in (0, 1, 2):
            A = cm.generate(cm.ProblemSpec("random", n=16, seed=seed))
            part = cm.default_splitting(16, "alternate")
            Ap = cm.partition(A, part)
            pair = cm.change_of_basis_pair(A, part)
            Z = np.linalg.solve(Ap.cc, Ap.cf).T
            W = np.linalg.solve(Ap.cc.T, Ap.fc.T).T
            explicit = cm.make_pair(part, Z, W)
            pi1, _ = cm.build_pi(A, pair)
            pi2, _ = cm.build_pi(A, explicit)
            assert np.linalg.norm(pi1 - pi2) <= 1e-10


def test_criterion_10_negative_control():
    # a generic random pair is far from orthogonal and fails every check
    with _report(10, "negative control"):
        A = cm.generate(cm.ProblemSpec("random", n=30, seed=7))
        part = cm.default_splitting(30, "alternate")
        rng = np.random.default_rng(42)
        pair = cm.make_pair(
            part,
            rng.standard_normal((part.nf, part.nc)),
            rng.standard_normal((part.nf, part.nc)),
        )
        corr = cm.coarse_correction(A, pair)
        assert cm.pi_m_norm(corr, np.eye(30)) >= 1.0 + 1e-3
        checks = cm.orthogonality_checks(corr, np.eye(30), NORM_TOL)
        assert not any(checks.as_dict().values())
