"""End-to-end tests of the command-line front end and its exit-code contract."""

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import compatamg as cm
from compatamg.cli import main
from compatamg.problems import PROBLEM_KINDS
from compatamg.projection import INCOMPATIBLE
from compatamg.transfer import CATALOG_NORMS, CATALOG_QS

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, json.loads(out.read_text())


def test_verify_pairs_single1(tmp_path):
    code, report = _run_json(
        tmp_path,
        ["verify-pairs", "--problem", "advection1d", "--n", "32", "--pair", "single1"],
    )
    assert code == 0 and report["passed"]
    (rec,) = report["results"]
    assert rec["pair"] == "single1" and rec["norm"] == "identity"
    assert rec["expected_orthogonal"] and rec["pass"]
    assert abs(rec["pi_norm"] - 1.0) <= 1e-8
    assert rec["compat_eq"]
    assert all(rec["orthogonality_checks"].values())
    assert rec["nonorth_sup"] <= 1e-8
    assert abs(rec["min_angle"] - np.pi / 2) <= 1e-6


def test_verify_pairs_single2_on_random(tmp_path):
    code, report = _run_json(
        tmp_path,
        [
            "verify-pairs",
            "--problem", "random", "--n", "40", "--seed", "1",
            "--pair", "single2",
        ],
    )
    assert code == 0
    (rec,) = report["results"]
    assert rec["norm"] == "Asym" and abs(rec["pi_norm"] - 1.0) <= 1e-8


def test_verify_pairs_random_pair_fails_when_expected(tmp_path):
    code, report = _run_json(
        tmp_path,
        [
            "verify-pairs",
            "--problem", "random", "--n", "30", "--seed", "7",
            "--pair", "random:42", "--expect-orthogonal",
        ],
    )
    assert code == 1 and not report["passed"]
    (rec,) = report["results"]
    assert rec["pi_norm"] > 1.001 and rec["pass"] is False


def test_a_cancelling_coarse_operator_is_incompatible(tmp_path):
    # W = -(Z* A_ff + A_cf)^{-1} (Z* A_fc + A_cc) makes R*AP cancel to
    # round-off; K is guarded against ||R*|| ||A|| ||P||, not against its own
    # norm, so the case is skipped as incompatible instead of reporting a
    # pi_norm of 7e16
    n = 16
    A = cm.generate(cm.ProblemSpec("random", n=n, seed=0))
    part = cm.default_splitting(n, "alternate")
    Ap = cm.partition(A, part)
    Z = np.random.default_rng(1).standard_normal((part.nf, part.nc))
    W = -np.linalg.solve(Z.T @ Ap.ff + Ap.cf, Z.T @ Ap.fc + Ap.cc)
    zp, wp = tmp_path / "z.json", tmp_path / "w.json"
    cm.save_matrix_json(zp, Z)
    cm.save_matrix_json(wp, W)
    code, report = _run_json(
        tmp_path,
        ["verify-pairs", "--problem", "random", "--seed", "0", "--n", str(n),
         "--pair", f"zw:{zp},{wp}"],
    )
    assert code == 1 and not report["passed"]
    (rec,) = report["results"]
    assert rec["skipped"] and "pi_norm" not in rec
    assert rec["reason"].startswith(
        "R and P incompatible with A on this splitting: coarse operator R*AP is numerically singular")


def test_large_classical_z_is_full_rank_by_structure(tmp_path):
    # [Z; I] has sigma_min >= 1 however large Z is; an A*A-compatible pair
    # with one Z entry of 2e8 is built and verifies
    n = 16
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=n, epsilon=0.05))
    part = cm.default_splitting(n, "alternate")
    Z = np.zeros((part.nf, part.nc))
    Z[0, 0] = 2e8
    W = cm.compatible_w_from_z(cm.partition(A, part), Z, "AstarA")
    pair = cm.make_pair(part, Z, W)
    np.testing.assert_array_equal(pair.Z, Z)
    zp, wp = tmp_path / "z.json", tmp_path / "w.json"
    cm.save_matrix_json(zp, Z)
    cm.save_matrix_json(wp, W)
    code, report = _run_json(
        tmp_path,
        ["verify-pairs", "--problem", "advdiff1d", "--epsilon", "0.05", "--n", str(n),
         "--pair", f"zw:{zp},{wp}", "--norm", "AstarA", "--expect-orthogonal"],
    )
    assert code == 0
    assert report["results"][0]["pass"] is True


def test_verify_pairs_explicit_zw_files(tmp_path):
    A = cm.generate(cm.ProblemSpec("advection1d", n=16))
    part = cm.default_splitting(16, "alternate")
    Z = cm.ideal_z(cm.partition(A, part))
    zp, wp = tmp_path / "z.json", tmp_path / "w.mtx"
    cm.save_matrix_json(zp, Z)
    cm.save_matrix_market(wp, np.zeros((part.nf, part.nc)))
    code, report = _run_json(
        tmp_path,
        [
            "verify-pairs",
            "--problem", "advection1d", "--n", "16",
            "--pair", f"zw:{zp},{wp}", "--norm", "identity",
            "--expect-orthogonal",
        ],
    )
    assert code == 0
    assert abs(report["results"][0]["pi_norm"] - 1.0) <= 1e-8


def test_verify_pairs_missing_file_is_config_error(tmp_path, capsys):
    code = main(
        ["verify-pairs", "--problem", "advection1d", "--n", "8",
         "--pair", "zw:/nope/z.json,/nope/w.json"]
    )
    assert code == 2
    assert "--pair" in capsys.readouterr().err


def test_verify_pairs_unknown_recipe_is_config_error(capsys):
    code = main(["verify-pairs", "--problem", "advection1d", "--n", "8", "--pair", "bogus"])
    assert code == 2
    assert "--pair" in capsys.readouterr().err


def test_verify_pairs_requires_a_pair(capsys):
    code = main(["verify-pairs", "--problem", "advection1d", "--n", "8"])
    assert code == 2
    assert "--pair" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_converge_non_finite_epsilon_is_a_problem_config_error(epsilon, capsys):
    code = main(["converge", "--problem", "advdiff1d", "--n", "8", "--epsilon", epsilon])
    assert code == 2
    assert capsys.readouterr().err.startswith("compatamg: config error: --problem:")


@pytest.mark.parametrize("args", [["--problem", "advection2d", "--n", "300"],
                                  ["--problem", "random", "--n", "5000"]])
def test_a_problem_over_the_size_bound_is_a_config_error_before_it_is_built(
        args, capsys, monkeypatch):
    import compatamg.cli as cli

    monkeypatch.setattr(cli, "problem_store", None)  # a call would raise TypeError
    code = main(["converge"] + args)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("compatamg: config error: --problem:") and "MAX_N" in err


@pytest.mark.parametrize("split", ["alternate", "firsthalf", "random"])
@pytest.mark.parametrize("command, args, prefix", [
    ("converge", ["--pair", "single1", "--post", "fexact", "--iters", "-1"], "--iters:"),
    ("converge", ["--pair", "single1", "--post", "fexact", "--cfrac", "1.5"], "--cfrac:"),
    ("converge", ["--pair", "single1", "--post", "fexact", "--cfrac", "0"], "--cfrac:"),
    ("converge", ["--pair", "single1", "--post", "fexact", "--cfrac", "nan"], "--cfrac:"),
    ("verify-pairs", ["--pair", "single1", "--norm", "bogus"], "--norm:"),
    ("verify-pairs", [], "--pair:"),
    ("verify-pairs", ["--pair", "none"], "--pair:"),
    ("verify-pairs", ["--pair", "zw:/nope/z.json,/nope/w.json"], "--pair:"),
    ("converge", ["--pair", "zw:/nope/z.json"], "--pair:"),
    ("verify-pairs", ["--pair", "single1", "--pair", "bogus"], "--pair:"),
    ("converge", ["--pair", "single1", "--pair", "bogus"], "--pair:"),
    ("converge", ["--pair", "random:x"], "--pair:"),
    ("verify-pairs", ["--pair", "t1:AstarA"], "--pair:"),
    ("verify-pairs", ["--pair", "t1:bogus:A"], "--pair 't1:bogus:A': unknown norm tag"),
    ("converge", ["--pair", "t2:AstarA:bogus"], "--pair 't2:AstarA:bogus': unknown Q tag"),
    ("verify-pairs", ["--pair", "zw:/,/"], "--pair: not a regular file: /"),
    ("converge", ["--pair", "zw:/,/"], "--pair: not a regular file: /"),
    ("tables", ["--norm", "identity"], "--norm: tables reads no norm tag"),
    ("figure1", ["--norm", "A"], "--norm: figure1 reads no norm tag"),
    ("converge", ["--pair", "single1", "--norm", "Asym"], "--norm: converge reads no norm tag"),
    ("tables", ["--pair", "single1"], "--pair: tables reads no pair recipe"),
    ("figure1", ["--pair", "none"], "--pair: figure1 reads no pair recipe"),
    ("converge", ["--pair", "single1", "--tol", "5"], "--tol: converge reads no tolerance"),
    ("converge", ["--pair", "single1", "--tol", "1e-8"], "--tol: converge reads no tolerance"),
    ("tables", ["--nx", "5"], "--nx: only --problem advection2d reads it"),
    ("converge", ["--pair", "single1", "--ny", "7"], "--ny: only --problem advection2d reads it"),
    ("tables", ["--problem", "random", "--n", "8", "--nx", "5", "--ny", "7", "--epsilon", "3"],
     "--nx: only --problem advection2d reads it"),
    ("tables", ["--problem", "random", "--n", "8", "--epsilon", "3"],
     "--epsilon: only --problem advdiff1d reads it"),
    ("figure1", ["--problem", "advection2d", "--nx", "4", "--ny", "4", "--epsilon", "0"],
     "--epsilon: only --problem advdiff1d reads it"),
    ("converge", ["--problem", "advection1d", "--n", "8", "--seed", "-1"], "--seed: must be >= 0"),
    ("tables", ["--problem", "advection1d", "--n", "8", "--seed", "-1"], "--seed: must be >= 0"),
    ("converge", ["--pair", "random:-1"], "--pair: random recipe needs a seed >= 0"),
    ("tables", ["--split", "alternate", "--problem", "advection1d", "--n", "8", "--seed", "5",
                "--cfrac", "0.3"], "--cfrac: only --split random reads it, not alternate"),
    ("converge", ["--pair", "single1", "--split", "firsthalf", "--cfrac", "0.5"],
     "--cfrac: only --split random reads it, not firsthalf"),
    ("tables", ["--split", "alternate", "--problem", "advection1d", "--n", "8", "--seed", "5"],
     "--seed: tables reads it only with --problem random or --split random"),
    ("figure1", ["--split", "firsthalf", "--seed", "0"],
     "--seed: figure1 reads it only with --problem random or --split random"),
    ("verify-pairs", ["--split", "alternate", "--pair", "single1", "--seed", "3"],
     "--seed: verify-pairs reads it only with --problem random or --split random"),
    ("verify-pairs", ["--pair", "random:-3"], "--pair: random recipe needs a seed >= 0"),
    ("tables", ["--n", "1"], "--problem: advdiff1d needs n >= 2, got n=1"),
    ("tables", ["--problem", "advection2d", "--nx", "1"],
     "--problem: advection2d needs nx, ny >= 2, got nx=1 ny=16"),
    ("converge", ["--pair", "none", "--post", "fexact"],
     "--pair none: a relaxation-only method has no F-points for --post fexact"),
    ("converge", ["--pair", "single1", "--pair", "none", "--pre", "fjacobi:0.5:2"],
     "--pair none: a relaxation-only method has no F-points for --pre fjacobi"),
    ("converge", ["--pair", "single1", "--post", "fexact:0.9"],
     "--post: relaxation kind 'fexact' reads no omega"),
    ("converge", ["--pair", "none", "--post", "none:1.9:4"],
     "--post: relaxation kind 'none' reads no omega"),
    ("converge", ["--pair", "single1", "--pre", "none::4"],
     "--pre: relaxation kind 'none' reads no sweeps"),
    ("converge", ["--pair", "single1", "--pre", "jacobi:0.5:2:1"],
     "--pre: a relaxation recipe is <kind>[:omega[:sweeps]]"),
])
def test_malformed_configuration_is_a_config_error_before_any_work(command, args, prefix,
                                                                   split, capsys, monkeypatch):
    # every flag and every --pair recipe is checked before a problem is built
    def no_work(*args, **kwargs):
        raise AssertionError("a problem was generated for a malformed configuration")

    monkeypatch.setattr("compatamg.cli.problem_store", no_work)
    code = main([command, "--problem", "advdiff1d", "--n", "16", "--split", split] + args)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"compatamg: config error: {prefix}")


@pytest.mark.parametrize("text, spec", [
    ("fexact::2", cm.RelaxSpec("fexact", sweeps=2)),
    ("jacobi::3", cm.RelaxSpec("jacobi", sweeps=3)),
    ("fjacobi:0.5", cm.RelaxSpec("fjacobi", omega=0.5)),
    ("none", cm.RelaxSpec("none")),
])
def test_an_empty_relaxation_field_takes_its_default(text, spec):
    # an exact F-solve reads no omega, so its sweeps are given after an empty field
    from compatamg.cli import _relax_from_recipe

    assert _relax_from_recipe(text, "--post") == spec


def test_a_pair_that_fails_to_construct_is_no_config_error(tmp_path, capsys):
    # on advection1d n = 16 the completion of t1:AstarA:AAstar has a
    # singular C-block: verify-pairs stops with a construction error, and converge
    # skips the pair as it skips any other it cannot build
    recipe = "t1:AstarA:AAstar"
    args = ["--problem", "advection1d", "--n", "16", "--pair", "single1", "--pair", recipe]
    assert main(["verify-pairs"] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("compatamg: construction error: ideal companion undefined")
    assert err.endswith(f" (--pair {recipe})\n")
    code, report = _run_json(tmp_path, ["converge"] + args)
    assert code == 1 and report["passed"] is False
    first, bad = report["results"]
    assert first["pair"] == "single1" and "rho" in first
    assert bad == {"pair": recipe, "skipped": True, "reason": bad["reason"]}
    assert "C-block of compatible completion is numerically singular" in bad["reason"]


_COMPLEX_4X4_MTX = (b"%%MatrixMarket matrix array complex general\n4 4\n"
                    + b"".join(b"%d %d\n" % (k, 1 - k) for k in range(16)))


@pytest.mark.parametrize("name, content", [("z.mtx", b"hello world\n"),
                                           ("z.json", b'{"rows": 2, "cols'),
                                           ("z.json", bytes(range(256))),
                                           ("z.mtx", _COMPLEX_4X4_MTX)],
                         ids=["garbage-mtx", "truncated-json", "binary-json", "complex-mtx"])
def test_an_unreadable_zw_file_is_named_with_its_recipe(tmp_path, capsys, name, content):
    zp, wp = tmp_path / name, tmp_path / "w.json"
    zp.write_bytes(content)
    cm.save_matrix_json(wp, np.ones((4, 4)))
    recipe = f"zw:{zp},{wp}"
    out = tmp_path / "out.json"
    code = main(["verify-pairs", "--problem", "advection1d", "--n", "8", "--pair", "single1",
                 "--pair", recipe, "--output", str(out)])
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"compatamg: construction error: {zp}: ")
    assert err.endswith(f" (--pair {recipe})\n")


def test_zw_and_random_recipes_validate_their_blocks(tmp_path, monkeypatch):
    # only the store's own ideal blocks skip make_pair's shape and
    # finiteness checks; blocks read from files or drawn are checked
    import compatamg.transfer as transfer
    from compatamg.cli import _build_pair

    n = 16
    A = cm.generate(cm.ProblemSpec("advdiff1d", n=n, epsilon=0.05))
    part = cm.default_splitting(n, "alternate")
    zp, wp = tmp_path / "z.json", tmp_path / "w.mtx"
    cm.save_matrix_json(zp, np.ones((part.nf, part.nc)))
    cm.save_matrix_market(wp, np.zeros((part.nf, part.nc)))
    checked = []
    real = transfer.as_matrix

    def spy(a, name="matrix"):
        checked.append(name)
        return real(a, name)

    monkeypatch.setattr(transfer, "as_matrix", spy)
    for recipe in (f"zw:{zp},{wp}", "random:3"):
        checked.clear()
        _build_pair(cm.ProblemStore(A), part, recipe)
        assert checked == ["Z", "W"], recipe
    checked.clear()
    _build_pair(cm.ProblemStore(A), part, "single1")
    assert checked == []
    cm.save_matrix_json(zp, np.zeros((part.nf + 1, part.nc)))
    code = main(["verify-pairs", "--problem", "advdiff1d", "--epsilon", "0.05", "--n", str(n),
                 "--pair", f"zw:{zp},{wp}"])
    assert code == 2


def test_verify_pairs_bad_norm_is_config_error(capsys):
    code = main(
        ["verify-pairs", "--problem", "advection1d", "--n", "8",
         "--pair", "single1", "--norm", "nonsense"]
    )
    assert code == 2
    assert "--norm" in capsys.readouterr().err


def test_verify_pairs_tight_tolerance_fails(tmp_path):
    # a tolerance below the case's distance from 1 turns a verified case into
    # exit code 1. The pair is the identity-orthogonal single1 pair with its
    # interpolation block perturbed by 1e-7, so ||Pi|| - 1 is about 1e-14: an
    # exactly compatible pair measures ||Pi|| = 1 with no round-off to fail on.
    A = cm.generate(cm.ProblemSpec("random", n=40, seed=1))
    part = cm.default_splitting(40, "alternate")
    zp, wp = tmp_path / "z.json", tmp_path / "w.mtx"
    cm.save_matrix_json(zp, cm.ideal_z(cm.partition(A, part)))
    cm.save_matrix_market(wp, 1e-7 * np.random.default_rng(3).standard_normal((part.nf, part.nc)))
    args = ["verify-pairs", "--problem", "random", "--n", "40", "--seed", "1",
            "--pair", f"zw:{zp},{wp}", "--expect-orthogonal"]
    code, report = _run_json(tmp_path, args, "default.json")
    assert code == 0 and 1e-16 < report["results"][0]["pi_norm"] - 1.0 <= 1e-8
    code, report = _run_json(tmp_path, args + ["--tol", "1e-18"])
    assert code == 1 and not report["passed"]


@pytest.mark.parametrize("n", ["600", "1000"])
def test_verify_pairs_exact_pair_on_ill_conditioned_laplacian(tmp_path, n):
    # cond(A) reaches 4e5 at n = 1000; the A*A norm is applied through its
    # factor A, so the exact pair verifies under the default tolerance
    code, report = _run_json(
        tmp_path,
        ["verify-pairs", "--problem", "laplacian1d", "--n", n, "--pair", "single3"],
    )
    assert code == 0 and report["passed"]
    (rec,) = report["results"]
    assert rec["norm"] == "AstarA" and rec["pass"] and rec["compat_eq"]
    assert abs(rec["pi_norm"] - 1.0) <= 1e-8


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_verify_pairs_bad_tolerance_is_config_error(tol, capsys):
    code = main(["verify-pairs", "--problem", "advection1d", "--n", "8",
                 "--pair", "single1", "--tol", tol])
    assert code == 2
    assert "--tol" in capsys.readouterr().err


def test_a_report_lists_the_tolerance_its_command_applies(tmp_path):
    # without --tol every config reads the default; converge, which reads
    # no tolerance, refuses the flag and lists the default
    args = ["--problem", "advection1d", "--n", "8"]
    for command, extra in (("converge", ["--pair", "single1"]),
                           ("verify-pairs", ["--pair", "single1"]),
                           ("tables", [])):
        code, report = _run_json(tmp_path, [command] + args + extra)
        assert code in (0, 1) and report["config"]["tol"] == 1e-8, command
    code, report = _run_json(tmp_path, ["verify-pairs"] + args + ["--pair", "single1",
                                                                  "--tol", "1e-6"])
    assert report["config"]["tol"] == 1e-6


def test_figure1_on_nonsymmetric(tmp_path):
    code, report = _run_json(
        tmp_path, ["figure1", "--problem", "random", "--n", "30", "--seed", "0"]
    )
    assert code == 0 and report["passed"]
    results = report["results"]
    assert len(results) == 10
    verified = [r for r in results if "pi_norm" in r]
    skipped = [r for r in results if r.get("skipped")]
    assert len(verified) == 6 and len(skipped) == 4
    assert all(r["style"] == "dotted" for r in skipped)
    assert all(abs(r["pi_norm"] - 1.0) <= 1e-8 for r in verified)


def test_figure1_skips_inverse_edges_on_a_singular_a_cc(tmp_path, monkeypatch):
    # the blocks of A^{-*} are read off A through A_cc, so an edge on A^{-*}
    # is skipped when A_cc is singular, and its reason names A_cc
    import compatamg.cli as cli

    A = np.array([[1.0, 1.0], [1.0, 0.0]])
    monkeypatch.setattr(cli, "problem_store", lambda spec: cm.ProblemStore(A))
    _, report = _run_json(tmp_path, ["figure1", "--problem", "random", "--n", "8"])
    # the A-norm edge is skipped first, since this A is not SPD
    reasons = {r["edge"]: r["reason"] for r in report["results"]
               if "AinvStar" in (r["r_q"], r["p_q"]) and r["norm"] != "A"}
    assert sorted(reasons) == ["R(AinvStar)-P(identity)", "R(identity)-P(AinvStar)"]
    assert all(why.startswith("A_cc is numerically singular") for why in reasons.values())


def test_figure1_on_spd(tmp_path):
    code, report = _run_json(
        tmp_path, ["figure1", "--problem", "laplacian1d", "--n", "32"]
    )
    assert code == 0
    assert all(abs(r["pi_norm"] - 1.0) <= 1e-8 for r in report["results"])


def test_tables_sweep(tmp_path):
    code, report = _run_json(
        tmp_path, ["tables", "--problem", "random", "--n", "24", "--seed", "0"]
    )
    assert code == 0 and report["passed"]
    results = report["results"]
    assert len(results) == 50
    passing = [r for r in results if r.get("pass")]
    skipped = [r for r in results if r.get("skipped")]
    assert len(passing) >= 15 and len(passing) + len(skipped) == 50
    assert all(r["reason"] for r in skipped)
    assert all(r["compat_eq"] for r in passing)
    assert {"norm", "q", "anchor", "companion_expr"} <= set(results[0])


def test_tables_csv_output(tmp_path):
    out = tmp_path / "tables.csv"
    code = main(
        ["tables", "--problem", "random", "--n", "12", "--seed", "3",
         "--format", "csv", "--output", str(out)]
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 50
    assert "pi_norm" in rows[0] and "companion_expr" in rows[0]


def test_converge_direct_method(tmp_path):
    code, report = _run_json(
        tmp_path,
        ["converge", "--problem", "advection1d", "--n", "64",
         "--pair", "single1", "--post", "fexact", "--iters", "5"],
    )
    assert code == 0
    (rec,) = report["results"]
    assert rec["rho"] <= 1e-10 and not rec["divergent"]
    assert rec["history"][1] <= 1e-12 * rec["history"][0]


def test_converge_guards_k_once_per_pair_and_a_ff_once_per_command(tmp_path, monkeypatch):
    import compatamg.linalg

    guard = compatamg.linalg._guarded_lu
    counts = []
    monkeypatch.setattr(
        compatamg.linalg, "_guarded_lu", lambda A, what, *norm: (counts.append(what), guard(A, what, *norm))[1]
    )
    code, report = _run_json(
        tmp_path,
        ["converge", "--problem", "advdiff1d", "--epsilon", "0.05", "--n", "60",
         "--pair", "single1", "--pair", "single3", "--post", "fexact", "--iters", "4"],
    )
    assert code == 0 and len(report["results"]) == 2
    # one guard of K per pair, and one of A_ff for the command: the pairs'
    # stores share it for their ideal blocks, F-relaxations and rho
    assert counts.count("coarse operator R*AP") == 2
    assert counts.count("A_ff") == 1


def test_converge_solves_its_diagonal_blocks_without_a_dgttrs_column_sweep(tmp_path, monkeypatch):
    # on a 1D kind under the alternate splitting A_ff is diagonal: its ideal
    # block and the exact F-relaxation divide by its diagonal, and dgttrs
    # only solves K with one right-hand side per call
    import scipy.linalg.lapack

    real = scipy.linalg.lapack.dgttrs
    shapes = []

    def dgttrs(dl, d, du, du2, ipiv, b, *args, **kwargs):
        shapes.append(np.shape(b))
        return real(dl, d, du, du2, ipiv, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgttrs", dgttrs)
    code, report = _run_json(
        tmp_path,
        ["converge", "--problem", "advdiff1d", "--epsilon", "0.05", "--n", "200",
         "--pair", "single1", "--pair", "single3", "--post", "fexact", "--iters", "4"],
    )
    assert code == 0 and len(report["results"]) == 2
    assert shapes and all(len(s) == 1 or s[1] <= 1 for s in shapes), shapes


@pytest.mark.parametrize("post", ["none", "fexact"])
def test_converge_dense_path_guards_k_once_per_pair(tmp_path, monkeypatch, post):
    # with Jacobi before the correction rho comes from the dense propagator,
    # which forms Pi and any exact F-solve from the guards the iteration
    # uses: K is guarded once per pair and A_ff once per command, also
    # without an F-relaxation, for the pairs' ideal blocks of A
    import compatamg.linalg

    guard = compatamg.linalg._guarded_lu
    counts = []
    monkeypatch.setattr(
        compatamg.linalg, "_guarded_lu", lambda A, what, *norm: (counts.append(what), guard(A, what, *norm))[1]
    )
    code, report = _run_json(
        tmp_path,
        ["converge", "--problem", "advdiff1d", "--epsilon", "0.05", "--n", "60",
         "--pair", "single1", "--pair", "single3", "--pre", "jacobi", "--post", post,
         "--iters", "4"],
    )
    assert code == 0 and len(report["results"]) == 2
    assert counts.count("coarse operator R*AP") == 2
    assert counts.count("A_ff") == 1


def test_converge_jacobi_only_matches_eigen_oracle(tmp_path):
    n, omega = 32, 0.5
    code, report = _run_json(
        tmp_path,
        ["converge", "--problem", "laplacian1d", "--n", str(n),
         "--pair", "none", "--pre", f"jacobi:{omega}:1", "--iters", "5"],
    )
    assert code == 0
    k = np.arange(1, n + 1)
    lam = np.max(np.abs(1.0 - omega * (1.0 - np.cos(k * np.pi / (n + 1)))))
    assert abs(report["results"][0]["rho"] - lam) <= 1e-12


def test_converge_flags_divergent_pair(tmp_path):
    code, report = _run_json(
        tmp_path,
        ["converge", "--problem", "random", "--n", "30", "--seed", "7",
         "--pair", "random:42", "--pre", "jacobi:1.9", "--iters", "8"],
    )
    assert code == 0
    assert report["results"][0]["divergent"]
    assert report["results"][0]["rho"] > 1.0


def test_converge_csv_history(tmp_path):
    out = tmp_path / "hist.csv"
    code = main(
        ["converge", "--problem", "advection1d", "--n", "16", "--pair", "single1",
         "--post", "fexact", "--iters", "3", "--format", "csv", "--output", str(out)]
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["pair", "iter", "residual", "rho", "observed_rate", "divergent",
                       "skipped", "reason"]
    assert len(rows) == 1 + 4  # header + iters+1 residuals


def test_converge_csv_writes_a_non_finite_number_as_an_empty_field(tmp_path):
    # no iteration leaves the observed rate NaN, which JSON writes as null
    # and CSV as an empty field
    args = ["converge", "--problem", "advdiff1d", "--n", "8", "--pair", "single1", "--iters", "0"]
    out = tmp_path / "hist.csv"
    assert main(args + ["--format", "csv", "--output", str(out)]) == 0
    code, report = _run_json(tmp_path, args)
    assert code == 0 and report["results"][0]["observed_rate"] is None
    (row,) = csv.DictReader(out.read_text().splitlines())
    assert row["observed_rate"] == "" and row["iter"] == "0"
    assert float(row["residual"]) == report["results"][0]["history"][0]
    assert float(row["rho"]) == report["results"][0]["rho"]


def _singular_zw_recipe(tmp_path):
    # on advection1d with n = 8, Z = 0 and W = I give R*AP = A_cf + A_cc = 0
    zp, wp = tmp_path / "Z.json", tmp_path / "W.json"
    cm.save_matrix_json(zp, np.zeros((4, 4)))
    cm.save_matrix_json(wp, np.eye(4))
    return f"zw:{zp},{wp}"


def test_converge_skips_a_pair_that_cannot_be_bound(tmp_path):
    recipe = _singular_zw_recipe(tmp_path)
    code, report = _run_json(
        tmp_path,
        ["converge", "--problem", "advection1d", "--n", "8", "--pair", "single1",
         "--pair", recipe, "--pair", "single3", "--post", "fexact", "--iters", "3"],
    )
    assert code == 1 and report["passed"] is False
    first, bad, last = report["results"]
    assert first["pair"] == "single1" and len(first["history"]) == 4
    assert last["pair"] == "single3" and len(last["history"]) == 4
    assert bad == {"pair": recipe, "skipped": True, "reason": bad["reason"]}
    assert "incompatible" in bad["reason"] and "R*AP" in bad["reason"]


def test_converge_csv_keeps_a_row_for_a_skipped_pair(tmp_path):
    recipe = _singular_zw_recipe(tmp_path)
    out = tmp_path / "hist.csv"
    code = main(
        ["converge", "--problem", "advection1d", "--n", "8", "--pair", recipe,
         "--pair", "single1", "--post", "fexact", "--iters", "3", "--format", "csv",
         "--output", str(out)]
    )
    assert code == 1
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["pair"] for r in rows] == [recipe] + ["single1"] * 4
    assert rows[0]["skipped"] == "True" and rows[0]["reason"].startswith(INCOMPATIBLE)
    assert rows[0]["iter"] == rows[0]["residual"] == rows[0]["rho"] == ""


def test_converge_csv_carries_each_pair_and_its_fields(tmp_path):
    # a skipped pair keeps a row with its reason, and every residual row
    # carries its pair's rho, observed rate and divergence, as JSON has them
    args = ["converge", "--problem", "advection1d", "--n", "8", "--pair", "t1:A:identity",
            "--pair", "single1", "--iters", "2"]
    out = tmp_path / "hist.csv"
    assert main(args + ["--format", "csv", "--output", str(out)]) == 1
    code, report = _run_json(tmp_path, args)
    assert code == 1
    skipped, single1 = report["results"]
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows[0] == {"pair": "t1:A:identity", "iter": "", "residual": "", "rho": "",
                       "observed_rate": "", "divergent": "", "skipped": "True",
                       "reason": skipped["reason"]}
    assert "SPD" in skipped["reason"]
    assert [r["iter"] for r in rows[1:]] == ["0", "1", "2"]
    for row, residual in zip(rows[1:], single1["history"]):
        assert float(row["residual"]) == residual
        assert float(row["rho"]) == single1["rho"]
        assert float(row["observed_rate"]) == single1["observed_rate"]
        assert row["divergent"] == str(single1["divergent"])
        assert row["pair"] == "single1" and row["skipped"] == row["reason"] == ""


def test_verify_pairs_skips_a_pair_with_a_singular_coarse_operator(tmp_path):
    # a singular R*AP skips its case with the guard's reason; the batch
    # still reports single1 and exits 1
    recipe = _singular_zw_recipe(tmp_path)
    args = ["verify-pairs", "--problem", "advection1d", "--n", "8", "--pair", "single1",
            "--pair", recipe]
    code, report = _run_json(tmp_path, args)
    assert code == 1 and report["passed"] is False
    first, bad = report["results"]
    assert first["pair"] == "single1" and first["pass"]
    assert bad == {"pair": recipe, "norm": "identity", "expected_orthogonal": False,
                   "skipped": True, "reason": bad["reason"]}
    assert "incompatible" in bad["reason"] and "R*AP" in bad["reason"]
    code, report = _run_json(tmp_path, args + ["--expect-orthogonal"], "expected.json")
    assert code == 1 and report["results"][0]["pass"]
    assert report["results"][1]["skipped"] and report["results"][1]["pass"] is False


def test_converge_makes_no_dense_relaxation_or_a_ff_solve(tmp_path, monkeypatch):
    # the benchmark case's methods: A_ff is solved only against the store's
    # LU factor, N^{-1} is never formed and rho takes no eigensolve
    import scipy.linalg

    import compatamg.solver as solver

    def forbidden(*args, **kwargs):
        raise AssertionError("dense path taken")

    code, ref = _run_json(
        tmp_path,
        ["converge", "--problem", "advdiff1d", "--epsilon", "0.01", "--n", "60",
         "--pair", "single1", "--pair", "single3", "--post", "fexact", "--iters", "30"],
    )
    monkeypatch.setattr(scipy.linalg, "solve", forbidden)
    monkeypatch.setattr(solver, "_n_inverse", forbidden)
    monkeypatch.setattr(solver, "_spectral_radius", forbidden)
    code, report = _run_json(
        tmp_path,
        ["converge", "--problem", "advdiff1d", "--epsilon", "0.01", "--n", "60",
         "--pair", "single1", "--pair", "single3", "--post", "fexact", "--iters", "30"],
        "again.json",
    )
    assert code == 0
    assert [r["rho"] for r in report["results"]] == [0.0, 0.0]
    assert report["results"] == ref["results"]


def _reject_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def test_converge_zero_iterations_is_strict_json(tmp_path):
    out = tmp_path / "out.json"
    code = main(
        ["converge", "--problem", "advection1d", "--n", "16", "--pair", "single1",
         "--iters", "0", "--output", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    (rec,) = report["results"]
    assert rec["observed_rate"] is None and len(rec["history"]) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_converge_overflowing_history_is_strict_json(tmp_path):
    # Jacobi with omega 1.9 diverges here (rho ~ 8); 400 iterations overflow
    out = tmp_path / "out.json"
    code = main(
        ["converge", "--problem", "random", "--n", "16", "--pair", "none",
         "--pre", "jacobi:1.9", "--iters", "400", "--output", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    (rec,) = report["results"]
    assert rec["divergent"] and len(rec["history"]) == 401
    assert rec["history"][1] is not None and rec["history"][-1] is None


def test_unwritable_output_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    code = main(["figure1", "--problem", "laplacian1d", "--n", "8", "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("compatamg: config error: --output:")
    assert not out.exists()


def test_reports_deterministic_modulo_timestamp(tmp_path):
    args = ["tables", "--problem", "random", "--n", "16", "--seed", "5"]
    _, a = _run_json(tmp_path, args, "a.json")
    _, b = _run_json(tmp_path, args, "b.json")
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b
    ta = (tmp_path / "a.json").read_text().splitlines()
    tb = (tmp_path / "b.json").read_text().splitlines()
    stripped_a = [l for l in ta if '"timestamp"' not in l]
    stripped_b = [l for l in tb if '"timestamp"' not in l]
    assert stripped_a == stripped_b


@pytest.mark.parametrize("threads", ["abc", "-3", "0", "1.5"])
def test_threads_env_var_that_is_no_positive_integer_is_a_config_error(
        threads, tmp_path, capsys, monkeypatch):
    # checked before any problem is built, and no report is written
    monkeypatch.setattr("compatamg.cli.problem_store", None)  # a call would raise TypeError
    monkeypatch.setenv("COMPATAMG_THREADS", threads)
    out = tmp_path / "r.json"
    assert main(["figure1", "--problem", "random", "--n", "8", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"compatamg: config error: COMPATAMG_THREADS: must be a positive integer, got {threads!r}")
    assert not out.exists()


def test_threads_env_var_that_is_empty_runs_one_worker(tmp_path, monkeypatch):
    import compatamg.cli as cli

    monkeypatch.setenv("COMPATAMG_THREADS", "")
    assert cli._case_threads() == 1
    code, report = _run_json(tmp_path, ["figure1", "--problem", "random", "--n", "8"])
    assert code == 0 and report["passed"] is True


def test_threads_env_var_preserves_output(tmp_path, monkeypatch):
    # tables and figure1 share norm factors and ideal blocks between cases
    for command in ("tables", "figure1"):
        args = [command, "--problem", "random", "--n", "16", "--seed", "5"]
        monkeypatch.setenv("COMPATAMG_THREADS", "1")
        _, serial = _run_json(tmp_path, args, "serial.json")
        serial.pop("timestamp")
        for threads in ("2", "4"):
            monkeypatch.setenv("COMPATAMG_THREADS", threads)
            _, parallel = _run_json(tmp_path, args, "parallel.json")
            parallel.pop("timestamp")
            assert serial == parallel, (command, threads)


@pytest.mark.parametrize("problem", [["--problem", "random", "--seed", "8101"],
                                     ["--problem", "advdiff1d", "--epsilon", "0.01"]])
def test_streamed_sweep_threaded_equals_serial(tmp_path, monkeypatch, problem):
    # tables measures its cells while the sweep is still building later ones
    for command in ("tables", "figure1"):
        args = [command, "--n", "24"] + problem
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("COMPATAMG_THREADS", threads)
            code, report = _run_json(tmp_path, args, f"{threads}.json")
            report.pop("timestamp")
            reports.append((code, report))
        assert reports[0] == reports[1], command


def test_streamed_sweep_under_thread_switching_stress(tmp_path, monkeypatch):
    # the sweep fills the norm factors while workers read them; more workers
    # than cores and a short switch interval must not change a bit
    args = ["tables", "--problem", "random", "--n", "16", "--seed", "3"]
    monkeypatch.setenv("COMPATAMG_THREADS", "1")
    _, serial = _run_json(tmp_path, args, "serial.json")
    serial.pop("timestamp")
    monkeypatch.setenv("COMPATAMG_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in range(3):
            _, parallel = _run_json(tmp_path, args, f"parallel{k}.json")
            parallel.pop("timestamp")
            assert parallel == serial
    finally:
        sys.setswitchinterval(interval)


def test_verify_pairs_and_tables_threaded_equal_serial(tmp_path, monkeypatch):
    # the cases share one store of factors and ideal blocks, filled under
    # its lock by whichever worker needs an entry first
    single = ["--pair", "single1", "--pair", "single2", "--pair", "single3", "--pair", "single4"]
    for args in (["verify-pairs"] + single + ["--pair", "random:7"], ["tables"]):
        args = args + ["--problem", "random", "--n", "24"]
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("COMPATAMG_THREADS", threads)
            code, report = _run_json(tmp_path, args, f"{threads}.json")
            report.pop("timestamp")
            reports.append((code, report))
        assert reports[0] == reports[1], args[0]


def test_verify_pairs_threads_share_each_pair_and_its_lazily_assembled_operators(
        tmp_path, monkeypatch):
    # the three norm cases of a pair run on one pair, whose R and P are
    # assembled by whichever worker reads them first; more workers than
    # cores and a short switch interval must not change a bit
    args = ["verify-pairs", "--problem", "advdiff1d", "--epsilon", "0.05", "--n", "40",
            "--pair", "single1", "--pair", "random:7",
            "--norm", "identity", "--norm", "AstarA", "--norm", "Asym"]
    monkeypatch.setenv("COMPATAMG_THREADS", "1")
    serial = _run_json(tmp_path, args, "serial.json")
    serial[1].pop("timestamp")
    monkeypatch.setenv("COMPATAMG_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in range(3):
            parallel = _run_json(tmp_path, args, f"parallel{k}.json")
            parallel[1].pop("timestamp")
            assert parallel == serial
    finally:
        sys.setswitchinterval(interval)


def test_verify_pairs_factors_each_matrix_once(tmp_path, monkeypatch):
    # single1-4 share their problem's factors: one guarded LU of A (the
    # AstarA and AstarAsymInvA norms), one Cholesky factor of (A + A*)/2
    # (Asym and AstarAsymInvA), one guarded LU of A_ff (Z_ideal(A) and
    # W_ideal(A)), and each of the four ideal blocks that takes a solve is
    # built once although single1 and single2 share Z_ideal(A) and single3
    # and single4 share W_ideal(A); the identity's ideal blocks are zero
    import compatamg.linalg as linalg
    import compatamg.transfer as transfer

    made = []

    def recording(module, name, label=None):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            made.append(label(*args) if label else name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    recording(linalg, "_guarded_lu", lambda A, what, *norm: f"lu {what}")
    recording(linalg, "_spd_cholesky")
    recording(transfer, "_z_of")
    recording(transfer, "_w_of")
    monkeypatch.setattr(linalg.scipy.linalg, "cholesky", None)
    single = ["--pair", "single1", "--pair", "single2", "--pair", "single3", "--pair", "single4"]
    code, report = _run_json(tmp_path, ["verify-pairs", "--problem", "random", "--n", "24"] + single)
    assert code == 0 and len(report["results"]) == 4
    assert made.count("lu A") == 1
    assert made.count("lu A_ff") == 1
    assert made.count("_spd_cholesky") == 1
    assert made.count("_z_of") == made.count("_w_of") == 2


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_map_cases_streams_its_items_in_order(monkeypatch, threads):
    # a generator is drawn at most two cases per worker ahead of the oldest
    # unfinished case, and results keep the item order
    from compatamg.cli import _map_cases

    monkeypatch.setenv("COMPATAMG_THREADS", threads)
    drawn, done = [], []

    def items():
        for k in range(20):
            drawn.append(k)
            assert len(drawn) - len(done) <= 2 * int(threads)
            yield k

    def fn(k):
        done.append(k)
        return k * k

    assert _map_cases(fn, items()) == [k * k for k in range(20)]
    assert len(drawn) == 20


def test_argparse_rejects_unknown_flags():
    with pytest.raises(SystemExit) as exc:
        main(["verify-pairs", "--no-such-flag"])
    assert exc.value.code == 2


def test_stdout_output(capsys):
    code = main(["figure1", "--problem", "laplacian1d", "--n", "8"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "figure1"


@pytest.mark.parametrize("problem, computable", [("random", 40), ("laplacian1d", 50)])
def test_tables_checks_each_spd_norm_once(monkeypatch, tmp_path, problem, computable):
    # the SPD norms A, Asym and AstarAsymInvA all rest on one Cholesky
    # factor of (A + A*)/2, which decides positive definiteness once for the
    # whole command: both tables and the factors the cells are measured in
    # read it from the command's store. Norm A also needs A symmetric; a
    # random A is not, so its norm-A rows are skipped with the check's reason.
    import compatamg.linalg as linalg

    checked = []
    spd_cholesky = linalg._spd_cholesky

    def recording(M, *args, **kwargs):
        checked.append(M.shape)
        return spd_cholesky(M, *args, **kwargs)

    monkeypatch.setattr(linalg, "_spd_cholesky", recording)
    code, report = _run_json(tmp_path, ["tables", "--problem", problem, "--n", "24"])
    assert code == 0
    assert checked == [(24, 24)]
    measured = [r for r in report["results"] if not r.get("skipped")]
    assert len(measured) == computable
    skipped = {r["reason"] for r in report["results"] if r.get("skipped")}
    assert skipped <= {"norm tag 'A' requires A to be SPD"}


@pytest.mark.parametrize("problem", ["advection1d", "random"])
def test_no_command_forms_a_dense_norm(tmp_path, monkeypatch, problem):
    # every norm is applied through its factor G, and every guarded solve
    # runs on the guard's own factor: no command realizes a dense M,
    # Cholesky-factors one, calls scipy's solve or inv or numpy's inv, or
    # inverts a matrix by dgetri, the inverse companions included
    import scipy.linalg

    import compatamg.linalg as linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("dense norm or second factorization")

    realize_norm = linalg.realize_norm

    def factored_only(*args, factored=False, **kwargs):
        if not factored:
            raise AssertionError("dense realize_norm")
        return realize_norm(*args, factored=True, **kwargs)

    for name in ("cho_factor", "solve", "inv"):
        monkeypatch.setattr(scipy.linalg, name, forbidden)
    monkeypatch.setattr(scipy.linalg.lapack, "dgetri", forbidden)
    monkeypatch.setattr(np.linalg, "inv", forbidden)
    for name, module in list(sys.modules.items()):
        if name.startswith("compatamg") and getattr(module, "realize_norm", None) is realize_norm:
            monkeypatch.setattr(module, "realize_norm", factored_only)
    pairs = ["--pair", "t1:AstarA:A", "--pair", "t2:Asym:identity",
             "--pair", "t1:SqrtAstarA:AinvStar", "--pair", "t2:identity:Ainv"]
    for args in (["tables"], ["figure1"], ["verify-pairs"] + pairs):
        code, _ = _run_json(tmp_path, args + ["--problem", problem, "--n", "24"])
        assert code == 0, args[0]


def test_converge_checks_and_scans_a_once_per_command(tmp_path, monkeypatch):
    # a 1D problem arrives as its three diagonals, and the pairs' stores are
    # made from the command's store, so A's finiteness is checked once, on
    # the diagonals: no count_nonzero or isfinite runs over an n x n A;
    # every block of A is read off its diagonals: no np.ix_ gather runs
    n = 64
    scans = {"count_nonzero": 0, "isfinite": 0}
    for name in scans:
        fn = getattr(np, name)

        def wrapper(a, *args, _fn=fn, _name=name, **kwargs):
            if np.shape(a) == (n, n):
                scans[_name] += 1
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np, name, wrapper)
    gathers = []
    ix = np.ix_
    monkeypatch.setattr(np, "ix_", lambda *idx: (gathers.append(idx), ix(*idx))[1])
    code, report = _run_json(
        tmp_path,
        ["converge", "--problem", "advdiff1d", "--epsilon", "0.01", "--n", str(n),
         "--pair", "single1", "--pair", "single3", "--pair", "random:2",
         "--post", "fexact", "--iters", "6"],
    )
    assert code == 0 and len(report["results"]) == 3
    assert scans == {"count_nonzero": 0, "isfinite": 0}
    assert gathers == []


ONE_D_KINDS = (["--problem", "laplacian1d"], ["--problem", "advection1d"],
               ["--problem", "advdiff1d", "--epsilon", "0.01"])


@pytest.mark.parametrize("relax", [["--post", "fexact"], ["--pre", "jacobi"],
                                   ["--pre", "fjacobi:0.5:2", "--post", "fexact"]],
                         ids=lambda a: " ".join(a))
@pytest.mark.parametrize("kind", ONE_D_KINDS, ids=lambda a: a[1])
def test_converge_on_a_1d_kind_never_builds_a_dense_a(tmp_path, monkeypatch, kind, relax):
    # the problem arrives as its three diagonals, and every layer that
    # converge runs (the ideal blocks, K, rho, the relaxations and their
    # propagators, the iteration, b and x0) reads them and the store's n
    import compatamg.linalg as linalg

    def forbidden(self):
        raise AssertionError("a dense A was built")

    monkeypatch.setattr(linalg._Diagonals, "dense", forbidden)
    code, report = _run_json(
        tmp_path,
        ["converge"] + kind + ["--n", "40", "--pair", "single1", "--pair", "single3",
                               "--pair", "random:2", "--iters", "8"] + relax,
    )
    assert code in (0, 1)
    assert len(report["results"]) == 3
    assert not any(r.get("skipped") for r in report["results"])


@pytest.mark.parametrize("kind", ONE_D_KINDS, ids=lambda a: a[1])
@pytest.mark.parametrize("command", [
    ["verify-pairs", "--pair", "single1", "--pair", "single2", "--pair", "single3",
     "--pair", "single4", "--pair", "random:3", "--pair", "t1:SqrtAstarA:AinvStar",
     "--norm", "identity", "--norm", "AstarA", "--norm", "AstarAsymInvA"],
    ["tables"],
    ["figure1"],
    ["converge", "--pair", "single1", "--pair", "single2", "--pair", "single3",
     "--pair", "single4", "--pair", "random:2", "--pair", "t1:Asym:A", "--post", "fexact"],
    ["converge", "--pair", "single1", "--pair", "single3", "--pair", "random:2",
     "--pre", "jacobi", "--post", "fjacobi:0.5:2", "--split", "firsthalf"],
    ["verify-pairs", "--split", "random", "--pair", "single1", "--pair", "single2",
     "--pair", "single3", "--pair", "single4", "--pair", "random:3",
     "--norm", "identity", "--norm", "AstarA", "--norm", "AstarAsymInvA"],
    ["tables", "--split", "random"],
], ids=lambda a: a[0] + ("-split-random" if "random" in a[1:3] else ""))
def test_a_store_made_from_diagonals_writes_the_reports_of_a_dense_store(
        tmp_path, monkeypatch, kind, command):
    # every command on a 1D kind writes, bit for bit, the report of a run
    # whose store was made from generate's dense A
    import compatamg.cli as cli

    args = command[:1] + kind + ["--n", "23"] + command[1:]
    reports = []
    for make in (cli.problem_store, lambda spec: cm.ProblemStore(cm.generate(spec))):
        monkeypatch.setattr(cli, "problem_store", make)
        code, report = _run_json(tmp_path, args, f"{len(reports)}.json")
        report.pop("timestamp")
        reports.append((code, json.dumps(report)))
    assert reports[0] == reports[1]


def test_converge_at_n_2000_holds_no_n_by_n_array(tmp_path):
    # the benchmark's converge, at the largest order the README times: its
    # traced peak stays below one n x n array of doubles (32 MB)
    import tracemalloc

    n = 2000
    tracemalloc.start()
    try:
        code = main(["converge", "--problem", "advdiff1d", "--epsilon", "0.01", "--n", str(n),
                     "--pair", "single1", "--pair", "single3", "--post", "fexact",
                     "--iters", "30", "--output", str(tmp_path / "r.json")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < n * n * 8, peak


@pytest.mark.parametrize("problem", ["advection1d", "random"])
@pytest.mark.parametrize("args", [
    ["verify-pairs", "--pair", "single1", "--pair", "single2", "--pair", "single3",
     "--pair", "single4", "--pair", "random:3"],
    ["tables"],
    ["figure1"],
    ["converge", "--pair", "single2", "--pre", "jacobi", "--post", "fexact"],
], ids=lambda a: a[0])
def test_a_command_scans_a_for_its_diagonals_at_most_twice(tmp_path, monkeypatch, args, problem):
    # A's structure is decided once per store, and the guard on A counts its
    # own: every correction, measure and relaxation reads the store's
    # decision, so no other layer scans A for its three diagonals
    import compatamg.linalg

    monkeypatch.delenv("COMPATAMG_THREADS", raising=False)
    n = 60
    scan = compatamg.linalg._Diagonals.scan.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is scan and np.shape(frame.f_locals["a"]) == (n, n):
            calls.append(frame.f_back.f_code.co_name)

    sys.setprofile(profile)
    try:
        code, _ = _run_json(tmp_path, args[:1] + ["--problem", problem, "--n", str(n)] + args[1:])
    finally:
        sys.setprofile(None)
    assert code in (0, 1)
    assert len(calls) <= 2, calls


def test_converge_threaded_equals_serial(tmp_path, monkeypatch):
    # every worker reads the partition's index arrays; two workers, then
    # more workers than cores under a short switch interval, must not change
    # a bit
    args = ["converge", "--problem", "advdiff1d", "--epsilon", "0.01", "--n", "64",
            "--pair", "single1", "--pair", "single2", "--pair", "single3",
            "--pair", "single4", "--pair", "t1:Asym:A", "--pair", "random:5",
            "--post", "fexact", "--iters", "20"]
    reports = []
    interval = sys.getswitchinterval()
    try:
        for threads in ("1", "2", "8"):
            monkeypatch.setenv("COMPATAMG_THREADS", threads)
            if threads == "8":
                sys.setswitchinterval(1e-6)
            code, report = _run_json(tmp_path, args, f"{threads}.json")
            report.pop("timestamp")
            reports.append((code, report))
    finally:
        sys.setswitchinterval(interval)
    assert reports[0] == reports[1] == reports[2]


def _verdicts(report):
    """What decides a report: each record's pass, compat_eq, skip, reason and checks."""
    keys = ("pass", "compat_eq", "skipped", "reason", "orthogonality_checks")
    return [{k: r.get(k) for k in keys} for r in report["results"]]


@pytest.mark.parametrize("problem", [["--problem", "random", "--seed", "3"],
                                     ["--problem", "advdiff1d", "--epsilon", "0.01"]])
def test_verdicts_do_not_depend_on_blas_threads(tmp_path, problem):
    # BLAS may round differently with one thread and with two; no verdict,
    # skip or exit code may follow those bits
    commands = [["verify-pairs", "--pair", "single1", "--pair", "single2", "--pair", "single3",
                 "--pair", "single4", "--pair", "random:5"], ["tables"]]
    for command in commands:
        runs = []
        for blas in ("1", "2"):
            out = tmp_path / f"{command[0]}-{blas}.json"
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=blas,
                       COMPATAMG_THREADS="1")
            proc = subprocess.run(
                [sys.executable, "-m", "compatamg.cli"] + command + problem
                + ["--n", "24", "--output", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode in (0, 1), proc.stderr
            report = json.loads(out.read_text())
            runs.append((proc.returncode, report["passed"], _verdicts(report)))
        assert runs[0] == runs[1], command[0]
        assert runs[0][2], command[0]


_RECIPES = st.one_of(
    st.sampled_from(["single1", "single2", "single3", "single4", "none", "bogus"]),
    st.builds("{}:{}:{}".format, st.sampled_from(["t1", "t2"]), st.sampled_from(CATALOG_NORMS),
              st.sampled_from(CATALOG_QS + ("Ainv", "AinvStar"))),
    st.integers(0, 99).map("random:{}".format),
)
_NORMS = st.sampled_from(["identity", "A", "Asym", "AstarA", "SqrtAstarA", "AstarAsymInvA",
                          "bogus"])


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["verify-pairs", "figure1", "tables", "converge"]),
       kind=st.sampled_from(PROBLEM_KINDS), n=st.integers(4, 24),
       split=st.sampled_from(["alternate", "firsthalf", "random"]), seed=st.integers(0, 999),
       recipes=st.lists(_RECIPES, max_size=3), norms=st.lists(_NORMS, max_size=2),
       expect=st.booleans(), tol=st.sampled_from([None, "0", "1e-8", "1e-14", "0.5"]))
def test_cli_contract_holds_for_every_input(command, kind, n, split, seed, recipes, norms,
                                            expect, tol):
    # exit 0, 1 or 2 whatever the input; a report is strict JSON, says
    # passed exactly on exit 0 and does not depend on COMPATAMG_THREADS;
    # exit 2 writes nothing. Each flag is given only to the commands that
    # read it: the others refuse it
    size = ["--nx", "2", "--ny", str(n // 2)] if kind == "advection2d" else ["--n", str(n)]
    args = [command, "--problem", kind, "--split", split] + size
    if command == "converge" or kind == "random" or split == "random":
        args += ["--seed", str(seed)]
    if expect and command == "verify-pairs":
        args.append("--expect-orthogonal")
    if command in ("verify-pairs", "converge"):
        for recipe in recipes:
            args += ["--pair", recipe]
    if command == "verify-pairs":
        for tag in norms:
            args += ["--norm", tag]
    if tol is not None and command != "converge":
        args += ["--tol", tol]
    with tempfile.TemporaryDirectory() as tmp:
        reports = []
        for threads in ("1", "2"):
            out = Path(tmp) / f"{threads}.json"
            with mock.patch.dict(os.environ, {"COMPATAMG_THREADS": threads}):
                code = main(args + ["--output", str(out)])
            assert code in (0, 1, 2), args
            if code == 2:
                assert not out.exists(), args
                return
            report = json.loads(out.read_text(), parse_constant=_reject_constant)
            assert report["passed"] == (code == 0), args
            report.pop("timestamp")
            reports.append((code, report))
        assert reports[0] == reports[1], args


HELP_SNAPSHOTS = Path(__file__).parent / "data" / "help"


@pytest.mark.parametrize("argv, snapshot", [
    (["verify-pairs", "--help"], "verify-pairs.txt"),
    (["figure1", "--help"], "figure1.txt"),
    (["tables", "--help"], "tables.txt"),
    (["converge", "--help"], "converge.txt"),
    (["converge", "--problem", "bogus"], "converge-bad-problem.err"),
    (["tables", "--iters", "3"], "tables-unread-iters.err"),
    (["verify-pairs", "--n", "x"], "verify-pairs-bad-n.err"),
])
def test_parser_text_matches_its_snapshot(argv, snapshot, capsys, monkeypatch):
    # the flags the subcommands share are declared once, on a parent
    # parser; every subcommand's help and usage error keep the text they
    # had when each subcommand declared its own
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(argv)
    help_text = snapshot.endswith(".txt")
    assert stop.value.code == (0 if help_text else 2)
    out, err = capsys.readouterr()
    assert (out if help_text else err) == (HELP_SNAPSHOTS / snapshot).read_text()


@pytest.mark.parametrize("problem", ["advection1d", "random"])
def test_tables_realizes_and_factors_each_dense_companion_once(tmp_path, monkeypatch, problem):
    # both tables read the ideal blocks of Asym, AstarA and AAstar, W in
    # table 1 and Z in table 2, off one store entry per companion: one
    # realization and one guarded factor of its ff-block
    import compatamg.linalg as linalg
    import compatamg.transfer as transfer

    realized, guarded = [], []
    realize_q, guard = transfer.realize_q, linalg._guarded_lu
    monkeypatch.setattr(transfer, "realize_q",
                        lambda q, A: (realized.append(transfer._choice(q).tag), realize_q(q, A))[1])
    monkeypatch.setattr(linalg, "_guarded_lu",
                        lambda A, what, *norm: (guarded.append(what), guard(A, what, *norm))[1])
    code, report = _run_json(tmp_path, ["tables", "--problem", problem, "--n", "24"])
    assert code in (0, 1) and len(report["results"]) == 50
    assert sorted(realized) == sorted(("Asym", "AstarA", "AAstar"))
    assert guarded.count(transfer._FF) == 3
