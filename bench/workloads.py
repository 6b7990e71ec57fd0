"""The benchmark's three CLI workloads and the checks on their reports.

Each workload is a fixed list of ``compatamg`` command lines. The seed feeds
the program's ``--seed`` and the Z/W blocks the benchmark writes for the
``verify`` control pair; the program sees only these generated inputs.

Why these three:

verify
    ``verify-pairs`` at n = 600 on a random nonsymmetric matrix: the four
    single-operator pairs plus a file-read, non-orthogonal control pair.
    Measurement dominates (orthogonality checks, canonical angles, the
    non-orthogonality measure and the M-norm of Pi). The control keeps the
    measurement path away from ||Pi||_M = 1 and reads both file formats.
catalog
    ``tables`` and ``figure1`` at n = 300: all 60 catalog and symmetry-diagram
    records. Pair construction and the singularity and norm guards dominate;
    measurement is about a quarter of the time.
converge
    ``converge`` at n = 1000 on advection-diffusion with an exact F-point
    post-smoother. The two-grid solver dominates (propagator, eigenvalues,
    iteration), and no projection measurement function runs.

One operation is one expected report case. A missing case, a wrong exit
code, a report that is not strict JSON or a failed check fails the
operation. ``verify`` also runs an untimed probe, an exactly compatible pair
on the ill-conditioned 1D Laplacian, which counts as one operation.
"""

from __future__ import annotations

import hashlib
import json
import math

WORKLOAD_NAMES = ("verify", "catalog", "converge")

SMOKE_N = 24
CONVERGE_ITERS = 30
CONVERGE_PAIRS = ("single1", "single3")
SINGLE_PAIRS = ("single1", "single2", "single3", "single4")
CATALOG_NORMS = ("identity", "A", "Asym", "AstarA", "AstarAsymInvA")
CATALOG_QS = ("identity", "A", "Asym", "AstarA", "AAstar")

# Relative tolerance of the identities the non-orthogonal control must obey.
CONTROL_RTOL = 1e-6
# A converged residual history ends this far below its start.
CONVERGED_REDUCTION = 1e-9
# |pi_norm - 1| or rho below this reads as exact; caps accuracy_digits at 16.
ACCURACY_FLOOR = 1e-16


def plan(workload, seed, out_dir, smoke=False):
    """Problem, input files, timed command lines and probe of one workload.

    out_dir is relative to the checkout root, so command lines and reports
    are the same on every run.
    """
    n = {"verify": 600, "catalog": 300, "converge": 1000}[workload]
    if smoke:
        n = SMOKE_N
    seed_args = ["--seed", str(seed)]
    p = {"n": n, "inputs": None, "probe": None}
    if workload == "verify":
        z, w = f"{out_dir}/Z.json", f"{out_dir}/W.mtx"
        p["problem"] = {"kind": "random", "n": n, "seed": seed}
        p["inputs"] = {"z": z, "w": w}
        pairs = []
        for name in SINGLE_PAIRS + (f"zw:{z},{w}",):
            pairs += ["--pair", name]
        p["invocations"] = [
            ("verify-pairs", ["verify-pairs", "--problem", "random", "--n", str(n)]
             + seed_args + pairs),
        ]
        p["probe"] = ("probe", ["verify-pairs", "--problem", "laplacian1d",
                                "--n", str(n), "--pair", "single3"])
    elif workload == "catalog":
        p["problem"] = {"kind": "random", "n": n, "seed": seed}
        common = ["--problem", "random", "--n", str(n)] + seed_args
        p["invocations"] = [("tables", ["tables"] + common),
                            ("figure1", ["figure1"] + common)]
    elif workload == "converge":
        p["problem"] = {"kind": "advdiff1d", "n": n, "epsilon": 0.01, "seed": seed}
        argv = ["converge", "--problem", "advdiff1d", "--epsilon", "0.01",
                "--n", str(n)] + seed_args
        for name in CONVERGE_PAIRS:
            argv += ["--pair", name]
        argv += ["--post", "fexact", "--iters", str(CONVERGE_ITERS)]
        p["invocations"] = [("converge", argv)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for label, argv in p["invocations"] + ([p["probe"]] if p["probe"] else []):
        argv += ["--output", f"{out_dir}/{label}.json"]
    return p


def _reject_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def parse_report(text):
    """Parse a report under strict JSON (no NaN or Infinity)."""
    return json.loads(text, parse_constant=_reject_constant)


def digest(report):
    """sha256 of a report with its timestamp removed."""
    body = {k: v for k, v in report.items() if k != "timestamp"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _close(a, b, rtol):
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b))


def _check_verify(report):
    ops, errs = [], []
    by_pair = {r.get("pair"): r for r in report["results"]}
    for name in SINGLE_PAIRS:
        r = by_pair.get(name)
        ok = bool(r) and r.get("expected_orthogonal") is True and r.get("pass") is True \
            and not r.get("skipped")
        why = None if ok else "not verified orthogonal: " + (
            "case missing" if r is None else
            f"pi_norm {r.get('pi_norm')}, pass {r.get('pass')}, {r.get('reason', '')}")
        ops.append((name, ok, why))
        if ok:
            errs.append(abs(r["pi_norm"] - 1.0))
    ctrl = next((r for k, r in by_pair.items() if str(k).startswith("zw:")), None)
    reason = None
    if ctrl is None or ctrl.get("skipped"):
        reason = "control pair missing or skipped"
    else:
        checks = ctrl.get("orthogonality_checks", {})
        pi, ang, sup = ctrl["pi_norm"], ctrl["min_angle"], ctrl["nonorth_sup"]
        if ctrl.get("compat_eq") is not False:
            reason = "control pair satisfies the compatibility equation"
        elif len(checks) != 4 or any(v is not False for v in checks.values()):
            reason = f"control orthogonality checks not all false: {checks}"
        elif not _close(pi * math.sin(ang), 1.0, CONTROL_RTOL):
            reason = f"pi_norm*sin(min_angle) = {pi * math.sin(ang)!r}, not 1"
        elif not _close(sup**2, pi**2 - 1.0, CONTROL_RTOL):
            reason = f"nonorth_sup^2 = {sup**2!r} but pi_norm^2 - 1 = {pi**2 - 1.0!r}"
    ops.append(("zw-control", reason is None, reason))
    return ops, errs


def _catalog_ops(records, keys, key_of, what):
    """Records with norm A must be skipped (A is not SPD); all others pass."""
    ops, errs = [], []
    by_key = {key_of(r): r for r in records}
    for key in keys:
        r = by_key.get(key)
        if r is None:
            ops.append((f"{what} {key}", False, "record missing"))
            continue
        if r.get("norm") == "A":
            ok = r.get("skipped") is True
            reason = None if ok else "norm A on a nonsymmetric matrix was not skipped"
        else:
            ok = r.get("pass") is True and not r.get("skipped")
            reason = None if ok else f"did not pass: {r.get('reason', r.get('pi_norm'))}"
            if ok:
                errs.append(abs(r["pi_norm"] - 1.0))
        ops.append((f"{what} {key}", ok, reason))
    return ops, errs


# The ten pairings of the ideal-operator symmetry diagram, as (norm, edge).
# Kept apart from the program's own table so that a dropped or renamed edge
# fails the check instead of changing what is expected.
FIGURE_EDGES = (
    ("identity", "R(identity)-P(AinvStar)"),
    ("identity", "R(A)-P(identity)"),
    ("identity", "R(AAstar)-P(A)"),
    ("A", "R(AinvStar)-P(AinvStar)"),
    ("A", "R(identity)-P(identity)"),
    ("A", "R(A)-P(A)"),
    ("A", "R(AAstar)-P(AstarA)"),
    ("AstarA", "R(AinvStar)-P(identity)"),
    ("AstarA", "R(identity)-P(A)"),
    ("AstarA", "R(A)-P(AstarA)"),
)


def _check_tables(report):
    keys = [(t, norm, q) for t in (1, 2) for norm in CATALOG_NORMS for q in CATALOG_QS]
    return _catalog_ops(report["results"], keys,
                        lambda r: (r.get("table"), r.get("norm"), r.get("q")), "table cell")


def _check_figure1(report):
    keys = [(norm, edge) for norm, edge in FIGURE_EDGES]
    return _catalog_ops(report["results"], keys,
                        lambda r: (r.get("norm"), r.get("edge")), "figure edge")


def _check_converge(report):
    ops, errs = [], []
    by_pair = {r.get("pair"): r for r in report["results"]}
    for name in CONVERGE_PAIRS:
        r = by_pair.get(name)
        h = (r or {}).get("history") or []
        if r is None:
            reason = "pair missing"
        elif len(h) != CONVERGE_ITERS + 1:
            reason = f"history has {len(h)} entries, expected {CONVERGE_ITERS + 1}"
        elif not (h[0] > 0 and h[-1] / h[0] <= CONVERGED_REDUCTION):
            reason = f"final/initial residual {h[-1]!r}/{h[0]!r} above {CONVERGED_REDUCTION}"
        else:
            reason = None
        ops.append((name, reason is None, reason))
        if name == "single1" and r is not None:
            errs.append(abs(r["rho"]))
    return ops, errs


def _check_probe(report):
    r = (report["results"] or [{}])[0]
    ok = r.get("pass") is True
    why = None if ok else f"did not pass: pi_norm {r.get('pi_norm')}, {r.get('reason', '')}"
    return [("probe laplacian1d single3", ok, why)], []


_CHECKS = {
    "verify-pairs": (_check_verify, 5),
    "tables": (_check_tables, 50),
    "figure1": (_check_figure1, 10),
    "converge": (_check_converge, len(CONVERGE_PAIRS)),
    "probe": (_check_probe, 1),
}


def check_invocation(label, rc, text):
    """Check one report; returns (operations, accuracy errors, digest).

    operations is a list of (case, ok, reason). Exit code 1 (a verification
    failed) keeps the per-case checks; any other nonzero code, a report that
    does not parse, or exit 1 with every case passing fails every expected
    case of the invocation.
    """
    check, expected = _CHECKS[label]
    why = f"exit code {rc}"
    report = None
    if rc in (0, 1):
        try:
            report = parse_report(text) if text else None
        except ValueError as e:
            why = f"report is not strict JSON: {e}"
        else:
            why = "no report written"
    if report is not None:
        try:
            ops, errs = check(report)
        except (KeyError, TypeError, AttributeError, IndexError) as e:
            ops, errs = [(f"{label} case {i}", False, f"malformed report: {e!r}")
                         for i in range(expected)], []
        if rc == 0 or not all(ok for _, ok, _ in ops):
            return ops, errs, digest(report)
        why = "exit code 1 although every case passed"
    return [(f"{label} case {i}", False, why) for i in range(expected)], [], None


def accuracy_digits(errs):
    """-log10 of the largest error; 0 when there is none to measure."""
    if not errs:
        return 0.0
    return -math.log10(max(max(errs), ACCURACY_FLOOR))
