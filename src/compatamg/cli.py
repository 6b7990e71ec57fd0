"""Batch front end: generate problems, build transfer pairs, verify
orthogonality claims, sweep the norm/companion catalog, check the pairing
symmetry diagram, and run convergence studies, emitting JSON or CSV reports.

Exit codes: 0 all verifications passed, 1 a verification failed or a
converge pair was skipped, 2 malformed configuration or a construction
failure. The COMPATAMG_THREADS environment variable caps how many
independent cases run in parallel (default 1); output ordering is
configuration order regardless.

Every norm is realized as its factor G (M = G*G) and every case is measured
from its pair's coarse correction (compatamg.projection.coarse_correction):
the canonical-angle kernel, the compatibility equation and, in verify-pairs,
the four orthogonality conditions all work on the pair's thin factors, so no
command forms M or Pi or decomposes an n x n matrix to measure a case.

verify-pairs, tables and figure1 each hold one ProblemStore for their
problem matrix A: the guarded LU of A, the Cholesky factor of (A + A*)/2,
the norm factors and the ideal blocks are made there once and shared by
every case, also across COMPATAMG_THREADS workers, and dropped when the
command returns. converge builds each pair through a store of its own, and
the pair's two-grid method binds to that store: A_ff is factored there once
for the pair's ideal blocks, its exact F-relaxation and rho. A pair whose
construction or coarse-operator guard fails is reported as skipped, with
its reason, and the command exits 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import NormSpec, ProblemStore, SingularMatrixError, realize_norm
from .matio import load_matrix
from .problems import PROBLEM_KINDS, ProblemSpec, default_splitting, generate
from .projection import (
    coarse_correction,
    pi_m_norm,
    projection_report,
    verify_compat_equation,
)
from .solver import (
    RelaxSpec,
    PreparedTwoGrid,
    iterate,
    observed_rate,
    two_grid_conv_factor,
)
from .transfer import (
    SINGLE_OPERATOR_PAIRS,
    catalog_pairs,
    ideal_blocks_pair,
    ideal_pair,
    make_pair,
    single_operator_pair,
)

__all__ = ["main", "entry", "ExperimentConfig", "FIGURE_EDGES"]


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field."""


# The ten pairings of the ideal-operator symmetry diagram:
# (line style, norm the correction is orthogonal in, R companion, P companion).
FIGURE_EDGES = (
    ("solid", "identity", "identity", "AinvStar"),
    ("solid", "identity", "A", "identity"),
    ("solid", "identity", "AAstar", "A"),
    ("dotted", "A", "AinvStar", "AinvStar"),
    ("dotted", "A", "identity", "identity"),
    ("dotted", "A", "A", "A"),
    ("dotted", "A", "AAstar", "AstarA"),
    ("dashed", "AstarA", "AinvStar", "identity"),
    ("dashed", "AstarA", "identity", "A"),
    ("dashed", "AstarA", "A", "AstarA"),
)

_SINGLE_NAMES = tuple(rec["name"] for rec in SINGLE_OPERATOR_PAIRS)

# converge flags a two-grid method as divergent only when its convergence
# factor rho exceeds 1 by more than this. rho is the largest eigenvalue
# modulus of the propagator E and carries round-off of order eps * ||E||; a
# coarse correction without relaxation is a projection, whose rho is 1
# exactly and is computed as 1 + O(eps).
DIVERGENCE_MARGIN = 1e-8


@dataclass
class ExperimentConfig:
    command: str
    problem: ProblemSpec
    split: str = "alternate"
    cfrac: float = 0.5
    norms: list = field(default_factory=list)
    pairs: list = field(default_factory=list)
    pre: RelaxSpec = RelaxSpec("none")
    post: RelaxSpec = RelaxSpec("none")
    iters: int = 30
    tol: float = 1e-8
    expect_orthogonal: bool = False
    output: str | None = None
    fmt: str = "json"

    def to_dict(self):
        return {
            "command": self.command,
            "problem": self.problem.to_dict(),
            "split": self.split,
            "cfrac": self.cfrac,
            "norms": list(self.norms),
            "pairs": list(self.pairs),
            "pre": dict(vars(self.pre)),
            "post": dict(vars(self.post)),
            "iters": self.iters,
            "tol": self.tol,
            "expect_orthogonal": self.expect_orthogonal,
            "format": self.fmt,
        }


def _map_cases(fn, items):
    """[fn(x) for x in items], in order, with COMPATAMG_THREADS workers.

    items may be a generator: it is consumed in this thread as the cases
    run, at most two cases per worker ahead of the oldest unfinished one, and
    no case is held after its result is in.
    """
    try:
        threads = int(os.environ.get("COMPATAMG_THREADS", "1") or "1")
    except ValueError:
        threads = 1
    if threads <= 1:
        return list(map(fn, items))
    from concurrent.futures import ThreadPoolExecutor

    results, pending = [], deque()
    with ThreadPoolExecutor(max_workers=threads) as ex:
        for x in items:
            pending.append(ex.submit(fn, x))
            if len(pending) >= 2 * threads:
                results.append(pending.popleft().result())
        results.extend(f.result() for f in pending)
    return results


def _canon_norm(tag):
    try:
        return NormSpec(tag).tag
    except ValueError as e:
        raise ConfigError(f"--norm: {e}") from e


def _problem_setup(cfg):
    A = generate(cfg.problem)
    part = default_splitting(
        A.shape[0], cfg.split, seed=cfg.problem.seed, cfrac=cfg.cfrac
    )
    return A, part


def _build_pair(store, part, recipe):
    """Resolve one --pair recipe to (name, pair_or_None, intrinsic_norm_or_None).

    The pair is built on store.A, through the factors and ideal blocks of the
    ProblemStore store.
    """
    A = store.A
    r = recipe.strip()
    if r == "none":
        return r, None, None
    if r in _SINGLE_NAMES:
        pair, tag = single_operator_pair(A, part, r, store)
        return r, pair, tag
    if r.startswith(("t1:", "t2:")):
        bits = r.split(":")
        if len(bits) != 3:
            raise ConfigError(f"--pair: catalog recipe must be t1:<norm>:<q>, got {recipe!r}")
        anchor = "P" if bits[0] == "t1" else "R"
        try:
            pair = ideal_pair(A, part, bits[1], bits[2], anchor, store)
            tag = NormSpec(bits[1]).tag
        except ValueError as e:
            raise ConfigError(f"--pair {recipe!r}: {e}") from e
        return r, pair, tag
    if r.startswith("zw:"):
        paths = r[3:].split(",")
        if len(paths) != 2:
            raise ConfigError(f"--pair: file recipe must be zw:<zfile>,<wfile>, got {recipe!r}")
        for p in paths:
            if not Path(p).exists():
                raise ConfigError(f"--pair: file not found: {p}")
        Z, W = load_matrix(paths[0]), load_matrix(paths[1])
        return r, make_pair(part, Z, W), None
    if r.startswith("random:"):
        try:
            seed = int(r.split(":", 1)[1])
        except ValueError as e:
            raise ConfigError(f"--pair: random recipe needs an integer seed: {recipe!r}") from e
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((part.nf, part.nc))
        W = rng.standard_normal((part.nf, part.nc))
        return r, make_pair(part, Z, W), None
    raise ConfigError(f"--pair: unknown recipe {recipe!r}")


def cmd_verify_pairs(cfg):
    A, part = _problem_setup(cfg)
    if not cfg.pairs:
        raise ConfigError("--pair: at least one pair recipe is required")
    norms = [_canon_norm(t) for t in cfg.norms]
    store = ProblemStore(A)

    def cases():
        # each pair is built when its first case is drawn and dropped after
        # its last, so one pair at a time is held besides the cases in flight
        for recipe in cfg.pairs:
            name, pair, intrinsic = _build_pair(store, part, recipe)
            if pair is None:
                raise ConfigError(f"--pair: recipe {name!r} builds no pair; not usable here")
            for tag in norms or [intrinsic or "identity"]:
                expected = cfg.expect_orthogonal or (intrinsic is not None and tag == intrinsic)
                yield name, pair, tag, expected
            del pair

    def run(case):
        name, pair, tag, expected = case
        rec = {"pair": name, "norm": tag, "expected_orthogonal": expected}
        try:
            M = realize_norm(tag, A, factored=True, store=store)
        except ValueError as e:
            rec.update(skipped=True, reason=str(e))
            if expected:
                rec["pass"] = False
            return rec
        rec.update(projection_report(A, pair, M, cfg.tol))
        if expected:
            rec["pass"] = abs(rec["pi_norm"] - 1.0) <= cfg.tol
        return rec

    results = _map_cases(run, cases())
    failed = [r for r in results if r.get("pass") is False]
    return (1 if failed else 0), results, not failed


def cmd_figure1(cfg):
    A, part = _problem_setup(cfg)
    # the norm factors and ideal blocks that several edges share are each
    # built once, in the store
    store = ProblemStore(A)

    def run(edge):
        style, norm, r_q, p_q = edge
        rec = {
            "edge": f"R({r_q})-P({p_q})",
            "style": style,
            "r_q": r_q,
            "p_q": p_q,
            "norm": norm,
        }
        try:
            M = realize_norm(norm, A, factored=True, store=store)
            corr = coarse_correction(A, ideal_blocks_pair(A, part, r_q, p_q, store))
        except (ValueError, SingularMatrixError) as e:
            rec.update(skipped=True, reason=str(e))
            return rec
        rec["pi_norm"] = float(pi_m_norm(corr, M))
        rec["pass"] = abs(rec["pi_norm"] - 1.0) <= cfg.tol
        return rec

    results = _map_cases(run, FIGURE_EDGES)
    failed = [r for r in results if r.get("pass") is False]
    return (1 if failed else 0), results, not failed


def cmd_tables(cfg):
    A, part = _problem_setup(cfg)
    # one factor per norm, shared read-only by its cells in both tables; the
    # sweep has decided each norm's preconditions in the same store
    store = ProblemStore(A)

    def run(entry):
        rec = {
            "table": entry.table,
            "norm": entry.norm,
            "q": entry.q,
            "anchor": entry.anchor,
            "companion_expr": entry.companion_expr,
        }
        if entry.label:
            rec["label"] = entry.label
        if entry.skipped:
            rec.update(skipped=True, reason=entry.reason)
            return rec
        M = realize_norm(entry.norm, A, factored=True, store=store)
        corr = coarse_correction(A, entry.pair)
        rec["pi_norm"] = float(pi_m_norm(corr, M))
        rec["compat_eq"] = verify_compat_equation(A, M, corr)
        rec["pass"] = rec["compat_eq"] and abs(rec["pi_norm"] - 1.0) <= cfg.tol
        return rec

    # each cell is built as the sweep reaches it, and its pair is dropped
    # once it is measured
    results = _map_cases(run, catalog_pairs(A, part, store))
    failed = [r for r in results if r.get("pass") is False]
    return (1 if failed else 0), results, not failed


def cmd_converge(cfg):
    A, part = _problem_setup(cfg)
    recipes = cfg.pairs or ["single1"]
    rng = np.random.default_rng(cfg.problem.seed)
    b = rng.standard_normal(A.shape[0])
    x0 = np.zeros(A.shape[0])

    def run(recipe):
        # each pair is built when its case runs, through a store of its own
        # that its method binds to, so A_ff is factored once per pair and no
        # ideal block outlives its pair
        store = ProblemStore(A)
        try:
            name, pair, _ = _build_pair(store, part, recipe)
            spec = PreparedTwoGrid(pair=pair, pre=cfg.pre, post=cfg.post, A=store.A, store=store)
        except ConfigError:
            raise
        except (SingularMatrixError, ValueError) as e:
            return {"pair": recipe.strip(), "skipped": True, "reason": str(e)}
        rho = two_grid_conv_factor(spec.A, spec)
        history = iterate(spec.A, spec, b, x0, cfg.iters)
        return {
            "pair": name,
            "rho": float(rho),
            "observed_rate": float(observed_rate(history)),
            "divergent": bool(rho > 1.0 + DIVERGENCE_MARGIN),
            "history": [float(r) for r in history],
        }

    results = _map_cases(run, recipes)
    skipped = [r for r in results if r.get("skipped")]
    return (1 if skipped else 0), results, not skipped


_COMMANDS = {
    "verify-pairs": cmd_verify_pairs,
    "figure1": cmd_figure1,
    "tables": cmd_tables,
    "converge": cmd_converge,
}


def _relax_from_recipe(text, flag):
    """Parse 'none' | '<kind>[:omega[:sweeps]]' into a RelaxSpec."""
    bits = str(text).split(":")
    kind = bits[0]
    try:
        omega = float(bits[1]) if len(bits) > 1 else 2.0 / 3.0
        sweeps = int(bits[2]) if len(bits) > 2 else 1
        return RelaxSpec(kind, omega=omega, sweeps=sweeps)
    except ValueError as e:
        raise ConfigError(f"{flag}: {e}") from e


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="compatamg",
        description="Construct, verify, and benchmark compatible transfer-operator pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("verify-pairs", "measure requested pairs in requested norms"),
        ("figure1", "verify the ten pairings of the ideal-operator symmetry diagram"),
        ("tables", "sweep and verify every computable catalog cell"),
        ("converge", "residual histories and convergence factors for two-grid methods"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--problem", default="advection1d", choices=PROBLEM_KINDS)
        p.add_argument("--n", type=int, default=32)
        p.add_argument("--nx", type=int, default=None)
        p.add_argument("--ny", type=int, default=None)
        p.add_argument("--epsilon", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--split", default="alternate", choices=("alternate", "firsthalf", "random"))
        p.add_argument("--cfrac", type=float, default=0.5)
        p.add_argument("--norm", action="append", default=[], metavar="TAG")
        p.add_argument("--pair", action="append", default=[], metavar="RECIPE")
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--output", default=None, metavar="PATH")
        p.add_argument("--format", dest="fmt", default="json", choices=("json", "csv"))
        if name == "verify-pairs":
            p.add_argument("--expect-orthogonal", action="store_true")
        if name == "converge":
            p.add_argument("--pre", default="none", metavar="RECIPE")
            p.add_argument("--post", default="none", metavar="RECIPE")
            p.add_argument("--iters", type=int, default=30)
    return parser


def _config_from_args(args):
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ConfigError(f"--tol: must be a finite number >= 0, got {args.tol!r}")
    kwargs = {"kind": args.problem, "epsilon": args.epsilon, "seed": args.seed}
    if args.problem == "advection2d":
        kwargs["nx"] = args.nx if args.nx is not None else args.n
        kwargs["ny"] = args.ny if args.ny is not None else args.n
    else:
        kwargs["n"] = args.n
    try:
        problem = ProblemSpec(**kwargs)
    except ValueError as e:
        raise ConfigError(f"--problem: {e}") from e
    return ExperimentConfig(
        command=args.command,
        problem=problem,
        split=args.split,
        cfrac=args.cfrac,
        norms=list(args.norm),
        pairs=list(args.pair),
        pre=_relax_from_recipe(getattr(args, "pre", "none"), "--pre"),
        post=_relax_from_recipe(getattr(args, "post", "none"), "--post"),
        iters=getattr(args, "iters", 30),
        tol=args.tol,
        expect_orthogonal=getattr(args, "expect_orthogonal", False),
        output=args.output,
        fmt=args.fmt,
    )


def _finite_or_null(obj):
    """The report with every NaN and infinity replaced by None, since JSON has neither."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return None
    return obj


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _flatten(record):
    flat = {}
    for k, v in record.items():
        if isinstance(v, dict):
            for kk, vv in v.items():
                flat[f"{k}.{kk}"] = vv
        elif isinstance(v, list):
            continue
        else:
            flat[k] = v
    return flat


def _report_csv(report):
    out = io.StringIO()
    if report["command"] == "converge":
        w = csv.writer(out)
        w.writerow(["pair", "iter", "residual"])
        for rec in report["results"]:
            for k, r in enumerate(rec.get("history", [])):
                w.writerow([rec["pair"], k, f"{r:.17g}"])
        return out.getvalue()
    rows = [_flatten(rec) for rec in report["results"]]
    fields = []
    for row in rows:
        for k in row:
            if k not in fields:
                fields.append(k)
    w = csv.DictWriter(out, fieldnames=fields, restval="")
    w.writeheader()
    for row in rows:
        w.writerow(row)
    return out.getvalue()


def _write_report(report, cfg):
    if cfg.fmt == "json":
        text = json.dumps(
            _finite_or_null(report), indent=2, default=_json_default, allow_nan=False
        ) + "\n"
    else:
        text = _report_csv(report)
    if cfg.output:
        try:
            Path(cfg.output).write_text(text)
        except OSError as e:
            raise ConfigError(f"--output: {e}") from e
    else:
        sys.stdout.write(text)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        code, results, passed = _COMMANDS[cfg.command](cfg)
    except ConfigError as e:
        print(f"compatamg: config error: {e}", file=sys.stderr)
        return 2
    except (SingularMatrixError, ValueError, FileNotFoundError) as e:
        print(f"compatamg: construction error: {e}", file=sys.stderr)
        return 2
    report = {
        "command": cfg.command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": cfg.to_dict(),
        "passed": passed,
        "results": results,
    }
    try:
        _write_report(report, cfg)
    except ConfigError as e:
        print(f"compatamg: config error: {e}", file=sys.stderr)
        return 2
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
