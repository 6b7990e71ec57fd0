"""Batch front end: generate problems, build transfer pairs, verify
orthogonality claims, sweep the norm/companion catalog, check the pairing
symmetry diagram, and run convergence studies, emitting JSON or CSV reports.

Every subcommand runs its cases through one runner, _run_cases, which
skips a case whose measurement raises a ValueError and applies one exit
rule: 1 when a case's pass is false or it was skipped for an incompatible
pair, or, in converge, any case was skipped; else 0. Exit 2 is a malformed
configuration, a flag that nothing reads included, found before any
problem is built, or a verify-pairs pair that fails to construct, whose
message ends with its --pair recipe. The COMPATAMG_THREADS environment
variable caps how many independent cases run in parallel (default 1, also
when empty; any other value than a positive integer is a configuration
error); output ordering is configuration order regardless.

Every norm is realized as its factor G (M = G*G) and every case is measured
from its pair's coarse correction (compatamg.projection.coarse_correction):
the canonical-angle kernel, the compatibility equation and, in verify-pairs,
the four orthogonality conditions all work on the pair's thin factors, so no
command forms M or Pi or decomposes an n x n matrix to measure a case.

Every command holds one ProblemStore for its problem matrix A, made by
_problem_setup: a 1D problem arrives as its three diagonals, and its dense
A is built only where a dense product reads it. In verify-pairs, tables
and figure1 the guard's factor of A, the Cholesky factor of (A + A*)/2,
the norm factors and the ideal blocks are made there once and shared by
every case, also across COMPATAMG_THREADS workers, and dropped when the
command returns. Each of them passes its store alone wherever the package
takes A. converge builds each pair through a store of its own, made from
the command's store, and runs the pair's two-grid method on it, which binds
it once: A is checked once for the command, A_ff factored once
for every pair's ideal blocks, exact F-relaxation and rho, and K guarded
once per pair, while the pair's ideal blocks and binding are dropped with
its store.
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
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .linalg import NormSpec, ProblemStore, realize_norm
from .matio import load_matrix
from .problems import PROBLEM_KINDS, ProblemSpec, default_splitting, problem_store
from .projection import (
    INCOMPATIBLE,
    coarse_correction,
    pi_m_norm,
    projection_report,
    verify_compat_equation,
)
from .solver import (
    RelaxSpec,
    TwoGridSpec,
    iterate,
    observed_rate,
    two_grid_conv_factor,
)
from .transfer import (
    SINGLE_OPERATOR_PAIRS,
    QChoice,
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

# verify-pairs, tables and figure1 pass a case when |pi_norm - 1| <= --tol,
# by default this; converge reads no tolerance, and its reports list this one.
_DEFAULT_TOL = 1e-8


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
    tol: float = _DEFAULT_TOL
    expect_orthogonal: bool = False
    output: str | None = None
    fmt: str = "json"

    def to_dict(self):
        d = asdict(self)
        del d["output"]
        d["format"] = d.pop("fmt")
        return d


def _case_threads():
    """COMPATAMG_THREADS, the number of case workers: 1 when unset or empty.

    Any other value than a positive integer is a ConfigError.
    """
    text = os.environ.get("COMPATAMG_THREADS", "")
    if not text:
        return 1
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"COMPATAMG_THREADS: must be a positive integer, got {text!r}")
    return threads


def _map_cases(fn, items):
    """[fn(x) for x in items], in order, with COMPATAMG_THREADS workers.

    items may be a generator: it is consumed in this thread as the cases
    run, at most two cases per worker ahead of the oldest unfinished one, and
    no case is held after its result is in.
    """
    threads = _case_threads()
    if threads == 1:
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


def _problem_setup(cfg):
    """(store, part): the ProblemStore of the command's problem, a 1D kind
    held by its three diagonals (problem_store), and its CF splitting."""
    store = problem_store(cfg.problem)
    part = default_splitting(store.n, cfg.split, seed=cfg.problem.seed, cfrac=cfg.cfrac)
    return store, part


def _parse_recipe(recipe):
    """(name, kind, args) of one --pair recipe; a malformed one is a ConfigError.

    kind is "none", "single", "t1"/"t2" (args: NormSpec, QChoice), "zw" (args:
    the paths of two regular files) or "random" (args: the seed). Nothing is
    built.
    """
    r = recipe.strip()
    if r == "none" or r in _SINGLE_NAMES:
        return r, ("none" if r == "none" else "single"), ()
    if r.startswith(("t1:", "t2:")):
        bits = r.split(":")
        if len(bits) != 3:
            raise ConfigError(f"--pair: catalog recipe must be t1:<norm>:<q>, got {recipe!r}")
        try:
            return r, bits[0], (NormSpec(bits[1]), QChoice(bits[2]))
        except ValueError as e:
            raise ConfigError(f"--pair {recipe!r}: {e}") from e
    if r.startswith("zw:"):
        paths = r[3:].split(",")
        if len(paths) != 2:
            raise ConfigError(f"--pair: file recipe must be zw:<zfile>,<wfile>, got {recipe!r}")
        for p in paths:
            if not Path(p).exists():
                raise ConfigError(f"--pair: file not found: {p}")
            if not Path(p).is_file():
                raise ConfigError(f"--pair: not a regular file: {p}")
        return r, "zw", tuple(paths)
    if r.startswith("random:"):
        try:
            seed = int(r.split(":", 1)[1])
        except ValueError as e:
            raise ConfigError(f"--pair: random recipe needs an integer seed: {recipe!r}") from e
        if seed < 0:
            raise ConfigError(f"--pair: random recipe needs a seed >= 0: {recipe!r}")
        return r, "random", (seed,)
    raise ConfigError(f"--pair: unknown recipe {recipe!r}")


def _build_pair(store, part, recipe):
    """(name, pair_or_None, intrinsic_norm_or_None) of a recipe that _config_from_args
    has checked, built on the ProblemStore store through its factors and
    ideal blocks; a failure to construct is a ValueError."""
    name, kind, args = _parse_recipe(recipe)
    if kind == "none":
        return name, None, None
    if kind == "single":
        return (name,) + single_operator_pair(store, part, name)
    if kind in ("t1", "t2"):
        norm, q = args
        anchor = "P" if kind == "t1" else "R"
        return name, ideal_pair(store, part, norm, q, anchor), norm.tag
    if kind == "zw":
        Z, W = (load_matrix(p) for p in args)
    else:
        rng = np.random.default_rng(args[0])
        Z = rng.standard_normal((part.nf, part.nc))
        W = rng.standard_normal((part.nf, part.nc))
    return name, make_pair(part, Z, W), None


def _run_cases(cases, every_skip_fails=False):
    """Measure each (record head, expected, measure) case: (exit code, records, passed).

    A record is its head updated with what measure() returns. A ValueError
    from measure, such as a norm not defined on A or a singular R*AP, skips
    that case only, with the error text as reason and pass false if it was
    expected to verify; a ConfigError stops the command. The command fails
    on a false pass, an incompatible-pair skip and, with every_skip_fails,
    any skip.
    """
    def run(case):
        head, expected, measure = case
        rec = dict(head)
        try:
            rec.update(measure())
        except ConfigError:
            raise
        except ValueError as e:
            rec.update(skipped=True, reason=str(e))
            if expected:
                rec["pass"] = False
        return rec

    results = _map_cases(run, cases)
    failed = [
        r for r in results
        if r.get("pass") is False
        or r.get("reason", "").startswith(INCOMPATIBLE)
        or (every_skip_fails and r.get("skipped"))
    ]
    return (1 if failed else 0), results, not failed


def cmd_verify_pairs(cfg):
    store, part = _problem_setup(cfg)
    norms = [NormSpec(t).tag for t in cfg.norms]

    def measure(pair, tag, expected):
        M = realize_norm(tag, store, factored=True)
        rec = projection_report(store, pair, M, cfg.tol)
        if expected:
            rec["pass"] = abs(rec["pi_norm"] - 1.0) <= cfg.tol
        return rec

    def cases():
        # each pair is built when its first case is drawn and dropped after
        # its last, so one pair at a time is held besides the cases in flight
        for recipe in cfg.pairs:
            try:
                name, pair, intrinsic = _build_pair(store, part, recipe)
            except ValueError as e:
                raise ValueError(f"{e} (--pair {recipe.strip()})") from e
            for tag in norms or [intrinsic or "identity"]:
                expected = cfg.expect_orthogonal or (intrinsic is not None and tag == intrinsic)
                head = {"pair": name, "norm": tag, "expected_orthogonal": expected}
                yield head, expected, partial(measure, pair, tag, expected)
            del pair

    return _run_cases(cases())


def cmd_figure1(cfg):
    # the norm factors and ideal blocks that several edges share are each
    # built once, in the store
    store, part = _problem_setup(cfg)

    def measure(norm, r_q, p_q):
        M = realize_norm(norm, store, factored=True)
        corr = coarse_correction(store, ideal_blocks_pair(store, part, r_q, p_q))
        pi_norm = float(pi_m_norm(corr, M))
        return {"pi_norm": pi_norm, "pass": abs(pi_norm - 1.0) <= cfg.tol}

    return _run_cases(
        ({"edge": f"R({r_q})-P({p_q})", "style": style, "r_q": r_q, "p_q": p_q, "norm": norm},
         False, partial(measure, norm, r_q, p_q))
        for style, norm, r_q, p_q in FIGURE_EDGES
    )


def cmd_tables(cfg):
    # one factor per norm, shared read-only by its cells in both tables; the
    # sweep has decided each norm's preconditions in the same store
    store, part = _problem_setup(cfg)

    def measure(entry):
        if entry.skipped:
            raise ValueError(entry.reason)
        M = realize_norm(entry.norm, store, factored=True)
        corr = coarse_correction(store, entry.pair)
        pi_norm = float(pi_m_norm(corr, M))
        compat_eq = verify_compat_equation(store, M, corr)
        return {"pi_norm": pi_norm, "compat_eq": compat_eq,
                "pass": compat_eq and abs(pi_norm - 1.0) <= cfg.tol}

    def head(entry):
        rec = {k: getattr(entry, k) for k in ("table", "norm", "q", "anchor", "companion_expr")}
        if entry.label:
            rec["label"] = entry.label
        return rec

    # each cell is built as the sweep reaches it, and its pair is dropped
    # once it is measured
    return _run_cases((head(e), False, partial(measure, e))
                      for e in catalog_pairs(store, part))


def cmd_converge(cfg):
    store, part = _problem_setup(cfg)
    rng = np.random.default_rng(cfg.problem.seed)
    b = rng.standard_normal(store.n)
    x0 = np.zeros(store.n)

    def measure(recipe):
        # each pair is built when its case runs, through a store of its own
        # made from the command's: A is checked once, A_ff
        # factored once for every pair, and K guarded once per pair, and no
        # ideal block or binding outlives its pair
        pair_store = ProblemStore(store)
        _, pair, _ = _build_pair(pair_store, part, recipe)
        spec = TwoGridSpec(pair, cfg.pre, cfg.post)
        rho = two_grid_conv_factor(pair_store, spec)
        history = iterate(pair_store, spec, b, x0, cfg.iters)
        return {
            "rho": float(rho),
            "observed_rate": float(observed_rate(history)),
            "divergent": bool(rho > 1.0 + DIVERGENCE_MARGIN),
            "history": [float(r) for r in history],
        }

    return _run_cases(
        (({"pair": r.strip()}, False, partial(measure, r)) for r in cfg.pairs or ["single1"]),
        every_skip_fails=True,
    )


_COMMANDS = {
    "verify-pairs": cmd_verify_pairs,
    "figure1": cmd_figure1,
    "tables": cmd_tables,
    "converge": cmd_converge,
}


def _relax_from_recipe(text, flag):
    """Parse '<kind>[:omega[:sweeps]]' into a RelaxSpec; an empty field takes its default.

    A field that the kind never reads is a ConfigError: an omega on none or
    fexact, a sweep count on none, and any field past the sweeps.
    """
    kind, *fields = str(text).split(":")
    if len(fields) > 2:
        raise ConfigError(f"{flag}: a relaxation recipe is <kind>[:omega[:sweeps]], got {text!r}")
    omega, sweeps = fields + [""] * (2 - len(fields))
    try:
        spec = RelaxSpec(kind, omega=float(omega) if omega else 2.0 / 3.0,
                         sweeps=int(sweeps) if sweeps else 1)
    except ValueError as e:
        raise ConfigError(f"{flag}: {e}") from e
    unread = {"none": ("omega", "sweeps"), "fexact": ("omega",)}.get(spec.kind, ())
    for name, value in (("omega", omega), ("sweeps", sweeps)):
        if value and name in unread:
            raise ConfigError(f"{flag}: relaxation kind {spec.kind!r} reads no {name}, "
                              f"got {text!r}")
    return spec


def _build_parser():
    # the flags every subcommand takes are declared once, on a parent parser
    # without its own help, which each subcommand copies
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--problem", default="advection1d", choices=PROBLEM_KINDS)
    shared.add_argument("--n", type=int, default=32)
    shared.add_argument("--nx", type=int, default=None)
    shared.add_argument("--ny", type=int, default=None)
    shared.add_argument("--epsilon", type=float, default=None)
    shared.add_argument("--seed", type=int, default=None)
    shared.add_argument("--split", default="alternate", choices=("alternate", "firsthalf", "random"))
    shared.add_argument("--cfrac", type=float, default=None)
    shared.add_argument("--norm", action="append", default=[], metavar="TAG")
    shared.add_argument("--pair", action="append", default=[], metavar="RECIPE")
    shared.add_argument("--tol", type=float, default=None)
    shared.add_argument("--output", default=None, metavar="PATH")
    shared.add_argument("--format", dest="fmt", default="json", choices=("json", "csv"))
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
        p = sub.add_parser(name, help=helptext, parents=[shared])
        if name == "verify-pairs":
            p.add_argument("--expect-orthogonal", action="store_true")
        if name == "converge":
            p.add_argument("--pre", default="none", metavar="RECIPE")
            p.add_argument("--post", default="none", metavar="RECIPE")
            p.add_argument("--iters", type=int, default=30)
    return parser


def _config_from_args(args):
    if args.tol is not None and args.command == "converge":
        raise ConfigError("--tol: converge reads no tolerance")
    tol = _DEFAULT_TOL if args.tol is None else args.tol
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"--tol: must be a finite number >= 0, got {tol!r}")
    # range checks first, for every --split, before any problem is built
    if args.cfrac is not None and not 0.0 < args.cfrac < 1.0:
        raise ConfigError(f"--cfrac: must lie strictly between 0 and 1, got {args.cfrac!r}")
    iters = getattr(args, "iters", 30)
    if iters < 0:
        raise ConfigError(f"--iters: must be >= 0, got {iters}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
    _case_threads()
    # a flag that nothing reads is refused: the problem flags outside their
    # kind, --cfrac outside --split random, and --seed where neither the
    # problem, the splitting nor converge's right-hand side draws from it
    for flag, value, kind in (("--nx", args.nx, "advection2d"), ("--ny", args.ny, "advection2d"),
                              ("--epsilon", args.epsilon, "advdiff1d")):
        if value is not None and args.problem != kind:
            raise ConfigError(f"{flag}: only --problem {kind} reads it, not {args.problem}")
    if args.cfrac is not None and args.split != "random":
        raise ConfigError(f"--cfrac: only --split random reads it, not {args.split}")
    seed_read = args.command == "converge" or "random" in (args.problem, args.split)
    if args.seed is not None and not seed_read:
        raise ConfigError(f"--seed: {args.command} reads it only with --problem random "
                          f"or --split random")
    kwargs = {"kind": args.problem, "seed": 0 if args.seed is None else args.seed,
              "epsilon": 0.0 if args.epsilon is None else args.epsilon}
    if args.problem == "advection2d":
        kwargs["nx"] = args.nx if args.nx is not None else args.n
        kwargs["ny"] = args.ny if args.ny is not None else args.n
    else:
        kwargs["n"] = args.n
    try:
        problem = ProblemSpec(**kwargs)
    except ValueError as e:
        raise ConfigError(f"--problem: {e}") from e
    cfg = ExperimentConfig(
        command=args.command,
        problem=problem,
        split=args.split,
        cfrac=0.5 if args.cfrac is None else args.cfrac,
        norms=list(args.norm),
        pairs=list(args.pair),
        pre=_relax_from_recipe(getattr(args, "pre", "none"), "--pre"),
        post=_relax_from_recipe(getattr(args, "post", "none"), "--post"),
        iters=iters,
        tol=tol,
        expect_orthogonal=getattr(args, "expect_orthogonal", False),
        output=args.output,
        fmt=args.fmt,
    )
    # the recipes of the commands that read them, checked before any problem
    # is built; a command refuses the tags and recipes it never reads
    if cfg.norms and cfg.command != "verify-pairs":
        raise ConfigError(f"--norm: {cfg.command} reads no norm tag")
    if cfg.pairs and cfg.command not in ("verify-pairs", "converge"):
        raise ConfigError(f"--pair: {cfg.command} reads no pair recipe")
    if cfg.command == "verify-pairs":
        if not cfg.pairs:
            raise ConfigError("--pair: at least one pair recipe is required")
        for tag in cfg.norms:
            try:
                NormSpec(tag)
            except ValueError as e:
                raise ConfigError(f"--norm: {e}") from e
    if cfg.command in ("verify-pairs", "converge"):
        for recipe in cfg.pairs:
            name, kind, _ = _parse_recipe(recipe)
            if kind == "none" and cfg.command == "verify-pairs":
                raise ConfigError(f"--pair: recipe {name!r} builds no pair; not usable here")
            for flag, relax in (("--pre", cfg.pre), ("--post", cfg.post)):
                # a relaxation-only method has no pair to carry F-points
                if kind == "none" and relax.kind in ("fjacobi", "fexact"):
                    raise ConfigError(f"--pair none: a relaxation-only method has no F-points "
                                      f"for {flag} {relax.kind}")
    return cfg


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


# Columns of converge's CSV report: one row per residual of a pair's
# history, with the pair's rho, observed rate and divergence on each, and
# one row for a skipped pair, with its reason and no residual.
_CONVERGE_CSV = ("pair", "iter", "residual", "rho", "observed_rate", "divergent", "skipped", "reason")


def _g17(x):
    """A number with 17 significant digits, or an empty field for None."""
    return "" if x is None else f"{x:.17g}"


def _report_csv(report):
    out = io.StringIO()
    # a NaN or infinity is an empty field, as it is null in JSON
    results = _finite_or_null(report["results"])
    if report["command"] == "converge":
        w = csv.writer(out)
        w.writerow(_CONVERGE_CSV)
        for rec in results:
            if rec.get("skipped"):
                w.writerow([rec["pair"], "", "", "", "", "", True, rec["reason"]])
                continue
            per_pair = [_g17(rec["rho"]), _g17(rec["observed_rate"]), rec["divergent"], "", ""]
            for k, r in enumerate(rec["history"]):
                w.writerow([rec["pair"], k, _g17(r)] + per_pair)
        return out.getvalue()
    rows = [_flatten(rec) for rec in results]
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
        report = {
            "command": cfg.command,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "config": cfg.to_dict(),
            "passed": passed,
            "results": results,
        }
        _write_report(report, cfg)
    except ConfigError as e:
        print(f"compatamg: config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as e:
        print(f"compatamg: construction error: {e}", file=sys.stderr)
        return 2
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
