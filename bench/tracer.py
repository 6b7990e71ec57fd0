"""Span tracer for the benchmark's traced runs.

The tracer times the program from outside: it wraps every public function of
the six library modules (the names in each module's ``__all__``), plus
``cli.main``, and the numpy/scipy LAPACK entry points they reach. Each
wrapper is patched into every module namespace that binds the original,
because ``from .linalg import solve_checked`` makes a separate binding in
each importing module.

Spans (name, start, end, parent, extra) stay in memory and are written out
when the traced run ends. A span's self time is its duration minus the time
its child spans cover, so the self times of all layers add up to the time
spent inside ``cli.main``. The run is single-threaded (COMPATAMG_THREADS=1),
so one span stack suffices.

This module imports neither numpy nor scipy, so the parent process of the
benchmark can use its tables without loading them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

LIBRARY_LAYERS = ("problems", "transfer", "linalg", "projection", "solver", "matio")

# numpy/scipy entry points counted as LAPACK calls, grouped by family.
LAPACK_FAMILIES = {
    "svd": ("svd",),
    "eig": ("eig", "eigh", "eigvals", "eigvalsh"),
    "solve": ("solve", "inv", "solve_triangular"),
    "cholesky": ("cholesky",),
    "lu": ("lu_factor", "lu_solve"),
    "qr": ("qr",),
}

# Namespaces that bind the LAPACK entry points. numpy.linalg._linalg is where
# numpy's own norm(X, 2) looks up svd, so an operator 2-norm counts as an SVD.
LAPACK_NAMESPACES = ("numpy.linalg", "numpy.linalg._linalg", "scipy.linalg")

LAPACK_LAYER = "linalg.lapack"

# Per-layer metrics reported by a traced run, with their units. The order is
# the order of BENCHMARK.json's per_layer list.
PER_LAYER = (
    ("projection.self_s", "s"),
    ("projection.build_pi.incl_s", "s"),
    ("projection.pi_m_norm.incl_s", "s"),
    ("projection.nonorth_measure.incl_s", "s"),
    ("projection.min_canonical_angle.incl_s", "s"),
    ("projection.orthogonality_checks.incl_s", "s"),
    ("projection.verify_compat_equation.incl_s", "s"),
    ("linalg.self_s", "s"),
    ("linalg.require_nonsingular.calls", "count"),
    ("linalg.require_nonsingular.incl_s", "s"),
    ("linalg.realize_norm.calls", "count"),
    ("linalg.realize_norm.incl_s", "s"),
    ("linalg.spd_check.calls", "count"),
    ("linalg.spd_sqrt_pair.calls", "count"),
    ("linalg.numerical_rank.calls", "count"),
    ("linalg.orth_basis.calls", "count"),
    ("linalg.lapack.svd.calls", "count"),
    ("linalg.lapack.eig.calls", "count"),
    ("linalg.lapack.solve.calls", "count"),
    ("linalg.lapack.cholesky.calls", "count"),
    ("linalg.lapack.lu.calls", "count"),
    ("linalg.lapack.qr.calls", "count"),
    ("linalg.lapack.self_s", "s"),
    ("linalg.lapack.gflop_est", "GFLOP"),
    ("transfer.self_s", "s"),
    ("transfer.catalog_pairs.incl_s", "s"),
    ("transfer.ideal_pair.calls", "count"),
    ("transfer.ideal_pair.incl_s", "s"),
    ("transfer.single_operator_pair.incl_s", "s"),
    ("transfer.make_pair.incl_s", "s"),
    ("transfer.realize_q.calls", "count"),
    ("solver.self_s", "s"),
    ("solver.two_grid_propagator.incl_s", "s"),
    ("solver.conv_factor.incl_s", "s"),
    ("solver.iterate.incl_s", "s"),
    ("problems.generate.incl_s", "s"),
    ("matio.load_matrix.incl_s", "s"),
    ("matio.load_matrix.bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
)

# Functions that must record at least one call on each workload; together
# they cover every function named in PER_LAYER except the LAPACK families
# (lu, qr) the program does not call yet.
EXPECTED_CALLS = {
    "verify": (
        "cli.main", "problems.generate", "matio.load_matrix",
        "projection.build_pi", "projection.pi_m_norm", "projection.nonorth_measure",
        "projection.min_canonical_angle", "projection.orthogonality_checks",
        "projection.verify_compat_equation",
        "linalg.realize_norm", "linalg.spd_check", "linalg.spd_sqrt_pair",
        "linalg.numerical_rank", "linalg.orth_basis",
        "transfer.single_operator_pair", "transfer.make_pair",
        "linalg.lapack.svd", "linalg.lapack.eig", "linalg.lapack.solve",
        "linalg.lapack.cholesky",
    ),
    "catalog": (
        "cli.main", "problems.generate", "projection.build_pi",
        "linalg.require_nonsingular", "linalg.realize_norm", "linalg.spd_check",
        "linalg.spd_sqrt_pair", "linalg.numerical_rank",
        "transfer.catalog_pairs", "transfer.ideal_pair", "transfer.make_pair",
        "transfer.realize_q",
        "linalg.lapack.svd", "linalg.lapack.eig", "linalg.lapack.solve",
    ),
    "converge": (
        "cli.main", "problems.generate", "projection.build_pi",
        "linalg.require_nonsingular", "transfer.single_operator_pair",
        "solver.two_grid_propagator", "solver.conv_factor", "solver.iterate",
        "linalg.lapack.svd", "linalg.lapack.eig", "linalg.lapack.solve",
    ),
}

GFLOP_LABEL = "computed from call shapes with standard dense LAPACK operation counts"


def layer_of(name):
    """Layer of a span name: everything before the function name."""
    return name.rsplit(".", 1)[0]


def _shape(a):
    return tuple(getattr(a, "shape", ()))


def _arg(args, kwargs, pos, key, default):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _rhs_cols(b):
    s = _shape(b)
    return 1 if len(s) < 2 else s[-1]


def lapack_flops(entry, args, kwargs):
    """Floating-point operation count of one LAPACK-backed call, from its shapes.

    Counts follow Golub & Van Loan, Matrix Computations (4th ed.): SVD by
    Golub-Reinsch, symmetric and nonsymmetric QR algorithms, LU with partial
    pivoting, Cholesky and Householder QR. Leading-order terms only.
    """
    first = args[0] if args else None
    if entry == "lu_solve" and isinstance(first, tuple):
        first = first[0]
    s = _shape(first)
    if len(s) < 2:
        return 0.0
    m, n = float(s[-2]), float(s[-1])
    batch = 1.0
    for d in s[:-2]:
        batch *= d
    if entry == "svd":
        p, q = max(m, n), min(m, n)
        if not _arg(args, kwargs, 2, "compute_uv", True):
            f = 4 * p * q**2 - 4 * q**3 / 3
        elif _arg(args, kwargs, 1, "full_matrices", True):
            f = 4 * p**2 * q + 8 * p * q**2 + 9 * q**3
        else:
            f = 14 * p * q**2 + 8 * q**3
    elif entry == "eigvalsh":
        f = 4 * n**3 / 3
    elif entry == "eigh":
        f = 4 * n**3 / 3 if kwargs.get("eigvals_only") else 9 * n**3
    elif entry == "eigvals":
        f = 10 * n**3
    elif entry == "eig":
        f = 25 * n**3
    elif entry == "solve":
        k = _rhs_cols(_arg(args, kwargs, 1, "b", None))
        pos = str(kwargs.get("assume_a", "")).startswith("pos")
        f = (n**3 / 3 if pos else 2 * n**3 / 3) + 2 * n**2 * k
    elif entry == "inv":
        f = 2 * n**3
    elif entry == "solve_triangular":
        f = n**2 * _rhs_cols(_arg(args, kwargs, 1, "b", None))
    elif entry == "cholesky":
        f = n**3 / 3
    elif entry == "lu_factor":
        q = min(m, n)
        f = max(m, n) * q**2 - q**3 / 3
    elif entry == "lu_solve":
        f = 2 * n**2 * _rhs_cols(_arg(args, kwargs, 1, "b", None))
    elif entry == "qr":
        q = min(m, n)
        r_only = 2 * max(m, n) * q**2 - 2 * q**3 / 3
        f = r_only if _arg(args, kwargs, 1, "mode", "") in ("r", "raw") else 2 * r_only
    else:
        f = 0.0
    return batch * f


def _file_bytes(args, kwargs):
    try:
        return float(os.path.getsize(_arg(args, kwargs, 0, "path", "")))
    except (OSError, TypeError):
        return 0.0


class Tracer:
    """Records one span per call of every wrapped function while installed."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent index or -1, extra]
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, fn, name, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    extra(args, kwargs) if extra else 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Patch wrappers into compatamg, numpy.linalg and scipy.linalg."""
        wrappers = {}   # id(original) -> (original, wrapper)

        def add(fn, name, extra=None):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self._wrap(fn, name, extra))

        for layer in LIBRARY_LAYERS:
            mod = importlib.import_module(f"compatamg.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    extra = _file_bytes if (layer, attr) == ("matio", "load_matrix") else None
                    add(fn, f"{layer}.{attr}", extra)
        add(importlib.import_module("compatamg.cli").main, "cli.main")

        lapack_mods = [importlib.import_module(m) for m in LAPACK_NAMESPACES]
        for family, entries in LAPACK_FAMILIES.items():
            for entry in entries:
                for mod in lapack_mods:
                    fn = getattr(mod, entry, None)
                    if fn is not None:
                        add(fn, f"{LAPACK_LAYER}.{family}",
                            functools.partial(lapack_flops, entry))

        own = [m for k, m in sys.modules.items() if k == "compatamg" or k.startswith("compatamg.")]
        for mod in own + lapack_mods:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self):
        """Restore every patched binding."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def summarize(spans):
    """Calls, inclusive time, extras per span name and self time per layer.

    Inclusive time counts only the outermost span of a name, so a function
    reached again inside itself is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    calls, incl, extra, self_s = {}, {}, {}, {}
    for i, (name, t0, t1, parent, x) in enumerate(spans):
        dur = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        extra[name] = extra.get(name, 0.0) + x
        layer = layer_of(name)
        self_s[layer] = self_s.get(layer, 0.0) + dur - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] = incl.get(name, 0.0) + dur
    return {"calls": calls, "incl_s": incl, "extra": extra, "self_s": self_s}


def layer_metrics(summary, wall_s, untraced_wall_s):
    """Values of every PER_LAYER metric from one summary."""
    calls, incl, extra, self_s = (summary[k] for k in ("calls", "incl_s", "extra", "self_s"))
    out = {}
    for name, _unit in PER_LAYER:
        head, field = name.rsplit(".", 1)
        if name == "trace.wall_s":
            v = wall_s
        elif name == "trace.overhead":
            v = wall_s / untraced_wall_s - 1.0
        elif field == "self_s":
            v = self_s.get(head, 0.0)
        elif field == "calls":
            v = calls.get(head, 0)
        elif field == "incl_s":
            v = incl.get(head, 0.0)
        elif field == "gflop_est":
            v = sum(x for k, x in extra.items() if layer_of(k) == LAPACK_LAYER) / 1e9
        elif field == "bytes":
            v = extra.get(head, 0.0)
        else:
            raise KeyError(name)
        out[name] = v
    return out


def self_check(workload, summaries, walls):
    """Problems with the traced runs of one workload; empty when all is well.

    Checks that each expected function was called, that layer self times add
    up to the measured wall time of each traced run, and that call counts
    repeat exactly between traced runs.
    """
    problems = []
    for name in EXPECTED_CALLS[workload]:
        if summaries[0]["calls"].get(name, 0) < 1:
            problems.append(f"{name} recorded no call on {workload}")
    for i, (summ, wall) in enumerate(zip(summaries, walls)):
        total = sum(summ["self_s"].values())
        if abs(total - wall) > 1e-3 * wall + 1e-3:
            problems.append(
                f"traced run {i}: layer self times sum to {total:.6f} s, wall is {wall:.6f} s"
            )
    for i, summ in enumerate(summaries[1:], 1):
        if summ["calls"] != summaries[0]["calls"]:
            diff = sorted(k for k in set(summ["calls"]) | set(summaries[0]["calls"])
                          if summ["calls"].get(k) != summaries[0]["calls"].get(k))
            problems.append(f"traced run {i}: call counts differ from run 0 for {diff}")
    return problems
