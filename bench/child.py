"""One fresh interpreter of the benchmark: set-up, timed CLI calls, optional trace.

Run by run.py as ``python3 bench/child.py <spec.json> <result.json>`` from the
checkout root, with PYTHONPATH pointing at the checkout's ``src``. Modes:

env
    Record versions, BLAS and thread settings, time a reference n x n
    ``lu_factor`` and ``svd``, and write the seeded Z/W input files.
rep
    Time the set-up (``import compatamg.cli`` plus problem generation and
    splitting), then each command line through ``cli.main``, then record the
    peak RSS. With ``trace`` set, the calls run under the span tracer. The
    untimed probe, if any, runs last, untraced.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time


def _load_program(src):
    import compatamg
    import compatamg.cli

    if not os.path.realpath(compatamg.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"compatamg imported from {compatamg.__file__}, not from {src}")
    return compatamg.cli


def run_env(spec):
    cli = _load_program(spec["src"])
    import numpy as np
    import scipy
    import scipy.linalg
    from compatamg import __version__, matio

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    n = spec["n"]
    a = np.random.default_rng(spec["seed"]).standard_normal((n, n))
    ref = {}
    for name, fn in (("lu_factor", scipy.linalg.lu_factor),
                     ("svd", lambda x: np.linalg.svd(x, compute_uv=False))):
        times = []
        for _ in range(spec["ref_repeats"]):
            t0 = time.perf_counter()
            fn(a)
            times.append(time.perf_counter() - t0)
        ref[f"{name}_s"] = statistics.median(times)
    ref["n"] = n

    inputs = spec.get("inputs")
    if inputs:
        # Z and W are nf x nc blocks of the workload's own splitting.
        from compatamg.problems import ProblemSpec, default_splitting, generate

        part = default_splitting(generate(ProblemSpec(**spec["problem"])).shape[0],
                                 seed=spec["seed"])
        rng = np.random.default_rng([spec["seed"], 1])
        matio.save_matrix_json(inputs["z"], rng.standard_normal((part.nf, part.nc)))
        matio.save_matrix_market(inputs["w"], rng.standard_normal((part.nf, part.nc)))

    return {
        "environment": {
            "compatamg": __version__,
            "compatamg_path": os.path.dirname(cli.__file__),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "threads": {k: os.environ.get(k) for k in (
                "COMPATAMG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")},
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
        },
        "reference": ref,
    }


def _call(cli, argv):
    """Run cli.main; returns (exit code, error or None, what it wrote to stderr).

    An exception escaping cli.main is the program's own failure: it becomes
    exit code None, which the checks fail, instead of ending the benchmark.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return cli.main(list(argv)), None, err.getvalue()
        except SystemExit as e:
            return e.code, None, err.getvalue()
        except Exception as e:
            return None, f"{type(e).__name__}: {e}", err.getvalue()


def run_rep(spec):
    t0 = time.perf_counter()
    cli = _load_program(spec["src"])
    from compatamg.problems import ProblemSpec, default_splitting, generate

    a = generate(ProblemSpec(**spec["problem"]))
    default_splitting(a.shape[0], seed=spec["seed"])
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    calls = []
    try:
        for label, argv in spec["invocations"]:
            output = _remove_output(argv)
            t = time.perf_counter()
            rc, error, stderr = _call(cli, argv)
            calls.append({"label": label, "rc": rc, "error": error, "stderr": stderr,
                          "output": output, "wall_s": time.perf_counter() - t})
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    probe = None
    if spec.get("probe"):
        label, argv = spec["probe"]
        output = _remove_output(argv)
        rc, error, stderr = _call(cli, argv)
        probe = {"label": label, "rc": rc, "error": error, "stderr": stderr, "output": output}

    out = {"setup_s": setup_s, "calls": calls, "peak_rss_mb": peak_rss_mb, "probe": probe}
    if tracer is not None:
        from tracer import summarize

        out["summary"] = summarize(tracer.spans)
        out["spans"] = tracer.spans
    return out


def _remove_output(argv):
    """Delete the report a command line writes, so a stale one is never read."""
    path = argv[argv.index("--output") + 1]
    if os.path.exists(path):
        os.remove(path)
    return path


def main():
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run_env(spec) if spec["mode"] == "env" else run_rep(spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
