"""Benchmark of compatamg: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload {verify,catalog,converge} --seed N \
        --seconds S --trace {0,1} [--smoke]

Every measurement runs in a fresh child interpreter (bench/child.py) that
imports the program from ./src, with one case thread and single-threaded
BLAS. The child times its own set-up and each ``cli.main`` call; the parent
only schedules children, checks the reports they leave and aggregates.

--trace 0 repeats the workload in new children for about --seconds (at
least three times) and reports the end-to-end metrics: wall_s, setup_s,
peak_rss_mb, success_frac and accuracy_digits, each the median over the
repetitions; set-up is sampled at least nine times. --trace 1 runs the
workload once untraced and twice under the span tracer (bench/tracer.py)
and reports the per-layer metrics.

Every report is checked (bench/workloads.py); failed checks count as failed
operations. The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics. A full record of the run, with the
environment, reference LU/SVD times, report digests and spans, is written to
.bench_out/<workload>/. --smoke runs every workload at n = 24.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracer
import workloads

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "ratio"),
    ("accuracy_digits", "digits"),
)

MIN_REPS = 3
# Set-up is short and noisy, so children that only set up top up its samples.
SETUP_SAMPLES = 9
TRACED_REPS = 2
REF_REPEATS = 3
# Each run must end within 180 s; no child starts that could overrun this.
RUN_BUDGET_S = 170.0

GFLOP_NOTE = f"linalg.lapack.gflop_est is {tracer.GFLOP_LABEL}, not measured"

CHILD_ENV = {
    "COMPATAMG_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Children:
    """Starts child interpreters one at a time, within the run's time budget."""

    def __init__(self, root, out_dir, deadline):
        self.root = root
        self.out_dir = out_dir
        self.deadline = deadline
        self.script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **CHILD_ENV)
        self.count = 0

    def remaining(self):
        return self.deadline - time.monotonic()

    def run(self, spec):
        spec_path = os.path.join(self.out_dir, f"spec-{self.count}.json")
        result_path = os.path.join(self.out_dir, f"result-{self.count}.json")
        self.count += 1
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        try:
            proc = subprocess.run(
                [sys.executable, self.script, spec_path, result_path],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"child {spec['mode']} overran the run's time budget") from e
        if proc.returncode != 0:
            raise BenchError(f"child {spec['mode']} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(result_path) as fh:
            return json.load(fh)


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    xs = sorted(samples)
    k = len(xs) - 10
    if k < 1:
        return None
    return {"percentile": 100.0 * k / len(xs), "value": xs[k - 1]}


def timing(samples):
    return {"median": statistics.median(samples), "samples": len(samples),
            "tail": tail_percentile(samples), "all": samples}


def check_rep(rep):
    """Operations, accuracy errors and digests of one repetition's reports."""
    ops, errs, digests = [], [], {}
    calls = list(rep["calls"]) + ([rep["probe"]] if rep["probe"] else [])
    for call in calls:
        text = None
        if os.path.exists(call["output"]):
            with open(call["output"]) as fh:
                text = fh.read()
        o, e, d = workloads.check_invocation(call["label"], call["rc"], text)
        why = call["error"] or call["stderr"].strip()
        if why:
            o = [(case, ok, f"{reason}: {why}" if not ok else None) for case, ok, reason in o]
        if call["label"] != "probe":
            errs += e
        ops += [{"case": case, "ok": ok, "reason": why, "probe": call["label"] == "probe"}
                for case, ok, why in o]
        digests[call["label"]] = d
    return ops, errs, digests


def run(args):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "compatamg", "cli.py")):
        raise BenchError("src/compatamg/cli.py not found; run from the repository root")
    started = time.monotonic()
    out_rel = f".bench_out/{args.workload}"
    os.makedirs(out_rel, exist_ok=True)
    plan = workloads.plan(args.workload, args.seed, out_rel, smoke=args.smoke)
    kids = Children(root, out_rel, started + RUN_BUDGET_S)

    env = kids.run({"mode": "env", "src": os.path.join(root, "src"), "n": plan["n"],
                    "seed": args.seed, "ref_repeats": REF_REPEATS,
                    "problem": plan["problem"], "inputs": plan["inputs"]})
    rep_spec = {"mode": "rep", "src": os.path.join(root, "src"), "seed": args.seed,
                "problem": plan["problem"], "invocations": plan["invocations"],
                "probe": plan["probe"], "trace": False}

    def rep(trace):
        """One repetition in a new child, checked before the next overwrites its reports."""
        r = kids.run(dict(rep_spec, trace=trace))
        r["ops"], r["errs"], r["digests"] = check_rep(r)
        r["wall_s"] = sum(c["wall_s"] for c in r["calls"])
        return r

    reps, traced = [], []
    measure_start = time.monotonic()
    while True:
        t = time.monotonic()
        reps.append(rep(False))
        took = time.monotonic() - t
        if args.trace:
            break
        if len(reps) >= MIN_REPS and time.monotonic() - measure_start + took > args.seconds:
            break
        if kids.remaining() < 2 * took:
            break
    if args.trace:
        traced = [rep(True) for _ in range(TRACED_REPS)]
    setups = [r["setup_s"] for r in reps]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(kids.run(dict(rep_spec, invocations=[], probe=None))["setup_s"])

    ops = [op for r in reps + traced for op in r["ops"]]
    failed_ops = [op for op in ops if not op["ok"]]
    correct = not any(not op["probe"] for op in failed_ops)

    walls = [r["wall_s"] for r in reps]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "n": plan["n"],
        "command_lines": plan["invocations"] + ([plan["probe"]] if plan["probe"] else []),
        "environment": env["environment"], "reference": env["reference"],
        "attempted": len(ops), "failed": len(failed_ops), "failures": failed_ops,
        "report_sha256": [r["digests"] for r in reps + traced],
        "elapsed_s": time.monotonic() - started,
    }
    if not args.trace:
        digits = [workloads.accuracy_digits(r["errs"]) for r in reps]
        record["timings"] = {
            "wall_s": timing(walls),
            "setup_s": timing(setups),
            "peak_rss_mb": timing([r["peak_rss_mb"] for r in reps]),
        }
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": record["timings"]["setup_s"]["median"],
            "peak_rss_mb": record["timings"]["peak_rss_mb"]["median"],
            "success_frac": (len(ops) - len(failed_ops)) / len(ops),
            "accuracy_digits": statistics.median(digits),
        }
        units = dict(END_TO_END)
    else:
        summaries = [r["summary"] for r in traced]
        traced_walls = [r["wall_s"] for r in traced]
        per_run = [tracer.layer_metrics(s, w, statistics.median(walls))
                   for s, w in zip(summaries, traced_walls)]
        units = dict(tracer.PER_LAYER)
        # Counts repeat exactly between traced runs (a self-check); times vary.
        values = {name: per_run[0][name] if units[name] == "count"
                  else statistics.median(run[name] for run in per_run)
                  for name in units}
        record["self_check"] = tracer.self_check(args.workload, summaries, traced_walls)
        record["layer_self_s"] = [s["self_s"] for s in summaries]
        record["calls"] = summaries[0]["calls"]
        record["gflop_est"] = GFLOP_NOTE
        spans_path = os.path.join(out_rel, f"spans-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump([r["spans"] for r in traced], fh)
        record["spans_file"] = spans_path
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record_path = os.path.join(out_rel, f"record-seed{args.seed}-trace{int(args.trace)}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    report(record, record_path)
    return {"correct": correct, "attempted": len(ops), "failed": len(failed_ops),
            "metrics": record["metrics"]}


def report(record, record_path):
    """Human-readable lines ahead of the final JSON line."""
    env, ref = record["environment"], record["reference"]
    print(f"workload {record['workload']} seed {record['seed']} n {record['n']} "
          f"trace {int(record['trace'])}: compatamg {env['compatamg']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, BLAS {env['blas']['name']} {env['blas']['version']}, "
          f"threads {env['threads']}, nproc {env['nproc']}")
    print(f"reference at n={ref['n']}: lu_factor {ref['lu_factor_s']:.4f} s, "
          f"svd {ref['svd_s']:.4f} s (median of {REF_REPEATS})")
    for name, m in record["metrics"].items():
        line = f"  {name}: {m['value']:.6g} {m['unit']}"
        t = record.get("timings", {}).get(name)
        if t:
            tail = t["tail"]
            line += f" (median of {t['samples']}; " + (
                f"p{tail['percentile']:.0f} {tail['value']:.6g})" if tail
                else "no percentile has ten samples beyond it)")
        print(line)
    attempted, failed = record["attempted"], record["failed"]
    print(f"  failed_frac: {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    seen = {}
    for op in record["failures"]:
        key = (op["probe"], op["case"], op["reason"])
        seen[key] = seen.get(key, 0) + 1
    for (probe, case, reason), count in seen.items():
        tag = " [documented probe]" if probe else ""
        print(f"  FAILED{tag} x{count}: {case}: {reason}")
    if record["trace"]:
        print(f"  {GFLOP_NOTE}")
        problems = record["self_check"]
        print("tracer self-check: " + ("ok" if not problems else "FAILED"))
        for p in problems:
            print(f"  self-check: {p}")
    print(f"record: {record_path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run at n = 24")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
