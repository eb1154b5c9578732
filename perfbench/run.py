"""Benchmark of the sketchsvd CLI tables and library flow.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Closed loop, one client: tables run one after another, each in a fresh
process (``table.py``) with BLAS pinned to one thread, until ``--seconds``
have passed.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced tables and reports per-layer self times from
the traced ones.  The outputs of every table are checked (``check.py``).

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is a fuller report (environment, failure and bound
violation ratios, the latency tail, correctness problems).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy
import scipy

import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A run must end within 180 s: no table starts after this many seconds,
# which leaves room for the last table and the correctness check.
LAST_START_S = 140

END_TO_END = {"wall_s": "s", "rep_ms_p50": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "sketchops.build_s": "sketchops.build",
    "sketchops.apply_s": "sketchops.apply",
    "sketchops.certify_s": "sketchops.certify",
    "densekernels.small_svd_s": "densekernels.small_svd",
    "densekernels.qr_s": "densekernels.qr",
    "densekernels.spectral_norm_s": "densekernels.spectral_norm",
    "densekernels.polar_s": "densekernels.polar",
    "densekernels.range_basis_s": "densekernels.range_basis",
    "stssvd.sts_svd_self_s": "stssvd.sts_svd",
    "stssvd.sketched_qr_self_s": "stssvd.sketched_qr",
    "nearest.orthogonal_s": "nearest.orthogonal",
    "nearest.report_s": "nearest.report",
    "matio.read_s": "matio.read",
    "cli.self_s": "cli",
}
PER_LAYER = {
    **{name: "s" for name in SELF_TIMES},
    "sketchops.build_calls": "count", "sketchops.operator_mb": "MB",
    "sketchops.apply_calls": "count", "sketchops.apply_cols": "count",
    "sketchops.eps_emp_p50": "ratio", "densekernels.small_svd_calls": "count",
    "matio.read_mb": "MB", "trace_overhead_ratio": "ratio",
    "trace_accounted_ratio": "ratio",
}


def run_table(workload, seed, traced, work, timeout):
    """One table in its own process; its result dict, or None if it failed."""
    cmd = [sys.executable, os.path.join(HERE, "table.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--root", ROOT,
           "--work", work]
    t0 = time.perf_counter()  # CLOCK_MONOTONIC, so the child can subtract it
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                              env=dict(os.environ, **BLAS_ENV), text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"table timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"table exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def reps_per_table(spec):
    if spec["kind"] == "cli":
        return len(spec["s"].split(",")) * spec["reps"]
    return spec["reps"]


def failed_reps(table, spec):
    if table is None:
        return reps_per_table(spec)
    out = table["outputs"]
    if spec["kind"] == "cli":
        return 0 if out["exit_code"] == 0 else reps_per_table(spec)
    return sum("error" in rep for rep in out["reps"])


def comparable(table, spec):
    """A table's operators and outputs, without wall times and paths."""
    out = table["outputs"]
    if spec["kind"] == "library":
        return table["ops"], out
    meta = {k: v for k, v in out.get("meta", {}).items()
            if k not in check.TIME_COLUMNS and k != "matrix"}
    return (table["ops"], out["exit_code"], meta,
            check.non_time(out.get("rows", [])), check.non_time(out.get("raw", [])))


def verify(workload, seed, tables, spec):
    """(problems, bound violations per repetition) for the run's tables."""
    from sketchsvd import sketchops

    problems = []
    good = [t for t in tables if t is not None]
    if len(good) < len(tables):
        problems.append(f"{len(tables) - len(good)} table processes failed")
    if not good:
        return problems, 0.0
    first = good[0]
    if any(comparable(t, spec) != comparable(first, spec) for t in good[1:]):
        problems.append("tables of one run disagree")
    out = first["outputs"]
    if spec["kind"] == "cli" and out["exit_code"] != 0:
        problems.append(f"CLI exit code {out['exit_code']}")
        return problems, 0.0
    checker = {"ortho": check.check_ortho, "nearest": check.check_nearest}.get(
        spec.get("command"), check.check_library)
    A = workloads.make_matrix(workload, seed)
    violations = checker(sketchops, A, first["ops"], out, problems)
    return problems, violations / reps_per_table(spec)


def environment(tables):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": next((t["blas_threads"] for t in tables if t), None),
        "cpu_count": os.cpu_count(), "numba_importable": has_numba,
        "git_sha": git_sha(),
    }


def git_sha():
    """HEAD of the checkout, or None when it is not a git work tree."""
    git = os.path.join(ROOT, ".git")
    if not os.path.isdir(git):
        return None
    with open(os.path.join(git, "HEAD")) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(git, ref[5:])
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return fh.read().strip()


def tail(samples):
    """Highest of p50/p90/p99/p99.9 with at least ten samples above it."""
    best = None
    for p in (50, 90, 99, 99.9):
        if len(samples) * (1 - p / 100) >= 10:
            best = {"percentile": p, "value_ms": float(numpy.percentile(samples, p)),
                    "samples": len(samples)}
    return best


def layer_values(table):
    """Per-layer metrics of one traced table (0 for a layer never called)."""
    self_s, calls, attrs = (table["layers"][k] for k in ("self_s", "calls", "attrs"))
    v = {metric: self_s.get(span, 0.0) for metric, span in SELF_TIMES.items()}
    v["sketchops.build_calls"] = calls.get("sketchops.build", 0)
    v["sketchops.operator_mb"] = max(
        (a["mb"] for a in attrs.get("sketchops.build", [])), default=0.0)
    v["sketchops.apply_calls"] = calls.get("sketchops.apply", 0)
    v["sketchops.apply_cols"] = sum(a["cols"] for a in attrs.get("sketchops.apply", []))
    eps = [a["eps"] for a in attrs.get("sketchops.certify", [])]
    v["sketchops.eps_emp_p50"] = statistics.median(eps) if eps else 0.0
    v["densekernels.small_svd_calls"] = calls.get("densekernels.small_svd", 0)
    v["matio.read_mb"] = sum(a["mb"] for a in attrs.get("matio.read", []))
    v["trace_accounted_ratio"] = sum(self_s.values()) / table["wall_s"]
    return v


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    start = time.perf_counter()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sketchsvd", "__init__.py")):
        print(f"no sketchsvd sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    spec = workloads.WORKLOADS[args.workload]

    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    tables = []
    try:
        while True:
            elapsed = time.perf_counter() - start
            enough = elapsed >= args.seconds and (not args.trace or len(tables) >= 2)
            if enough or elapsed >= LAST_START_S:
                break
            traced = bool(args.trace) and len(tables) % 2 == 1
            tables.append(run_table(args.workload, args.seed, traced, work,
                                    timeout=LAST_START_S + 20 - elapsed))
        problems, violation_ratio = verify(args.workload, args.seed, tables, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is using it

    plain = [t for t in tables if t and not t["traced"]]
    traced = [t for t in tables if t and t["traced"]]
    attempted = reps_per_table(spec) * len(tables)
    failed = sum(failed_reps(t, spec) for t in tables)
    if not plain or (args.trace and not traced):
        problems.append("no table completed")
    e2e, layers = {}, {}
    rep_ms = [x for t in plain for x in t["rep_ms"]]
    if plain:
        e2e = {
            "wall_s": statistics.median(t["wall_s"] for t in plain),
            # a table's repetitions differ in s, so its own median is taken
            # first; pooling them would mix the s-modes differently each run
            "rep_ms_p50": statistics.median(statistics.median(t["rep_ms"]) for t in plain),
            "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in plain),
            "setup_s": statistics.median(t["setup_s"] for t in plain),
        }
    if plain and traced:
        per_table = [layer_values(t) for t in traced]
        layers = {k: statistics.median(v[k] for v in per_table) for k in per_table[0]}
        wall_traced = statistics.median(t["wall_s"] for t in traced)
        layers["trace_overhead_ratio"] = wall_traced / e2e["wall_s"] - 1.0

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tables": len(tables), "traced_tables": len(traced),
        "environment": environment(tables),
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
        "fail_ratio": {"value": failed / attempted if attempted else 1.0, "unit": "ratio"},
        "bound_violation_ratio": {"value": violation_ratio, "unit": "ratio"},
        "rep_ms_tail": tail(rep_ms),
        "per_layer": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()},
        "problems": problems,
    }
    print(json.dumps(report))
    units = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": max(attempted, 1), "failed": failed,
        "metrics": {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
