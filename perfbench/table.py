"""One table of a workload, in a process of its own.

Started by ``run.py``; prints one JSON object on its last stdout line.  The
process imports the package, writes the workload's inputs, then runs the
CLI in-process (``sketchsvd.cli.main``) or the library flow, and reports its
own peak resident memory at exit (``RUSAGE_SELF``), so no table's peak
carries into the next.
"""

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def _parse_csv(path):
    """Rows of a CLI CSV (comment lines skipped) as dicts of strings."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]


def run_cli(spec, path, work, program_seed):
    from sketchsvd import cli

    out = os.path.join(work, "table.csv")
    argv = [spec["command"], "--matrix", path, "--sketch", spec["sketch"],
            "--s", spec["s"], "--reps", str(spec["reps"]),
            "--seed", str(program_seed), "--out", out, "--raw"]
    t0 = time.perf_counter()
    code = cli.main(argv)
    t1 = time.perf_counter()
    outputs = {"exit_code": code}
    if code == 0:
        with open(out + ".jsonl") as fh:
            outputs["meta"] = json.loads(fh.readline())
        outputs["rows"] = _parse_csv(out)
        outputs["raw"] = _parse_csv(out + ".raw.csv")
    return t0, t1, outputs


def run_library(spec, A, program_seed):
    """The README's library flow, once per repetition."""
    from sketchsvd import nearest, sketchops, stssvd, densekernels

    m, n = A.shape
    s = spec["s_mult"] * n
    seeds = np.random.SeedSequence(program_seed).generate_state(spec["reps"], np.uint64)
    reps = []
    t0 = time.perf_counter()
    for seed in seeds:
        try:
            op = sketchops.build_sketch(spec["sketch"], s, m, int(seed))
            f = stssvd.sts_svd_via_qr(A, op)
            cert = sketchops.empirical_epsilon(op, densekernels.range_basis(A))
            reports = nearest.orthogonality_report(f.W, op, cert)
        except Exception as exc:  # a failed repetition is counted, not fatal
            reps.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        reps.append({
            "theta": f.theta.tolist(), "r": f.r, "eps": cert.epsilon_emp,
            "reports": [[b.bound_id, b.lhs, b.rhs, b.passed] for b in reports],
        })
    t1 = time.perf_counter()
    return t0, t1, {"reps": reps}


def blas_threads():
    """Thread count OpenBLAS reports in this process, or None."""
    libs = os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")
    for lib in glob.glob(libs):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            return getter()
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter of the parent just before this process started")
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    sys.path.insert(0, HERE)
    import sketchsvd.cli  # noqa: F401  (setup includes the package import)
    import layers
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    _, program_seed = workloads.seeds_for(args.seed)
    A = workloads.make_matrix(args.workload, args.seed)
    path = None
    if spec["kind"] == "cli":
        path = os.path.join(args.work, "input.mtx")
        workloads.write_input(A, path)
        del A
    setup_s = time.perf_counter() - args.t0

    rec = layers.Recorder(bool(args.trace))
    layers.install(rec)
    if spec["kind"] == "cli":
        t0, t1, outputs = run_cli(spec, path, args.work, program_seed)
    else:
        t0, t1, outputs = run_library(spec, A, program_seed)
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    stamps = [b[0] for b in rec.builds] + [t1]
    result = {
        "setup_s": setup_s,
        "wall_s": t1 - t0,
        "rep_ms": [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])],
        "ops": [list(b[1:]) for b in rec.builds],
        "peak_rss_mb": maxrss_mb,
        "traced": bool(args.trace),
        "blas_threads": blas_threads(),
        "outputs": outputs,
    }
    if args.trace:
        result["layers"] = rec.layers()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
