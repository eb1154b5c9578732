"""Command-line front end for spectrum, orthogonality-loss, and
nearest-matrix experiments.

Commands
--------
``spectrum``  sketch singular values vs. the full and iterative reference
              spectra of a matrix (CSV columns: index, sigma_full, theta,
              sigma_reference_method, time_ms).
``ortho``     loss of orthogonality of the sketch-orthonormal left factor
              as the sketch dimension varies (columns: s, fro_loss,
              two_loss, time_s), with bound checks at an asserted
              distortion.
``nearest``   distances of the sketch-orthogonal and classical nearest
              matrices (columns: s, dist_A_P_2, dist_P_T_2, time_P_s,
              sandwich_pass).
``gen``       emit generated benchmark matrices as Matrix Market files.

Conventions
-----------
* Matrix sources: ``cauchy:N``, ``sprand:M,N,DENSITY,KAPPA``, ``randn:M,N``,
  or a Matrix Market file path.
* Sketch dimensions: ``--s`` takes a comma list of integers or ``Kn``
  multiples of the column count (e.g. ``2n,4n``); without ``--s``, the
  dimension comes from ``(--eps, --delta)``.
* Seeding: the master ``--seed`` spawns one child seed for matrix
  generation and one per (sketch-dimension, repetition) pair through
  ``numpy.random.SeedSequence``; every run is reproducible and, apart
  from wall-time columns, byte-identical.
* ``--out PATH`` writes the CSV plus a ``PATH.jsonl`` mirror (one ``meta``
  record, then one record per row); ``--raw`` adds ``PATH.raw.csv`` with
  per-repetition values.  Without ``--out`` the CSV goes to stdout.
* Desk-scale presets, measured on 2 cores with BLAS pinned to one thread:
  ``spectrum`` about 1 s and ``nearest`` about 6 s; ``ortho`` about
  2.5 minutes and 1 GB peak memory, dominated by building the gaussian
  operator.  Full-scale presets are gated behind ``--xl``.
* Exit codes: 0 success, 2 input error, 3 numerical failure, 4 asserted
  bounds violated (only with ``--strict``).
"""

import argparse
import json
import sys
import time

import numpy as np
import scipy.sparse.linalg

from .densekernels import as_matrix, check_finite, range_basis, spectral_norm, to_dense
from .errors import NumericalError
from .generators import CauchySpec, gen_cauchy, gen_sparse_conditioned
from .matio import read_matrix_market, write_matrix_market
from .nearest import nearest_orthogonal
from .sketchops import KINDS, EmbeddingSpec, build_sketch, empirical_epsilon, sketch_dim
from .stssvd import sts_singular_values, sts_svd

PRESETS = {
    ("spectrum", "desk"): {
        "matrix": "cauchy:200", "sketch": "srtt", "s": "60", "reps": 50,
    },
    ("spectrum", "xl"): {
        "matrix": "cauchy:5000", "sketch": "srtt", "s": "30", "reps": 50,
    },
    ("ortho", "desk"): {
        "matrix": "sprand:20000,100,0.01,1e10", "sketch": "gaussian",
        "s": "12n,16n,20n", "reps": 50,
    },
    ("ortho", "xl"): {
        "matrix": "sprand:300000,300,0.003,1e10", "sketch": "gaussian",
        # 55, 60, 65 times the log of the embedded dimension (300 columns).
        "s": "314,343,371", "reps": 50,
    },
    ("nearest", "desk"): {
        "matrix": "randn:2000,50", "sketch": "srtt",
        "s": "2n,4n,6n,8n,10n,12n", "reps": 50,
    },
    ("nearest", "xl"): {
        "matrix": None, "sketch": "srtt",
        "s": "2n,4n,6n,8n,10n,12n", "reps": 50,
    },
}

_XL_PRESETS = {"xl"}


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _load_matrix(src, seed):
    if src.startswith("cauchy:"):
        A = gen_cauchy(CauchySpec(n=int(src.split(":", 1)[1])))
    elif src.startswith("sprand:"):
        m, n, density, kappa = src.split(":", 1)[1].split(",")
        A = gen_sparse_conditioned(int(m), int(n), float(density), float(kappa), seed)
    elif src.startswith("randn:"):
        m, n = (int(p) for p in src.split(":", 1)[1].split(","))
        A = np.random.default_rng(seed).standard_normal((m, n))
    else:
        A = read_matrix_market(src)
    A = as_matrix(A)
    check_finite(A, "input matrix")
    return A


def _parse_s_list(text, n):
    out = []
    for token in text.split(","):
        token = token.strip().lower()
        if token.endswith("n"):
            out.append(int(round(float(token[:-1] or "1") * n)))
        else:
            out.append(int(token))
    return out


def _seeds(master, count):
    children = np.random.SeedSequence(master).spawn(count)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


class _Output:
    """Collects CSV/JSONL/raw rows and writes them deterministically."""

    def __init__(self, columns, out_path, raw_columns=None, raw=False):
        self.columns = columns
        self.out_path = out_path
        self.comments = []
        self.rows = []
        self.meta = {}
        self.raw = raw
        self.raw_columns = raw_columns or columns
        self.raw_rows = []

    def comment(self, text):
        self.comments.append(text)

    def add(self, row):
        self.rows.append(row)

    def add_raw(self, row):
        if self.raw:
            self.raw_rows.append(row)

    def _csv_text(self, columns, rows, comments=()):
        lines = [f"# {c}" for c in comments]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        return "\n".join(lines) + "\n"

    def flush(self):
        text = self._csv_text(self.columns, self.rows, self.comments)
        if self.out_path is None:
            sys.stdout.write(text)
            return
        with open(self.out_path, "w") as fh:
            fh.write(text)
        with open(f"{self.out_path}.jsonl", "w") as fh:
            fh.write(json.dumps({"type": "meta", **self.meta}) + "\n")
            for row in self.rows:
                fh.write(json.dumps({"type": "row", **_jsonable(row)}) + "\n")
        if self.raw:
            with open(f"{self.out_path}.raw.csv", "w") as fh:
                fh.write(self._csv_text(self.raw_columns, self.raw_rows))


def _jsonable(row):
    out = {}
    for k, v in row.items():
        if isinstance(v, (np.bool_,)):
            v = bool(v)
        elif isinstance(v, np.integer):
            v = int(v)
        elif isinstance(v, np.floating):
            v = float(v)
        out[k] = v
    return out


def _resolve_sketch_dims(args, n, m):
    if args.s:
        return _parse_s_list(args.s, n)
    spec = EmbeddingSpec(
        epsilon=args.eps, delta=args.delta, k=min(n, m), m=m, kind=args.sketch
    )
    return [sketch_dim(spec)]


def cmd_spectrum(args):
    A = as_matrix(_load_matrix(args.matrix, args.matrix_seed))
    m, n = A.shape
    dims = _resolve_sketch_dims(args, n, m)
    s = dims[0]
    ell = min(40, s, min(m, n))

    out = _Output(
        ["index", "sigma_full", "theta", "sigma_reference_method", "time_ms"],
        args.out,
        raw_columns=["rep", "index", "theta", "time_ms"],
        raw=args.raw,
    )

    t0 = time.perf_counter()
    sigma_full = np.linalg.svd(to_dense(A), compute_uv=False)
    time_full = time.perf_counter() - t0

    if sigma_full.size == 0 or sigma_full[0] <= 0.0:
        out.comment("r=0: matrix is zero, no spectrum rows")
        out.meta = {"command": "spectrum", "r": 0, "matrix": args.matrix}
        out.flush()
        return 0

    k_ref = min(ell, min(m, n) - 1)
    rng = np.random.default_rng(args.matrix_seed)
    t0 = time.perf_counter()
    if k_ref >= 1:
        ref = scipy.sparse.linalg.svds(
            A.astype(np.float64), k=k_ref, v0=rng.standard_normal(min(m, n)),
            return_singular_vectors=False,
        )
        ref = np.sort(ref)[::-1]
    else:
        ref = np.zeros(0)
    time_ref = time.perf_counter() - t0
    ref_padded = np.full(ell, np.nan)
    ref_padded[: ref.size] = ref[:ell]

    seeds = _seeds(args.seed, args.reps)
    thetas = np.zeros((args.reps, ell))
    times_ms = np.zeros(args.reps)
    for rep, seed in enumerate(seeds):
        op = build_sketch(args.sketch, s, m, seed)
        t0 = time.perf_counter()
        theta, _ = sts_singular_values(A, op)
        times_ms[rep] = 1e3 * (time.perf_counter() - t0)
        padded = np.zeros(ell)
        padded[: min(ell, theta.size)] = theta[:ell]
        thetas[rep] = padded
        for i in range(ell):
            out.add_raw(
                {"rep": rep, "index": i + 1, "theta": padded[i], "time_ms": times_ms[rep]}
            )

    theta_mean = thetas.mean(axis=0)
    mean_ms = float(times_ms.mean())
    out.comment(f"time_full_svd_s={time_full:.6f} time_reference_s={time_ref:.6f}")
    out.meta = {
        "command": "spectrum", "matrix": args.matrix, "sketch": args.sketch,
        "s": s, "reps": args.reps, "seed": args.seed, "ell": ell,
        "time_full_svd_s": time_full, "time_reference_s": time_ref,
        "mean_sketch_time_ms": mean_ms,
    }
    for i in range(ell):
        out.add(
            {
                "index": i + 1,
                "sigma_full": sigma_full[i],
                "theta": theta_mean[i],
                "sigma_reference_method": ref_padded[i],
                "time_ms": mean_ms,
            }
        )
    out.flush()
    return 0


def _check_eps(eps):
    if not 0.0 < eps < 1.0:
        raise ValueError(f"--eps must be in (0, 1), got {eps}")


def cmd_ortho(args):
    _check_eps(args.eps)
    A = as_matrix(_load_matrix(args.matrix, args.matrix_seed))
    m, n = A.shape
    dims = _resolve_sketch_dims(args, n, m)
    eps = args.eps
    bound_two = eps / (1.0 - eps)
    bound_fro = np.sqrt(n) * bound_two

    out = _Output(
        ["s", "fro_loss", "two_loss", "time_s"],
        args.out,
        raw_columns=["s", "rep", "fro_loss", "two_loss", "time_s"],
        raw=args.raw,
    )
    seeds = _seeds(args.seed, len(dims) * args.reps)
    violations = 0
    eye = np.eye(n)
    for si, s in enumerate(dims):
        fro = np.zeros(args.reps)
        two = np.zeros(args.reps)
        secs = np.zeros(args.reps)
        for rep in range(args.reps):
            op = build_sketch(args.sketch, s, m, seeds[si * args.reps + rep])
            t0 = time.perf_counter()
            f = sts_svd(A, op)
            secs[rep] = time.perf_counter() - t0
            G = f.W.T @ f.W - eye[: f.r, : f.r]
            fro[rep] = np.linalg.norm(G)
            two[rep] = np.linalg.norm(G, 2)
            if two[rep] > bound_two or fro[rep] > bound_fro:
                violations += 1
            out.add_raw(
                {"s": s, "rep": rep, "fro_loss": fro[rep], "two_loss": two[rep],
                 "time_s": secs[rep]}
            )
        out.add(
            {"s": s, "fro_loss": fro.mean(), "two_loss": two.mean(),
             "time_s": secs.mean()}
        )
    out.comment(
        f"asserted_eps={eps:g} bound_two={bound_two:.6g} bound_fro={bound_fro:.6g} "
        f"violations={violations}"
    )
    out.meta = {
        "command": "ortho", "matrix": args.matrix, "sketch": args.sketch,
        "s_list": dims, "reps": args.reps, "seed": args.seed,
        "asserted_eps": eps, "bound_two": bound_two, "bound_fro": bound_fro,
        "violations": violations,
    }
    out.flush()
    if args.strict and violations > 0:
        print(f"ortho: {violations} bound violations at eps={eps:g}", file=sys.stderr)
        return 4
    return 0


def cmd_nearest(args):
    _check_eps(args.eps)
    A = as_matrix(_load_matrix(args.matrix, args.matrix_seed))
    m, n = A.shape
    dims = _resolve_sketch_dims(args, n, m)
    Ad = to_dense(A)

    t0 = time.perf_counter()
    T = nearest_orthogonal(A).P
    time_T = time.perf_counter() - t0
    dist_AT = spectral_norm(Ad - T)
    # For full-column-rank A the ranges of T, T - Q_T, and A - T all lie in
    # Range(A), so one basis serves every distortion measurement.
    basis = range_basis(A, T)
    # The sandwich is asserted at the user's eps (default 0.5), matching the
    # probabilistic reading under which the reference tables are stated; the
    # measured per-repetition distortion lands in the raw dump.
    factor = args.eps / (1.0 - args.eps)
    blowup = (1.0 + args.eps) / (1.0 - args.eps)

    out = _Output(
        ["s", "dist_A_P_2", "dist_P_T_2", "time_P_s", "sandwich_pass"],
        args.out,
        raw_columns=[
            "s", "rep", "dist_A_P_2", "dist_P_T_2", "time_P_s",
            "epsilon_emp", "sandwich_pass",
        ],
        raw=args.raw,
    )
    out.comment(f"time_T_s={time_T:.6f} dist_A_T_2={dist_AT:.17g}")
    seeds = _seeds(args.seed, len(dims) * args.reps)
    failures = 0
    for si, s in enumerate(dims):
        dAP = np.zeros(args.reps)
        dPT = np.zeros(args.reps)
        secs = np.zeros(args.reps)
        passes = np.zeros(args.reps, dtype=bool)
        for rep in range(args.reps):
            op = build_sketch(args.sketch, s, m, seeds[si * args.reps + rep])
            t0 = time.perf_counter()
            f = sts_svd(A, op)
            if f.r < n:
                raise NumericalError(
                    f"matrix lost column rank under sketching (r={f.r} < n={n})"
                )
            P = f.W @ f.V.T
            secs[rep] = time.perf_counter() - t0
            dAP[rep] = spectral_norm(Ad - P)
            dPT[rep] = spectral_norm(P - T)
            eps = empirical_epsilon(op, basis).epsilon_emp
            ok = (dist_AT - factor <= dAP[rep] + 1e-10) and (
                dAP[rep] <= blowup * dist_AT + factor + 1e-10
            )
            passes[rep] = ok
            if not ok:
                failures += 1
            out.add_raw(
                {"s": s, "rep": rep, "dist_A_P_2": dAP[rep], "dist_P_T_2": dPT[rep],
                 "time_P_s": secs[rep], "epsilon_emp": eps, "sandwich_pass": ok}
            )
        out.add(
            {"s": s, "dist_A_P_2": dAP.mean(), "dist_P_T_2": dPT.mean(),
             "time_P_s": secs.mean(), "sandwich_pass": bool(passes.all())}
        )
    out.meta = {
        "command": "nearest", "matrix": args.matrix, "sketch": args.sketch,
        "s_list": dims, "reps": args.reps, "seed": args.seed,
        "asserted_eps": args.eps, "time_T_s": time_T,
        "dist_A_T_2": float(dist_AT), "sandwich_failures": failures,
    }
    out.flush()
    if args.strict and failures > 0:
        print(f"nearest: {failures} sandwich violations", file=sys.stderr)
        return 4
    return 0


def cmd_gen(args):
    if args.generator == "cauchy":
        X = gen_cauchy(CauchySpec(n=args.n))
    else:
        X = gen_sparse_conditioned(
            args.m, args.n, args.density, args.kappa, args.seed
        )
    write_matrix_market(X, args.out, comment=f"sketchsvd gen {args.generator}")
    return 0


def _add_common(p):
    p.add_argument("--matrix", help="cauchy:N | sprand:M,N,D,K | randn:M,N | file.mtx")
    p.add_argument("--sketch", choices=KINDS, default=None)
    p.add_argument("--s", default=None, help="comma list; integers or Kn multiples")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--raw", action="store_true")
    p.add_argument("--xl", action="store_true")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--preset", choices=["desk", "xl"], default=None)


def _parser():
    parser = argparse.ArgumentParser(
        prog="sketchsvd",
        description="sketch-based spectra, orthogonality audits, and "
        "nearest-orthogonal-matrix experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "ortho", "nearest"):
        _add_common(sub.add_parser(name))
    g = sub.add_parser("gen", help="write a generated matrix as Matrix Market")
    g.add_argument("generator", choices=["cauchy", "sprand"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, default=None)
    g.add_argument("--density", type=float, default=0.01)
    g.add_argument("--kappa", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    return parser


def _apply_preset(args):
    if args.preset is None:
        if args.reps is None:
            args.reps = 50
        if args.sketch is None:
            args.sketch = "srtt"
        return
    preset = PRESETS[(args.command, args.preset)]
    if args.preset in _XL_PRESETS and not args.xl:
        raise ValueError(
            f"preset '{args.preset}' is full-scale; pass --xl to confirm"
        )
    if args.matrix is None:
        if preset["matrix"] is None:
            raise ValueError(
                f"preset '{args.preset}' for {args.command} needs --matrix "
                "pointing at the externally supplied collection file"
            )
        args.matrix = preset["matrix"]
    if args.sketch is None:
        args.sketch = preset["sketch"]
    if args.s is None:
        args.s = preset["s"]
    if args.reps is None:
        args.reps = preset["reps"]


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "gen":
            if args.generator == "sprand" and args.m is None:
                raise ValueError("gen sprand requires --m")
            return cmd_gen(args)
        _apply_preset(args)
        if args.matrix is None:
            raise ValueError(f"{args.command} requires --matrix or --preset")
        if args.raw and args.out is None:
            raise ValueError("--raw requires --out")
        args.matrix_seed = _seeds(args.seed, 1)[0]
        handler = {
            "spectrum": cmd_spectrum,
            "ortho": cmd_ortho,
            "nearest": cmd_nearest,
        }[args.command]
        return handler(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main(argv=None))


if __name__ == "__main__":
    entrypoint()
