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
              distortion.  ``time_s`` covers the sketch, its small SVD and
              the factor's Gram matrix, summed over row blocks of A; the
              m x n factor itself is never formed.
``nearest``   distances of the sketch-orthogonal and classical nearest
              matrices (columns: s, dist_A_P_2, dist_P_T_2, time_P_s,
              sandwich_pass), with the sandwich checked at an asserted
              distortion and again at each repetition's measured one.
              ``time_P_s`` covers the sketch and its small SVD; the
              m x n ``P`` is never formed.  The meta record's
              ``time_T_s`` covers the R of A, summed over row blocks, and
              the small SVD of R; only the explicit route adds an
              orthonormal basis of Range(A), for its certificate.
``gen``       write the matrix that ``--matrix`` and ``--seed`` name (seeded
              as below) to the Matrix Market file ``--out``.

Conventions
-----------
* Matrix sources: ``cauchy:N``, ``sprand:M,N,DENSITY,KAPPA``, ``randn:M,N``,
  or a Matrix Market file path; a malformed one is an input error.
* Sketch dimensions: ``--s`` takes a comma list of integers or ``Kn``
  multiples of the column count (e.g. ``2n,4n``), and ``spectrum`` takes
  one; without ``--s``, the dimension comes from ``(--eps, --delta)``.
* Seeding: the master ``--seed`` spawns children through
  ``numpy.random.SeedSequence``.  Child 0 seeds the matrix; children 1,
  2, ... seed the sketch operators, one per (sketch-dimension,
  repetition) pair in output order; ``spectrum`` seeds the start vector
  of its iterative reference spectrum from the child after those.  Every
  run is reproducible and, apart from wall-time columns, byte-identical.
* ``--out PATH`` writes the CSV plus a ``PATH.jsonl`` mirror (one ``meta``
  record, then one record per row); ``--raw`` adds ``PATH.raw.csv`` with
  per-repetition values.  Without ``--out`` the CSV goes to stdout.
* Presets: ``--preset desk`` runs at desk scale, and full-scale presets
  are gated behind ``--xl``; ``nearest --preset xl`` also needs the
  externally supplied collection file.  Each gaussian operator of
  ``ortho`` streams its rows through its one sparse apply and never holds
  its table, and drawing those rows dominates its time.  README.md gives
  the measured times and peaks of the presets.
* Exit codes: 0 success, 2 input error (including a matrix with no rows
  or no columns and a sketch dimension that leaves ``nearest`` without full
  column rank), 3 numerical failure
  (including a LAPACK ``LinAlgError``), 4 asserted bounds violated (only
  with ``--strict``).
"""

import argparse
import sys
import time

import numpy as np
# scipy.sparse loads its linalg submodule on first use, so only spectrum's
# reference svds pays for importing it
import scipy.sparse

from .densekernels import as_matrix, check_finite, numerical_rank, to_dense
from .errors import GenerationError, NumericalError, ShapeError
from .generators import gen_cauchy, gen_sparse_conditioned
from .matio import read_matrix_market, write_csv, write_jsonl, write_matrix_market
from .nearest import (
    _SandwichTerms, _sketched_polar, loss_bounds, sandwich_bounds,
)
from .sketchops import KINDS, EmbeddingSpec, build_sketch, sketch_dim
from .stssvd import _left_gram, _retained, sts_singular_values

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

_NO_PRESET = {"sketch": "srtt", "reps": 50}


def _randn(seed, m, n):
    if m < 1 or n < 1:
        raise GenerationError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    return np.random.default_rng(seed).standard_normal((m, n))


# Generated matrix sources: name -> (form, parameter types, generator).
_SOURCES = {
    "cauchy": ("cauchy:N", (int,), lambda seed, n: gen_cauchy(n)),
    "sprand": ("sprand:M,N,DENSITY,KAPPA", (int, int, float, float),
               lambda seed, *params: gen_sparse_conditioned(*params, seed)),
    "randn": ("randn:M,N", (int, int), _randn),
}


def _load_matrix(src, seed):
    name, colon, params = src.partition(":")
    if not (colon and name in _SOURCES):
        A = read_matrix_market(src)
    else:
        form, types, generate = _SOURCES[name]
        try:
            values = [cast(v) for cast, v in zip(types, params.split(","), strict=True)]
        except ValueError:
            raise ValueError(f"matrix source {src!r} is not of the form {form}") from None
        try:
            A = generate(seed, *values)
        # numpy's MemoryError names the shape it could not allocate
        except (GenerationError, MemoryError) as exc:
            raise GenerationError(f"matrix source {src!r} ({form}): {exc}") from None
    A = as_matrix(A)
    check_finite(A, "input matrix")
    return A


def _parse_s_list(text, n):
    out = []
    for token in text.split(","):
        token = token.strip().lower()
        try:
            if token.endswith("n"):
                out.append(int(round(float(token[:-1] or "1") * n)))
            else:
                out.append(int(token))
        except (ValueError, OverflowError):
            raise ValueError(
                f"--s takes a comma list of integers or Kn multiples, got {token!r}"
            ) from None
    return out


def _seeds(master, count):
    children = np.random.SeedSequence(master).spawn(count)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def _matrix(args):
    """The matrix ``--matrix`` names; a random one is drawn from child 0 of
    ``--seed``."""
    return _load_matrix(args.matrix, _seeds(args.seed, 1)[0])


def _setup(args):
    """The matrix of a run (see :func:`_matrix`) and its sketch dimensions
    (``--s``, or else the one that ``(--eps, --delta)`` call for).  A
    matrix with no rows or no columns has no factor to compute or audit."""
    A = _matrix(args)
    m, n = A.shape
    if m == 0 or n == 0:
        raise ShapeError(
            f"matrix needs at least one row and one column, got {m} x {n}")
    if args.s is not None:
        dims = _parse_s_list(args.s, n)
    else:
        spec = EmbeddingSpec(
            epsilon=args.eps, delta=args.delta, k=min(n, m), m=m, kind=args.sketch
        )
        dims = [sketch_dim(spec)]
    return A, dims


def _repetitions(args, A, dims, rep):
    """Run ``rep(op)`` for each (s, repetition) pair on an operator built
    from that pair's child seed; yield its record tagged with ``s`` and
    ``rep``.  The operator is dropped before the next one is built.

    Child 0 of the master seed belongs to the matrix (see :func:`_setup`);
    the pairs take children 1, 2, ... in order.
    """
    seeds = iter(_seeds(args.seed, 1 + len(dims) * args.reps)[1:])
    for s in dims:
        for r in range(args.reps):
            # No name here holds the operator, so it is freed when rep returns.
            record = rep(build_sketch(args.sketch, s, A.shape[0], next(seeds)))
            yield {"s": s, "rep": r, **record}


def _means(raw, dims, reps, columns):
    """One row per sketch dimension: the mean of each column over its
    repetitions, or ``all()`` for a ``*_pass`` flag."""
    rows = []
    for si, s in enumerate(dims):
        group = raw[si * reps : (si + 1) * reps]
        row = {"s": s}
        for c in columns:
            values = [r[c] for r in group]
            row[c] = all(values) if c.endswith("_pass") else np.mean(values, axis=0)
        rows.append(row)
    return rows


def _timed(fn, *args):
    """``fn(*args)`` and the seconds it took."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _write(args, columns, rows, meta, comments, raw_columns, raw_rows=()):
    """The CSV to ``--out`` (stdout without it), its ``.jsonl`` mirror (one
    ``meta`` record, then one per row) and, with ``--raw``, ``.raw.csv``."""
    write_csv(args.out or sys.stdout, columns, rows, comments)
    if args.out is None:
        return
    write_jsonl(
        f"{args.out}.jsonl",
        [{"type": "meta", **meta}]
        + [{"type": "row", **{c: row[c] for c in columns}} for row in rows],
    )
    if args.raw:
        write_csv(f"{args.out}.raw.csv", raw_columns, raw_rows)


def _write_table(args, dims, raw, columns, raw_columns, meta, comment, failures,
                 message):
    """Write the per-``s`` means of ``columns``, the common meta keys then
    ``meta``, and the ``raw_columns`` of each repetition; exit code 4 and
    ``message`` under ``--strict`` when ``failures`` is nonzero."""
    meta = {
        "command": args.command, "matrix": args.matrix, "sketch": args.sketch,
        "s_list": dims, "reps": args.reps, "seed": args.seed,
        "asserted_eps": args.eps, **meta,
    }
    _write(args, ["s"] + columns, _means(raw, dims, args.reps, columns), meta,
           [comment], ["s", "rep"] + raw_columns, raw)
    if args.strict and failures > 0:
        print(f"{args.command}: {message}", file=sys.stderr)
        return 4
    return 0


def cmd_spectrum(args):
    A, dims = _setup(args)
    if len(dims) != 1:
        raise ValueError(f"spectrum takes one sketch dimension, got --s {args.s}")
    m, n = A.shape
    s = dims[0]
    ell = min(40, s, min(m, n))
    columns = ["index", "sigma_full", "theta", "sigma_reference_method", "time_ms"]
    raw_columns = ["rep", "index", "theta", "time_ms"]

    sigma_full, time_full = _timed(lambda: np.linalg.svd(to_dense(A), compute_uv=False))
    if numerical_rank(sigma_full) == 0:
        meta = {"command": "spectrum", "r": 0, "matrix": args.matrix}
        _write(args, columns, [], meta, ["r=0: matrix is zero, no spectrum rows"],
               raw_columns)
        return 0

    k_ref = min(ell, min(m, n) - 1)
    # The child past the repetitions' children (1 .. reps): no other stream.
    rng = np.random.default_rng(_seeds(args.seed, 2 + args.reps)[-1])

    def reference():
        ref = np.full(ell, np.nan)
        if k_ref >= 1:
            linalg = scipy.sparse.linalg
            # svds works on products with A^T A, which overflow near 1e300:
            # it runs on A scaled exactly by a power of two, to max |A| < 1
            e = np.frexp(max(A.max(), -A.min()))[1]
            try:
                # an overflowing product raises, where it would print a
                # RuntimeWarning and leave an inf
                with np.errstate(over="raise"):
                    values = linalg.svds(A * np.ldexp(1.0, -e), k=k_ref,
                                         v0=rng.standard_normal(min(m, n)),
                                         return_singular_vectors=False)
            except (linalg.ArpackError, FloatingPointError) as exc:
                raise NumericalError(f"reference svds: {exc}") from None
            ref[:k_ref] = np.sort(np.ldexp(values, e))[::-1]
        return ref

    ref_padded, time_ref = _timed(reference)

    def rep(op):
        # sts_singular_values returns min(s, n) >= ell values
        (theta, _), secs = _timed(sts_singular_values, A, op)
        return {"theta": theta[:ell], "time_ms": 1e3 * secs}

    raw = list(_repetitions(args, A, [s], rep))
    mean = _means(raw, [s], args.reps, ["theta", "time_ms"])[0]
    mean_ms = float(mean["time_ms"])
    rows = [
        {"index": i + 1, "sigma_full": sigma_full[i], "theta": mean["theta"][i],
         "sigma_reference_method": ref_padded[i], "time_ms": mean_ms}
        for i in range(ell)
    ]
    meta = {
        "command": "spectrum", "matrix": args.matrix, "sketch": args.sketch,
        "s": s, "reps": args.reps, "seed": args.seed, "ell": ell,
        "time_full_svd_s": time_full, "time_reference_s": time_ref,
        "mean_sketch_time_ms": mean_ms,
    }
    comment = f"time_full_svd_s={time_full:.6f} time_reference_s={time_ref:.6f}"
    raw_rows = [
        {**r, "index": i + 1, "theta": r["theta"][i]} for r in raw for i in range(ell)
    ]
    _write(args, columns, rows, meta, [comment], raw_columns, raw_rows)
    return 0


def _gram_defect(A, op):
    """``W^T W - I`` for the sketch-orthonormal left factor W of
    ``sts_svd(A, op)``, summed over row blocks of A without forming W."""
    theta, V = _retained(*sts_singular_values(A, op), op.s, A.shape[1])
    return _left_gram(A, theta, V) - np.eye(theta.size)


def cmd_ortho(args):
    A, dims = _setup(args)
    eps = args.eps

    def rep(op):
        G, secs = _timed(_gram_defect, A, op)
        return {"fro_loss": np.linalg.norm(G), "two_loss": np.linalg.norm(G, 2),
                "time_s": secs, "rank": len(G)}

    raw = list(_repetitions(args, A, dims, rep))
    # W has the retained rank's columns, which may be fewer than A's
    bounds = [loss_bounds(r["two_loss"], r["fro_loss"], r["rank"], eps) for r in raw]
    violations = sum(not (two.passed and fro.passed) for two, fro in bounds)
    bound_two, bound_fro = (b.rhs for b in bounds[0])
    columns = ["fro_loss", "two_loss", "time_s"]
    meta = {"bound_two": bound_two, "bound_fro": bound_fro, "violations": violations}
    comment = (
        f"asserted_eps={eps:g} bound_two={bound_two:.6g} bound_fro={bound_fro:.6g} "
        f"violations={violations}"
    )
    return _write_table(args, dims, raw, columns, columns, meta, comment, violations,
                        f"{violations} bound violations at eps={eps:g}")


def cmd_nearest(args):
    A, dims = _setup(args)

    terms, time_T = _timed(_SandwichTerms, A)
    dist_AT = terms.dist_AT

    def rep(op):
        sketched, secs = _timed(_sketched_polar, A, op)
        # A has full column rank here (_sketched_polar checked it), so the
        # report's certificate is over Range(A) = Range(T).
        report = terms.report(op, sketched)
        # The sandwich is asserted at the user's eps (default 0.5), matching
        # the probabilistic reading under which the reference tables are
        # stated.
        return {"dist_A_P_2": report.dist_sketched, "dist_P_T_2": report.dist_between,
                "time_P_s": secs, "epsilon_emp": report.epsilon_emp,
                "sandwich_pass": all(b.passed for b in sandwich_bounds(
                    report.dist_sketched, dist_AT, args.eps)),
                "sandwich_pass_emp": report.passed}

    raw = list(_repetitions(args, A, dims, rep))
    failures = sum(not r["sandwich_pass"] for r in raw)
    # Each repetition is also checked at its own measured distortion; at 1
    # or more the bounds are vacuous and the repetition is not certified.
    certified = [r for r in raw if r["epsilon_emp"] < 1.0]
    failures_emp = sum(not r["sandwich_pass_emp"] for r in certified)
    uncertified = len(raw) - len(certified)
    columns = ["dist_A_P_2", "dist_P_T_2", "time_P_s", "sandwich_pass"]
    meta = {"time_T_s": time_T, "dist_A_T_2": dist_AT, "sandwich_failures": failures,
            "sandwich_failures_emp": failures_emp, "uncertified": uncertified}
    return _write_table(
        args, dims, raw, columns,
        ["dist_A_P_2", "dist_P_T_2", "time_P_s", "epsilon_emp", "sandwich_pass"],
        meta,
        f"time_T_s={time_T:.6f} dist_A_T_2={dist_AT:.17g} "
        f"sandwich_failures_emp={failures_emp} uncertified={uncertified}",
        failures, f"{failures} sandwich violations",
    )


def cmd_gen(args):
    write_matrix_market(_matrix(args), args.out,
                        comment=f"sketchsvd gen --matrix {args.matrix} --seed {args.seed}")
    return 0


def _add_matrix(p, required):
    default = "" if required else " (default: the preset's)"
    p.add_argument("--matrix", required=required,
                   help="matrix source: cauchy:N | sprand:M,N,DENSITY,KAPPA | "
                   f"randn:M,N | file.mtx{default}")
    p.add_argument("--seed", type=_seed, default=0,
                   help="master seed, a non-negative integer, whose child 0 "
                   "seeds a random matrix source (default 0)")


def _seed(text):
    """The integer ``text`` names, checked to be non-negative, as
    ``numpy.random.SeedSequence`` needs: the type of ``--seed``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _unit_interval(text):
    """The float ``text`` names, checked to lie in (0, 1): the type of
    ``--eps`` and ``--delta``."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def _add_common(p, strict):
    _add_matrix(p, required=False)
    p.add_argument("--sketch", choices=KINDS, default=None,
                   help="sketch kind (default: the preset's, else srtt)")
    p.add_argument("--s", default=None,
                   help="sketch dimensions, a comma list of integers or Kn "
                   "multiples of the column count (default: the preset's, "
                   "else the s rule at --eps and --delta)")
    p.add_argument("--eps", type=_unit_interval, default=0.5,
                   help="asserted distortion, in (0, 1), for the bound checks "
                   "and the target of the s rule (default 0.5)")
    p.add_argument("--delta", type=_unit_interval, default=1e-6,
                   help="failure probability, in (0, 1), the s rule targets "
                   "(default 1e-6)")
    p.add_argument("--reps", type=int, default=None,
                   help="repetitions per sketch dimension, each with its own "
                   "operator (default: the preset's, else 50)")
    p.add_argument("--out", default=None,
                   help="CSV path, also written as PATH.jsonl (default: CSV "
                   "to stdout)")
    p.add_argument("--raw", action="store_true",
                   help="also write per-repetition values to PATH.raw.csv "
                   "(needs --out)")
    p.add_argument("--xl", action="store_true",
                   help="confirm a full-scale preset (--preset xl)")
    if strict:
        p.add_argument("--strict", action="store_true",
                       help="exit 4 when a checked bound is violated (default: "
                       "count violations in the output)")
    p.add_argument("--preset", choices=["desk", "xl"], default=None,
                   help="fill unset options from the desk-scale or full-scale "
                   "preset (default: none)")


# Subcommand -> the line ``sketchsvd --help`` lists it with.
_COMMANDS = {
    "spectrum": "sketch singular values against full and iterative reference "
                "spectra",
    "ortho": "orthogonality loss of the sketch-orthonormal left factor, bounds "
             "checked at --eps",
    "nearest": "distances to the sketch-orthogonal and classical nearest "
               "matrices, sandwich checked at --eps",
    "gen": "write the matrix --matrix names as Matrix Market",
}


def _parser():
    parser = argparse.ArgumentParser(
        prog="sketchsvd",
        description="sketch-based spectra, orthogonality audits, and "
        "nearest-orthogonal-matrix experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "ortho", "nearest"):
        _add_common(sub.add_parser(name, help=_COMMANDS[name]),
                    strict=name != "spectrum")
    g = sub.add_parser("gen", help=_COMMANDS["gen"])
    _add_matrix(g, required=True)
    g.add_argument("--out", required=True, help="Matrix Market file to write")
    return parser


def _apply_preset(args):
    """Fill each option left unset from the preset, or without one from
    ``_NO_PRESET``."""
    if args.preset == "xl" and not args.xl:
        raise ValueError(
            f"preset '{args.preset}' is full-scale; pass --xl to confirm"
        )
    preset = PRESETS[(args.command, args.preset)] if args.preset else _NO_PRESET
    if args.preset and args.matrix is None and preset["matrix"] is None:
        raise ValueError(
            f"preset '{args.preset}' for {args.command} needs --matrix "
            "pointing at the externally supplied collection file"
        )
    for key, value in preset.items():
        if getattr(args, key) is None:
            setattr(args, key, value)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        _apply_preset(args)
        if args.matrix is None:
            raise ValueError(f"{args.command} requires --matrix or --preset")
        if args.raw and args.out is None:
            raise ValueError("--raw requires --out")
        if args.reps < 1:
            raise ValueError(f"--reps must be at least 1, got {args.reps}")
        handler = {
            "spectrum": cmd_spectrum,
            "ortho": cmd_ortho,
            "nearest": cmd_nearest,
        }[args.command]
        return handler(args)
    # LinAlgError is a ValueError, but a failed LAPACK call is numerical
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main(argv=None))


if __name__ == "__main__":
    entrypoint()
