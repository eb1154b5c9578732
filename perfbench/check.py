"""Correctness of a table's outputs.

The outputs of every table in a run must agree exactly (same inputs, same
seeds).  The first table's non-time outputs are checked against reference
values recomputed here through a separate route: the materialized operator
(``SketchOperator.materialize``, the package's own test oracle), LAPACK
SVD/QR, and triangular solves, never the package's apply, Jacobi kernel or
back-product.  Values agree when they are within ``RTOL`` of the largest
value of their column.

Bounds are also checked deterministically at the distortion measured here
over Range(A).  Where a bound is evaluated at the measured ``epsilon_emp``
(the orthogonality loss ``eps / (1 - eps)`` of ``ortho`` and of the library
flow's ``orthogonality_report``), that distortion must be below 1: at or
above 1 the bounds pass trivially.  The ``nearest`` CLI asserts its sandwich
at ``--eps``, and its smallest sketch (s = 2n) often measures eps >= 1; there
the sandwich is checked again at the measured eps wherever it is below 1.
"""

import numpy as np
import scipy.linalg

RTOL = 1e-8
SLACK = 1e-10

# Output columns that hold wall times; they are not compared.
TIME_COLUMNS = {"time_s", "time_P_s", "time_T_s"}


def non_time(rows):
    return [{k: v for k, v in row.items() if k not in TIME_COLUMNS} for row in rows]


def _agree(name, got, want, problems):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = max(float(np.max(np.abs(want))), np.finfo(float).tiny)
    err = float(np.max(np.abs(got - want))) / scale
    if not err <= RTOL:
        problems.append(f"{name}: relative error {err:.3e} > {RTOL:g}")


def _operator(sketchops, op_params):
    """Dense (s, m) matrix of the operator the table built."""
    return sketchops.build_sketch(*op_params).materialize()


def _epsilon(SU):
    sv = np.linalg.svd(SU, compute_uv=False)
    return max(sv[0] ** 2 - 1.0, 1.0 - sv[-1] ** 2, 0.0)


def _range(A):
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    return U[:, s > max(A.shape) * np.finfo(float).eps * s[0]]


def _sketch_orthonormal(A, SA):
    """``A R^-1`` for the QR ``S A = Q R``: Range(A), orthonormal sketch.

    It differs from the factorization's W by an orthogonal n x n factor on
    the right, which leaves the norms of ``W^T W - I`` unchanged.
    """
    _, R = np.linalg.qr(SA)
    return scipy.linalg.solve_triangular(R, A.T, trans="T").T


def _loss(W):
    G = W.T @ W - np.eye(W.shape[1])
    return np.linalg.norm(G), np.linalg.norm(G, 2)


def check_ortho(sketchops, A, ops, out, problems):
    raw = out["raw"]
    if len(raw) != len(ops):
        problems.append(f"{len(raw)} raw rows for {len(ops)} operators")
        return 0
    Ad = A.toarray()
    U = _range(Ad)
    for i, (row, op_params) in enumerate(zip(raw, ops)):
        if int(row["s"]) != op_params[1]:
            problems.append(f"row {i}: s={row['s']} but operator s={op_params[1]}")
        S = _operator(sketchops, op_params)
        fro, two = _loss(_sketch_orthonormal(Ad, (A.T @ S.T).T))
        _agree(f"row {i} fro_loss", float(row["fro_loss"]), fro, problems)
        _agree(f"row {i} two_loss", float(row["two_loss"]), two, problems)
        eps = _epsilon(S @ U)
        if not eps < 1.0:
            problems.append(f"row {i}: epsilon_emp {eps:.3f} >= 1")
        elif two > eps / (1.0 - eps) + SLACK:
            problems.append(f"row {i}: loss {two:.3e} above eps/(1-eps) at eps={eps:.3f}")
    return out["meta"]["violations"]


def _sandwich(dist_AT, dist_AP, eps):
    factor = eps / (1.0 - eps)
    blowup = (1.0 + eps) / (1.0 - eps)
    return dist_AT - factor <= dist_AP + SLACK and dist_AP <= blowup * dist_AT + factor + SLACK


def check_nearest(sketchops, A, ops, out, problems):
    raw = out["raw"]
    if len(raw) != len(ops):
        problems.append(f"{len(raw)} raw rows for {len(ops)} operators")
        return 0
    Ua, _, Vta = np.linalg.svd(A, full_matrices=False)
    T = Ua @ Vta
    dist_AT = np.linalg.norm(A - T, 2)
    _agree("dist_A_T_2", out["meta"]["dist_A_T_2"], dist_AT, problems)
    eps_assert = out["meta"]["asserted_eps"]
    cols = {"dist_A_P_2": [], "dist_P_T_2": [], "epsilon_emp": []}
    want = {k: [] for k in cols}
    for i, (row, op_params) in enumerate(zip(raw, ops)):
        S = _operator(sketchops, op_params)
        _, theta, Vt = np.linalg.svd(S @ A, full_matrices=False)
        P = A @ (Vt.T / theta) @ Vt
        dAP = np.linalg.norm(A - P, 2)
        eps = _epsilon(S @ Ua)
        if eps < 1.0 and not _sandwich(dist_AT, dAP, eps):
            problems.append(f"row {i}: sandwich fails at measured eps={eps:.3f}")
        for k, v in (("dist_A_P_2", dAP), ("dist_P_T_2", np.linalg.norm(P - T, 2)),
                     ("epsilon_emp", eps)):
            cols[k].append(float(row[k]))
            want[k].append(v)
        ok = _sandwich(dist_AT, dAP, eps_assert)
        if (row["sandwich_pass"] == "true") != ok:
            problems.append(f"row {i}: sandwich_pass={row['sandwich_pass']}, reference {ok}")
    for k in cols:
        _agree(k, cols[k], want[k], problems)
    return out["meta"]["sandwich_failures"]


def check_library(sketchops, A, ops, out, problems):
    reps = [r for r in out["reps"] if "error" not in r]
    if len(reps) != len(ops):
        problems.append(f"{len(reps)} repetitions for {len(ops)} operators")
        return 0
    U = _range(A)
    violations = 0
    for i, (rep, op_params) in enumerate(zip(reps, ops)):
        S = _operator(sketchops, op_params)
        SA = S @ A
        _agree(f"rep {i} theta", rep["theta"], np.linalg.svd(SA, compute_uv=False), problems)
        eps = _epsilon(S @ U)
        _agree(f"rep {i} epsilon_emp", rep["eps"], eps, problems)
        if not rep["eps"] < 1.0:
            problems.append(f"rep {i}: epsilon_emp {rep['eps']:.3f} >= 1")
        fro, two = _loss(_sketch_orthonormal(A, SA))
        lhs = {bound_id: value for bound_id, value, _, _ in rep["reports"]}
        _agree(f"rep {i} gram_defect_two", lhs.get("gram_defect_two", np.nan), two, problems)
        _agree(f"rep {i} gram_defect_fro", lhs.get("gram_defect_fro", np.nan), fro, problems)
        if not all(passed for *_, passed in rep["reports"]):
            violations += 1
    return violations
