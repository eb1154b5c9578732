"""The LAPACK bindings of ``sketchsvd._lapack``: their failure mapping, and
agreement of numpy's OpenBLAS with scipy's wrappers, the path taken where
numpy's library does not export the routines."""

import numpy as np
import pytest

from sketchsvd import (
    NumericalError,
    RankDeficiencyError,
    ShapeError,
    _lapack,
    build_sketch,
    jacobi_svd,
    nearest_sandwich_report,
    range_basis,
    sketched_qr,
)

_OPENBLAS = _lapack.routine("LAPACKE_dgesdd") is not None


@pytest.mark.skipif(not _OPENBLAS, reason="numpy's library exports no LAPACKE")
def test_rejected_argument_names_routine_and_argument():
    # LAPACKE reports a NaN in its matrix argument (the 5th of dgesdd) as
    # an illegal value
    with pytest.raises(NumericalError, match="dgesdd rejected its argument 5"):
        _lapack.gesdd(np.array([[np.nan]]))


def test_trsm_needs_f_ordered_b():
    with pytest.raises(ValueError, match="F-ordered"):
        _lapack.trsm(np.eye(3), np.ones((5, 3)))


def _inputs():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((300, 12))
    rankdef = X.copy()
    rankdef[:, 5] = rankdef[:, 2] - rankdef[:, 9]
    return {
        "graded": np.asfortranarray(X * np.logspace(0, -10, 12)),
        "rank-deficient": np.asfortranarray(rankdef),
        "wide": np.asfortranarray(X[:8]),
        "C-ordered": np.ascontiguousarray(X),
    }


def _close(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= (
        1e-13 * np.abs(b).max(initial=0.0))


def _results(A):
    """What the four entry points give on A: arrays to compare, or the
    class of the error they raise."""
    out = {}
    f = jacobi_svd(A)
    out["jacobi_svd"] = [f.sigma, (f.U * f.sigma) @ f.V.T, f.V.T @ f.V]
    U = range_basis(A)
    out["range_basis"] = [U @ U.T]
    op = build_sketch("gaussian", min(4 * A.shape[1], A.shape[0]), A.shape[0], seed=3)

    def sandwich():
        r = nearest_sandwich_report(A, op)
        return [[r.dist_sketched, r.dist_classical, r.dist_between, r.epsilon_emp]]

    for name, fn in (("sketched_qr", lambda: list(sketched_qr(A, op))),
                     ("nearest", sandwich)):
        try:
            out[name] = fn()
        except (RankDeficiencyError, ShapeError) as exc:
            out[name] = type(exc)
    return out


@pytest.mark.parametrize("kind", list(_inputs()))
@pytest.mark.filterwarnings("ignore::sketchsvd.SketchRankWarning")
def test_scipy_path_agrees_with_openblas_path(monkeypatch, kind):
    A = _inputs()[kind]
    native = _results(A)
    # the loader reports no library, so every routine is scipy's wrapper
    monkeypatch.setattr(_lapack, "_openblas", lambda: None)
    assert _lapack.routine("LAPACKE_dgejsv") is None
    fallback = _results(A)
    assert native.keys() == fallback.keys()
    for name, value in native.items():
        if isinstance(value, type):
            assert fallback[name] is value, name
        else:
            assert all(_close(a, b) for a, b in zip(value, fallback[name])), name
    if kind in ("graded", "C-ordered"):
        assert not any(isinstance(v, type) for v in native.values())
