"""The LAPACK and BLAS routines of the package, from the OpenBLAS that numpy
bundles.

numpy's wheels link a 64-bit-integer OpenBLAS that exports its LAPACKE and
CBLAS interfaces under a ``scipy_`` prefix and a ``64_`` suffix.  Taking
``dgejsv``, ``dgesdd`` and ``dtrsm`` from it leaves ``scipy.linalg``, and
the second OpenBLAS that scipy links, unloaded: one BLAS thread pool per
process.  Each routine runs column-major on an F-ordered float64 array,
with the job arguments ``scipy.linalg`` passes it.
Where numpy's library does not export a routine (numpy 1.x wheels, MKL or
Accelerate builds), that routine is ``scipy.linalg``'s wrapper, imported on
first use; the path follows from the library alone.

A positive LAPACK ``info`` raises :class:`~sketchsvd.errors.NumericalError`
from :func:`gejsv` and :func:`gesdd`; a negative one, an argument LAPACK
rejected (LAPACKE also reports a NaN in an input matrix so), raises
``NumericalError`` naming the routine and the argument.
"""

import ctypes
import functools
import glob
import os

import numpy as np

from .errors import NumericalError, ShapeError

_LAYOUT = 102  # LAPACK_COL_MAJOR, and CBLAS's CblasColMajor
_RIGHT, _UPPER, _NO_TRANS, _NON_UNIT = 142, 121, 111, 131  # CBLAS enums
_I, _P = ctypes.c_int64, ctypes.c_void_p  # lapack_int and blasint; double *
_C, _E = ctypes.c_char, ctypes.c_int  # job characters; CBLAS enums

# name -> (restype, argtypes) of each routine the package calls
_SIGNATURES = {
    "openblas_get_num_threads": (ctypes.c_int, []),
    "LAPACKE_dgejsv": (_I, [ctypes.c_int] + [_C] * 6
                       + [_I, _I, _P, _I, _P, _P, _I, _P, _I, _P, _P]),
    "LAPACKE_dgesdd": (_I, [ctypes.c_int, _C, _I, _I, _P, _I, _P, _P, _I, _P, _I]),
    "cblas_dtrsm": (None, [_E] * 5 + [_I, _I, ctypes.c_double, _P, _I, _P, _I]),
}


def _symbol(name):
    return f"scipy_{name}64_"


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS as a ``ctypes.CDLL``, with the signature of
    every routine in ``_SIGNATURES`` it exports set, or None where numpy
    links another BLAS.  Opened on first use, not on import."""
    libs = os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")
    for lib in sorted(glob.glob(libs)):
        handle = ctypes.CDLL(lib)
        if not hasattr(handle, _symbol("openblas_get_num_threads")):
            continue
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(handle, _symbol(name), None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, argtypes
        return handle
    return None


def routine(name):
    """numpy's OpenBLAS export of ``name`` (a key of ``_SIGNATURES``), or
    None where the library or the export is missing."""
    lib = _openblas()
    return None if lib is None else getattr(lib, _symbol(name), None)


def _info(name, info):
    """``info`` of LAPACK routine ``name``, once it is not negative."""
    if info < 0:
        raise NumericalError(f"LAPACK {name} rejected its argument {-info}")
    return info


def _dgejsv(X):
    """``(sva, U, V, stat, info)`` of dgejsv on a copy of a p x q X, p >= q:
    JOBA='C', JOBU='U', JOBV='V', JOBR='R', JOBT='N', JOBP='P'."""
    fn = routine("LAPACKE_dgejsv")
    if fn is None:
        from scipy.linalg.lapack import dgejsv

        sva, U, V, stat, _, info = dgejsv(X, joba=0, jobu=0, jobv=0, jobr=1, jobp=1)
        return sva, U, V, stat, info
    A = np.array(X, dtype=np.float64, order="F")
    p, q = A.shape
    sva, stat, istat = np.empty(q), np.empty(7), np.empty(3, dtype=np.int64)
    U, V = np.empty((p, q), order="F"), np.empty((q, q), order="F")
    info = fn(_LAYOUT, b"C", b"U", b"V", b"R", b"N", b"P", p, q, A.ctypes.data, p,
              sva.ctypes.data, U.ctypes.data, p, V.ctypes.data, q,
              stat.ctypes.data, istat.ctypes.data)
    return sva, U, V, stat, info


def gejsv(X):
    """``(sigma, U, V)`` of the SVD ``X = U diag(sigma) V^T`` of a finite
    p x q X with p >= q >= 1, by dgejsv (see :func:`_dgejsv`)."""
    if not X.shape[0] >= X.shape[1] >= 1:
        raise ShapeError(f"dgejsv needs p >= q >= 1, got {X.shape}")
    sva, U, V, stat, info = _dgejsv(X)
    if _info("dgejsv", info):
        raise NumericalError(
            f"one-sided Jacobi (LAPACK dgejsv) did not converge (info={info})"
        )
    # dgejsv may return the singular values scaled to avoid overflow
    return sva * (stat[0] / stat[1]), U, V


def gesdd(X):
    """``(U, s)`` of the thin SVD ``X = U diag(s) V^T`` of a finite X, by
    dgesdd with JOBZ='S' on an F-ordered copy of X, as
    ``scipy.linalg.svd(X, full_matrices=False)`` calls it."""
    if not X.size:
        return np.zeros((X.shape[0], min(X.shape))), np.zeros(0)
    A = np.array(X, dtype=np.float64, order="F")
    fn = routine("LAPACKE_dgesdd")
    if fn is None:
        from scipy.linalg.lapack import dgesdd

        U, s, _, info = dgesdd(A, compute_uv=1, full_matrices=0, overwrite_a=1)
    else:
        m, n = A.shape
        k = min(m, n)
        s, U = np.empty(k), np.empty((m, k), order="F")
        Vt = np.empty((k, n), order="F")
        info = fn(_LAYOUT, b"S", m, n, A.ctypes.data, m, s.ctypes.data,
                  U.ctypes.data, m, Vt.ctypes.data, k)
    if _info("dgesdd", info):
        raise NumericalError(f"SVD (LAPACK dgesdd) did not converge (info={info})")
    return U, s


def trsm(R, B):
    """``B R^-1`` for an n x n upper triangular R, by dtrsm, written over
    the F-ordered float64 m x n B, which is returned."""
    if not (B.flags.f_contiguous and B.dtype == np.float64 and B.ndim == 2):
        raise ValueError("trsm overwrites B, which must be 2-d, F-ordered float64")
    if R.shape != (B.shape[1],) * 2:
        raise ShapeError(f"dtrsm needs an n x n R for n columns of B, got "
                         f"{R.shape} and {B.shape}")
    fn = routine("cblas_dtrsm")
    if fn is None:
        from scipy.linalg.blas import dtrsm

        return dtrsm(1.0, R, B, side=1, overwrite_b=1)
    R = np.asfortranarray(R, dtype=np.float64)
    m, n = B.shape
    fn(_LAYOUT, _RIGHT, _UPPER, _NO_TRANS, _NON_UNIT, m, n, 1.0, R.ctypes.data,
       max(1, n), B.ctypes.data, max(1, m))
    return B
