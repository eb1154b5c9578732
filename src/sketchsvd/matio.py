"""File formats: Matrix Market reading and writing through ``scipy.io``,
and the one CSV/JSONL serializer that every table and bound report is
written through.

Matrix Market is the NIST exchange format (Boisvert, Pozo & Remington,
"The Matrix Market Exchange Formats: Initial Design", 1996).  Coordinate
and array files with a ``real`` or ``integer`` field and ``general``,
``symmetric`` or ``skew-symmetric`` symmetry are read; symmetric storage
is expanded and duplicate coordinate entries are summed; a nonzero
diagonal entry in a ``skew-symmetric`` file is a ParseError, and so is an
array file with no rows.  ``pattern``, ``complex`` and ``hermitian``
files raise UnsupportedFormatError.  Comment (``%``) and blank lines may
stand only between the header and the size line; a comment among the
entries is a ParseError.  Parse failures carry the 1-based line number
whenever scipy reports one.
"""

import json
import math
import re

import numpy as np
import scipy.io
import scipy.sparse as sp

from .densekernels import require_real
from .errors import ParseError, UnsupportedFormatError

_FIELDS = ("real", "integer")
_SYMMETRIES = ("general", "symmetric", "skew-symmetric")
# scipy's reader prefixes most messages with the line they concern.
_SCIPY_LINE = re.compile(r"Line (\d+): (.*)", re.DOTALL)


def _scipy_io(fn, path):
    """``fn(path)``, with scipy's ``ValueError`` turned into a ParseError."""
    try:
        return fn(path)
    except ValueError as exc:
        match = _SCIPY_LINE.match(str(exc))
        if match:
            raise ParseError(match[2], line=int(match[1])) from None
        raise ParseError(str(exc)) from None


def read_matrix_market(path):
    """Parse a Matrix Market file.

    Returns a float64 CSR matrix for coordinate files and a float64 dense
    ndarray for array files.
    """
    m, n, _, storage, field, symmetry = _scipy_io(scipy.io.mminfo, path)
    if storage == "array" and m == 0:
        # scipy's reader dies of a division by zero on such a file
        raise ParseError(f"array storage needs at least one row, got {m} x {n}")
    if field not in _FIELDS or symmetry not in _SYMMETRIES:
        raise UnsupportedFormatError(f"{field} {symmetry} matrices are not supported")
    if symmetry != "general" and m != n:
        # scipy does not check this: it mirrors entries outside the matrix,
        # and a non-square symmetric array file aborts the process.
        raise ParseError(f"{symmetry} storage needs a square matrix, got {m} x {n}")
    A = _scipy_io(scipy.io.mmread, path)
    if symmetry == "skew-symmetric" and A.diagonal().any():
        # The format stores only the strictly lower triangle here; scipy
        # keeps a diagonal entry and returns a matrix that is not skew.
        raise ParseError("skew-symmetric storage has a nonzero diagonal entry")
    if sp.issparse(A):
        return sp.csr_matrix(A, dtype=np.float64)
    return np.asarray(A, dtype=np.float64)


def write_matrix_market(X, path, comment=None):
    """Write a matrix in Matrix Market format.

    Sparse input is written in coordinate format, dense input in array
    format; both as ``real general`` with full float64 round-trip
    precision, to ``path`` as given.  Complex input raises
    ``PreconditionError`` and writes no file; a path that cannot be opened
    for writing raises ``OSError``.
    """
    X = require_real(X)
    # scipy returns silently from a path it cannot open, and appends
    # ".mtx" to one without it; a handle does neither
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, X, comment=comment, field="real", symmetry="general")


def format_cell(x):
    """One CSV cell: strings as they are, booleans as ``true``/``false``,
    integers in decimal, floats in ``.17g`` (exact round trip)."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_lines(path_or_file, lines):
    text = "".join(f"{line}\n" for line in lines)
    if hasattr(path_or_file, "write"):
        return path_or_file.write(text)
    with open(path_or_file, "w", newline="") as fh:
        fh.write(text)


def write_csv(path_or_file, columns, rows, comments=()):
    """Write ``# ``-prefixed comment lines, a header and one line per row
    (cells by :func:`format_cell`), with LF line ends."""
    lines = [f"# {c}" for c in comments] + [",".join(columns)]
    lines += [",".join(format_cell(row[c]) for c in columns) for row in rows]
    _write_lines(path_or_file, lines)


def _json_value(x):
    """numpy scalars as Python values, and a NaN or infinity, which JSON
    (RFC 8259) has no token for, as null."""
    x = x.item() if isinstance(x, np.generic) else x
    return None if isinstance(x, float) and not math.isfinite(x) else x


def write_jsonl(path_or_file, records):
    """Write one JSON object per line, each value by :func:`_json_value`."""
    records = [{k: _json_value(v) for k, v in r.items()} for r in records]
    _write_lines(path_or_file, [json.dumps(r, allow_nan=False) for r in records])
