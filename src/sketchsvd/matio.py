"""File formats: the Matrix Market reader/writer, and the one CSV/JSONL
serializer that every table and bound report is written through.

The Matrix Market code is hand-rolled rather than delegated so parse
failures carry 1-based line numbers.  Coordinate and array formats are
supported for real-valued general, symmetric, and skew-symmetric matrices;
duplicate coordinate entries are summed per the format's convention.
Pattern and complex fields are rejected as unsupported.
"""

import json

import numpy as np
import scipy.sparse as sp

from .densekernels import to_dense
from .errors import ParseError, UnsupportedFormatError

_HEADER_PREFIX = "%%matrixmarket"


def read_matrix_market(path):
    """Parse a Matrix Market file.

    Returns a CSR matrix for coordinate files and a dense ndarray for
    array files.  Symmetric/skew-symmetric storage is expanded; indices
    are converted from 1-based.
    """
    with open(path, "r", encoding="latin-1") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty file", line=1)

    header = lines[0].strip().lower().split()
    if len(header) != 5 or header[0] != _HEADER_PREFIX or header[1] != "matrix":
        raise ParseError(
            "expected '%%MatrixMarket matrix <format> <field> <symmetry>'",
            line=1,
        )
    fmt, field, symmetry = header[2], header[3], header[4]
    if fmt not in ("coordinate", "array"):
        raise ParseError(f"unknown format {fmt!r}", line=1)
    if field == "complex":
        raise UnsupportedFormatError("complex matrices are not supported")
    if field not in ("real", "integer"):
        raise UnsupportedFormatError(f"unsupported field {field!r}")
    if symmetry == "hermitian":
        raise UnsupportedFormatError("hermitian symmetry is not supported")
    if symmetry not in ("general", "symmetric", "skew-symmetric"):
        raise ParseError(f"unknown symmetry {symmetry!r}", line=1)

    # Skip comments and blank lines to the size line.
    idx = 1
    while idx < len(lines) and (
        lines[idx].lstrip().startswith("%") or not lines[idx].strip()
    ):
        idx += 1
    if idx >= len(lines):
        raise ParseError("missing size line", line=len(lines))

    size_parts = lines[idx].split()
    size_line = idx + 1
    if fmt == "coordinate":
        if len(size_parts) != 3:
            raise ParseError("coordinate size line needs 'rows cols nnz'", line=size_line)
        try:
            m, n, nnz = (int(p) for p in size_parts)
        except ValueError:
            raise ParseError("non-integer size entry", line=size_line) from None
        return _read_coordinate(lines, idx + 1, m, n, nnz, symmetry)
    if len(size_parts) != 2:
        raise ParseError("array size line needs 'rows cols'", line=size_line)
    try:
        m, n = (int(p) for p in size_parts)
    except ValueError:
        raise ParseError("non-integer size entry", line=size_line) from None
    return _read_array(lines, idx + 1, m, n, symmetry)


def _read_coordinate(lines, start, m, n, nnz, symmetry):
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64)
    count = 0
    for offset, raw in enumerate(lines[start:], start=start):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        if count >= nnz:
            raise ParseError(f"more than the declared {nnz} entries", line=offset + 1)
        parts = text.split()
        if len(parts) != 3:
            raise ParseError(
                f"expected 'row col value', got {len(parts)} fields", line=offset + 1
            )
        try:
            i = int(parts[0])
            j = int(parts[1])
            v = float(parts[2])
        except ValueError:
            raise ParseError(f"malformed entry {text!r}", line=offset + 1) from None
        if not (1 <= i <= m and 1 <= j <= n):
            raise ParseError(
                f"index ({i}, {j}) outside {m} x {n}", line=offset + 1
            )
        rows[count] = i - 1
        cols[count] = j - 1
        vals[count] = v
        count += 1
    if count != nnz:
        raise ParseError(
            f"declared {nnz} entries but found {count}", line=len(lines)
        )
    if symmetry in ("symmetric", "skew-symmetric"):
        off = rows != cols
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        mirrored = (cols[off], rows[off], sign * vals[off])
        rows = np.concatenate([rows, mirrored[0]])
        cols = np.concatenate([cols, mirrored[1]])
        vals = np.concatenate([vals, mirrored[2]])
    # Duplicates are summed by the sparse constructor.
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, n))


def _read_array(lines, start, m, n, symmetry):
    expected = m * n if symmetry == "general" else m * (m + 1) // 2
    if symmetry == "skew-symmetric":
        expected = m * (m - 1) // 2
    vals = np.empty(expected, dtype=np.float64)
    count = 0
    for offset, raw in enumerate(lines[start:], start=start):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        if count >= expected:
            raise ParseError(
                f"more than the expected {expected} entries", line=offset + 1
            )
        try:
            vals[count] = float(text)
        except ValueError:
            raise ParseError(f"malformed entry {text!r}", line=offset + 1) from None
        count += 1
    if count != expected:
        raise ParseError(
            f"expected {expected} entries but found {count}", line=len(lines)
        )
    A = np.zeros((m, n))
    if symmetry == "general":
        # Column-major order per the format.
        A[:] = vals.reshape((n, m)).T
        return A
    if m != n:
        raise ParseError("symmetric array storage requires a square matrix", line=1)
    k = 0
    for j in range(n):
        start_i = j + 1 if symmetry == "skew-symmetric" else j
        for i in range(start_i, m):
            A[i, j] = vals[k]
            k += 1
    lower = np.tril(A, -1)
    A = A + (-(lower.T) if symmetry == "skew-symmetric" else lower.T)
    return A


def write_matrix_market(X, path, comment=None):
    """Write a matrix in Matrix Market format.

    Sparse input is written in coordinate format, dense input in array
    format; both as ``real general`` with full float64 round-trip
    precision.
    """
    with open(path, "w", encoding="ascii") as fh:
        if sp.issparse(X):
            X = X.tocoo()
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            if comment:
                fh.write(f"% {comment}\n")
            fh.write(f"{X.shape[0]} {X.shape[1]} {X.nnz}\n")
            for i, j, v in zip(X.row, X.col, X.data):
                fh.write(f"{i + 1} {j + 1} {v:.17g}\n")
        else:
            X = to_dense(X)
            fh.write("%%MatrixMarket matrix array real general\n")
            if comment:
                fh.write(f"% {comment}\n")
            m, n = X.shape
            fh.write(f"{m} {n}\n")
            for j in range(n):
                for i in range(m):
                    fh.write(f"{X[i, j]:.17g}\n")


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


def write_jsonl(path_or_file, records):
    """Write one JSON object per line; numpy scalars become Python values."""
    _write_lines(path_or_file, [json.dumps(r, default=lambda x: x.item()) for r in records])
