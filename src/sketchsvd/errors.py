"""Exception hierarchy shared by all sketchsvd modules.

Input-side problems (bad shapes, violated preconditions, unreadable files)
derive from ValueError; numerical failures discovered mid-computation derive
from RuntimeError.  The CLI maps the former to exit code 2 and the latter,
with numpy's ``LinAlgError`` from a failed LAPACK call, to exit code 3.
"""


class ShapeError(ValueError):
    """Operands have incompatible or unsupported dimensions."""


class PreconditionError(ValueError):
    """An input violates a documented precondition (e.g. complex entries,
    non-orthonormal basis, zero column, matrix that is neither orthonormal
    nor sketch-orthonormal)."""


class RankDeficiencyError(ValueError):
    """A full-column-rank input was required but rank deficiency was
    detected.  ``column`` holds the offending column index when known."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class GenerationError(ValueError):
    """A test-matrix generator received parameters it cannot honor."""


class ParseError(ValueError):
    """A matrix file is malformed.  ``line`` holds the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedFormatError(ValueError):
    """A matrix file uses a valid but unsupported format variant."""


class SketchRankWarning(UserWarning):
    """The sketch dimension may be smaller than the rank of the input, in
    which case the factorization cannot be exact."""


class NumericalError(RuntimeError):
    """A numerical kernel failed: LAPACK's Jacobi SVD did not converge, a
    sketched Gram matrix is indefinite or singular, or a matrix holds
    non-finite entries."""
