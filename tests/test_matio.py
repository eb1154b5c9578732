import numpy as np
import pytest
import scipy.sparse as sp

from sketchsvd import (
    ParseError,
    PreconditionError,
    UnsupportedFormatError,
    read_matrix_market,
    write_matrix_market,
)


def write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestReadCoordinate:
    def test_identity(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 3\n1 1 1.0\n2 2 1.0\n3 3 1.0\n",
        )
        A = read_matrix_market(path)
        assert sp.issparse(A)
        np.testing.assert_allclose(A.toarray(), np.eye(3))

    def test_duplicates_summed(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 2.0\n1 1 3.0\n2 1 -1.0\n",
        )
        A = read_matrix_market(path).toarray()
        np.testing.assert_allclose(A, [[5.0, 0.0], [-1.0, 0.0]])

    def test_comments_and_blank_lines(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n\n2 3 2\n1 2 4.5\n\n2 3 -1.5\n",
        )
        A = read_matrix_market(path).toarray()
        expected = np.zeros((2, 3))
        expected[0, 1] = 4.5
        expected[1, 2] = -1.5
        np.testing.assert_allclose(A, expected)

    def test_body_comment_rejected(self, tmp_path):
        # the format allows comments only before the size line
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n\n2 3 2\n% mid comment\n1 2 4.5\n\n2 3 -1.5\n",
        )
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 5

    def test_symmetric_expansion(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n1 1 1.0\n2 1 2.0\n3 2 3.0\n3 3 4.0\n",
        )
        A = read_matrix_market(path).toarray()
        np.testing.assert_allclose(A, A.T)
        np.testing.assert_allclose(
            A, [[1, 2, 0], [2, 0, 3], [0, 3, 4]], atol=0
        )

    def test_skew_symmetric_expansion(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 1\n2 1 5.0\n",
        )
        A = read_matrix_market(path).toarray()
        np.testing.assert_allclose(A, [[0, -5], [5, 0]], atol=0)

    def test_skew_symmetric_diagonal_rejected(self, tmp_path):
        # skew-symmetric storage holds the strictly lower triangle only
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 2\n1 1 5.0\n2 1 3.0\n",
        )
        with pytest.raises(ParseError, match="diagonal"):
            read_matrix_market(path)

    def test_integer_field(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 7\n",
        )
        A = read_matrix_market(path)
        assert A.format == "csr" and A.dtype == np.float64
        assert A.toarray()[0, 1] == 7.0


class TestReadArray:
    def test_column_major(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix array real general\n"
            "2 3\n1\n2\n3\n4\n5\n6\n",
        )
        A = read_matrix_market(path)
        assert isinstance(A, np.ndarray)
        np.testing.assert_allclose(A, [[1, 3, 5], [2, 4, 6]])

    def test_symmetric_array(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix array real symmetric\n"
            "2 2\n1\n2\n3\n",
        )
        A = read_matrix_market(path)
        np.testing.assert_allclose(A, [[1, 2], [2, 3]])


class TestErrors:
    def test_malformed_header(self, tmp_path):
        path = write(tmp_path, "%%NotMatrixMarket nonsense\n1 1 1\n")
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 1

    def test_malformed_entry_carries_line(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 1 1.0\n2 two 2.0\n",
        )
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 4
        assert "line 4" in str(err.value)

    def test_wrong_entry_count(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n",
        )
        with pytest.raises(ParseError, match="Truncated file"):
            read_matrix_market(path)

    def test_index_out_of_range(self, tmp_path):
        path = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
        )
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "variant, entry",
        [("pattern general", "1 1"), ("complex general", "1 1 1.0 0.0"),
         ("complex hermitian", "1 1 1.0 0.0")],
        ids=["pattern", "complex", "hermitian"],
    )
    def test_unsupported_variant(self, tmp_path, variant, entry):
        # scipy.io.mmread reads all three; the reader must refuse them
        path = write(
            tmp_path,
            f"%%MatrixMarket matrix coordinate {variant}\n1 1 1\n{entry}\n",
        )
        with pytest.raises(UnsupportedFormatError):
            read_matrix_market(path)

    @pytest.mark.parametrize("fmt", ["coordinate", "array"])
    def test_non_square_symmetric(self, tmp_path, fmt):
        size, body = ("2 3 1", "1 1 1.0") if fmt == "coordinate" else ("2 3", "1\n2\n3")
        path = write(
            tmp_path,
            f"%%MatrixMarket matrix {fmt} real symmetric\n{size}\n{body}\n",
        )
        with pytest.raises(ParseError, match="square"):
            read_matrix_market(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_matrix_market(write(tmp_path, ""))

    def test_missing_size_line(self, tmp_path):
        path = write(
            tmp_path, "%%MatrixMarket matrix coordinate real general\n% only\n"
        )
        with pytest.raises(ParseError, match="Premature EOF") as err:
            read_matrix_market(path)
        assert err.value.line == 3


class TestRoundTrip:
    def test_dense(self, tmp_path):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((7, 4))
        path = tmp_path / "dense.mtx"
        write_matrix_market(A, path)
        B = read_matrix_market(path)
        np.testing.assert_allclose(B, A, atol=0)

    def test_sparse(self, tmp_path):
        rng = np.random.default_rng(2)
        A = sp.random_array((20, 9), density=0.2, rng=rng).tocsr()
        path = tmp_path / "sparse.mtx"
        write_matrix_market(A, path, comment="round trip")
        B = read_matrix_market(path)
        assert sp.issparse(B)
        np.testing.assert_allclose(B.toarray(), A.toarray(), atol=0)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_complex_input_raises_and_writes_nothing(self, tmp_path, sparse):
        # a real field would keep only the real part
        A = np.array([[1 + 2j, 3], [4, 5j]])
        path = tmp_path / "complex.mtx"
        with pytest.raises(PreconditionError, match="complex128"):
            write_matrix_market(sp.csr_matrix(A) if sparse else A, path)
        assert not path.exists()
