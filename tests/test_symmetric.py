"""Packed storage, indexing, and matrix IO."""

import io
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankspectral import symmetric
from rankspectral import (
    AsymmetryError,
    FormatError,
    MatrixSource,
    SymmetricMatrix,
    load_matrix,
    pack_index,
    pair_indices,
    save_matrix,
)

from conftest import random_symmetric
from oracles import expectation_matrix, permute_nodes, unpack_index


class TestPackIndex:
    def test_known_position(self):
        # n=5 row-major pairs: (0,1) (0,2) (0,3) (0,4) (1,2) ...
        assert pack_index(0, 3, 5) == 2
        assert pack_index(0, 1, 5) == 0
        assert pack_index(3, 4, 5) == 9

    def test_matches_triu_order(self):
        for n in (2, 3, 7, 50):
            rows, cols = np.triu_indices(n, k=1)
            for k, (i, j) in enumerate(zip(rows, cols)):
                assert pack_index(int(i), int(j), n) == k

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            pack_index(2, 2, 5)
        with pytest.raises(ValueError):
            pack_index(3, 1, 5)
        with pytest.raises(ValueError):
            pack_index(0, 5, 5)
        with pytest.raises(ValueError):
            pack_index(0, 1, 1)

    @given(st.integers(2, 400), st.data())
    def test_unpack_inverts_pack(self, n, data):
        i = data.draw(st.integers(0, n - 2))
        j = data.draw(st.integers(i + 1, n - 1))
        assert unpack_index(pack_index(i, j, n), n) == (i, j)

    @given(st.integers(2, 400), st.data())
    def test_pack_inverts_unpack(self, n, data):
        k = data.draw(st.integers(0, n * (n - 1) // 2 - 1))
        i, j = unpack_index(k, n)
        assert 0 <= i < j < n
        assert pack_index(i, j, n) == k

    def test_unpack_known(self):
        assert unpack_index(2, 5) == (0, 3)
        assert unpack_index(0, 2) == (0, 1)

    def test_unpack_bounds(self):
        with pytest.raises(ValueError):
            unpack_index(10, 5)
        with pytest.raises(ValueError):
            unpack_index(-1, 5)

    def test_pair_indices_matches_numpy(self):
        rows, cols = pair_indices(6)
        ru, cu = np.triu_indices(6, k=1)
        assert np.array_equal(rows, ru)
        assert np.array_equal(cols, cu)


class TestLayouts:
    """The map between the row-major and the upper-packed layout."""

    def test_row_major_index_is_exact(self):
        for n in range(2, 301):
            rows, cols = np.triu_indices(n, k=1)
            slots = cols * (cols + 1) // 2 + rows
            out = np.empty(n * (n - 1) // 2, dtype=np.int64)
            symmetric.upper_slots(n, out)
            assert np.array_equal(out, slots), n
            for dtype in (np.int32, np.int64):
                got = symmetric.row_major_index(slots.astype(dtype), n)
                assert np.array_equal(got, np.arange(n * (n - 1) // 2)), (n, dtype)

    def test_diagonal_slots(self):
        for n in (2, 3, 7, 40):
            assert symmetric.diagonal_slots(n).tolist() == [j * (j + 1) // 2 + j for j in range(n)]

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 64])
    def test_dense_is_the_triu_indices_build(self, n):
        rng = np.random.default_rng(n)
        n_pairs = n * (n - 1) // 2
        values = np.where(rng.random(n_pairs) < 0.2, -0.0, rng.normal(size=n_pairs))
        rows, cols = np.triu_indices(n, k=1)
        expected = np.zeros((n, n))
        expected[rows, cols] = values
        expected[cols, rows] = values
        assert SymmetricMatrix(n, values).dense().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [65535, 65536])
    def test_row_major_index_near_the_int32_limit(self, n):
        # Slots at both ends of the first, middle and last columns, where
        # j(j+1)/2 is closest to the float square root's rounding. n = 65535
        # is the largest dimension whose slots fit in int32.
        pairs = [
            (i, j)
            for j in (1, 2, 3, n // 2, n - 3, n - 2, n - 1)
            for i in (0, 1, j // 2, j - 2, j - 1)
            if 0 <= i < j
        ]
        dtype = np.int32 if n == 65535 else np.int64
        slots = np.array([j * (j + 1) // 2 + i for i, j in pairs], dtype=dtype)
        expected = [i * (2 * n - i - 1) // 2 + (j - i - 1) for i, j in pairs]
        assert symmetric.row_major_index(slots, n).tolist() == expected


class TestSymmetricMatrix:
    def test_basic_storage(self):
        m = SymmetricMatrix(3, [5.0, 1.0, 3.0])
        assert m.n == 3
        assert m.n_pairs == 3
        assert m.entry(0, 1) == 5.0
        assert m.entry(1, 0) == 5.0
        assert m.entry(0, 2) == 1.0
        assert m.entry(1, 2) == 3.0
        assert m.entry(2, 2) == 0.0

    def test_dense_round_trip(self):
        m = random_symmetric(9, seed=7, low=-4.0, high=4.0)
        d = m.dense()
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        back = SymmetricMatrix.from_dense(d)
        assert back == m

    def test_values_read_only(self):
        m = SymmetricMatrix(3, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            m.values[0] = 9.0

    def test_input_copied(self):
        vals = np.array([1.0, 2.0, 3.0])
        m = SymmetricMatrix(3, vals)
        vals[0] = 99.0
        assert m.values[0] == 1.0

    def test_adopt_keeps_the_array(self):
        vals = np.array([1.0, 2.0, 3.0])
        m = SymmetricMatrix.adopt(3, vals)
        assert m.values is vals
        assert not vals.flags.writeable
        assert m == SymmetricMatrix(3, [1.0, 2.0, 3.0])

    def test_adopt_checks_like_the_constructor(self):
        with pytest.raises(ValueError, match="expected 3"):
            SymmetricMatrix.adopt(3, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrix.adopt(3, np.array([1.0, np.inf, 2.0]))
        with pytest.raises(ValueError, match="dimension"):
            SymmetricMatrix.adopt(1, np.array([]))

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="expected 3"):
            SymmetricMatrix(3, [1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrix(3, [1.0, np.nan, 3.0])
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrix(3, [1.0, np.inf, 3.0])

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(1, [])

    def test_entry_out_of_range(self):
        m = SymmetricMatrix(3, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            m.entry(0, 3)

    def test_from_dense_discards_diagonal(self):
        arr = np.array([[7.0, 5.0, 1.0], [5.0, -2.0, 3.0], [1.0, 3.0, 4.0]])
        m = SymmetricMatrix.from_dense(arr)
        assert np.array_equal(m.values, [5.0, 1.0, 3.0])

    def test_from_dense_rejects_asymmetry(self):
        arr = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 3.0], [1.0 + 1e-6, 3.0, 0.0]])
        with pytest.raises(AsymmetryError):
            SymmetricMatrix.from_dense(arr)

    def test_from_dense_averages_within_tolerance(self):
        arr = np.array([[0.0, 2.0], [2.0 + 1e-10, 0.0]])
        m = SymmetricMatrix.from_dense(arr)
        assert m.values[0] == pytest.approx(2.0 + 5e-11, abs=1e-15)

    @pytest.mark.parametrize(
        "upper, lower, pair", [(1.105, 1.0, "(1,0) and (0,1)"), (1.0, 1.105, "(0,1) and (1,0)")]
    )
    def test_from_dense_bounds_the_gap_by_either_entry(self, upper, lower, pair):
        # The gap 0.105 is within 0.1 * 1.105 but not within 0.1 * 1.0:
        # the pair is asymmetric whichever triangle holds the smaller entry.
        arr = np.array([[0.0, upper, 4.0], [lower, 0.0, 2.0], [4.0, 2.0, 0.0]])
        message = f"entries {pair} differ by 1.050e-01, beyond tolerance 1.000e-01"
        with pytest.raises(AsymmetryError, match=f"^{re.escape(message)}$"):
            SymmetricMatrix.from_dense(arr, rtol=0.1)

    def test_from_dense_rejects_non_square(self):
        with pytest.raises(FormatError):
            SymmetricMatrix.from_dense(np.zeros((2, 3)))

    def test_equality(self):
        a = SymmetricMatrix(3, [1.0, 2.0, 3.0])
        b = SymmetricMatrix(3, [1.0, 2.0, 3.0])
        c = SymmetricMatrix(3, [1.0, 2.0, 3.5])
        assert a == b
        assert a != c
        assert a != "not a matrix"


class TestExpectationMatrix:
    def test_entries(self):
        m = expectation_matrix(4)
        assert np.all(m.values == 0.5)

    def test_spectrum(self):
        # One eigenvalue (n-1)/2, the rest -1/2.
        for n in (3, 6, 11):
            eig = np.sort(np.linalg.eigvalsh(expectation_matrix(n).dense()))
            assert eig[-1] == pytest.approx((n - 1) / 2, abs=1e-12)
            assert np.allclose(eig[:-1], -0.5, atol=1e-12)


class TestPermuteNodes:
    def test_matches_dense_permutation(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 5, 12, 31):
            m = random_symmetric(n, seed=n, low=-1.0, high=1.0)
            perm = rng.permutation(n)
            out = permute_nodes(m, perm)
            expected = m.dense()[np.ix_(perm, perm)]
            assert np.array_equal(out.dense(), expected)

    def test_identity_is_noop(self):
        m = random_symmetric(8, seed=3)
        assert permute_nodes(m, np.arange(8)) == m

    def test_preserves_spectrum(self):
        m = random_symmetric(10, seed=11)
        perm = np.random.default_rng(0).permutation(10)
        a = np.linalg.eigvalsh(m.dense())
        b = np.linalg.eigvalsh(permute_nodes(m, perm).dense())
        assert np.allclose(a, b, atol=1e-12)

    def test_rejects_non_permutation(self):
        m = random_symmetric(4, seed=1)
        with pytest.raises(ValueError):
            permute_nodes(m, np.array([0, 1, 2, 2]))
        with pytest.raises(ValueError):
            permute_nodes(m, np.array([0, 1, 2]))


class TestMatrixSource:
    def test_requires_exactly_one_origin(self):
        with pytest.raises(ValueError):
            MatrixSource(format="dense-csv")
        with pytest.raises(ValueError):
            MatrixSource(format="dense-csv", path="x", stream=io.StringIO(""))

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            MatrixSource(format="csv", path="x")


class TestRoundTrips:
    @pytest.mark.parametrize("format", ["dense-csv", "upper-triangle-text", "weighted-edge-list"])
    def test_bit_exact_round_trip(self, format, tmp_path):
        rng = np.random.default_rng(2024)
        for n in (2, 3, 10, 25):
            values = np.concatenate(
                [
                    rng.uniform(-1e3, 1e3, size=max(0, n * (n - 1) // 2 - 3)),
                    [1e-17, -0.1, 1 / 3],
                ]
            )[: n * (n - 1) // 2]
            m = SymmetricMatrix(n, values)
            path = tmp_path / f"m{n}.txt"
            save_matrix(m, path, format=format)
            back = load_matrix(path, format=format)
            assert back.n == m.n
            assert np.array_equal(back.values, m.values)

    def test_stream_round_trip(self):
        m = random_symmetric(6, seed=5)
        buf = io.StringIO()
        save_matrix(m, buf, format="upper-triangle-text")
        buf.seek(0)
        back = load_matrix(MatrixSource(format="upper-triangle-text", stream=buf))
        assert back == m

    def test_save_rejects_unknown_format(self, tmp_path):
        m = random_symmetric(3, seed=0)
        with pytest.raises(ValueError, match="unknown format"):
            save_matrix(m, tmp_path / "m.txt", format="hdf5")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_matrix(tmp_path / "absent.csv")

    @pytest.mark.parametrize(
        "format,newline",
        [
            pytest.param(fmt, newline, id=fmt + suffix)
            for fmt in symmetric.FORMATS
            for newline, suffix in (("\n", ""), ("\r\n", "-crlf"), ("\r", "-cr"))
        ],
    )
    def test_saved_text_takes_vectorized_parse(self, format, newline):
        # The equivalence property below is only worth something if the
        # vectorized pass accepts what save_matrix writes, with any line ends.
        m = random_symmetric(7, seed=9, low=-5.0, high=5.0)
        buf = io.StringIO()
        save_matrix(m, buf, format=format)
        text = buf.getvalue().replace("\n", newline)
        fast = symmetric._parse_blocks(format, io.BytesIO(text.encode("ascii")))
        assert fast is not None
        assert fast.n == m.n
        assert np.array_equal(fast.values.view(np.uint64), m.values.view(np.uint64))

    @pytest.mark.parametrize("width", [1, 4, 1000])
    def test_upper_triangle_across_blocks(self, width, monkeypatch):
        # Blocks of a few bytes put block boundaries between lines of every
        # kind; the values must come out as if read in one piece.
        monkeypatch.setattr(symmetric, "_BLOCK_BYTES", 5)
        m = random_symmetric(12, seed=3, low=-2.0, high=2.0)
        tokens = [repr(float(v)) for v in m.values]
        lines = [" ".join(tokens[k : k + width]) for k in range(0, len(tokens), width)]
        text = "12 " + "\n".join(lines) + "\n"
        fast = symmetric._parse_blocks("upper-triangle-text", io.BytesIO(text.encode("ascii")))
        assert fast is not None
        assert np.array_equal(fast.values.view(np.uint64), m.values.view(np.uint64))

    def test_invalid_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(FormatError, match=r"^line 1: invalid UTF-8 byte 0xff$"):
            load_matrix(path)
        # Line breaks are counted as text mode counts them: LF, CRLF, lone CR.
        path.write_bytes(b"3\r\n0.5\r0.25\n\xe9\n")
        with pytest.raises(FormatError, match=r"^line 4: invalid UTF-8 byte 0xe9$"):
            load_matrix(path, format="upper-triangle-text")

    @pytest.mark.parametrize(
        "data, lineno",
        [
            (b"3\r\n0.5\r0.25\n\xe9\n", 4),
            # Decoded a chunk at a time: lines before the failing chunk count too.
            (b"200\n" + b"0.5\n" * 5000 + b"\xe9\n", 5002),
        ],
        ids=["one chunk", "later chunk"],
    )
    def test_invalid_utf8_in_stream(self, data, lineno):
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        with pytest.raises(FormatError, match=rf"^line {lineno}: invalid UTF-8 byte 0xe9$"):
            load_matrix(MatrixSource(format="upper-triangle-text", stream=stream))


class TestDenseCsvParsing:
    def load(self, text):
        return load_matrix(MatrixSource(format="dense-csv", stream=io.StringIO(text)))

    def test_basic(self):
        m = self.load("0,5,1\n5,0,3\n1,3,0\n")
        assert np.array_equal(m.values, [5.0, 1.0, 3.0])

    def test_diagonal_ignored(self):
        m = self.load("9,5\n5,-9\n")
        assert m.values[0] == 5.0

    def test_ragged_rows(self):
        with pytest.raises(FormatError, match="line 2"):
            self.load("0,1\n0\n")

    def test_non_square(self):
        with pytest.raises(FormatError, match="square"):
            self.load("0,1,2\n1,0,3\n")

    def test_non_numeric(self):
        with pytest.raises(FormatError, match="line 2.*'x'"):
            self.load("0,1\nx,0\n")

    def test_non_finite(self):
        with pytest.raises(FormatError, match="non-finite"):
            self.load("0,inf\ninf,0\n")

    def test_non_finite_diagonal(self):
        # The diagonal is dropped, yet its tokens must still be finite.
        with pytest.raises(FormatError, match="non-finite value '1e400'"):
            self.load("1e400,0\n0,0\n")

    def test_asymmetric(self):
        with pytest.raises(AsymmetryError):
            self.load("0,1\n2,0\n")

    def test_empty(self):
        with pytest.raises(FormatError, match="empty"):
            self.load("")


class TestUpperTriangleParsing:
    def load(self, text):
        return load_matrix(MatrixSource(format="upper-triangle-text", stream=io.StringIO(text)))

    def test_basic(self):
        m = self.load("3\n5\n1\n3\n")
        assert m.n == 3
        assert np.array_equal(m.values, [5.0, 1.0, 3.0])

    def test_values_may_share_lines(self):
        m = self.load("3 5 1 3")
        assert np.array_equal(m.values, [5.0, 1.0, 3.0])

    def test_too_few_values(self):
        with pytest.raises(FormatError, match="expected 3 values"):
            self.load("3\n5\n1\n")

    def test_too_many_values(self):
        with pytest.raises(FormatError, match="more than 3"):
            self.load("3\n5\n1\n3\n4\n")

    def test_bad_dimension(self):
        with pytest.raises(FormatError, match="dimension"):
            self.load("x\n1\n")
        with pytest.raises(FormatError, match="dimension"):
            self.load("1\n")

    def test_empty(self):
        with pytest.raises(FormatError, match="empty"):
            self.load("\n\n")


class TestEdgeListParsing:
    def load(self, text):
        return load_matrix(MatrixSource(format="weighted-edge-list", stream=io.StringIO(text)))

    def test_basic_any_order(self):
        m = self.load("1 2 3.0\n0 1 5.0\n2 0 1.0\n")
        assert m.n == 3
        assert np.array_equal(m.values, [5.0, 1.0, 3.0])

    def test_self_edges_ignored(self):
        m = self.load("0 0 7.0\n0 1 2.0\n")
        assert m.n == 2
        assert m.values[0] == 2.0

    def test_consistent_duplicates_allowed(self):
        m = self.load("0 1 2.0\n1 0 2.0\n")
        assert m.values[0] == 2.0

    def test_conflicting_duplicates_rejected(self):
        with pytest.raises(FormatError, match="conflicting"):
            self.load("0 1 2.0\n1 0 2.5\n")

    def test_missing_pair(self):
        with pytest.raises(FormatError, match="incomplete"):
            self.load("0 1 2.0\n0 2 1.0\n")

    def test_bad_field_count(self):
        with pytest.raises(FormatError, match="line 1"):
            self.load("0 1\n")

    def test_non_integer_node(self):
        with pytest.raises(FormatError, match="non-integer"):
            self.load("0 x 2.0\n")

    def test_negative_node(self):
        with pytest.raises(FormatError, match="negative"):
            self.load("0 -1 2.0\n")

    def test_empty(self):
        with pytest.raises(FormatError, match="empty"):
            self.load("")

    def test_huge_node_index(self):
        # Pack keys at n=4000000001 overflow int64, so the pair count must be
        # compared with the line count before any key or array is built.
        message = (
            "incomplete edge list: 1 distinct pairs, "
            "expected 8000000002000000000 for n=4000000001"
        )
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            self.load("0 4000000000 1.0\n")

    def test_self_loops_only(self):
        with pytest.raises(FormatError, match="two nodes"):
            self.load("0 0 7.0\n")
        with pytest.raises(FormatError, match="incomplete"):
            self.load("1 1 7.0\n")
        with pytest.raises(FormatError, match="incomplete"):
            self.load("0 0 1\n1 1 1\n")


def _outcome(parse):
    """What a parse gives: the matrix bit for bit, or the error's class and text."""
    try:
        m = parse()
    except ValueError as exc:
        return type(exc), str(exc)
    return m.n, m.values.view(np.uint64).tolist()


# The parsing cases above read streams, which take the line parser. A file
# of the same text takes the vectorized pass first, and must end the same.
FILE_CASES = {
    "dense-csv": [
        "0,5,1\n5,0,3\n1,3,0\n",
        "9,5\n5,-9\n",
        "0,1\n0\n",
        "0,1,2\n1,0,3\n",
        "0,inf\ninf,0\n",
        "1e400,0\n0,0\n",
        "0,1\n2,0\n",
        "1\n",
        "",
    ],
    "upper-triangle-text": [
        "3\n5\n1\n3\n",
        "3 5 1 3",
        "3\n5\n1\n",
        "3\n5\n1\n3\n4\n",
        "1\n",
        "-3 1 2 3\n",
        "3\n",
        "\n\n",
    ],
    "weighted-edge-list": [
        "1 2 3.0\n0 1 5.0\n2 0 1.0\n",
        "0 0 7.0\n0 1 2.0\n",
        "0 1 2.0\n1 0 2.0\n",
        "0 1 2.0\n1 0 2.5\n",
        "0 1 2.0\n0 2 1.0\n",
        "0 1\n",
        "0 -1 2.0\n",
        "0 4000000000 1.0\n",
        "0 9223372036854775807 1.0\n",
        "0 99999999999999999999 1.0\n",
        "0 0 7.0\n",
        "1 1 7.0\n",
        "0 0 1\n1 1 1\n",
        "",
    ],
}


@pytest.mark.parametrize(
    "format, text", [(f, text) for f, texts in FILE_CASES.items() for text in texts]
)
def test_file_parse_matches_stream(format, text, tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode("utf-8"))
    stream = MatrixSource(format=format, stream=io.StringIO(text))
    assert _outcome(lambda: load_matrix(path, format=format)) == _outcome(
        lambda: load_matrix(stream)
    )


# Tokens that float() or int() treat unlike a plain decimal, or reject.
AWKWARD_TOKENS = ["1_0", "+1", " 1 ", "1e400", "nan", "-inf", "-0.0", "0x1p3", "1,5", "", "\u0661"]


def _entry():
    return st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.5]),
        st.floats(allow_nan=False, allow_infinity=False),
    )


@st.composite
def matrix_texts(draw, format):
    """A valid matrix written in ``format``, then up to three awkward edits."""
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    values = draw(st.lists(_entry(), min_size=len(pairs), max_size=len(pairs)))
    if format == "dense-csv":
        dense = np.zeros((n, n))
        for (i, j), v in zip(pairs, values):
            dense[i, j] = dense[j, i] = v
        rows = [[repr(float(x)) for x in row] for row in dense]
        sep = draw(st.sampled_from([",", ", ", ",\t"]))
    elif format == "upper-triangle-text":
        tokens = [repr(v) for v in values]
        width = draw(st.integers(1, 3))
        rows = [[str(n)]] + [tokens[k : k + width] for k in range(0, len(tokens), width)]
        if draw(st.booleans()):  # values share the dimension's line
            rows[0:2] = [rows[0] + rows[1]]
        sep = draw(st.sampled_from([" ", "\t", "  "]))
    else:
        order = draw(st.permutations(range(len(pairs))))
        rows = []
        for k in order:
            i, j = pairs[k]
            if draw(st.booleans()):
                i, j = j, i
            rows.append([str(i), str(j), repr(values[k])])
        sep = draw(st.sampled_from([" ", "\t"]))
    kinds = ["token", "blank", "comment", "trailing comma"]
    if format == "weighted-edge-list":
        kinds += ["self-loop", "self-loops only", "duplicate", "duplicate", "float index"]
        kinds += ["negative index"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        at = draw(st.integers(0, len(rows) - 1))
        row = rows[at]
        if kind == "token":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(AWKWARD_TOKENS))
        elif kind == "blank":
            rows.insert(at, [draw(st.sampled_from(["", "  ", "\t"]))])
        elif kind == "comment":
            rows.insert(at, ["#", "note"])
        elif kind == "trailing comma":
            row[-1] += ","
        elif kind == "self-loop":
            k = draw(st.integers(0, n - 1))
            rows.insert(at, [str(k), str(k), repr(draw(_entry()))])
        elif kind == "self-loops only":
            nodes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
            rows[:] = [[str(k), str(k), repr(draw(_entry()))] for k in nodes]
        elif len(row) != 3:
            continue  # the edits below rewrite an 'i j w' line
        elif kind == "duplicate":
            # The same weight, the other zero, or (mostly) a conflicting one.
            other_zero = {"0.0": "-0.0", "-0.0": "0.0"}.get(row[2], row[2])
            weight = draw(st.sampled_from([row[2], other_zero, repr(draw(_entry()))]))
            rows.insert(draw(st.integers(0, len(rows))), [row[1], row[0], weight])
        elif kind == "float index":
            row[0] += ".0"
        else:
            row[draw(st.integers(0, 1))] = str(-draw(st.integers(1, n)))
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    return newline.join(sep.join(row) for row in rows) + draw(st.sampled_from(["", newline]))


@pytest.mark.parametrize("format", symmetric.FORMATS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_vectorized_parse_matches_line_parser(format, data):
    text = data.draw(matrix_texts(format))
    raw = text.encode("utf-8")
    expected = _outcome(lambda: symmetric._parse(format, symmetric._utf8_lines(raw)))
    fast = symmetric._parse_blocks(format, io.BytesIO(raw))
    if fast is not None:
        assert expected == (fast.n, fast.values.view(np.uint64).tolist())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_bytes(raw)
        assert _outcome(lambda: load_matrix(path, format=format)) == expected


def _load_file(raw, format):
    """``load_matrix``'s outcome on a file holding ``raw``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_bytes(raw)
        return _outcome(lambda: load_matrix(path, format=format))


@pytest.mark.parametrize("format", symmetric.FORMATS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_block_wise_parse_matches_line_parser(format, data):
    # Blocks of a few bytes put block edges inside and between lines,
    # between a CR and its LF, and inside the dimension's line; a few
    # tokens or edge keys at a time split the work inside a block too.
    # Patched in the body: hypothesis refuses function-scoped fixtures like
    # monkeypatch.
    text = data.draw(matrix_texts(format))
    raw = text.encode("utf-8")
    expected = _outcome(lambda: symmetric._parse(format, symmetric._utf8_lines(raw)))
    with mock.patch.multiple(
        symmetric,
        _BLOCK_BYTES=data.draw(st.one_of(st.integers(1, 12), st.just(1 << 20))),
        _TOKENS=data.draw(st.integers(1, 4)),
        _KEY_BLOCK=data.draw(st.integers(1, 4)),
    ):
        fast = symmetric._parse_blocks(format, io.BytesIO(raw))
        if fast is not None:
            assert expected == (fast.n, fast.values.view(np.uint64).tolist())
        assert _load_file(raw, format) == expected


@pytest.mark.parametrize("format", symmetric.FORMATS)
@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_small_chunks_still_take_the_vectorized_parse(format, chunk, monkeypatch):
    # Non-vacuity for the property above, where a decline is always safe:
    # saved text read in one block, then converted a few tokens or edge keys
    # at a time, is accepted.
    monkeypatch.setattr(symmetric, "_TOKENS", chunk)
    monkeypatch.setattr(symmetric, "_KEY_BLOCK", chunk)
    m = random_symmetric(12, seed=chunk, low=-2.0, high=2.0)
    buf = io.StringIO()
    save_matrix(m, buf, format=format)
    fast = symmetric._parse_blocks(format, io.BytesIO(buf.getvalue().encode("ascii")))
    assert fast is not None
    assert fast.values.tobytes() == m.values.tobytes()


class TestBlockReader:
    def blocks(self, raw, plain=symmetric._PLAIN_BYTES + b","):
        return list(symmetric._blocks(io.BytesIO(raw), plain))

    @pytest.mark.parametrize("block_bytes", range(1, 12))
    def test_crlf_split_between_reads_is_one_line_end(self, block_bytes, monkeypatch):
        monkeypatch.setattr(symmetric, "_BLOCK_BYTES", block_bytes)
        blocks = self.blocks(b"0,1.5\r\n1\n2\r\n3\n4,5\r6\r\n7\n8\r")
        assert b"".join(blocks) == b"0,1.5\n1\n2\n3\n4,5\n6\n7\n8\n"
        assert all(block.endswith(b"\n") for block in blocks)

    def test_cr_ending_one_block_and_lf_starting_the_next(self, monkeypatch):
        # The first read ends on the CR of "3 1\r\n" and the second starts
        # with its LF: the CR waits for it, and no empty line appears.
        monkeypatch.setattr(symmetric, "_BLOCK_BYTES", 4)
        raw = b"3 1\r\n2\n3\n"
        assert raw[:4].endswith(b"\r") and raw[4:5] == b"\n"
        assert self.blocks(raw, symmetric._PLAIN_BYTES) == [b"3 1\n2\n", b"3\n"]
        fast = symmetric._parse_blocks("upper-triangle-text", io.BytesIO(raw))
        assert fast is not None
        assert fast.values.tolist() == [1.0, 2.0, 3.0]

    def test_whitespace_blocks_are_skipped(self, monkeypatch):
        monkeypatch.setattr(symmetric, "_BLOCK_BYTES", 2)
        assert self.blocks(b"\n  \n3\n\t\n") == [b"3\n"]
        assert self.blocks(b" \r\n") == []

    def test_a_byte_outside_the_filter_declines(self, monkeypatch):
        monkeypatch.setattr(symmetric, "_BLOCK_BYTES", 4)
        with pytest.raises(FormatError):
            self.blocks(b"0,1\n1,0\n# late\n")


def test_asymmetry_in_a_later_block_gets_the_line_parsers_error(tmp_path, monkeypatch):
    # Rows 0-34 are symmetric; only row 35, many blocks in, disagrees with
    # row 3. The vectorized pass declines there, and the error is the one
    # the line parser words for the whole matrix.
    monkeypatch.setattr(symmetric, "_BLOCK_BYTES", 64)
    dense = random_symmetric(40, seed=12).dense()
    dense[35, 3] += 1e-3
    lines = [",".join(repr(float(x)) for x in row) + "\n" for row in dense]
    assert len("".join(lines[:35])) > 20 * 64
    text = "".join(lines)
    assert symmetric._parse_blocks("dense-csv", io.BytesIO(text.encode("ascii"))) is None
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="ascii")
    with pytest.raises(AsymmetryError) as from_file:
        load_matrix(path)
    with pytest.raises(AsymmetryError) as from_stream:
        load_matrix(MatrixSource(format="dense-csv", stream=io.StringIO(text)))
    assert str(from_file.value) == str(from_stream.value)
    assert str(from_file.value) == (
        "entries (3,35) and (35,3) differ by 1.000e-03, beyond tolerance 1.000e-09"
    )


def test_dimension_too_large_for_the_file_declines_before_allocating(tmp_path):
    raw = b"100000000\n0.5\n0.25\n"
    tracemalloc.start()
    try:
        fast = symmetric._parse_blocks("upper-triangle-text", io.BytesIO(raw))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fast is None
    assert peak < 1 << 20
    path = tmp_path / "m.txt"
    path.write_bytes(raw)
    message = "expected 4999999950000000 values for n=100000000, got 2"
    with pytest.raises(FormatError, match=f"^{message}$"):
        load_matrix(path, format="upper-triangle-text")


def test_dense_row_too_wide_for_the_file_declines_before_allocating():
    raw = (",".join(["0"] * 100_000) + "\n").encode("ascii")
    tracemalloc.start()
    try:
        fast = symmetric._parse_blocks("dense-csv", io.BytesIO(raw))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fast is None
    assert peak < 8 << 20  # the packed array would be 40 GB


class TestShuffledEdgeList:
    def lines(self, n, seed):
        m = random_symmetric(n, seed=seed, low=-3.0, high=3.0)
        rows, cols = pair_indices(n)
        lines = [f"{i} {j} {w!r}" for i, j, w in zip(rows.tolist(), cols.tolist(), m.values.tolist())]
        np.random.default_rng(seed).shuffle(lines)
        return m, lines

    def test_duplicates_in_different_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(symmetric, "_BLOCK_BYTES", 32)
        monkeypatch.setattr(symmetric, "_KEY_BLOCK", 4)
        m, lines = self.lines(9, seed=4)
        # The first pair again, reversed, at the end, and a self-loop in between.
        i, j, w = lines[0].split()
        lines += ["5 5 -7.0", f"{j} {i} {w}", lines[1]]
        raw = ("\n".join(lines) + "\n").encode("ascii")
        fast = symmetric._parse_blocks("weighted-edge-list", io.BytesIO(raw))
        assert fast is not None
        assert fast.values.tobytes() == m.values.tobytes()
        path = tmp_path / "m.txt"
        path.write_bytes(raw)
        assert load_matrix(path, format="weighted-edge-list") == m

    def test_two_lines_out_of_pack_order(self):
        # Only a pack-ordered list skips the sort; the first key being 0 and
        # the count being N are not enough.
        m = random_symmetric(9, seed=6)
        rows, cols = pair_indices(9)
        lines = [f"{i} {j} {w!r}" for i, j, w in zip(rows.tolist(), cols.tolist(), m.values.tolist())]
        lines[3], lines[30] = lines[30], lines[3]
        raw = ("\n".join(lines) + "\n").encode("ascii")
        fast = symmetric._parse_blocks("weighted-edge-list", io.BytesIO(raw))
        assert fast is not None
        assert fast.values.tobytes() == m.values.tobytes()

    def test_conflicting_duplicate_in_a_later_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(symmetric, "_BLOCK_BYTES", 32)
        _, lines = self.lines(9, seed=5)
        i, j, w = lines[0].split()
        lines.append(f"{j} {i} {float(w) + 1.0!r}")
        text = "\n".join(lines) + "\n"
        raw = text.encode("ascii")
        assert symmetric._parse_blocks("weighted-edge-list", io.BytesIO(raw)) is None
        path = tmp_path / "m.txt"
        path.write_text(text, encoding="ascii")
        expected = _outcome(
            lambda: load_matrix(MatrixSource(format="weighted-edge-list", stream=io.StringIO(text)))
        )
        assert expected[0] is FormatError
        assert expected[1].startswith(f"line {len(lines)}: pair ")
        assert _outcome(lambda: load_matrix(path, format="weighted-edge-list")) == expected


def test_save_handles_extreme_values(tmp_path):
    # Shortest-repr emission must survive subnormals and large magnitudes.
    values = np.array([5e-324, 1.7976931348623157e308, -1e-300, math.pi, 0.1, -0.0])
    m = SymmetricMatrix(4, values)
    for format in ("dense-csv", "upper-triangle-text", "weighted-edge-list"):
        path = tmp_path / "extreme.txt"
        save_matrix(m, path, format=format)
        assert np.array_equal(load_matrix(path, format=format).values, values)
