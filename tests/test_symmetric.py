"""Packed storage, indexing, and matrix IO."""

import builtins
import io
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankspectral import forked, symmetric
from rankspectral import (
    AsymmetryError,
    FormatError,
    MatrixSource,
    SymmetricMatrix,
    load_matrix,
    pair_indices,
    save_matrix,
)

from conftest import checkout_env, random_symmetric
from oracles import expectation_matrix, grammar_outcome, permute_nodes


class TestLayouts:
    """The map between the row-major and the lower-packed layout."""

    def test_pair_indices_matches_numpy(self):
        rows, cols = pair_indices(6)
        ru, cu = np.triu_indices(6, k=1)
        assert np.array_equal(rows, ru)
        assert np.array_equal(cols, cu)

    def test_row_offsets_place_each_pair(self):
        for n in (2, 3, 7, 50):
            rows, cols = np.triu_indices(n, k=1)
            assert symmetric.row_offsets(n)[rows].tolist() == (np.arange(len(rows)) - cols).tolist()

    def test_diagonal_slots(self):
        for n in (2, 3, 7, 40):
            expected = [i * n - i * (i - 1) // 2 for i in range(n)]
            assert symmetric.diagonal_slots(n).tolist() == expected
            rows, cols = np.triu_indices(n)
            assert np.flatnonzero(rows == cols).tolist() == expected

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


class TestSymmetricMatrix:
    def test_basic_storage(self):
        m = SymmetricMatrix(3, [5.0, 1.0, 3.0])
        assert m.n == 3
        assert m.n_pairs == 3
        d = m.dense()
        assert d[0, 1] == 5.0
        assert d[1, 0] == 5.0
        assert d[0, 2] == 1.0
        assert d[1, 2] == 3.0
        assert d[2, 2] == 0.0

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
        blas = np.array([0.0, 1.0, 2.0, 0.0, 3.0, 0.0])
        m = SymmetricMatrix.adopt(3, blas)
        assert m.blas is blas
        assert not blas.flags.writeable
        assert m == SymmetricMatrix(3, [1.0, 2.0, 3.0])

    def test_adopt_checks_like_the_constructor(self):
        with pytest.raises(ValueError, match="^expected 6 lower-packed entries for n=3, got shape"):
            SymmetricMatrix.adopt(3, np.array([0.0, 1.0, 2.0]))
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                SymmetricMatrix.adopt(3, np.array([0.0, 1.0, bad, 0.0, 2.0, 0.0]))
        with pytest.raises(ValueError, match="dimension"):
            SymmetricMatrix.adopt(1, np.array([0.0]))

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

    def test_from_dense_discards_diagonal(self):
        arr = np.array([[7.0, 5.0, 1.0], [5.0, -2.0, 3.0], [1.0, 3.0, 4.0]])
        m = SymmetricMatrix.from_dense(arr)
        assert np.array_equal(m.values, [5.0, 1.0, 3.0])

    def test_from_dense_adopts_its_values(self):
        m = SymmetricMatrix.from_dense(np.array([[0.0, 5.0], [5.0, 0.0]]))
        assert type(m) is SymmetricMatrix and not m.blas.flags.writeable
        assert m.blas.tolist() == [0.0, 5.0, 0.0]
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrix.from_dense(np.array([[0.0, np.inf], [np.inf, 0.0]]))

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
    def test_from_dense_bounds_the_gap_by_either_entry(self, upper, lower, pair, monkeypatch):
        # The gap 0.105 is within 0.1 * 1.105 but not within 0.1 * 1.0:
        # the pair is asymmetric whichever triangle holds the smaller entry.
        monkeypatch.setattr(symmetric, "_SYMMETRY_RTOL", 0.1)
        arr = np.array([[0.0, upper, 4.0], [lower, 0.0, 2.0], [4.0, 2.0, 0.0]])
        message = f"entries {pair} differ by 1.050e-01, beyond tolerance 1.000e-01"
        with pytest.raises(AsymmetryError, match=f"^{re.escape(message)}$"):
            SymmetricMatrix.from_dense(arr)

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
        with pytest.raises(TypeError):
            MatrixSource(format="dense-csv")

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
            back = load_matrix(MatrixSource(format=format, path=path))
            assert back.n == m.n
            assert np.array_equal(back.values, m.values)

    @pytest.mark.parametrize("format", symmetric.FORMATS)
    def test_save_leaves_no_row_major_copy(self, format, tmp_path):
        # The text formats are written row by row from ``blas``, in the
        # row-major order of np.triu_indices; ``values`` is never read.
        n = 9
        values = np.random.default_rng(3).normal(size=n * (n - 1) // 2)
        values[4] = -0.0
        m = SymmetricMatrix(n, values)
        path = tmp_path / "m.txt"
        save_matrix(m, path, format)
        assert "values" not in vars(m)
        tokens = [repr(v) for v in values.tolist()]
        rows, cols = np.triu_indices(n, k=1)
        expected = {
            "upper-triangle-text": [str(n), *tokens],
            "weighted-edge-list": [f"{i} {j} {t}" for i, j, t in zip(rows, cols, tokens)],
        }
        if format in expected:
            assert path.read_text() == "\n".join(expected[format]) + "\n"

    def test_save_rejects_unknown_format(self, tmp_path):
        m = random_symmetric(3, seed=0)
        with pytest.raises(ValueError, match="unknown format"):
            save_matrix(m, tmp_path / "m.txt", format="hdf5")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_matrix(MatrixSource(format="dense-csv", path=tmp_path / "absent.csv"))

    @pytest.mark.parametrize(
        "format,newline",
        [
            pytest.param(fmt, newline, id=fmt + suffix)
            for fmt in symmetric.FORMATS
            for newline, suffix in (("\n", ""), ("\r\n", "-crlf"), ("\r", "-cr"))
        ],
    )
    def test_saved_text_loads_with_any_line_ends(self, format, newline):
        m = random_symmetric(7, seed=9, low=-5.0, high=5.0)
        buf = io.StringIO()
        symmetric._emit(m, buf, format)
        loaded = _load(format, buf.getvalue().replace("\n", newline).encode("ascii"))
        assert loaded.n == m.n
        assert np.array_equal(loaded.values.view(np.uint64), m.values.view(np.uint64))

    @pytest.mark.parametrize("width", [1, 4, 1000])
    def test_upper_triangle_across_blocks(self, width, monkeypatch):
        # Blocks of a few bytes put block boundaries between lines of every
        # kind; the values must come out as if read in one piece.
        monkeypatch.setattr(symmetric, "_BLOCK_BYTES", 5)
        m = random_symmetric(12, seed=3, low=-2.0, high=2.0)
        tokens = [repr(float(v)) for v in m.values]
        lines = [" ".join(tokens[k : k + width]) for k in range(0, len(tokens), width)]
        text = "12 " + "\n".join(lines) + "\n"
        loaded = _load("upper-triangle-text", text.encode("ascii"))
        assert np.array_equal(loaded.values.view(np.uint64), m.values.view(np.uint64))

    def test_invalid_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(FormatError, match=r"^line 1: invalid UTF-8 byte 0xff$"):
            load_matrix(MatrixSource(format="dense-csv", path=path))
        # Line breaks are counted as text mode counts them: LF, CRLF, lone CR.
        path.write_bytes(b"3\r\n0.5\r0.25\n\xe9\n")
        with pytest.raises(FormatError, match=r"^line 4: invalid UTF-8 byte 0xe9$"):
            load_matrix(MatrixSource(format="upper-triangle-text", path=path))


def _load(format, raw):
    """``load_matrix`` on a file holding the bytes ``raw``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_bytes(raw)
        return load_matrix(MatrixSource(format=format, path=path))


def _read(format, fh):
    """The reader of ``format``, on the open file ``fh``."""
    return {
        "dense-csv": symmetric._read_dense,
        "upper-triangle-text": symmetric._read_upper_triangle,
        "weighted-edge-list": symmetric._read_edge_list,
    }[format](fh)


def _outcome(load):
    """What a load gives: the matrix bit for bit, or the error's class and text."""
    try:
        m = load()
    except ValueError as exc:
        return type(exc), str(exc)
    return m.n, m.values.view(np.uint64).tolist()


def _follows(outcome, expected):
    """Whether a load's outcome is the grammar's: its matrix, or its error class and line."""
    if not isinstance(outcome[0], type):
        return outcome == expected
    line = re.match(r"line (\d+): ", outcome[1])
    return outcome[0] is expected[0] and (line and int(line.group(1))) == expected[1]


class TestDenseCsvParsing:
    def load(self, text):
        return _load("dense-csv", text.encode("utf-8"))

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
        return _load("upper-triangle-text", text.encode("utf-8"))

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
        return _load("weighted-edge-list", text.encode("utf-8"))

    def test_basic_any_order(self):
        m = self.load("1 2 3.0\n0 1 5.0\n2 0 1.0\n")
        assert m.n == 3
        assert np.array_equal(m.values, [5.0, 1.0, 3.0])

    def test_self_edges_ignored(self):
        m = self.load("0 0 7.0\n0 1 2.0\n")
        assert m.n == 2
        assert m.values[0] == 2.0
        # Self-loops with other weights are no conflict.
        assert self.load("0 0 7.0\n0 1 2.0\n1 1 -1.0\n0 0 -0.0\n") == m

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

    def test_index_beyond_int32_in_a_file(self, tmp_path):
        # Indices are kept as int32, in which 2^31 would wrap: an index
        # beyond int32 widens them to int64.
        path = tmp_path / "edges.txt"
        path.write_text("0 1 1.0\n0 2147483648 1.0\n")
        message = "expected 2305843010287435776 for n=2147483649"
        with pytest.raises(FormatError, match=f"^incomplete edge list: 2 distinct pairs, {message}$"):
            load_matrix(MatrixSource(format="weighted-edge-list", path=path))

    def test_self_loops_only(self):
        with pytest.raises(FormatError, match="two nodes"):
            self.load("0 0 7.0\n")
        with pytest.raises(FormatError, match="incomplete"):
            self.load("1 1 7.0\n")
        with pytest.raises(FormatError, match="incomplete"):
            self.load("0 0 1\n1 1 1\n")

    def test_index_beyond_int64_is_named_at_its_line(self):
        with pytest.raises(FormatError) as error:
            self.load("0 1 1.0\n0 99999999999999999999 1.0\n")
        message = "line 2: node index above 9223372036854775807 in '0 99999999999999999999 1.0'"
        assert str(error.value) == message

    def test_the_last_of_equal_weights_wins(self):
        # 0.0 == -0.0, so the pair does not conflict, and its last line wins.
        for first, last in (("0.0", "-0.0"), ("-0.0", "0.0")):
            m = self.load(f"0 1 {first}\n0 2 1.0\n1 0 {last}\n1 2 1.0\n")
            assert m.values.tobytes() == np.array([float(last), 1.0, 1.0]).tobytes()


# The parsing cases above, and a few more, against the grammar's reference.
FILE_CASES = {
    "dense-csv": [
        "0,5,1\n5,0,3\n1,3,0\n",
        "9,5\n5,-9\n",
        "0,1\n0\n",
        "0,1,2\n1,0,3\n",
        "0,inf\ninf,0\n",
        "1e400,0\n0,0\n",
        "0,1\n  \n\t\n1,0\n",
        "0,\x0b1\x0c\n1,0\n",
        "0,1_0\n1_0,0\n",
        "0,1\n2,0\n",
        "1\n",
        "",
    ],
    "upper-triangle-text": [
        "3\n5\n1\n3\n",
        "3 5 1 3",
        "3\n5\n1\n",
        "3\n5\n1\n3\n4\n",
        "3 5 1 3 # note\n",
        "3 5\x0b1\x0c3\n",
        "3.0 5 1 3\n",
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
        "0 2147483647 1.0\n",
        "0 2147483648 1.0\n",
        "0 1 1.0\n2147483648 0 1.0\n",
        "0 4294967297 1.0\n",
        "0 -2147483649 1.0\n",
        "0 -4294967295 1.0\n",
        "0 9223372036854775807 1.0\n",
        "0 99999999999999999999 1.0\n",
        "0 1 2.0\n1 0 2.5\n0 2 1.0\n1 2 1.0\n",
        "0 1 0.0\n1 0 -0.0\n",
        "0 0 7.0\n",
        "1 1 7.0\n",
        "0 0 1\n1 1 1\n",
        "",
    ],
}


@pytest.mark.parametrize(
    "format, text", [(f, text) for f, texts in FILE_CASES.items() for text in texts]
)
def test_file_cases_follow_the_grammar(format, text):
    raw = text.encode("utf-8")
    assert _follows(_outcome(lambda: _load(format, raw)), grammar_outcome(format, raw))


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
        sep = draw(st.sampled_from([",", ", ", ",\t", ",\x0c"]))
    elif format == "upper-triangle-text":
        tokens = [repr(v) for v in values]
        width = draw(st.integers(1, 3))
        rows = [[str(n)]] + [tokens[k : k + width] for k in range(0, len(tokens), width)]
        if draw(st.booleans()):  # values share the dimension's line
            rows[0:2] = [rows[0] + rows[1]]
        sep = draw(st.sampled_from([" ", "\t", "  ", "\x0b"]))
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


@pytest.mark.parametrize("token", AWKWARD_TOKENS + ["\uff11\uff12", "\xa0", "\x0b"])
@pytest.mark.parametrize(
    "format, template",
    [
        ("dense-csv", "0,{t}\n{t},0\n"),
        ("upper-triangle-text", "3 0.5 {t} 0.25\n"),
        ("weighted-edge-list", "0 1 {t}\n"),
    ],
)
def test_awkward_tokens_follow_the_grammar(format, template, token):
    raw = template.format(t=token).encode("utf-8")
    outcome = _outcome(lambda: _load(format, raw))
    assert _follows(outcome, grammar_outcome(format, raw))
    if token in ("1_0", "\u0661", "\uff11\uff12"):  # float() takes them, the grammar does not
        assert outcome == (FormatError, f"line 1: non-numeric value {token!r}")


@pytest.mark.parametrize("format", symmetric.FORMATS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_follows_the_grammar(format, data):
    raw = data.draw(matrix_texts(format)).encode("utf-8")
    assert _follows(_outcome(lambda: _load(format, raw)), grammar_outcome(format, raw))


@pytest.mark.parametrize("format", symmetric.FORMATS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_block_splits_do_not_change_the_outcome(format, data):
    # Blocks of a few bytes put block edges inside and between lines,
    # between a CR and its LF, and inside the dimension's line; a few bytes
    # of tokens or a few edge keys at a time split the work inside a block
    # too. An error's text, its line number included, is the one read in one
    # block.
    # Patched in the body: hypothesis refuses function-scoped fixtures like
    # monkeypatch.
    raw = data.draw(matrix_texts(format)).encode("utf-8")
    expected = _outcome(lambda: _load(format, raw))
    with mock.patch.multiple(
        symmetric,
        _BLOCK_BYTES=data.draw(st.one_of(st.integers(1, 12), st.just(1 << 20))),
        _TOKEN_BYTES=data.draw(st.integers(1, 8)),
        _KEY_BLOCK=data.draw(st.integers(1, 4)),
    ):
        assert _outcome(lambda: _load(format, raw)) == expected


@pytest.mark.parametrize("format", symmetric.FORMATS)
@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_small_chunks_give_the_saved_matrix(format, chunk, monkeypatch):
    # Saved text read in one block, then converted a few bytes of tokens
    # or a few edge keys at a time. An edge list is also read shuffled, with
    # repeats: two of equal weights, one of them reversed, and the zero pair
    # again as -0.0, where the last line wins. The scatter, the bit check
    # and the last-wins fix each cross key blocks.
    monkeypatch.setattr(symmetric, "_TOKEN_BYTES", chunk)
    monkeypatch.setattr(symmetric, "_KEY_BLOCK", chunk)
    values = random_symmetric(12, seed=chunk, low=-2.0, high=2.0).values.copy()
    values[3] = 0.0  # pair (0, 4)
    buf = io.StringIO()
    symmetric._emit(SymmetricMatrix(12, values), buf, format)
    assert _load(format, buf.getvalue().encode("ascii")).values.tobytes() == values.tobytes()
    if format == "weighted-edge-list":
        lines = buf.getvalue().splitlines(keepends=True)
        i, j, w = lines[20].split()
        lines += [lines[7], f"{j} {i} {w}\n", "4 0 -0.0\n"]
        np.random.default_rng(chunk).shuffle(lines)
        zero = next(line for line in reversed(lines) if sorted(line.split()[:2]) == ["0", "4"])
        values[3] = float(zero.split()[2])
        loaded = _load(format, "".join(lines).encode("ascii"))
        assert loaded.values.tobytes() == values.tobytes()


class CountingReader(io.BytesIO):
    """A file in memory that counts the bytes read from it."""

    bytes_read = 0

    def read(self, size=-1):
        data = super().read(size)
        self.bytes_read += len(data)
        return data


class TestBlockReader:
    def blocks(self, raw):
        return [block for _, _, block in symmetric._blocks(io.BytesIO(raw))]

    @pytest.mark.parametrize("block_bytes", range(1, 12))
    def test_crlf_split_between_reads_is_one_line_end(self, block_bytes, monkeypatch):
        monkeypatch.setattr(symmetric, "_BLOCK_BYTES", block_bytes)
        blocks = self.blocks(b"0,1.5\r\n1\n2\r\n3\n4,5\r6\r\n7\n8\r")
        assert b"".join(blocks) == b"0,1.5\n1\n2\n3\n4,5\n6\n7\n8\n"
        assert all(block.endswith(b"\n") for block in blocks)

    @pytest.mark.parametrize("block_bytes", range(1, 12))
    def test_each_block_knows_its_first_line_and_offset(self, block_bytes, monkeypatch):
        monkeypatch.setattr(symmetric, "_BLOCK_BYTES", block_bytes)
        raw = b"0 1\r\n\r\n  \n2\r3 4\r\n\n5\r\r6\n"
        for lineno, offset, block in symmetric._blocks(io.BytesIO(raw)):
            head = raw[:offset]
            assert lineno == 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            rest = raw[offset:].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            assert rest.startswith(block)
            # Read again from its offset, a block gives the same first line.
            again = next(symmetric._blocks(io.BytesIO(raw), offset, lineno))
            assert again[:2] == (lineno, offset)
            assert block.split(b"\n")[0] == again[2].split(b"\n")[0]

    def test_cr_ending_one_block_and_lf_starting_the_next(self, monkeypatch):
        # The first read ends on the CR of "3 1\r\n" and the second starts
        # with its LF: the CR waits for it, and no empty line appears.
        monkeypatch.setattr(symmetric, "_BLOCK_BYTES", 4)
        raw = b"3 1\r\n2\n3\n"
        assert raw[:4].endswith(b"\r") and raw[4:5] == b"\n"
        assert self.blocks(raw) == [b"3 1\n2\n", b"3\n"]
        loaded = _load("upper-triangle-text", raw)
        assert loaded.values.tolist() == [1.0, 2.0, 3.0]

    def test_whitespace_blocks_are_skipped(self, monkeypatch):
        monkeypatch.setattr(symmetric, "_BLOCK_BYTES", 2)
        assert self.blocks(b"\n  \n3\n\t\n") == [b"3\n"]
        assert self.blocks(b" \r\n") == []

    @pytest.mark.parametrize(
        "format, raw, message",
        [
            ("dense-csv", b"0,1\r\n1,0\r\n# late\r\n", "line 3: non-numeric value '# late'"),
            ("upper-triangle-text", b"3\n1\n2\n\n# 3\n", "line 5: non-numeric value '#'"),
            ("weighted-edge-list", b"0 1 1\r\r# 0 2 1\n", "line 3: expected 'i j w', got '# 0 2 1'"),
        ],
    )
    def test_a_faulty_file_is_read_no_further_than_its_fault(self, format, raw, message, monkeypatch):
        monkeypatch.setattr(symmetric, "_BLOCK_BYTES", 4)
        for text in (raw, raw + 100 * b"0 0 0\n"):
            fh = CountingReader(text)
            with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
                _read(format, fh)
            # An edge list's first pass counts every line.
            assert fh.bytes_read <= len(raw) + 8 + (len(text) if format == "weighted-edge-list" else 0)


def test_asymmetry_in_a_later_block_is_named_once_every_row_is_read(monkeypatch):
    # Rows 0-34 are symmetric; only row 35, many blocks in, disagrees with
    # row 3. The error names that pair, and the file is read once.
    monkeypatch.setattr(symmetric, "_BLOCK_BYTES", 64)
    dense = random_symmetric(40, seed=12).dense()
    dense[35, 3] += 1e-3
    lines = [",".join(repr(float(x)) for x in row) + "\n" for row in dense]
    assert len("".join(lines[:35])) > 20 * 64
    fh = CountingReader("".join(lines).encode("ascii"))
    message = "entries (3,35) and (35,3) differ by 1.000e-03, beyond tolerance 1.000e-09"
    with pytest.raises(AsymmetryError, match=f"^{re.escape(message)}$"):
        symmetric._read_dense(fh)
    assert fh.bytes_read == len(fh.getvalue())


@pytest.mark.parametrize("seed", range(24))
def test_asymmetry_error_names_the_worst_pair(seed):
    # Several bad pairs, against a scan of the whole n x n array. Odd seeds
    # hold eighths in [-1, 1], where max(1, |x|) clamps, each bad pair off by
    # the same 2^-20: excesses tie, in both orientations of a pair and across
    # pairs, and the first in row-major order is named.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    if seed % 2:
        a = np.triu(rng.integers(-8, 9, (n, n)) / 8, 1)
        a += a.T
        offsets = [2.0**-20] * 4
    else:
        a = random_symmetric(n, seed, low=-3.0, high=3.0).dense()
        offsets = rng.choice([1e-6, -2e-6, 3e-6, 5e-7], 4)
    for offset in offsets:
        i, j = rng.choice(n, 2, replace=False)
        a[i, j] += offset
    gap = np.abs(a - a.T)
    bound = symmetric._SYMMETRY_RTOL * np.maximum(1, np.abs(a))
    i, j = np.unravel_index(np.argmax(gap - bound), a.shape)
    message = (
        f"entries ({i},{j}) and ({j},{i}) differ by {gap[i, j]:.3e}, "
        f"beyond tolerance {bound[i, j]:.3e}"
    )
    text = "".join(",".join(map(repr, row)) + "\n" for row in a.tolist())
    with pytest.raises(AsymmetryError, match=f"^{re.escape(message)}$"):
        SymmetricMatrix.from_dense(a)
    with pytest.raises(AsymmetryError, match=f"^{re.escape(message)}$"):
        _load("dense-csv", text.encode("ascii"))


def test_dimension_too_large_for_the_file_allocates_nothing():
    tracemalloc.start()
    try:
        message = "expected 4999999950000000 values for n=100000000, got 2"
        with pytest.raises(FormatError, match=f"^{message}$"):
            symmetric._read_upper_triangle(io.BytesIO(b"100000000\n0.5\n0.25\n"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dense_row_too_wide_for_the_file_allocates_nothing():
    # The packed array of the first row's width would be 40 GB: the rows
    # are only counted, and the errors are those of the whole text.
    raw = (",".join(["0"] * 100_000) + "\n").encode("ascii")
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="^line 2: expected 100000 columns, got 2$"):
            symmetric._read_dense(io.BytesIO(raw + b"0,1\n"))
        with pytest.raises(FormatError, match="^expected a square matrix, got 2 rows x 100000"):
            symmetric._read_dense(io.BytesIO(2 * raw))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


class TestShuffledEdgeList:
    def lines(self, n, seed):
        m = random_symmetric(n, seed=seed, low=-3.0, high=3.0)
        rows, cols = pair_indices(n)
        lines = [f"{i} {j} {w!r}" for i, j, w in zip(rows.tolist(), cols.tolist(), m.values.tolist())]
        np.random.default_rng(seed).shuffle(lines)
        return m, lines

    def test_duplicates_in_different_blocks(self, monkeypatch):
        monkeypatch.setattr(symmetric, "_BLOCK_BYTES", 32)
        monkeypatch.setattr(symmetric, "_KEY_BLOCK", 4)
        m, lines = self.lines(9, seed=4)
        # The first pair again, reversed, at the end, and a self-loop in between.
        i, j, w = lines[0].split()
        lines += ["5 5 -7.0", f"{j} {i} {w}", lines[1]]
        raw = ("\n".join(lines) + "\n").encode("ascii")
        assert _load("weighted-edge-list", raw) == m

    def test_two_lines_out_of_pack_order(self):
        # Every pair once, the first key 0 and N lines, yet two lines are
        # swapped: each weight goes to its pair's slot, not its line's.
        m = random_symmetric(9, seed=6)
        rows, cols = pair_indices(9)
        lines = [f"{i} {j} {w!r}" for i, j, w in zip(rows.tolist(), cols.tolist(), m.values.tolist())]
        lines[3], lines[30] = lines[30], lines[3]
        raw = ("\n".join(lines) + "\n").encode("ascii")
        assert _load("weighted-edge-list", raw).values.tobytes() == m.values.tobytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_conflicting_duplicate_in_a_later_block(self, newline, monkeypatch):
        # The line is found by reading its block again, and only that block.
        monkeypatch.setattr(symmetric, "_BLOCK_BYTES", 32)
        _, lines = self.lines(9, seed=5)
        i, j, w = lines[0].split()
        lines.insert(30, f"{j} {i} {float(w) + 1.0!r}")
        lines[20:20] = ["", "  "]  # blank lines count too
        fh = CountingReader((newline.join(lines) + newline).encode("ascii"))
        pair = (min(int(i), int(j)), max(int(i), int(j)))
        message = f"line 33: pair {pair} repeated with conflicting weights {float(w)!r} and {float(w) + 1.0!r}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            symmetric._read_edge_list(fh)
        assert fh.bytes_read <= 2 * len(fh.getvalue()) + 2 * 32


def test_save_handles_extreme_values(tmp_path):
    # Shortest-repr emission must survive subnormals and large magnitudes.
    values = np.array([5e-324, 1.7976931348623157e308, -1e-300, math.pi, 0.1, -0.0])
    m = SymmetricMatrix(4, values)
    for format in ("dense-csv", "upper-triangle-text", "weighted-edge-list"):
        path = tmp_path / "extreme.txt"
        save_matrix(m, path, format=format)
        assert np.array_equal(load_matrix(MatrixSource(format=format, path=path)).values, values)


# Byte ranges: a file on disk is cut at line ends into one range per CPU, two
# at most, parsed by forked workers; values and errors must be those of one
# range. Tests patch the cap to cut up to four.


def _line_ends(raw):
    """The offset just past each line end of ``raw``, a CRLF counted once."""
    return [m.end() for m in re.finditer(rb"\r\n|\r|\n", raw)]


def _cut_at(cuts):
    """A stand-in for ``symmetric._ranges`` that cuts every file at the offsets ``cuts``."""

    def ranges(fh):
        points = [0, *cuts, fh.seek(0, io.SEEK_END)]
        return list(zip(points, points[1:]))

    return ranges


def _cuts(raw):
    """Every cut of ``raw`` into 2 ranges, every cut into 3, and one into 4, at its line ends."""
    ends = [at for at in _line_ends(raw) if at < len(raw)]
    yield from ([at] for at in ends)
    yield from ([a, b] for k, a in enumerate(ends) for b in ends[k + 1 :])
    if len(ends) >= 3:
        yield ends[:: max(1, len(ends) // 3)][:3]


# Files of a few lines with a fault in a range of its own, or one that only
# shows once every range is read. LF, CRLF, lone CR and runs of blank lines
# sit next to the cuts, and the dimension line of upper-triangle text too.
RANGE_CASES = {
    "dense-csv": [
        "0,1,2,3\r\n1,0,4,5\r\n\r\n\n  \n2,4,0,6\r3,5,6,0\r\n",
        "0,1,2,3\n1,0,4,5\nx,4,0,6\n3,5,6,0\n",  # a fault in a later line
        "0,1,2,3\n1,0,4\n2,4,0,6\n3,5,6,y\n",  # faults on both sides of a cut
        "0,1,2,3\n1,0,4,5\n2,4,0,6\n3,5,6,inf\n",
        "0,1,2,3\n1,0,4,5\n2,4,0,6\n3.5,5,6,0\n",  # asymmetric: rows 0 and 3
        "0,1,2,3\n1,0,4,5\n2,4,0,6\n",  # a row short
        "0,1,2,3\n1,0,4,5\n2,4,0,6\n3,5,6,0\n3,5,6,0\n",  # a row too many
        "0,1,2,3\n1,0,4,5\n2,4,0,6\n3,5,6,0\n# note\n",
    ],
    "upper-triangle-text": [
        "4\r\n\r\n\n1 2\r\n3\n\n4 5\r6\n",
        "4\n1 2 3 4 5 6\n",
        "  \n\n4\n1 2 3\n4 5 6\n",
        "4 1\n2\n3\n4\n5\n6\n7\n",  # one value too many, in the last line
        "4\n1\n2\n3\n4\n5\n",  # too few values
        "4\n1\n2\nx\n4\n5\n6\n",
        "4\n1\n2\nx\n4\n5\n1e400\n",  # faults on both sides of a cut
        "4.0\n1\n2\n3\n4\n5\n6\n",
        "1\n1\n2\n",
    ],
    "weighted-edge-list": [
        "2 3 6\r\n0 1 1\r\n\r\n\n1 2 4\r0 2 2\n3 1 5\n0 3 3\n",
        "0 1 1\n0 2 2\n0 3 3\n1 2 4\n1 3 5\n2 3 6\n1 0 1.5\n",  # a conflicting repeat
        "0 1 1\n0 2 2\n1 0 1.5\n0 3 3\n1 2 4\n1 3 5\n2 3 6\n2 0 2.5\n",  # two
        "0 1 1\n0 2 2\n0 3 3\n1 2 4\n1 3 5\n3 3 6\n",  # a pair missing
        "0 1 1\n0 2 2\n0 3\n1 2 4\n1 3 5\n2 3 6\n",
        "0 1 1\n0 2 x\n0 3 3\n1 2 4\n1 -3 5\n2 3 6\n",  # faults on both sides of a cut
        "0 1 1\n0 2 2\n0 3 3\n1 2 4\n1 3 5\n2 3 6\n0 1 -0.0\n1 0 1\n",
    ],
}


@pytest.mark.parametrize(
    "format, text", [(f, text) for f, texts in RANGE_CASES.items() for text in texts]
)
def test_range_cuts_do_not_change_the_outcome(format, text, monkeypatch):
    # The values bit for bit, or the error's class and text, line number
    # included, are those of the file read as one range, wherever it is cut.
    raw = text.encode("ascii")
    expected = _outcome(lambda: _load(format, raw))
    assert _follows(expected, grammar_outcome(format, raw))
    for cuts in _cuts(raw):
        monkeypatch.setattr(symmetric, "_ranges", _cut_at(cuts))
        assert _outcome(lambda: _load(format, raw)) == expected, cuts


@pytest.mark.parametrize(
    "format, lines, fault, message",
    [
        ("dense-csv", ["0,1,2,3", "1,0,4,5", "2,4,0,6", "3,5,6,0"], "1,x,3,4", "non-numeric value 'x'"),
        ("upper-triangle-text", ["4 1", "2 3", "4 5", "6"], "1e400", "non-finite value '1e400'"),
        ("weighted-edge-list", ["0 1 1", "0 2 2", "1 2 3", "0 0 5"], "0 1", "expected 'i j w', got '0 1'"),
    ],
)
def test_the_first_fault_is_named_whichever_range_holds_it(format, lines, fault, message, monkeypatch):
    # Lines 3, 6, 17 and 20 of 24, the rest blank, in 3 ranges: lines 1-12,
    # 13-14 and 15-24. A fault in the first, in a later one, or one on each
    # side of a cut, where the earlier wins.
    body = [""] * 24
    for k, line in zip((2, 5, 16, 19), lines):
        body[k] = line
    for at in ((5,), (16,), (5, 19), (16, 19)):
        faulty = list(body)
        for k in at:
            faulty[k] = fault
        cut = len("\r\n".join(faulty[:12]).encode()) + 2
        monkeypatch.setattr(symmetric, "_ranges", _cut_at([cut, cut + 4]))
        raw = ("\r\n".join(faulty) + "\r\n").encode("ascii")
        with pytest.raises(FormatError, match=f"^line {at[0] + 1}: {re.escape(message)}$"):
            _load(format, raw)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("format", symmetric.FORMATS)
def test_ranges_follow_the_cpus_and_end_at_line_ends(cpus, format, tmp_path, monkeypatch):
    # One range per CPU, up to 4 here, while each gets _RANGE_BYTES, each
    # ending at a line end, never between a CR and its LF; the outcome is
    # unchanged.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(symmetric, "_RANGE_BYTES", 8)
    monkeypatch.setattr(symmetric, "_MAX_RANGES", 4)
    text = RANGE_CASES[format][0].encode("ascii")
    path = tmp_path / "m.txt"
    for pad in range(12):
        raw = b" " * pad + text
        path.write_bytes(raw)
        with open(path, "rb") as fh:
            spans = symmetric._ranges(fh)
        assert len(spans) == min(cpus, len(raw) // 8)
        assert [start for start, _ in spans] == [0, *(stop for _, stop in spans[:-1])]
        assert spans[-1][1] == len(raw)
        assert {stop for _, stop in spans[:-1]} <= set(_line_ends(raw))
        # Read from memory, a file is one range.
        assert _outcome(lambda: _load(format, raw)) == _outcome(lambda: _read(format, io.BytesIO(raw)))


def test_ranges_are_two_at_most(tmp_path, monkeypatch):
    # More ranges than two were never timed on more CPUs than two.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(symmetric, "_RANGE_BYTES", 1)
    path = tmp_path / "m.txt"
    path.write_bytes(DENSE.encode("ascii"))
    with open(path, "rb") as fh:
        assert len(symmetric._ranges(fh)) == 2


def test_ranges_are_cut_only_for_files_on_disk(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(symmetric, "_RANGE_BYTES", 1)
    assert symmetric._ranges(io.BytesIO(b"0,1\n1,0\n")) == [(0, 8)]
    monkeypatch.setattr(forked, "may_fork", lambda: False)  # not Linux, say
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_bytes(b"0,1\n1,0\n")
        with open(path, "rb") as fh:
            assert symmetric._ranges(fh) == [(0, 8)]


@pytest.mark.parametrize("format", symmetric.FORMATS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_byte_ranges_do_not_change_the_outcome(format, data):
    # 2 to 4 ranges of a few bytes each, over blocks of a few bytes.
    raw = data.draw(matrix_texts(format)).encode("utf-8")
    expected = _outcome(lambda: _load(format, raw))
    cpus = data.draw(st.integers(2, 4))
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))), mock.patch.multiple(
        symmetric, _RANGE_BYTES=1, _MAX_RANGES=cpus, _BLOCK_BYTES=data.draw(st.sampled_from([3, 1 << 20]))
    ):
        assert _outcome(lambda: _load(format, raw)) == expected


@pytest.fixture
def forks(forks, monkeypatch):
    """The pids of the worker processes forked during the test; four ranges for any file."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(symmetric, "_RANGE_BYTES", 16)
    monkeypatch.setattr(symmetric, "_MAX_RANGES", 4)
    return forks


def _reaped(pids):
    """Whether every process in ``pids`` has ended and been reaped."""
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        return False
    return True


DENSE = "".join(",".join(map(repr, row)) + "\n" for row in random_symmetric(12, seed=5).dense().tolist())


def test_no_worker_outlives_a_load(forks):
    m = _load("dense-csv", DENSE.encode("ascii"))
    assert m == random_symmetric(12, seed=5)
    assert len(forks) == 3 and _reaped(forks)
    forks.clear()
    rows = DENSE.splitlines(keepends=True)
    rows[10] = "x" + rows[10][rows[10].index(",") :]
    with pytest.raises(FormatError, match="^line 11: non-numeric value 'x'$"):
        _load("dense-csv", "".join(rows).encode("ascii"))
    assert len(forks) == 3 and _reaped(forks)


def test_a_worker_block_is_read_again_from_its_own_offset(monkeypatch):
    # A fault in line 11 of 12, in the second of two ranges, lines 7-12:
    # this process counts the lines of the first range and reads the
    # refused block from its offset, never the second range from its start.
    monkeypatch.setattr(symmetric, "_BLOCK_BYTES", 16)
    rows = DENSE.splitlines(keepends=True)
    rows[10] = "x" + rows[10][rows[10].index(",") :]
    cut = len("".join(rows[:6]))
    monkeypatch.setattr(symmetric, "_ranges", _cut_at([cut]))
    starts, blocks = [], symmetric._blocks

    def recorded(fh, start=0, *args, **kwargs):
        starts.append(start)  # in this process: a worker appends to its own copy
        return blocks(fh, start, *args, **kwargs)

    monkeypatch.setattr(symmetric, "_blocks", recorded)
    with pytest.raises(FormatError, match="^line 11: non-numeric value 'x'$"):
        _load("dense-csv", "".join(rows).encode("ascii"))
    assert cut not in starts
    assert len("".join(rows[:10])) in starts


@pytest.mark.parametrize("when", ["before parsing", "holding its blocks"])
def test_a_killed_worker_is_an_error_not_a_hang(forks, monkeypatch, when):
    held_blocks = symmetric._held_blocks

    def killed(*args):
        held = held_blocks(*args) if when == "holding its blocks" else None
        os.kill(os.getpid(), signal.SIGKILL)
        return held

    monkeypatch.setattr(symmetric, "_held_blocks", killed)
    with pytest.raises(ChildProcessError, match=r"^worker process \d+ ended before sending its results$"):
        _load("dense-csv", DENSE.encode("ascii"))
    assert len(forks) == 3 and _reaped(forks)


def test_interrupted_load_reaps_its_workers(forks, monkeypatch):
    # KeyboardInterrupt in this process, folding its own range's second block.
    parent, calls = os.getpid(), []
    value = symmetric._value

    def interrupted(convert, text):
        calls.append(os.getpid())
        if calls.count(parent) == 2 and os.getpid() == parent:
            raise KeyboardInterrupt
        return value(convert, text)

    monkeypatch.setattr(symmetric, "_value", interrupted)
    monkeypatch.setattr(symmetric, "_BLOCK_BYTES", 64)
    with pytest.raises(KeyboardInterrupt):
        _load("dense-csv", DENSE.encode("ascii"))
    assert len(forks) == 3 and _reaped(forks)


def test_a_worker_task_error_is_raised_here(forks, monkeypatch):
    def failing(*args):
        raise MemoryError("no room")

    monkeypatch.setattr(symmetric, "_held_blocks", failing)
    with pytest.raises(RuntimeError, match=r"^worker process \d+ failed: MemoryError: no room$"):
        _load("dense-csv", DENSE.encode("ascii"))
    assert _reaped(forks)


def test_workers_open_no_path(forks, monkeypatch):
    # Workers read the descriptor they inherit, so a host without /proc
    # mounted loads like any other.
    real_open = builtins.open

    def no_proc(file, *args, **kwargs):
        if str(file).startswith("/proc"):
            raise FileNotFoundError(2, "No such file or directory", str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", no_proc)
    assert _load("dense-csv", DENSE.encode("ascii")) == random_symmetric(12, seed=5)
    assert len(forks) == 3 and _reaped(forks)


def test_no_fork_while_another_thread_runs(forks):
    # A worker would inherit the locks the other thread holds.
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _load("dense-csv", DENSE.encode("ascii")) == random_symmetric(12, seed=5)
    finally:
        release.set()
        thread.join()
    assert forks == []


def test_workers_are_forked_only_on_linux_with_no_other_thread(monkeypatch):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not forked.may_fork()
    finally:
        release.set()
        thread.join()
    assert forked.may_fork() == sys.platform.startswith("linux")
    monkeypatch.setattr(sys, "platform", "darwin")
    assert not forked.may_fork()


def test_cli_import_and_a_small_load_leave_the_fork_helper_unloaded(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(DENSE)
    script = (
        "import sys, rankspectral.cli\n"
        "loaded = 'rankspectral.forked' in sys.modules\n"
        "rankspectral.load_matrix(rankspectral.MatrixSource('dense-csv', sys.argv[1]))\n"
        "print(loaded, 'rankspectral.forked' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)], capture_output=True, text=True, env=checkout_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"
