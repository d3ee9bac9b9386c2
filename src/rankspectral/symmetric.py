"""Hollow symmetric matrices in the one layout they are stored in, the one the eigensolver reads.

An n x n symmetric matrix with zero diagonal is stored only as ``blas``, the
lower-packed layout of BLAS ``dspmv`` (``lower=1``): n(n+1)/2 slots, where
row i is its diagonal +0.0 at slot ``diagonal_slots(n)[i]`` = i n - i(i-1)/2
followed by row i's entries right of the diagonal. Row-major order is only
the order of the N = n(n-1)/2 strict upper-triangle entries in ``values``,
in files and in ``pack_index``, that of ``np.triu_indices(n, 1)``: entry
(i, j), i < j, at ``row_offsets(n)[i] + j``, which is its slot less i + 1.
``dspmv`` sums the upper-packed layout (``lower=0``) in another order, so an
eigenpair computed from that layout can differ from this one's in its last
bits: the leading eigenvalue by a few ulp (at most 3 ulp in measurements up
to n = 2000). This module owns the map between row-major positions and
slots; no other module computes either. Dense form is materialized only
where LAPACK needs it.
"""

from __future__ import annotations

import array
import functools
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

import numpy as np

FORMATS = ("dense-csv", "upper-triangle-text", "weighted-edge-list")

_SYMMETRY_RTOL = 1e-9


class FormatError(ValueError):
    """Malformed matrix input (shape, tokens, pair coverage)."""


class AsymmetryError(FormatError):
    """Dense input violates the symmetry tolerance."""


def pack_index(i: int, j: int, n: int) -> int:
    """Map the pair (i, j), i < j, to its packed position.

    Parameters
    ----------
    i, j : int
        Zero-based indices with 0 <= i < j < n.
    n : int
        Matrix dimension.

    Returns
    -------
    int
        Position k in [0, n(n-1)/2) such that pair (i, j) is the k-th strict
        upper-triangle entry in row-major order.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got n={n}")
    if not (0 <= i < j < n):
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of the strict upper triangle, pack order."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got n={n}")
    return np.triu_indices(n, k=1)


def row_offsets(n: int) -> np.ndarray:
    """offsets[i] = pack_index(i, j, n) - j, i = 0..n-1: row i's row-major offset."""
    i = np.arange(n)
    return i * (2 * n - i - 1) // 2 - i - 1


def diagonal_slots(n: int) -> np.ndarray:
    """slot[i] = i n - i(i-1)/2, i = 0..n-1: the lower-packed slot of diagonal entry (i, i).

    Each is the start of row i in the lower-packed layout.
    """
    i = np.arange(n)
    return i * n - i * (i - 1) // 2


def lower_rows(n: int) -> Iterator[tuple[slice, slice]]:
    """(row-major, lower-packed) slices of row i's entries right of the diagonal, i = 0..n-1."""
    for i, start in enumerate(diagonal_slots(n).tolist()):
        yield slice(start - i, start + n - 2 * i - 1), slice(start + 1, start + n - i)


def spread_rows(blas: np.ndarray, n: int) -> np.ndarray:
    """Move the row-major values held in ``blas[n:]`` to their lower-packed slots, in place.

    Row i's target ends exactly where its source starts, so taking the rows
    in order, no move overlaps itself or a row still to move. Each diagonal
    slot gets +0.0. Returns ``blas``.
    """
    for row, slots in lower_rows(n):
        blas[slots] = blas[row.start + n : row.stop + n]
        blas[slots.start - 1] = 0.0
    return blas


def _check_dimension(n: int) -> None:
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got n={n}")


def _checked_buffer(n: int, blas: np.ndarray) -> np.ndarray:
    """``blas`` made read-only, once n, its shape and its entries are valid."""
    _check_dimension(n)
    if blas.ndim != 1 or blas.shape[0] != n * (n + 1) // 2:
        raise ValueError(
            f"expected {n * (n + 1) // 2} lower-packed entries for n={n}, got shape {blas.shape}"
        )
    # The minimum and maximum are nan if any entry is, and infinite if one is.
    if not (math.isfinite(blas.min()) and math.isfinite(blas.max())):
        raise ValueError("matrix entries must be finite")
    blas.flags.writeable = False
    return blas


class SymmetricMatrix:
    """Symmetric matrix with zero diagonal, stored only as ``blas``, its n(n+1)/2 packed slots.

    Parameters
    ----------
    n : int
        Dimension, >= 2.
    values : array_like
        The n(n-1)/2 strict upper-triangle entries in row-major order. Must
        be finite. Copied into ``blas``, which is read-only.
    """

    def __init__(self, n: int, values: np.ndarray) -> None:
        _check_dimension(n)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (n * (n - 1) // 2,):
            raise ValueError(
                f"expected {n * (n - 1) // 2} packed values for n={n}, got shape {values.shape}"
            )
        blas = np.empty(n * (n + 1) // 2)
        blas[n:] = values
        self.n = n
        self.blas = _checked_buffer(n, spread_rows(blas, n))

    @classmethod
    def adopt(cls, n: int, blas: np.ndarray) -> "SymmetricMatrix":
        """Wrap a lower-packed float64 buffer that nothing else holds, without a copy.

        For buffers a caller has just filled, +0.0 in each diagonal slot: the
        checks are the constructor's, and ``blas`` itself is made read-only.
        """
        matrix = cls.__new__(cls)
        matrix.n = n
        matrix.blas = _checked_buffer(n, blas)
        return matrix

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The N strict upper-triangle entries, row-major, copied from ``blas`` once; read-only."""
        values = np.empty(self.n_pairs)
        for row, slots in lower_rows(self.n):
            values[row] = self.blas[slots]
        values.flags.writeable = False
        return values

    @property
    def n_pairs(self) -> int:
        """Number of stored entries, n(n-1)/2."""
        return self.n * (self.n - 1) // 2

    @staticmethod
    def from_dense(array: np.ndarray) -> "SymmetricMatrix":
        """Build from a dense square array.

        The array must be symmetric within ``|A_ij - A_ji| <= 1e-9 *
        max(1, |A_ij|)`` entrywise; the two triangles are averaged and the
        diagonal is discarded.

        The rows are folded one at a time into the row-major tail of the
        result's buffer (see ``_merge_rows``), then spread into place, so no
        n x n temporary is made. Only an asymmetric array is scanned whole
        again, to name its worst pair.
        """
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise FormatError(f"expected a square array, got shape {arr.shape}")
        n = arr.shape[0]
        if n < 2:
            raise FormatError(f"dimension must be >= 2, got n={n}")
        blas = np.empty(n * (n + 1) // 2)
        if not _merge_rows(blas[n:], arr, 0):
            gap = np.abs(arr - arr.T)
            bound = _SYMMETRY_RTOL * np.maximum(1.0, np.abs(arr))
            i, j = np.unravel_index(int(np.argmax(gap - bound)), arr.shape)
            raise AsymmetryError(
                f"entries ({i},{j}) and ({j},{i}) differ by {gap[i, j]:.3e}, "
                f"beyond tolerance {bound[i, j]:.3e}"
            )
        return SymmetricMatrix.adopt(n, spread_rows(blas, n))

    def dense(self) -> np.ndarray:
        """Materialize the full n x n array, a row of the upper triangle at a time."""
        n = self.n
        out = np.zeros((n, n))
        for i, (_, slots) in enumerate(lower_rows(n)):
            row = self.blas[slots]
            out[i, i + 1 :] = row
            out[i + 1 :, i] = row
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymmetricMatrix):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.blas, other.blas)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


def _merge_rows(values: np.ndarray, rows: np.ndarray, first: int) -> bool:
    """Fold rows ``first``, ``first + 1``, ... of a dense n x n array into ``values``.

    Row g's upper part fills its packed segment. Its lower part meets the
    entries (j, g), j < g, that rows before it stored, and each such pair
    keeps what :meth:`SymmetricMatrix.from_dense` makes of it: the stored
    entry itself when the two are equal, so saving and reloading is
    bit-exact, else their mean, halved before adding to avoid overflow.
    Returns False, with ``values`` part written,
    at the first row holding a pair farther apart than ``_SYMMETRY_RTOL *
    max(1, |entry|)`` for either of its two entries.
    """
    n = rows.shape[1]
    offsets = row_offsets(n)
    for g, row in enumerate(rows, start=first):
        start = offsets[g] + g + 1
        values[start : start + n - 1 - g] = row[g + 1 :]
        at = offsets[:g] + g
        upper = values[at]
        lower = row[:g]
        if np.array_equal(upper, lower):
            continue
        gap = np.abs(upper - lower)
        if np.any(gap > _SYMMETRY_RTOL * np.maximum(1.0, np.abs(upper))) or np.any(
            gap > _SYMMETRY_RTOL * np.maximum(1.0, np.abs(lower))
        ):
            return False
        values[at] = np.where(upper == lower, upper, 0.5 * upper + 0.5 * lower)
    return True


@dataclass(frozen=True)
class MatrixSource:
    """The file to read a matrix from, and its format.

    ``format`` is one of ``dense-csv``, ``upper-triangle-text``,
    ``weighted-edge-list``.
    """

    format: str
    path: str | Path

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}; expected one of {FORMATS}")


def load_matrix(source: MatrixSource) -> SymmetricMatrix:
    """Read a :class:`SymmetricMatrix` from a file.

    A file of plain numeric text, with LF, CRLF or CR line ends, is parsed in
    one vectorized pass. The pass reads the file in blocks of whole lines
    (about 1 MiB each) and parses each block straight into the row-major
    tail of the result's buffer, so it never holds the whole file, an n x n
    array or a second copy. Dense rows are checked for symmetry as they
    arrive; an edge list is read twice, once to count its lines. Whatever that pass
    declines (any byte outside plain numeric text, a wrong shape or token
    count, a non-finite value, an asymmetric pair) is read again from the
    start, line by line, and the line reader's result or line-numbered
    error stands, so the two routes accept the same inputs and word every
    error alike.

    Parameters
    ----------
    source : MatrixSource
        The file and its format.

    Raises
    ------
    FormatError
        Malformed input: invalid UTF-8, wrong shape or token count,
        non-numeric tokens, duplicate edge-list pairs with conflicting
        weights, missing pairs.
    AsymmetryError
        Dense input asymmetric beyond ``1e-9 * max(1, |entry|)``.
    FileNotFoundError
        The file does not exist.
    """
    with open(source.path, "rb") as fh:
        matrix = _parse_blocks(source.format, fh)
        if matrix is None:
            fh.seek(0)
            data = fh.read()
    return matrix if matrix is not None else _parse(source.format, _utf8_lines(data))


def save_matrix(
    matrix: SymmetricMatrix,
    target: str | Path,
    format: str = "dense-csv",
) -> None:
    """Write a matrix to a file in one of the supported formats.

    Values are emitted with shortest round-trip float repr, so loading the
    file gives back the matrix bit-exactly.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    with open(target, "w", encoding="utf-8") as fh:
        _emit(matrix, fh, format)


def _emit(matrix: SymmetricMatrix, fh: IO[str], format: str) -> None:
    # Every format is written row by row from ``blas``: no n x n or row-major copy.
    if format == "dense-csv":
        # Entry (i, j), j < i, is column i of row j, in slot j n - j(j-1)/2 + i - j.
        above = diagonal_slots(matrix.n) - np.arange(matrix.n)
        for i, (_, slots) in enumerate(lower_rows(matrix.n)):
            left = matrix.blas[above[:i] + i].tolist()
            fh.write(",".join(map(repr, [*left, 0.0, *matrix.blas[slots].tolist()])))
            fh.write("\n")
    elif format == "upper-triangle-text":
        fh.write(f"{matrix.n}\n")
        for _, slots in lower_rows(matrix.n):
            for v in matrix.blas[slots].tolist():
                fh.write(repr(v))
                fh.write("\n")
    else:
        for i, (_, slots) in enumerate(lower_rows(matrix.n)):
            for j, v in enumerate(matrix.blas[slots].tolist(), start=i + 1):
                fh.write(f"{i} {j} {repr(v)}\n")


def _utf8_lines(data: bytes) -> IO[str]:
    """The lines of ``data`` as ``open(path, encoding="utf-8")`` yields them.

    An undecodable byte is a FormatError naming its line, with line breaks
    counted as text mode counts them: LF, CRLF and a lone CR. The text is
    decoded once to check it and then read a chunk at a time from ``data``,
    so no decoded copy of the whole file is kept.
    """
    try:
        data.decode("utf-8")
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None)
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise FormatError(f"line {lineno}: invalid UTF-8 byte 0x{data[exc.start]:02x}") from None


# The only bytes the vectorized pass accepts. On such text numpy splits lines
# and fields where str.split does, and converts exactly the tokens float()
# and int() accept, to the same values; anything else goes line by line.
_PLAIN_BYTES = b"0123456789+-.eE \t\n"
_EDGE_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
_BLOCK_BYTES = 1 << 20
# Entries per block of the edge-key build and its checks, and tokens per
# conversion of upper-triangle text.
_KEY_BLOCK = _TOKENS = 1 << 16


def _parse_blocks(format: str, fh: IO[bytes]) -> SymmetricMatrix | None:
    """A vectorized parse of plain numeric text, or None to read it line by line.

    ``fh`` is read from its start in blocks of whole lines (``_blocks``),
    each parsed straight into arrays allocated once, so no stage holds the
    whole file or an n x n array. A matrix returned here is bit-identical
    to what the line parser returns for the same text. No error is raised
    from here: wording errors is left to the line parser.
    """
    try:
        if format == "dense-csv":
            return _fast_dense(fh)
        if format == "upper-triangle-text":
            return _fast_upper_triangle(fh)
        return _fast_edge_list(fh)
    except ValueError:  # numpy's conversion and shape errors, and FormatError
        return None


def _blocks(fh: IO[bytes], plain: bytes) -> Iterator[bytes]:
    """The text of ``fh`` from its start, in blocks of whole lines of about _BLOCK_BYTES.

    Line ends are translated as text mode translates them: CRLF and a lone
    CR become LF. A CR that ends one read is held over to the next, so a
    CRLF split between two reads is still one line end. Blocks of
    whitespace only are skipped. Raises FormatError at a byte not in
    ``plain``.
    """
    fh.seek(0)
    pending, at_end = b"", False
    while not at_end:
        chunk = fh.read(_BLOCK_BYTES)
        at_end = not chunk
        data, held = pending + chunk, b""
        del chunk  # only the block is held while the caller parses it
        if not at_end and data.endswith(b"\r"):
            data, held = data[:-1], b"\r"
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        cut = len(data) if at_end else data.rfind(b"\n") + 1
        block, pending = data[:cut], data[cut:] + held
        del data
        if block.translate(None, plain):
            raise FormatError("not plain numeric text")
        if block and not block.isspace():
            yield block


def _fast_dense(fh: IO[bytes]) -> SymmetricMatrix:
    size = fh.seek(0, io.SEEK_END)
    values = None
    n = filled = 0
    for block in _blocks(fh, _PLAIN_BYTES + b","):
        rows = np.loadtxt(io.BytesIO(block), delimiter=",", comments=None, ndmin=2)
        if values is None:
            n = rows.shape[1]
            # n^2 tokens need 2n^2 - 1 bytes: a file too short for its first
            # row's width is declined before anything of size N exists.
            if n < 2 or 2 * n * n - 1 > size:
                raise FormatError("not a square matrix")
            blas = np.empty(n * (n + 1) // 2)
            values = blas[n:]
        if rows.shape[1] != n or filled + rows.shape[0] > n:
            raise FormatError("not a square matrix")
        # from_dense drops the diagonal, where the line parser still
        # rejects an overflowing token such as 1e400.
        if not np.isfinite(rows).all():
            raise FormatError("non-finite value")
        if not _merge_rows(values, rows, filled):
            raise FormatError("asymmetric")
        filled += rows.shape[0]
    if values is None or filled != n:
        raise FormatError("not a square matrix")
    return SymmetricMatrix.adopt(n, spread_rows(blas, n))


def _fast_upper_triangle(fh: IO[bytes]) -> SymmetricMatrix:
    size = fh.seek(0, io.SEEK_END)
    values = None
    n_pairs = filled = 0
    for rest in _blocks(fh, _PLAIN_BYTES):
        while rest:
            # At most _TOKENS at a time: a token's bytes object costs ~48
            # bytes, 30 MiB for a block of two-digit scores.
            tokens = rest.split(None, _TOKENS)
            rest = tokens.pop() if len(tokens) > _TOKENS else b""
            if values is None:
                n = int(tokens.pop(0))
                n_pairs = n * (n - 1) // 2
                # N tokens need 2N - 1 bytes: a dimension too large for the
                # file is declined before anything of size N exists.
                if n < 2 or 2 * n_pairs + 1 > size:
                    raise FormatError("dimension does not fit the file")
                blas = np.empty(n * (n + 1) // 2)
                values = blas[n:]
            if filled + len(tokens) > n_pairs:
                raise FormatError("too many values")
            values[filled : filled + len(tokens)] = np.array(tokens, dtype=np.float64)
            filled += len(tokens)
    if values is None or filled != n_pairs:
        raise FormatError("too few values")
    return SymmetricMatrix.adopt(n, spread_rows(blas, n))


def _fast_edge_list(fh: IO[bytes]) -> SymmetricMatrix:
    # A first pass counts the lines, so the second fills arrays of their size.
    lines = sum(
        block.count(b"\n") + (not block.endswith(b"\n")) for block in _blocks(fh, _PLAIN_BYTES)
    )
    # Indices are int32 while there are fewer than 2^31 lines: a larger
    # index names more pairs than there are lines, and the line parser
    # words that error.
    index = np.dtype(np.int32 if lines < 2**31 else np.int64)
    i = np.empty(lines, dtype=index)
    j = np.empty(lines, dtype=index)
    w = np.empty(lines)
    filled = 0
    for block in _blocks(fh, _PLAIN_BYTES):
        rows = np.loadtxt(io.BytesIO(block), dtype=_EDGE_DTYPE, comments=None, ndmin=1)
        ij = (rows["i"], rows["j"])
        if min(a.min() for a in ij) < 0 or max(a.max() for a in ij) > np.iinfo(index).max:
            raise FormatError("a negative index or one beyond the line count")
        stop = filled + rows.shape[0]
        i[filled:stop], j[filled:stop], w[filled:stop] = rows["i"], rows["j"], rows["w"]
        filled = stop
    i, j, w = i[:filled], j[:filled], w[:filled]
    if not filled or not np.all(np.isfinite(w)):
        raise FormatError("no lines or a non-finite weight")
    n = int(max(i.max(), j.max())) + 1
    n_pairs = n * (n - 1) // 2
    # Each pair needs a line of its own. Checked in Python ints before any
    # key is built, so a huge index cannot overflow a key.
    if n_pairs > filled:
        raise FormatError("fewer lines than pairs")
    off = i != j
    if not off.all():
        if not off.any():
            raise FormatError("no pair of distinct nodes")
        i, j, w = i[off], j[off], w[off]
    del off
    keys = i  # the pack key of each line, built in place over i
    del i
    offsets = row_offsets(n)
    for lo in range(0, keys.shape[0], _KEY_BLOCK):
        a, b = keys[lo : lo + _KEY_BLOCK], j[lo : lo + _KEY_BLOCK]
        a[...] = offsets[np.minimum(a, b)] + np.maximum(a, b)
    del a, b, j  # the last block's views would keep i and j alive
    if keys.shape[0] != n_pairs or not all(
        np.array_equal(keys[lo : lo + _KEY_BLOCK], np.arange(lo, min(lo + _KEY_BLOCK, n_pairs)))
        for lo in range(0, n_pairs, _KEY_BLOCK)
    ):  # else every pair once, in pack order
        order = np.argsort(keys, kind="stable")  # repeats keep their line order
        keys = keys[order]
        w = w[order]
        del order
        repeat = keys[1:] == keys[:-1]
        if np.any(w[1:][repeat] != w[:-1][repeat]):
            raise FormatError("conflicting weights")
        # The last line of each pair wins, as in the dict. The keys left are
        # distinct and in range, so there are n_pairs of them exactly when
        # every pair is present.
        w = w[np.append(~repeat, True)]
        if w.shape[0] != n_pairs:
            raise FormatError("missing pairs")
    del keys
    blas = np.empty(n * (n + 1) // 2)
    blas[n:] = w
    return SymmetricMatrix.adopt(n, spread_rows(blas, n))


def _parse(format: str, fh: IO[str]) -> SymmetricMatrix:
    if format == "dense-csv":
        return _parse_dense_csv(fh)
    if format == "upper-triangle-text":
        return _parse_upper_triangle(fh)
    return _parse_edge_list(fh)


def _numbered_lines(fh: IO[str]) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def _parse_float(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"line {lineno}: non-numeric value {token!r}") from None
    if not math.isfinite(value):
        raise FormatError(f"line {lineno}: non-finite value {token!r}")
    return value


def _parse_dense_csv(fh: IO[str]) -> SymmetricMatrix:
    rows: list[np.ndarray] = []
    width = None
    for lineno, line in _numbered_lines(fh):
        fields = [_parse_float(tok.strip(), lineno) for tok in line.split(",")]
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise FormatError(
                f"line {lineno}: expected {width} columns, got {len(fields)}"
            )
        rows.append(np.array(fields))
    if not rows:
        raise FormatError("empty input")
    if len(rows) != width:
        raise FormatError(f"expected a square matrix, got {len(rows)} rows x {width} columns")
    return SymmetricMatrix.from_dense(np.array(rows))


def _parse_upper_triangle(fh: IO[str]) -> SymmetricMatrix:
    n = None
    values = array.array("d")
    expected = None
    for lineno, line in _numbered_lines(fh):
        for token in line.split():
            if n is None:
                try:
                    n = int(token)
                except ValueError:
                    raise FormatError(
                        f"line {lineno}: expected dimension, got {token!r}"
                    ) from None
                if n < 2:
                    raise FormatError(f"line {lineno}: dimension must be >= 2, got {n}")
                expected = n * (n - 1) // 2
                continue
            if expected is not None and len(values) >= expected:
                raise FormatError(f"line {lineno}: more than {expected} values for n={n}")
            values.append(_parse_float(token, lineno))
    if n is None:
        raise FormatError("empty input")
    assert expected is not None
    if len(values) != expected:
        raise FormatError(f"expected {expected} values for n={n}, got {len(values)}")
    return SymmetricMatrix(n, np.frombuffer(values))


def _parse_edge_list(fh: IO[str]) -> SymmetricMatrix:
    weights: dict[tuple[int, int], float] = {}
    max_index = -1
    for lineno, line in _numbered_lines(fh):
        fields = line.split()
        if len(fields) != 3:
            raise FormatError(f"line {lineno}: expected 'i j w', got {line!r}")
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer node index in {line!r}") from None
        if i < 0 or j < 0:
            raise FormatError(f"line {lineno}: negative node index in {line!r}")
        w = _parse_float(fields[2], lineno)
        max_index = max(max_index, i, j)
        if i == j:
            continue  # self-weights carry no information here
        key = (min(i, j), max(i, j))
        if key in weights and weights[key] != w:
            raise FormatError(
                f"line {lineno}: pair {key} repeated with conflicting weights "
                f"{weights[key]!r} and {w!r}"
            )
        weights[key] = w
    if max_index < 1:
        raise FormatError("empty input" if max_index < 0 else "need at least two nodes")
    n = max_index + 1
    expected = n * (n - 1) // 2
    if len(weights) != expected:
        raise FormatError(
            f"incomplete edge list: {len(weights)} distinct pairs, "
            f"expected {expected} for n={n}"
        )
    values = np.empty(expected)
    for (i, j), w in weights.items():
        values[pack_index(i, j, n)] = w
    return SymmetricMatrix(n, values)
