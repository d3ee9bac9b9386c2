"""Hollow symmetric matrices in packed storage, and the map between two layouts.

An n x n symmetric matrix with zero diagonal is stored as the vector of its
N = n(n-1)/2 strict upper-triangle entries in lexicographic (row-major) pair
order, the same order as ``np.triu_indices(n, 1)``: entry (i, j), i < j, at
``row_offsets(n)[i] + j``. The eigensolver reads the upper-packed layout of
BLAS ``dspmv`` instead: n(n+1)/2 slots, column by column, entry (i, j),
i <= j, at ``triangular(n)[j] + i``, zero diagonal. (The row-major values
are the lower-packed layout less its diagonal, but ``dspmv`` sums that
layout in another order, which changes the last bits of results.) This
module owns the map between the two; no other module computes a position
in either. Dense form is materialized only where LAPACK needs it.
"""

from __future__ import annotations

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


def triangular(n: int) -> np.ndarray:
    """tri[j] = j(j+1)/2, j = 0..n: the upper-packed slot of entry (0, j)."""
    return np.cumsum(np.arange(n + 1))


def _columns(n: int) -> Iterator[tuple[slice, np.ndarray]]:
    """Column j = 1..n-1 as (its upper-packed slots, the row-major positions of its entries)."""
    offsets, tri = row_offsets(n), triangular(n)
    for j in range(1, n):
        yield slice(tri[j], tri[j] + j), offsets[:j] + j


def to_upper_packed(values: np.ndarray, n: int) -> np.ndarray:
    """The upper-packed buffer of row-major ``values``, gathered a column at a time."""
    ap = np.zeros(n * (n + 1) // 2)
    for column, rows in _columns(n):
        np.take(values, rows, out=ap[column])
    return ap


def from_upper_packed(ap: np.ndarray, n: int) -> np.ndarray:
    """The row-major values of an upper-packed buffer: :func:`to_upper_packed` undone."""
    values = np.empty(n * (n - 1) // 2)
    for column, rows in _columns(n):
        values[rows] = ap[column]
    return values


def diagonal_slots(n: int) -> np.ndarray:
    """slot[j] = j(j+1)/2 + j, j = 0..n-1: the upper-packed slot of diagonal entry (j, j)."""
    return triangular(n)[1:] - 1


def upper_slots(n: int, out: np.ndarray) -> None:
    """Write the upper-packed slot of each row-major position into ``out``, a row at a time.

    ``out`` holds N int64 entries.
    """
    tri = triangular(n)
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        np.add(tri[i + 1 : n], i, out=out[start:stop])  # row i: slots tri[j] + i, j > i
        start = stop


def row_major_index(slots: np.ndarray, n: int) -> np.ndarray:
    """Row-major position of each off-diagonal upper-packed slot j(j+1)/2 + i.

    The column j comes from a float square-root estimate, corrected by one
    step each way against the exact table tri; then the position is
    row_offsets[i] + j. Done in blocks, with no int64 division, and returned
    in the dtype of ``slots``.
    """
    tri = triangular(n)
    offsets = row_offsets(n)
    out = np.empty(slots.shape[0], dtype=slots.dtype)
    for lo in range(0, slots.shape[0], _KEY_BLOCK):
        slot = slots[lo : lo + _KEY_BLOCK].astype(np.int64)
        j = ((np.sqrt(8.0 * slot + 1.0) - 1.0) * 0.5).astype(np.int64)
        np.minimum(j, n - 1, out=j)
        j -= tri[j] > slot
        j += tri[j + 1] <= slot
        out[lo : lo + _KEY_BLOCK] = offsets[slot - tri[j]] + j
    return out


def _checked_values(n: int, vals: np.ndarray) -> np.ndarray:
    """``vals`` made read-only, once n, its shape and its entries are valid."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got n={n}")
    if vals.ndim != 1 or vals.shape[0] != n * (n - 1) // 2:
        raise ValueError(
            f"expected {n * (n - 1) // 2} packed values for n={n}, "
            f"got shape {vals.shape}"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError("matrix entries must be finite")
    vals.flags.writeable = False
    return vals


class SymmetricMatrix:
    """Symmetric matrix with zero diagonal, packed storage.

    Parameters
    ----------
    n : int
        Dimension, >= 2.
    values : array_like
        The n(n-1)/2 strict upper-triangle entries in pack order. Must be
        finite. Stored as float64; the array is copied and made read-only.
    """

    def __init__(self, n: int, values: np.ndarray) -> None:
        self.n = n
        self.values = _checked_values(n, np.array(values, dtype=np.float64))

    @staticmethod
    def adopt(n: int, values: np.ndarray) -> "SymmetricMatrix":
        """Wrap a float64 array that nothing else holds, without a copy.

        For arrays a caller has just drawn or computed: the checks are the
        constructor's, and ``values`` itself is made read-only and stored.
        """
        matrix = SymmetricMatrix.__new__(SymmetricMatrix)
        matrix.n = n
        matrix.values = _checked_values(n, values)
        return matrix

    def upper_packed(self) -> np.ndarray:
        """A new buffer of the entries in the upper-packed layout ``dspmv`` reads."""
        return to_upper_packed(self.values, self.n)

    @property
    def n_pairs(self) -> int:
        """Number of stored entries, n(n-1)/2."""
        return self.n * (self.n - 1) // 2

    @classmethod
    def from_dense(cls, array: np.ndarray, rtol: float = _SYMMETRY_RTOL) -> "SymmetricMatrix":
        """Build from a dense square array.

        The array must be symmetric within ``|A_ij - A_ji| <= rtol *
        max(1, |A_ij|)`` entrywise; the two triangles are averaged and the
        diagonal is discarded.

        The rows are folded into the packed values one at a time (see
        ``_merge_rows``), so no n x n temporary is made: the call holds the
        packed values and the copy the constructor makes of them. Only an
        asymmetric array is scanned whole again, to name its worst pair.
        """
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise FormatError(f"expected a square array, got shape {arr.shape}")
        n = arr.shape[0]
        if n < 2:
            raise FormatError(f"dimension must be >= 2, got n={n}")
        values = np.empty(n * (n - 1) // 2)
        if not _merge_rows(values, arr, 0, rtol):
            gap = np.abs(arr - arr.T)
            bound = rtol * np.maximum(1.0, np.abs(arr))
            i, j = np.unravel_index(int(np.argmax(gap - bound)), arr.shape)
            raise AsymmetryError(
                f"entries ({i},{j}) and ({j},{i}) differ by {gap[i, j]:.3e}, "
                f"beyond tolerance {bound[i, j]:.3e}"
            )
        return cls(n, values)

    def entry(self, i: int, j: int) -> float:
        """Entry (i, j); zero on the diagonal."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"indices out of range for n={self.n}: ({i}, {j})")
        if i == j:
            return 0.0
        if i > j:
            i, j = j, i
        return float(self.values[pack_index(i, j, self.n)])

    def dense(self) -> np.ndarray:
        """Materialize the full n x n array, a row of the upper triangle at a time."""
        n = self.n
        out = np.zeros((n, n))
        starts = (row_offsets(n) + np.arange(1, n + 1)).tolist()  # pair (i, i + 1)
        for i in range(n - 1):
            row = self.values[starts[i] : starts[i] + n - 1 - i]
            out[i, i + 1 :] = row
            out[i + 1 :, i] = row
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymmetricMatrix):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"SymmetricMatrix(n={self.n})"


def _merge_rows(values: np.ndarray, rows: np.ndarray, first: int, rtol: float) -> bool:
    """Fold rows ``first``, ``first + 1``, ... of a dense n x n array into ``values``.

    Row g's upper part fills its packed segment. Its lower part meets the
    entries (j, g), j < g, that rows before it stored, and each such pair
    keeps what :meth:`SymmetricMatrix.from_dense` makes of it: the stored
    entry itself when the two are equal, so saving and reloading is
    bit-exact, else their mean, halved before adding to avoid overflow.
    Returns False, with ``values`` part written,
    at the first row holding a pair farther apart than ``rtol * max(1,
    |entry|)`` for either of its two entries.
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
        if np.any(gap > rtol * np.maximum(1.0, np.abs(upper))) or np.any(
            gap > rtol * np.maximum(1.0, np.abs(lower))
        ):
            return False
        values[at] = np.where(upper == lower, upper, 0.5 * upper + 0.5 * lower)
    return True


@dataclass(frozen=True)
class MatrixSource:
    """Where and how to read a matrix.

    Exactly one of ``path`` or ``stream`` must be set; ``format`` is one of
    ``dense-csv``, ``upper-triangle-text``, ``weighted-edge-list``.
    """

    format: str
    path: str | Path | None = None
    stream: IO[str] | None = None

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}; expected one of {FORMATS}")
        if (self.path is None) == (self.stream is None):
            raise ValueError("exactly one of path or stream must be given")


def load_matrix(source: MatrixSource | str | Path, format: str = "dense-csv") -> SymmetricMatrix:
    """Read a :class:`SymmetricMatrix` from a file or stream.

    A file of plain numeric text, with LF, CRLF or CR line ends, is parsed in
    one vectorized pass. The pass reads the file in blocks of whole lines
    (about 1 MiB each) and parses each block straight into the packed
    values, so it never holds the whole file, an n x n array or a second
    copy of the result. Dense rows are checked for symmetry as they arrive;
    an edge list is read twice, once to count its lines. Whatever that pass
    declines (any byte outside plain numeric text, a wrong shape or token
    count, a non-finite value, an asymmetric pair) is read again from the
    start, line by line, and the line reader's result or line-numbered
    error stands, so the two routes accept the same inputs and word every
    error alike. A stream is read line by line.

    Parameters
    ----------
    source : MatrixSource or path
        A :class:`MatrixSource`, or a bare path (then ``format`` applies).
    format : str
        Format for bare-path callers; ignored when a MatrixSource is given.

    Raises
    ------
    FormatError
        Malformed input: invalid UTF-8, wrong shape or token count,
        non-numeric tokens, duplicate edge-list pairs with conflicting
        weights, missing pairs.
    AsymmetryError
        Dense input asymmetric beyond ``1e-9 * max(1, |entry|)``.
    FileNotFoundError
        Path source does not exist.
    """
    if not isinstance(source, MatrixSource):
        source = MatrixSource(format=format, path=source)
    if source.path is None:
        assert source.stream is not None
        return _parse(source.format, source.stream)
    with open(source.path, "rb") as fh:
        matrix = _parse_blocks(source.format, fh)
        if matrix is None:
            fh.seek(0)
            data = fh.read()
    return matrix if matrix is not None else _parse(source.format, _utf8_lines(data))


def save_matrix(
    matrix: SymmetricMatrix,
    target: str | Path | IO[str],
    format: str = "dense-csv",
) -> None:
    """Write a matrix in one of the supported formats.

    Values are emitted with shortest round-trip float repr, so
    ``load_matrix(save_matrix(M)) == M`` bit-exactly.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    if hasattr(target, "write"):
        _emit(matrix, target, format)  # type: ignore[arg-type]
    else:
        with open(target, "w", encoding="utf-8") as fh:
            _emit(matrix, fh, format)


def _emit(matrix: SymmetricMatrix, fh: IO[str], format: str) -> None:
    if format == "dense-csv":
        for row in matrix.dense():
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")
    elif format == "upper-triangle-text":
        fh.write(f"{matrix.n}\n")
        for v in matrix.values:
            fh.write(repr(float(v)))
            fh.write("\n")
    else:
        rows, cols = pair_indices(matrix.n)
        for i, j, v in zip(rows, cols, matrix.values):
            fh.write(f"{i} {j} {repr(float(v))}\n")


def _decode_error(exc: UnicodeDecodeError, lines_before: int = 0) -> FormatError:
    """The error for undecodable bytes that follow ``lines_before`` whole lines.

    ``exc.object`` is what the decoder was given: the whole file, or the
    chunk of a stream read after its last whole line. Line breaks in it are
    counted as text mode counts them: LF, CRLF and a lone CR. A stream's
    decoder holds back a CR that ends a chunk, and that break is not seen
    here, so with lone-CR line ends a stream's number can be one short.
    """
    head = exc.object[: exc.start]
    lineno = lines_before + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return FormatError(f"line {lineno}: invalid UTF-8 byte 0x{exc.object[exc.start]:02x}")


def _utf8_lines(data: bytes) -> IO[str]:
    """The lines of ``data`` as ``open(path, encoding="utf-8")`` yields them."""
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        raise _decode_error(exc) from None


# The only bytes the vectorized pass accepts. On such text numpy splits lines
# and fields where str.split does, and converts exactly the tokens float()
# and int() accept, to the same values; anything else goes line by line.
_PLAIN_BYTES = b"0123456789+-.eE \t\n"
_EDGE_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
_BLOCK_BYTES = 1 << 20
# Entries per block of the edge-key build and its checks and of
# row_major_index, and tokens per conversion of upper-triangle text.
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
            values = np.empty(n * (n - 1) // 2)
        if rows.shape[1] != n or filled + rows.shape[0] > n:
            raise FormatError("not a square matrix")
        # from_dense drops the diagonal, where the line parser still
        # rejects an overflowing token such as 1e400.
        if not np.isfinite(rows).all():
            raise FormatError("non-finite value")
        if not _merge_rows(values, rows, filled, _SYMMETRY_RTOL):
            raise FormatError("asymmetric")
        filled += rows.shape[0]
    if values is None or filled != n:
        raise FormatError("not a square matrix")
    return SymmetricMatrix.adopt(n, values)


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
                values = np.empty(n_pairs)
            if filled + len(tokens) > n_pairs:
                raise FormatError("too many values")
            values[filled : filled + len(tokens)] = np.array(tokens, dtype=np.float64)
            filled += len(tokens)
    if values is None or filled != n_pairs:
        raise FormatError("too few values")
    return SymmetricMatrix.adopt(n, values)


def _fast_edge_list(fh: IO[bytes]) -> SymmetricMatrix:
    # A first pass counts the lines, so the second fills arrays of their size.
    lines = sum(
        block.count(b"\n") + (not block.endswith(b"\n")) for block in _blocks(fh, _PLAIN_BYTES)
    )
    i = np.empty(lines, dtype=np.int64)
    j = np.empty(lines, dtype=np.int64)
    w = np.empty(lines)
    filled = 0
    for block in _blocks(fh, _PLAIN_BYTES):
        rows = np.loadtxt(io.BytesIO(block), dtype=_EDGE_DTYPE, comments=None, ndmin=1)
        stop = filled + rows.shape[0]
        i[filled:stop], j[filled:stop], w[filled:stop] = rows["i"], rows["j"], rows["w"]
        filled = stop
    i, j, w = i[:filled], j[:filled], w[:filled]
    if not filled or min(i.min(), j.min()) < 0 or not np.all(np.isfinite(w)):
        raise FormatError("no lines, a negative index or a non-finite weight")
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
    del j
    if keys.shape[0] == n_pairs and all(
        np.array_equal(keys[lo : lo + _KEY_BLOCK], np.arange(lo, min(lo + _KEY_BLOCK, n_pairs)))
        for lo in range(0, n_pairs, _KEY_BLOCK)
    ):
        return SymmetricMatrix.adopt(n, w)  # every pair once, in pack order
    order = np.argsort(keys, kind="stable")  # repeats keep their line order
    keys = keys[order]
    w = w[order]
    repeat = keys[1:] == keys[:-1]
    if np.any(w[1:][repeat] != w[:-1][repeat]):
        raise FormatError("conflicting weights")
    # The last line of each pair wins, as in the dict. The keys left are
    # distinct and in range, so the length check means that every pair is
    # present.
    return SymmetricMatrix.adopt(n, w[np.append(~repeat, True)])


def _parse(format: str, fh: IO[str]) -> SymmetricMatrix:
    if format == "dense-csv":
        return _parse_dense_csv(fh)
    if format == "upper-triangle-text":
        return _parse_upper_triangle(fh)
    return _parse_edge_list(fh)


def _numbered_lines(fh: IO[str]) -> Iterator[tuple[int, str]]:
    lineno = 0
    try:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                yield lineno, line
    except UnicodeDecodeError as exc:
        raise _decode_error(exc, lineno) from None


def _parse_float(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"line {lineno}: non-numeric value {token!r}") from None
    if not math.isfinite(value):
        raise FormatError(f"line {lineno}: non-finite value {token!r}")
    return value


def _parse_dense_csv(fh: IO[str]) -> SymmetricMatrix:
    rows: list[list[float]] = []
    width = None
    for lineno, line in _numbered_lines(fh):
        fields = [_parse_float(tok.strip(), lineno) for tok in line.split(",")]
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise FormatError(
                f"line {lineno}: expected {width} columns, got {len(fields)}"
            )
        rows.append(fields)
    if not rows:
        raise FormatError("empty input")
    if len(rows) != width:
        raise FormatError(f"expected a square matrix, got {len(rows)} rows x {width} columns")
    return SymmetricMatrix.from_dense(np.array(rows))


def _parse_upper_triangle(fh: IO[str]) -> SymmetricMatrix:
    n = None
    values: list[float] = []
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
    return SymmetricMatrix(n, np.array(values))


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
