"""Hollow symmetric matrices in the one layout they are stored in, the one the eigensolver reads.

An n x n symmetric matrix with zero diagonal is stored only as ``blas``, the
lower-packed layout of BLAS ``dspmv`` (``lower=1``): n(n+1)/2 slots, where
row i is its diagonal +0.0 at slot ``diagonal_slots(n)[i]`` = i n - i(i-1)/2
followed by row i's entries right of the diagonal. Row-major order is only
the order of the N = n(n-1)/2 strict upper-triangle entries in ``values``,
and in files, that of ``np.triu_indices(n, 1)``: entry
(i, j), i < j, at ``row_offsets(n)[i] + j``, which is its slot less i + 1.
``dspmv`` sums the upper-packed layout (``lower=0``) in another order, so an
eigenpair computed from that layout can differ from this one's in its last
bits: the leading eigenvalue by a few ulp (at most 3 ulp in measurements up
to n = 2000). This module owns the map between row-major positions and
slots; no other module computes either. Dense form is materialized only
where LAPACK needs it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, Generator, Iterable, Iterator, NamedTuple, NoReturn

import numpy as np

FORMATS = ("dense-csv", "upper-triangle-text", "weighted-edge-list")

_SYMMETRY_RTOL = 1e-9


class FormatError(ValueError):
    """Malformed matrix input (shape, tokens, pair coverage)."""


class AsymmetryError(FormatError):
    """Dense input violates the symmetry tolerance."""


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of the strict upper triangle, pack order."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got n={n}")
    return np.triu_indices(n, k=1)


def row_offsets(n: int) -> np.ndarray:
    """offsets[i] = i(2n - i - 1)/2 - i - 1: pair (i, j), i < j, is at row-major offsets[i] + j."""
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
        diagonal is discarded. The array is one block for ``_fold_rows``: no
        n x n temporary is made, and an asymmetric array's error names its
        worst pair without a second scan.
        """
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise FormatError(f"expected a square array, got shape {arr.shape}")
        return _fold_rows((arr,))

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


def _fold_rows(blocks: Iterable[np.ndarray], size: float = math.inf) -> SymmetricMatrix:
    """Fold a dense array's rows, in blocks of whole rows, into a matrix of the first's width n.

    Each row goes into the row-major tail of the result's buffer as it
    arrives, and the buffer is spread into place at the end: no n x n array
    is made. Row g's lower part meets the entries (j, g), j < g, stored
    before it; a pair keeps the stored entry when the two are equal, so
    saving and reloading is bit-exact, else their mean, halved before adding
    to avoid overflow. The AsymmetryError names the pair with the largest
    positive excess of its gap over ``_SYMMETRY_RTOL * max(1, |entry|)`` for
    either entry, the first in the n x n array's row-major order on a tie.

    n rows of n tokens need 2 n^2 - 1 characters, so a first row too wide
    for ``size`` characters makes no buffer and the rows are only counted.
    Every block must be n wide. Raises FormatError, once every row is read,
    for no rows, a row count other than n and n < 2; last, AsymmetryError.
    """
    count, n, blas = 0, None, None
    worst = (0.0, 0, 0.0, 0.0)  # (excess, -index, gap, bound) of the worst pair so far
    for block in blocks:
        if n is None:
            n = block.shape[1]
            if 2 * n * n - 1 <= size:
                blas = np.empty(n * (n + 1) // 2)
                offsets = row_offsets(n) + n  # of the row-major tail blas[n:]
        for g, row in enumerate(block, start=count):
            if blas is None or g >= n:
                break
            start = offsets[g] + g + 1
            blas[start : start + n - 1 - g] = row[g + 1 :]
            at = offsets[:g] + g
            upper = blas[at]
            lower = row[:g]
            if np.array_equal(upper, lower):
                continue
            gap = np.abs(upper - lower)
            # Entry (j, g) of the n x n array is at j n + g, and (g, j) at g n + j.
            for entry, step, first in ((upper, n, g), (lower, 1, g * n)):
                bound = _SYMMETRY_RTOL * np.maximum(1.0, np.abs(entry))
                excess = gap - bound
                # fmax maps nan, from a non-finite entry, to 0: never the worst.
                j = int(np.argmax(np.fmax(excess, 0.0)))
                if excess[j] > 0:
                    worst = max(worst, (excess[j], -(j * step + first), gap[j], bound[j]))
            blas[at] = np.where(upper == lower, upper, 0.5 * upper + 0.5 * lower)
        count += block.shape[0]
    if n is None:
        raise FormatError("empty input")
    if count != n:
        raise FormatError(f"expected a square matrix, got {count} rows x {n} columns")
    if n < 2:
        raise FormatError(f"dimension must be >= 2, got n={n}")
    if worst[0] > 0:
        _, index, gap, bound = worst
        i, j = divmod(-index, n)
        raise AsymmetryError(
            f"entries ({i},{j}) and ({j},{i}) differ by {gap:.3e}, beyond tolerance {bound:.3e}"
        )
    return SymmetricMatrix.adopt(n, spread_rows(blas, n))


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

    The file is read once (an edge list twice, once to count its lines), in
    blocks of whole lines of about 1 MiB, each parsed in one vectorized pass
    and folded, in file order, into the row-major tail of the result's
    buffer: in this process no stage holds the whole file, an n x n array
    or a second copy. On Linux, with two CPUs or more and no other thread
    of Python's, a file of at least 4 MiB is cut at a line end into two
    byte ranges; this process parses the first, and one forked worker the
    second, whose parsed blocks it holds until they are folded here: about
    half the file's, 8N bytes of dense rows, 4N of upper-triangle values or
    12N of edge-list lines, on top of this process's peak. Values and
    errors are those of one range. A block that breaks the grammar
    (README, "Input grammar") is checked line by line for its first faulty
    line's error; faults of the whole file come once every line passed.
    Every worker is reaped before this returns or raises; a worker that
    dies is a ChildProcessError.

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
    ChildProcessError
        A worker process ended before sending its blocks (killed, say).
    """
    with open(source.path, "rb") as fh:
        if source.format == "dense-csv":
            return _read_dense(fh)
        if source.format == "upper-triangle-text":
            return _read_upper_triangle(fh)
        return _read_edge_list(fh)


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


# The bytes of the grammar once _blocks has read CRLF and CR as LF: a number's,
# dense CSV's comma, whitespace and LF. On them numpy splits and strips fields
# at the whitespace bytes.split and strip know, and converts exactly the tokens
# float() and int() accept, to the same values.
_NUMBER_BYTES = b"0123456789+-.eE"
_PLAIN_BYTES = _NUMBER_BYTES + b", \t\x0b\x0c\n"
_EDGE_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
_BLOCK_BYTES = 1 << 20
_KEY_BLOCK = 1 << 16  # entries per block of the edge-key build and its checks
# Bytes of upper-triangle text converted at a time, cut after a token: a token's
# bytes object costs ~36 bytes, 12 MiB for a block of two-digit scores at once.
_TOKEN_BYTES = 1 << 13
# A file on disk is cut into one byte range per CPU, each parsed by its own
# process, up to _MAX_RANGES and while each range gets at least _RANGE_BYTES:
# what was timed (README, "Input grammar"). Workers hold (ranges - 1)/ranges
# of the parsed file between them.
_RANGE_BYTES = 1 << 21
_MAX_RANGES = 2


def _blocks(
    fh: IO[bytes], start: int = 0, lineno: int = 1, stop: int | None = None
) -> Generator[tuple[int, int, bytes], None, int]:
    """(first line, byte offset, text) of each block of ``fh`` from line ``lineno`` at ``start``.

    Blocks are whole lines of about _BLOCK_BYTES, with CRLF and a lone CR
    read as LF, up to byte ``stop``, which ends a line (the end of the file
    if None). A CR that ends one read waits for the next, so a CRLF split
    between two reads is still one line end. Blocks of whitespace are
    skipped. Returns the number of the line after the last.
    """
    fh.seek(start)
    pending, at_end = b"", False
    while not at_end:
        chunk = fh.read(_BLOCK_BYTES if stop is None else min(_BLOCK_BYTES, stop - fh.tell()))
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
        if block and not block.isspace():
            yield lineno, start, block
        # numpy counts line ends about ten times faster than bytes.count
        # where lines are short.
        lineno += int(np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n")))
        start = fh.tell() - len(pending)  # pending holds no line end but a held CR
    return lineno


def _line_at(fh: IO[bytes], offset: int) -> int:
    """The number of the line that starts at byte ``offset`` of ``fh``."""
    blocks = _blocks(fh, stop=offset)
    while True:
        try:
            next(blocks)
        except StopIteration as end:
            return end.value


def _line_end(fh: IO[bytes], at: int) -> int:
    """The offset just past the first line end at or after byte ``at`` (a CRLF is one), else the end."""
    fh.seek(at)
    while chunk := fh.read(1 << 16):
        ends = [p for p in (chunk.find(b"\n"), chunk.find(b"\r")) if p >= 0]
        if ends:
            end = at + min(ends) + 1
            if chunk[min(ends)] == ord("\r"):
                fh.seek(end)
                end += fh.read(1) == b"\n"
            return end
        at += len(chunk)
    return at


def _ranges(fh: IO[bytes]) -> list[tuple[int, int]]:
    """(start, stop) of each byte range of ``fh``, which ends at a line end.

    One range per CPU this process may run on, up to _MAX_RANGES and while
    each gets at least _RANGE_BYTES, for a file on disk where
    :func:`~rankspectral.forked.may_fork` allows workers; else the whole file.
    """
    size = fh.seek(0, io.SEEK_END)
    count = min(_MAX_RANGES, size // _RANGE_BYTES) if isinstance(fh, io.BufferedReader) else 1
    if count > 1:
        from .forked import may_fork

        count = min(count, len(os.sched_getaffinity(0))) if may_fork() else 1
    cuts = [0]
    for k in range(1, count):
        cut = _line_end(fh, max(k * size // count, cuts[-1]))
        if cut >= size:
            break
        cuts.append(cut)
    cuts.append(size)
    return list(zip(cuts, cuts[1:]))


class _Block(NamedTuple):
    """A block of one byte range, and what its format's pure conversion made of it."""

    value: Any  # None where the conversion refused the block
    lineno: int  # its first line, counted from the start of its range
    offset: int
    span: tuple[int, int]  # (start, stop) of its range
    text: bytes | None  # the block, kept in the range this process reads itself


def _range_blocks(fh: IO[bytes], span: tuple[int, int], convert, keep: bool) -> Iterator[_Block]:
    """The blocks of one byte range of ``fh``, each converted by ``convert``; ``keep``: with their text.

    ``convert`` refuses with None or numpy's ValueError; a block with a
    byte outside the grammar is refused before it is converted.
    """
    for lineno, offset, text in _blocks(fh, span[0], 1, span[1]):
        yield _Block(_value(convert, text), lineno, offset, span, text if keep else None)


def _value(convert, text: bytes):
    try:
        return None if text.translate(None, _PLAIN_BYTES) else convert(text)
    except ValueError:  # numpy's conversion errors
        return None


class _Positioned:
    """A file descriptor read with pread, from an offset of its own.

    A forked worker reads the descriptor it shares with its parent without
    moving the parent's offset, and opens no path, so it needs no /proc.
    """

    def __init__(self, fd: int) -> None:
        self.fd, self.at = fd, 0

    def seek(self, at: int) -> int:
        self.at = at
        return at

    def tell(self) -> int:
        return self.at

    def read(self, size: int) -> bytes:
        data = os.pread(self.fd, size, self.at)
        self.at += len(data)
        return data


def _held_blocks(fd: int, span: tuple[int, int], convert) -> list[_Block]:
    """A worker's blocks of one range, up to the first it refuses, read from the inherited ``fd``."""
    held = []
    for block in _range_blocks(_Positioned(fd), span, convert, keep=False):
        held.append(block)
        if block.value is None:
            break
    return held


@contextlib.contextmanager
def _converted(fh: IO[bytes], convert) -> Iterator[Iterator[_Block]]:
    """The blocks of ``fh`` in file order, each converted by ``convert``.

    This process reads the first range of ``_ranges`` itself, a block at a
    time. A forked worker reads each other range whole and holds its blocks
    until they are read here, in turn; every worker is reaped on leaving.
    """
    spans = _ranges(fh)
    own = _range_blocks(fh, spans[0], convert, keep=True)
    if len(spans) == 1:
        yield own
        return
    from .forked import forked

    tasks = [functools.partial(_held_blocks, fh.fileno(), span, convert) for span in spans[1:]]
    with forked(tasks) as received:
        yield itertools.chain(own, *received)


def _lines(block: bytes, lineno: int) -> Iterator[tuple[int, bytes]]:
    """(number, text without the whitespace around it) of each non-blank line of ``block``."""
    for k, line in enumerate(block.split(b"\n"), start=lineno):
        if line := line.strip():
            yield k, line


def _refuse(fh: IO[bytes], block: _Block, check: Callable[[int, str], None]) -> NoReturn:
    """Raise the error of the first faulty line of a block its conversion or its fold refused.

    ``check(k, text)`` raises line k's error, if any, under its format's
    rules. A worker's block is read again from the start of its range, and
    the lines before that range are counted to number its lines.
    """
    start, stop = block.span
    text = block.text
    if text is None:
        text = next(b for _, at, b in _blocks(fh, start, 1, stop) if at == block.offset)
    lineno = block.lineno + _line_at(fh, start) - 1
    for k, line in _lines(text, lineno):
        try:
            check(k, line.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"line {k}: invalid UTF-8 byte 0x{line[exc.start]:02x}") from None
        # int() and float() also take tokens such as '1_0', '٣' and '１２'.
        for token in line.replace(b",", b" ").split():
            if token.translate(None, _NUMBER_BYTES):
                raise FormatError(f"line {k}: non-numeric value {token.decode()!r}")
    raise RuntimeError(f"numpy refused the block from line {lineno}, which keeps the grammar")


def _check_value(token: str, k: int) -> None:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"line {k}: non-numeric value {token!r}") from None
    if not math.isfinite(value):
        raise FormatError(f"line {k}: non-finite value {token!r}")


def _dense_rows(block: bytes) -> np.ndarray | None:
    """The rows of a block of dense CSV, if numpy reads them as one width of finite values."""
    try:
        rows = np.loadtxt(io.BytesIO(block), delimiter=",", comments=None, ndmin=2)
    except ValueError:  # numpy reads a line of blanks as one empty field
        kept = b"\n".join(line for _, line in _lines(block, 1))
        rows = np.loadtxt(io.BytesIO(kept), delimiter=",", comments=None, ndmin=2)
    # The fold drops the diagonal, whose tokens must still be finite.
    return rows if np.isfinite(rows).all() else None


def _read_dense(fh: IO[bytes]) -> SymmetricMatrix:
    width = None

    def check(k: int, line: str) -> None:
        nonlocal width
        fields = [field.strip() for field in line.split(",")]
        for field in fields:
            _check_value(field, k)
        width = width or len(fields)
        if len(fields) != width:
            raise FormatError(f"line {k}: expected {width} columns, got {len(fields)}")

    def folded(blocks: Iterator[_Block]) -> Iterator[np.ndarray]:
        nonlocal width
        for block in blocks:
            rows = block.value
            if rows is not None:
                width = width or rows.shape[1]
            if rows is None or rows.shape[1] != width:
                _refuse(fh, block, check)
            yield rows

    # A file too short for its first row's width makes nothing of size N.
    size = fh.seek(0, io.SEEK_END)
    with _converted(fh, _dense_rows) as blocks:
        return _fold_rows(folded(blocks), size)


def _upper_values(block: bytes) -> tuple[bytes, list[np.ndarray]] | None:
    """A block of upper-triangle text's first token, and its tokens' values in chunks, never joined.

    Each value but the first must be finite: the first may be the dimension.
    """
    chunks = []
    # Pieces of _TOKEN_BYTES and the rest of the token they end in, if any.
    for piece in re.finditer(rb"(?s).{1,%d}\S*" % _TOKEN_BYTES, block):
        if tokens := piece[0].split():
            if not chunks:
                first = tokens[0]
            chunks.append(np.array(tokens, dtype=np.float64))
            if not np.isfinite(chunks[-1][len(chunks) == 1 :]).all():
                return None
    return first, chunks


def _read_upper_triangle(fh: IO[bytes]) -> SymmetricMatrix:
    size = fh.seek(0, io.SEEK_END)
    n, blas, filled = None, None, 0

    def check(k: int, line: str) -> None:
        nonlocal n, filled
        for token in line.split():
            if n is None:
                try:
                    n = int(token)
                except ValueError:
                    raise FormatError(f"line {k}: expected dimension, got {token!r}") from None
                if n < 2:
                    raise FormatError(f"line {k}: dimension must be >= 2, got {n}")
            elif filled >= n * (n - 1) // 2:
                raise FormatError(f"line {k}: more than {n * (n - 1) // 2} values for n={n}")
            else:
                _check_value(token, k)
                filled += 1

    with _converted(fh, _upper_values) as blocks:
        for block in blocks:
            # The dimension and count change only once a block is taken
            # whole, so check() reads a refused block from where it started.
            dim, chunks = n, None
            if block.value is not None:
                first, chunks = block.value
                if dim is None:
                    try:
                        dim, chunks[0] = int(first), chunks[0][1:]
                    except ValueError:
                        chunks = None
                elif not math.isfinite(chunks[0][0]):
                    chunks = None
            end = None if chunks is None else filled + sum(chunk.size for chunk in chunks)
            if chunks is None or dim < 2 or end > dim * (dim - 1) // 2:
                _refuse(fh, block, check)
            if n is None:
                n = dim
                # N tokens need 2N - 1 bytes: for a dimension too large for
                # the file nothing of size N is made, and values are counted.
                if n * (n - 1) + 1 <= size:
                    blas = np.empty(n * (n + 1) // 2)
            if blas is not None:
                np.concatenate(chunks, out=blas[n + filled : n + end])
            filled = end
            del block, chunks  # not held while the next block is read and converted
    if n is None:
        raise FormatError("empty input")
    if filled != n * (n - 1) // 2:
        raise FormatError(f"expected {n * (n - 1) // 2} values for n={n}, got {filled}")
    return SymmetricMatrix.adopt(n, spread_rows(blas, n))


def _check_edge(k: int, line: str) -> None:
    fields = line.split()
    if len(fields) != 3:
        raise FormatError(f"line {k}: expected 'i j w', got {line!r}")
    try:
        i, j = int(fields[0]), int(fields[1])
    except ValueError:
        raise FormatError(f"line {k}: non-integer node index in {line!r}") from None
    if i < 0 or j < 0:
        raise FormatError(f"line {k}: negative node index in {line!r}")
    _check_value(fields[2], k)
    if max(i, j) >= 2**63:
        raise FormatError(f"line {k}: node index above {2**63 - 1} in {line!r}")


def _edge_rows(block: bytes) -> np.ndarray | None:
    """The lines of a block of an edge list, if numpy reads each as 'i j w', i, j >= 0, w finite."""
    rows = np.loadtxt(io.BytesIO(block), dtype=_EDGE_DTYPE, comments=None, ndmin=1)
    ok = min(rows["i"].min(), rows["j"].min()) >= 0 and np.isfinite(rows["w"]).all()
    return rows if ok else None


def _read_edge_list(fh: IO[bytes]) -> SymmetricMatrix:
    size = fh.seek(0, io.SEEK_END)
    with _converted(fh, _edge_rows) as converted:
        # The lines are counted first, so the blocks fill arrays of their size.
        lines = _line_at(fh, size)
        # Indices are int32 while there are fewer than 2^31 lines. A larger
        # index names more pairs than there are lines, and widens them to int64.
        i = np.empty(lines, dtype=np.int32 if lines < 2**31 else np.int64)
        j, w = np.empty_like(i), np.empty(lines)
        # starts: (first row, first line in its range, byte offset, range start) of each block
        filled, starts = 0, []
        for block in converted:
            rows = block.value
            if rows is None:
                _refuse(fh, block, _check_edge)
            starts.append((filled, block.lineno, block.offset, block.span[0]))
            if max(rows["i"].max(), rows["j"].max()) > np.iinfo(i.dtype).max:
                i, j = i.astype(np.int64), j.astype(np.int64)
            stop = filled + rows.shape[0]
            i[filled:stop], j[filled:stop], w[filled:stop] = rows["i"], rows["j"], rows["w"]
            filled = stop
            del block, rows  # not held while the next block is read and converted
    if not filled:
        raise FormatError("empty input")
    i, j, w = i[:filled], j[:filled], w[:filled]
    n = int(max(i.max(), j.max())) + 1
    if n < 2:
        raise FormatError("need at least two nodes")
    n_pairs = distinct = n * (n - 1) // 2
    if n_pairs > filled:  # too few lines for every pair, and keys that could overflow
        pairs = np.stack((np.minimum(i, j), np.maximum(i, j)))[:, i != j]
        distinct = np.unique(pairs, axis=1).shape[1]
    else:
        keys, ordered = i, filled == n_pairs  # keys are built in place over i
        del i
        offsets, blocks = row_offsets(n) + 1, range(0, filled, _KEY_BLOCK)
        for lo in blocks:
            # 1 + the pack position of each line's pair, 0 for a self-loop.
            a, b = keys[lo : lo + _KEY_BLOCK], j[lo : lo + _KEY_BLOCK]
            a[...] = np.where(a == b, 0, offsets[np.minimum(a, b)] + np.maximum(a, b))
            ordered = ordered and np.array_equal(a, np.arange(lo + 1, lo + 1 + a.size))
        del a, b, j  # the last block's views would keep i and j alive
        if ordered:
            keys = None  # every pair once, in pack order: w holds the values
        else:
            counts = np.zeros(n_pairs + 1, dtype=keys.dtype)  # lines per key
            for lo in blocks:
                np.add.at(counts, keys[lo : lo + _KEY_BLOCK], 1)
            distinct = np.count_nonzero(counts[1:])
            counts[0] = 0
            # The rows of each pair on more than one line, by pair and then line.
            rows = [lo + np.flatnonzero(counts[keys[lo : lo + _KEY_BLOCK]] > 1) for lo in blocks]
            rows = np.concatenate(rows)
            del counts
            rows = rows[np.argsort(keys[rows], kind="stable")]
            same = keys[rows[1:]] == keys[rows[:-1]]
            clash = np.flatnonzero(same & (w[rows[1:]] != w[rows[:-1]]))
            if distinct == n_pairs and clash.size:
                prior, row = rows[[clash, clash + 1]][:, np.argmin(rows[clash + 1])].tolist()
                # Read the line of that row again, from the start of its block.
                first, lineno, offset, start = next(at for at in reversed(starts) if at[0] <= row)
                lineno += _line_at(fh, start) - 1
                texts = (kl for k, _, b in _blocks(fh, offset, lineno) for kl in _lines(b, k))
                k, line = next(kl for at, kl in enumerate(texts, start=first) if at == row)
                pair = tuple(sorted(int(x) for x in line.split()[:2]))
                raise FormatError(
                    f"line {k}: pair {pair} repeated with conflicting weights "
                    f"{w[prior].item()!r} and {w[row].item()!r}"
                )
            last = rows[np.append(~same, True)[: rows.size]]  # the last line of a pair wins
    if distinct != n_pairs:
        message = f"{distinct} distinct pairs, expected {n_pairs} for n={n}"
        raise FormatError(f"incomplete edge list: {message}")
    blas = np.empty(n * (n + 1) // 2)
    if keys is None:
        blas[n:] = w
    else:
        values = blas[n - 1 :]  # key k's slot; self-loops' is one spread_rows overwrites
        for lo in blocks:
            values[keys[lo : lo + _KEY_BLOCK]] = w[lo : lo + _KEY_BLOCK]
        values[keys[last]] = w[last]
    return SymmetricMatrix.adopt(n, spread_rows(blas, n))
