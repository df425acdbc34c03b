"""Core 0/1 matrix types with fixed row and column sums.

A d-regular digraph on n vertices is identified with its n x n adjacency
matrix (self-loops allowed): every row and every column sums to d.  The
bipartite generalisation is an m x n matrix with row sums d and column
sums dp, so m*d = n*dp.

Rows are stored packed as Python integers (bit j = column j), which makes
the hot kernels -- codegrees and masked edge counts -- single popcounts of
word-wide ANDs.  Matrices are immutable after construction and safe to
share across threads; every operation in this module is a pure function.

All identity checks are exact: they compare integers (scaled through by n
or n^2 where a density appears), never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BiregularBitMatrix",
    "VertexSetPair",
    "CodegreeRecord",
    "InvalidMatrixError",
    "codegree",
    "edge_count",
    "complement",
    "parse_matrix",
    "parse_matrices",
    "format_matrix",
    "format_matrices",
    "rows_to_words",
    "words_to_rows",
    "words_to_dense",
    "dense_to_words",
    "codegree_extremes",
    "codegree_deviation",
]


class InvalidMatrixError(ValueError):
    """Raised when entries violate the fixed row/column sum constraints."""


# -- packed row words ----------------------------------------------------------
#
# A batch of matrices travels as (..., m, L) uint64 row words, L = ceil(n/64),
# with bit j of row i in word j // 64 at position j % 64: the packed row int
# of a BiregularBitMatrix, cut into little-endian 64-bit words.  These four
# converters are the only code that turns that layout into row ints or dense
# entries and back.


def rows_to_words(rows: Sequence[int], n: int) -> np.ndarray:
    """(m, L) uint64 words of m packed row ints."""
    width = (n + 63) // 64
    raw = b"".join(int(r).to_bytes(8 * width, "little") for r in rows)
    return np.frombuffer(raw, dtype="<u8").reshape(len(rows), width).astype(np.uint64)


def words_to_rows(words: np.ndarray) -> list:
    """(count, m, L) words as count tuples of m packed row ints."""
    count, m, width = words.shape
    raw = words.astype("<u8", copy=False).tobytes()
    step = 8 * width
    ints = [int.from_bytes(raw[k : k + step], "little") for k in range(0, len(raw), step)]
    return [tuple(ints[s * m : (s + 1) * m]) for s in range(count)]


def words_to_dense(words: np.ndarray, n: int) -> np.ndarray:
    """(..., m, L) words as (..., m, n) uint8 entries: the first n bits of
    each row."""
    raw = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=n, bitorder="little")


def dense_to_words(dense: np.ndarray) -> np.ndarray:
    """(..., m, n) 0/1 entries as (..., m, L) uint64 words."""
    n = dense.shape[-1]
    raw = np.zeros((*dense.shape[:-1], 8 * ((n + 63) // 64)), dtype=np.uint8)
    raw[..., : (n + 7) // 8] = np.packbits(dense, axis=-1, bitorder="little")
    return raw.view("<u8").astype(np.uint64, copy=False)


_PAIR_BLOCK_BYTES = 1 << 20  # row words per block of codegree_extremes


def codegree_extremes(words: np.ndarray) -> tuple:
    """(lo, hi) int64 arrays: each sample's least and greatest row-pair codegree,
    from (count, m, L) words with m >= 2.  Blocks of about 1 MB of samples, laid
    out as (m, L, block), stay in cache and in fixed memory; every operation runs
    along the samples, and one step per row i counts its codegrees with later rows."""
    count, m, width = words.shape
    lo = np.full(count, 64 * width, dtype=np.int64)
    hi = np.zeros(count, dtype=np.int64)
    block = max(1, _PAIR_BLOCK_BYTES // (8 * m * width))
    for start in range(0, count, block):
        part = words[start : start + block].transpose(1, 2, 0).copy()
        part_lo, part_hi = lo[start : start + block], hi[start : start + block]
        for i in range(m - 1):
            ones = np.bitwise_count(part[i + 1 :] & part[i])
            co = ones.sum(axis=1, dtype=np.int32) if width > 1 else ones[:, 0]
            np.minimum(part_lo, co.min(axis=0), out=part_lo)
            np.maximum(part_hi, co.max(axis=0), out=part_hi)
    return lo, hi


def codegree_deviation(words: np.ndarray, n: int, d: int) -> np.ndarray:
    """max over row pairs of |n*co - d^2| per sample, from (count, m, L) words:
    convex in co, so it sits at the least or greatest codegree; 0 with no pair."""
    if words.shape[1] < 2:
        return np.zeros(len(words), dtype=np.int64)
    lo, hi = codegree_extremes(words)
    return np.maximum(np.abs(n * lo - d * d), np.abs(n * hi - d * d))


def _check_column_sums(dense: np.ndarray, dp: int) -> None:
    """Raise InvalidMatrixError naming the first column of `dense` whose sum
    is not dp."""
    col_sums = dense.sum(axis=0)
    bad = np.flatnonzero(col_sums != dp)
    if bad.size:
        j = int(bad[0])
        raise InvalidMatrixError(f"column {j} sums to {int(col_sums[j])}, expected dp = {dp}")


def _bits(value: int) -> list:
    """The set bits of a packed row int, ascending: its columns."""
    out = []
    while value:
        low = value & -value
        out.append(low.bit_length() - 1)
        value ^= low
    return out


class BiregularBitMatrix:
    """Immutable m x n 0/1 matrix with row sums d and column sums dp.

    The square case m == n, d == dp is the adjacency matrix of a d-regular
    digraph.  Degenerate d in {0, n} is allowed (the class then contains a
    single matrix).
    """

    __slots__ = ("m", "n", "d", "dp", "rows", "_dense", "_hash")

    def __init__(self, rows: Sequence[int], n: int, *, _trusted: bool = False):
        rows = tuple(int(r) for r in rows)
        m = len(rows)
        if m == 0 or n <= 0:
            raise InvalidMatrixError("matrix must have at least one row and one column")
        d = rows[0].bit_count()
        # Column sums are forced by m*d = n*dp when the matrix is valid.
        if (m * d) % n != 0:
            raise InvalidMatrixError(
                f"no column-regular completion: m*d = {m * d} not divisible by n = {n}"
            )
        fields = {
            "m": m,
            "n": n,
            "d": d,
            "dp": (m * d) // n,
            "_dense": None,
            "_hash": None,
            "rows": rows,  # set last: its presence marks construction complete
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        if not _trusted:
            self.validate()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> "BiregularBitMatrix":
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise InvalidMatrixError("dense input must be 2-dimensional")
        if not np.isin(arr, (0, 1)).all():
            raise InvalidMatrixError("dense input must be 0/1 valued")
        words = dense_to_words(arr.astype(np.uint8))
        return cls(words_to_rows(words[None])[0], arr.shape[1])

    def validate(self) -> None:
        """Check membership in the biregular class; raise InvalidMatrixError."""
        mask = (1 << self.n) - 1
        for i, r in enumerate(self.rows):
            if r < 0 or r & ~mask:
                raise InvalidMatrixError(f"row {i} has bits outside the {self.n} columns")
            if r.bit_count() != self.d:
                raise InvalidMatrixError(
                    f"row {i} sums to {r.bit_count()}, expected d = {self.d}"
                )
        _check_column_sums(self.dense(), self.dp)

    # -- derived scalars -------------------------------------------------------

    @property
    def p(self) -> Fraction:
        """Edge density d/n = dp/m."""
        return Fraction(self.d, self.n)

    @property
    def d_hat(self) -> int:
        """min(d, n - d): row degree of the sparser of M and its complement."""
        return min(self.d, self.n - self.d)

    # -- views ------------------------------------------------------------------

    def dense(self) -> np.ndarray:
        """Dense uint8 view (cached; treat as read-only)."""
        if self._dense is None:
            out = words_to_dense(rows_to_words(self.rows, self.n), self.n)
            out.setflags(write=False)
            self._dense = out
        return self._dense

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def transpose(self) -> "BiregularBitMatrix":
        cols = words_to_rows(dense_to_words(self.dense().T)[None])[0]
        return BiregularBitMatrix(cols, self.m, _trusted=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiregularBitMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.rows))
        return self._hash

    def __setattr__(self, name, value):
        # Immutable once fully constructed (allow slot initialisation).
        if name in ("_dense", "_hash") or not hasattr(self, "rows"):
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("BiregularBitMatrix is immutable")

    def __repr__(self) -> str:
        return f"BiregularBitMatrix(m={self.m}, n={self.n}, d={self.d}, dp={self.dp})"


@dataclass(frozen=True)
class VertexSetPair:
    """A pair (A, B): A a set of rows of M, B a set of columns.

    mu = p*|A|*|B| is the density prediction for the A->B edge count and
    mu_hat = p*min(|A||B|, (m-|A|)(n-|B|)) the complement-symmetric
    deviation scale; mu_hat(A, B) = mu_hat(A^c, B^c).
    """

    rows: frozenset
    cols: frozenset

    @classmethod
    def of(cls, rows: Iterable[int], cols: Iterable[int]) -> "VertexSetPair":
        return cls(frozenset(rows), frozenset(cols))

    @property
    def a(self) -> int:
        return len(self.rows)

    @property
    def b(self) -> int:
        return len(self.cols)

    def col_mask(self) -> int:
        return sum(1 << j for j in self.cols)

    def complement(self, matrix: BiregularBitMatrix) -> "VertexSetPair":
        return VertexSetPair(
            frozenset(range(matrix.m)) - self.rows,
            frozenset(range(matrix.n)) - self.cols,
        )

    def mu(self, matrix: BiregularBitMatrix) -> Fraction:
        return Fraction(matrix.d * self.a * self.b, matrix.n)

    def mu_hat(self, matrix: BiregularBitMatrix) -> Fraction:
        inner = min(self.a * self.b, (matrix.m - self.a) * (matrix.n - self.b))
        return Fraction(matrix.d * inner, matrix.n)

    def validate(self, matrix: BiregularBitMatrix) -> None:
        if self.rows and not all(0 <= i < matrix.m for i in self.rows):
            raise IndexError("row set not contained in [0, m)")
        if self.cols and not all(0 <= j < matrix.n for j in self.cols):
            raise IndexError("column set not contained in [0, n)")


@dataclass(frozen=True)
class CodegreeRecord:
    """Common/exclusive out-neighbour counts of one ordered row pair.

    co + ex = d and the count of columns where both rows vanish equals
    n - 2d + co; both identities are exact integers.
    """

    co: int
    ex: int


def codegree(matrix: BiregularBitMatrix, i1: int, i2: int) -> CodegreeRecord:
    """Number of common out-neighbours of rows i1, i2 (the in-codegree of two
    columns is the out-codegree of `matrix.transpose()`)."""
    if i1 == i2:
        raise ValueError("codegree requires two distinct indices")
    if not (0 <= i1 < matrix.m and 0 <= i2 < matrix.m):
        raise IndexError(f"indices ({i1}, {i2}) out of range [0, {matrix.m})")
    co = (matrix.rows[i1] & matrix.rows[i2]).bit_count()
    return CodegreeRecord(co=co, ex=matrix.d - co)


def edge_count(matrix: BiregularBitMatrix, pair: VertexSetPair) -> int:
    """|E  (A x B)|: edges from the row set A into the column set B."""
    pair.validate(matrix)
    bmask = pair.col_mask()
    return sum((matrix.rows[i] & bmask).bit_count() for i in pair.rows)


def complement(matrix: BiregularBitMatrix) -> BiregularBitMatrix:
    """Entrywise 1 - M; row sums become n - d, column sums m - dp."""
    mask = (1 << matrix.n) - 1
    return BiregularBitMatrix([r ^ mask for r in matrix.rows], matrix.n, _trusted=True)


# -- bit-exact text format ------------------------------------------------------
#
# Header line "m n d dp", then m lines of n characters in {0,1}.  A trailing
# newline is required.  Multiple matrices concatenate with one blank line
# between records.


def format_matrix(matrix: BiregularBitMatrix) -> str:
    rows = (format(r, f"0{matrix.n}b")[::-1] for r in matrix.rows)  # character j is bit j
    return "\n".join([f"{matrix.m} {matrix.n} {matrix.d} {matrix.dp}", *rows]) + "\n"


def format_matrices(matrices: Iterable[BiregularBitMatrix]) -> str:
    return "\n".join(format_matrix(mat) for mat in matrices)


def parse_matrix(text: str) -> BiregularBitMatrix:
    mats = parse_matrices(text)
    if len(mats) != 1:
        raise InvalidMatrixError(f"expected exactly one matrix, found {len(mats)}")
    return mats[0]


def parse_matrices(text: str) -> list:
    if not text.endswith("\n"):
        raise InvalidMatrixError("matrix text must end with a trailing newline")
    blocks = [b for b in text.split("\n\n") if b.strip()]
    return [_parse_block(block) for block in blocks]


def _parse_block(block: str) -> BiregularBitMatrix:
    lines = block.strip("\n").split("\n")
    header = lines[0].split()
    if len(header) != 4:
        raise InvalidMatrixError(f"malformed header {lines[0]!r}: expected 'm n d dp'")
    try:
        m, n, d, dp = (int(x) for x in header)
    except ValueError as exc:
        raise InvalidMatrixError(f"non-integer header field in {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise InvalidMatrixError(f"expected {m} rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:]):
        if len(line) != n or set(line) - {"0", "1"}:
            raise InvalidMatrixError(f"row {i} is not a string of {n} characters in 0/1")
        r = int(line[::-1], 2)  # linear time in base 2, and not capped by int_max_str_digits
        if r.bit_count() != d:
            raise InvalidMatrixError(f"row {i} sums to {r.bit_count()}, expected d = {d}")
        rows.append(r)
    # With no rows (refused by the constructor) only column 0 can be named, and
    # n may be any integer, so no n-wide array is made.
    dense = words_to_dense(rows_to_words(rows, n), n) if rows else np.zeros((0, int(n > 0)))
    _check_column_sums(dense, dp)
    return BiregularBitMatrix(rows, n, _trusted=True)
