"""Two involutions on the biregular class: simple switching and reflection.

A simple switching exchanges the 2x2 minors I = [[1,0],[0,1]] and
J = [[0,1],[1,0]] at four chosen indices and does nothing elsewhere.

A reflection acts on an ordered pair of columns (j1, j2).  Reading the two
columns row by row defines a lattice walk: +1 on a (1,0) row, -1 on (0,1),
no move otherwise; column regularity returns the walk to 0.  The pair is
*reflecting* when the walk moves to +1 on step 1, leaves it on step 2, and
first returns to +1 at some step i* >= 3; the reflection then swaps the
two columns' entries on rows 2..i*.  Both maps are involutions and both
preserve class membership, which is what makes them usable for building
exchangeable pairs out of a uniform element.

Row order convention: the walk reads rows as (i1, i2, remaining rows
ascending).  The paper states the reflection for (i1, i2) = (first,
second) row; row exchangeability carries it to any distinguished pair, so
the bad-pair counts and minor classes of a pair (i1, i2) always read that
pair's own order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrices import BiregularBitMatrix, _bits

__all__ = [
    "SwitchSite",
    "RowOrder",
    "ColumnWalk",
    "simple_switch",
    "column_walk",
    "reflect",
]

# Cells per block of the vectorised walk scans here and in the exact v_f
# kernels; every temporary of a block holds this many entries, so the peak
# does not grow with the class.
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class SwitchSite:
    """Four indices naming a 2x2 minor: rows (i1, i2), columns (j1, j2)."""

    i1: int
    i2: int
    j1: int
    j2: int

    def __post_init__(self):
        if self.i1 == self.i2 or self.j1 == self.j2:
            raise ValueError("switch site needs distinct rows and distinct columns")


def simple_switch(matrix: BiregularBitMatrix, site: SwitchSite) -> BiregularBitMatrix:
    """Exchange I <-> J at the site; identity when the minor is not switchable.

    The minor is I or J iff the two rows differ on both columns and each
    holds exactly one of them, the rule of `samplers._switch_rows`.
    Applying the map twice at the same site returns the input bit-exactly.
    A no-op returns the input object itself.
    """
    flip = (1 << site.j1) | (1 << site.j2)
    x, y = matrix.rows[site.i1] & flip, matrix.rows[site.i2] & flip
    if not (x ^ y == flip and x and y):
        return matrix
    rows = list(matrix.rows)
    rows[site.i1] ^= flip
    rows[site.i2] ^= flip
    return BiregularBitMatrix(rows, matrix.n, _trusted=True)


@dataclass(frozen=True)
class RowOrder:
    """Reading order (i1, i2, remaining rows ascending) for column walks."""

    i1: int
    i2: int

    def __post_init__(self):
        if self.i1 == self.i2:
            raise ValueError("row order needs two distinct distinguished rows")

    def sequence(self, m: int) -> tuple:
        if not (0 <= self.i1 < m and 0 <= self.i2 < m):
            raise IndexError(f"rows ({self.i1}, {self.i2}) out of range [0, {m})")
        rest = tuple(i for i in range(m) if i != self.i1 and i != self.i2)
        return (self.i1, self.i2) + rest


_NATURAL = RowOrder(0, 1)


@dataclass(frozen=True)
class ColumnWalk:
    """Walk of an ordered column pair; positions[i] = w(i), positions[0] = 0."""

    positions: tuple
    r: int  # number of +1 steps; equals the -1 step count by regularity
    reflecting: bool
    i_star: Optional[int]  # first return time to +1 (1-based), reflecting only


def column_walk(
    matrix: BiregularBitMatrix, j1: int, j2: int, order: RowOrder = _NATURAL
) -> ColumnWalk:
    """The lattice walk of columns (j1, j2) read in row order `order`."""
    if j1 == j2:
        raise ValueError("column walk needs two distinct columns")
    if not (0 <= j1 < matrix.n and 0 <= j2 < matrix.n):
        raise IndexError(f"columns ({j1}, {j2}) out of range [0, {matrix.n})")
    seq = order.sequence(matrix.m)
    b1 = (1 << j1)
    b2 = (1 << j2)
    pos = 0
    positions = [0]
    ups = 0
    for i in seq:
        row = matrix.rows[i]
        has1 = 1 if row & b1 else 0
        has2 = 1 if row & b2 else 0
        step = has1 - has2
        ups += step == 1
        pos += step
        positions.append(pos)
    m = matrix.m
    reflecting = (
        m >= 3
        and positions[1] == 1
        and positions[2] != 1
        and any(positions[i] == 1 for i in range(3, m + 1))
    )
    i_star = None
    if reflecting:
        i_star = next(i for i in range(3, m + 1) if positions[i] == 1)
    return ColumnWalk(tuple(positions), ups, reflecting, i_star)


def reflect(
    matrix: BiregularBitMatrix, j1: int, j2: int, order: RowOrder = _NATURAL
) -> BiregularBitMatrix:
    """Swap columns (j1, j2) on rows at order positions 2..i* when reflecting.

    Non-reflecting pairs are left unchanged (the input object is returned).
    The map is an involution, and the first-return definition forces equal
    +/- step counts on the swapped range, so row and column sums survive.
    """
    walk = column_walk(matrix, j1, j2, order)
    if not walk.reflecting:
        return matrix
    seq = order.sequence(matrix.m)
    swap_mask = (1 << j1) | (1 << j2)
    rows = list(matrix.rows)
    for i in seq[1 : walk.i_star]:
        row = rows[i]
        b1 = (row >> j1) & 1
        b2 = (row >> j2) & 1
        if b1 != b2:
            rows[i] = row ^ swap_mask
    return BiregularBitMatrix(rows, matrix.n, _trusted=True)


def _bad_mask(matrix: BiregularBitMatrix, i1: int, i2: int) -> tuple:
    """(ex1 columns, ex2 columns, bad boolean matrix, walk rows) for the
    Ex x Ex pairs, walk rows the int8 dense matrix in walk order (i1, i2,
    remaining rows ascending).

    A pair (c1, c2) in Ex(i1,i2) x Ex(i2,i1) automatically satisfies the
    first two reflecting conditions; it is bad exactly when its walk never
    returns to +1 from step 3 on.
    """
    walk_rows = matrix.dense()[list(RowOrder(i1, i2).sequence(matrix.m))].astype(np.int8)
    r1, r2 = matrix.rows[i1], matrix.rows[i2]
    ex1 = _bits(r1 & ~r2)
    ex2 = _bits(r2 & ~r1)
    cols2 = walk_rows[:, None, ex2]
    bad = np.empty((len(ex1), len(ex2)), dtype=bool)
    block = max(1, _BLOCK_CELLS // (matrix.m * max(1, len(ex2))))
    for start in range(0, len(ex1), block):
        steps = walk_rows[:, ex1[start : start + block], None] - cols2
        walks = np.cumsum(steps, axis=0, dtype=np.int32)
        bad[start : start + block] = ~(walks[2:] == 1).any(axis=0)
    return ex1, ex2, bad, walk_rows

