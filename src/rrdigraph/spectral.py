"""Second singular value and exact jumbledness diagnostics.

A square class member M is d-regular: M 1 = M^T 1 = d 1.  So sigma_1 = d
exactly, and the all-ones vector 1 is an eigenvector of the Gram matrix
G = M^T M with eigenvalue d^2.  The deflated matrix G' = n G - d^2 J
(J all ones) has integer entries of size at most n^2, which float64 holds
exactly; G' 1 = 0 and G' = n G on the complement of 1.  Hence
sigma_2 = sqrt(max(lambda_max(G'), 0) / n), from one symmetric
eigensolve, which tridiagonalises in about half the flops of the
bidiagonalisation an SVD makes.  lambda_max(G') = n sigma_2^2 is the norm
of G', so its relative error, and that of sigma_2, stays near machine
epsilon; for d in {0, n}, G' is exactly zero and so is sigma_2.

Where d^2 <= n, G' is written straight into one float64 buffer: -d^2
everywhere, plus n at the d^2 codes j*n + k of each row's columns, at
most n^2 scattered adds in all.  Elsewhere it is the dense product,
scaled in place.

A digraph with second singular value sigma_2 is sigma_2-jumbled, so on
tiny instances the exhaustive discrepancy maximum alpha can be checked
against sigma_2 directly.  For a row set A and a size b the largest
|n e(A,B) - d a b| is reached by the b columns with the largest, or the
smallest, column sums over A: `row_set_extremes` scans that lemma once,
for alpha_exact and for bounds.check_pseudorandom_implication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import BiregularBitMatrix
from .samplers import SearchSpaceTooLarge

__all__ = [
    "SpectralReport", "sigma2", "alpha_exact", "row_set_extremes", "check_sigma2_shape", "check_alpha_shape",
    "ALPHA_EXACT_CAP",
]

ALPHA_EXACT_CAP = 14


@dataclass(frozen=True)
class SpectralReport:
    """sigma_1 = d, exact by regularity, and sigma_2 from the top
    eigenvalue of the deflated Gram matrix n M^T M - d^2 J (see the module
    docstring).  The payload also carries the fields of an iterative solve;
    the eigensolve is direct, so they are always no iterations, zero
    residual and converged."""

    sigma1: float
    sigma2: float
    iterations: int
    residual: float
    converged: bool


def sigma2(matrix: BiregularBitMatrix) -> SpectralReport:
    """The two largest singular values of a square digraph's matrix."""
    check_sigma2_shape(matrix.m, matrix.n)
    n, d = matrix.n, matrix.d
    top = np.linalg.eigvalsh(_deflated_gram(matrix))[-1]
    return SpectralReport(float(d), float(np.sqrt(max(top, 0.0) / n)), 0, 0.0, True)


def _deflated_gram(matrix: BiregularBitMatrix) -> np.ndarray:
    """G' = n M^T M - d^2 J as one float64 n x n array of exact integers.
    Where d^2 <= n it is scattered from each row's columns, read by one
    flat scan; elsewhere it is the dense product.  At most two n x n
    arrays are alive at once."""
    n, d = matrix.n, matrix.d
    present = matrix.dense().view(bool)  # 0/1 entries, so the bool view is exact
    if d * d <= n:
        gram = np.full((n, n), -(d * d), dtype=np.float64)
        cols = (np.flatnonzero(present) % n).reshape(n, d)  # each row's columns, ascending
        # A float increment keeps np.add.at on its fast same-type loop.
        np.add.at(gram.reshape(-1), (cols[:, :, None] * n + cols[:, None, :]).reshape(-1), float(n))
        return gram
    dense = present.astype(np.float64)
    gram = dense.T @ dense
    gram *= n
    gram -= d * d
    return gram


def check_sigma2_shape(m: int, n: int) -> None:
    """Raise what sigma2 raises for an m x n matrix, so that a caller can
    refuse before drawing it: ValueError unless square."""
    if m != n:
        raise ValueError("sigma2 is defined here for the square digraph case")


def check_alpha_shape(m: int, n: int) -> None:
    """Raise what row_set_extremes, and so alpha_exact, raises for an m x n
    matrix, so that a caller can refuse before drawing or decomposing it:
    ValueError unless square, SearchSpaceTooLarge above the cap."""
    if m != n:
        raise ValueError("alpha_exact is defined here for the square digraph case")
    if n > ALPHA_EXACT_CAP:
        raise SearchSpaceTooLarge(
            f"alpha_exact enumerates 2^{n} row sets; cap is n <= {ALPHA_EXACT_CAP}"
        )


def row_set_extremes(matrix: BiregularBitMatrix) -> tuple:
    """(sizes, dev) for the nonempty row sets A without row n - 1, row k
    for the rows in the bits of k + 1: sizes[k] = |A| and dev[k, b - 1] =
    max over |B| = b of |n e(A,B) - d |A| b|, an exact integer.  The b
    largest column sums over A sum to top[b], the b smallest to |A| d minus
    top[n - b].  A^c has column sums d minus A's, so the same value at every
    b, and the full row set has 0: the table covers every row set.
    Guarded by n <= ALPHA_EXACT_CAP."""
    check_alpha_shape(matrix.m, matrix.n)
    n, d = matrix.n, matrix.d
    size = 1 << (n - 1)
    dense = matrix.dense().astype(np.int32)
    # colsums[mask] = column sums of the row set `mask`; popcount[mask] = |mask|.
    colsums = np.zeros((size, n), dtype=np.int32)
    popcount = np.zeros(size, dtype=np.int32)
    for i in range(n - 1):
        bit = 1 << i
        colsums[bit : 2 * bit] = colsums[:bit] + dense[i]
        popcount[bit : 2 * bit] = popcount[:bit] + 1
    colsums = colsums[1:]
    colsums.sort(axis=1)
    top = np.cumsum(colsums[:, ::-1], axis=1, dtype=np.int32)
    sizes = popcount[1:]
    total = sizes[:, None] * d
    bottom = np.concatenate([total - top[:, -2::-1], total], axis=1)
    expected = total * np.arange(1, n + 1, dtype=np.int32)
    return sizes, np.maximum(n * top - expected, expected - n * bottom)


def alpha_exact(matrix: BiregularBitMatrix) -> float:
    """max over nonempty A, B of |e(A,B) - p|A||B|| / sqrt(|A||B|), from the
    extremes of `row_set_extremes`, each read for A and for A^c."""
    n = matrix.n
    sizes, dev = row_set_extremes(matrix)
    b = np.arange(1, n + 1, dtype=np.float64)
    per_a = (dev * (1.0 / np.sqrt(b))).max(axis=1)
    both = np.stack([sizes, n - sizes]).astype(np.float64)  # |A| and |A^c|
    return float((per_a / (n * np.sqrt(both))).max(initial=0.0))
