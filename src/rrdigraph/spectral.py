"""Second singular value and exact jumbledness diagnostics.

sigma_1 and sigma_2 come from one LAPACK singular value decomposition of
the dense matrix.  A digraph with second singular value sigma_2 is
sigma_2-jumbled, so on tiny instances the exhaustive discrepancy maximum
alpha can be checked against sigma_2 directly.  alpha is exact: for a
row set A and a size b the largest |n e(A,B) - d a b| is reached by the b
columns with the largest, or the smallest, column sums over A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import BiregularBitMatrix
from .samplers import SearchSpaceTooLarge

__all__ = ["SpectralReport", "sigma2", "alpha_exact", "ALPHA_EXACT_CAP"]

ALPHA_EXACT_CAP = 14


@dataclass(frozen=True)
class SpectralReport:
    """sigma_1, sigma_2 and, for the payload, the fields of an exact solve
    (no iterations, zero residual, always converged)."""

    sigma1: float
    sigma2: float
    iterations: int
    residual: float
    converged: bool


def sigma2(matrix: BiregularBitMatrix) -> SpectralReport:
    """The two largest singular values of a square digraph's matrix."""
    if matrix.m != matrix.n:
        raise ValueError("sigma2 is defined here for the square digraph case")
    if matrix.n == 1:
        return SpectralReport(float(matrix.d), 0.0, 0, 0.0, True)
    values = np.linalg.svd(matrix.dense().astype(np.float64), compute_uv=False)
    return SpectralReport(float(values[0]), float(values[1]), 0, 0.0, True)


def alpha_exact(matrix: BiregularBitMatrix) -> float:
    """max over nonempty A, B of |e(A,B) - p|A||B|| / sqrt(|A||B|).

    Exhaustive over the 2^n row sets, so guarded by n <= ALPHA_EXACT_CAP.
    For each A and b = |B| the numerator max |n e - d a b| / n is an exact
    integer taken from the sorted column sums over A.
    """
    if matrix.m != matrix.n:
        raise ValueError("alpha_exact is defined here for the square digraph case")
    n, d = matrix.n, matrix.d
    if n > ALPHA_EXACT_CAP:
        raise SearchSpaceTooLarge(
            f"alpha_exact enumerates 2^{n} row sets; cap is n <= {ALPHA_EXACT_CAP}"
        )
    size = 1 << n
    dense = matrix.dense().astype(np.int64)
    # colsums[mask] = column sums of the row set `mask`; popcount[mask] = |mask|.
    colsums = np.zeros((size, n), dtype=np.int64)
    popcount = np.zeros(size, dtype=np.int64)
    for i in range(n):
        bit = 1 << i
        colsums[bit : 2 * bit] = colsums[:bit] + dense[i]
        popcount[bit : 2 * bit] = popcount[:bit] + 1
    ascending = np.sort(colsums[1:], axis=1)
    bottom = np.cumsum(ascending, axis=1)
    top = np.cumsum(ascending[:, ::-1], axis=1)
    a = popcount[1:, None]
    b = np.arange(1, n + 1, dtype=np.int64)
    expected = d * a * b
    dev = np.maximum(n * top - expected, expected - n * bottom)
    per_a = (dev * (1.0 / np.sqrt(b.astype(np.float64)))).max(axis=1)
    return float((per_a / (n * np.sqrt(a[:, 0].astype(np.float64)))).max())
