"""Test oracles that no command, `verify` run or tail run reaches.

Each is a check the acceptance criteria and their tests take as a
reference: the sampler uniformity test (criterion 7), the non-crossing
walk fraction (criterion 6), the sampled discrepancy sweep over large
vertex sets and the dense multiplicity matrix of a permutation draw.  They live here, not in the package, so the package ships
only what a command reaches and SciPy stays a test dependency.
"""

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from rrdigraph.experiments import SHARD_SIZE
from rrdigraph.matrices import BiregularBitMatrix, VertexSetPair, edge_count, words_to_rows
from rrdigraph.samplers import CLASS_KINDS, SamplerSpec, check_ranges, draw, enumerate_all


def catalan_walk_check(r: int) -> Fraction:
    """Exact fraction of (r-1, r-1) step orderings that never reach +1.

    Enumerates all C(2(r-1), r-1) placements of the +1 steps; a walk from
    0 that never hits +1 is counted.  The count is the Catalan number
    C_{r-1}, so the returned fraction is exactly 1/r.
    """
    check_ranges("catalan_walk_check", ("r", r, 1, 10))
    steps = 2 * (r - 1)
    total = math.comb(steps, r - 1)
    non_crossing = 0
    for ups in itertools.combinations(range(steps), r - 1):
        up_set = set(ups)
        pos = 0
        ok = True
        for t in range(steps):
            pos += 1 if t in up_set else -1
            if pos == 1:
                ok = False
                break
        non_crossing += ok
    return Fraction(non_crossing, total)


def multiplicity(perms: np.ndarray) -> np.ndarray:
    """Entrywise sum of the permutation matrices of a (d, n) draw: cell
    i*n + perm(i) of each factor, counted."""
    n = perms.shape[1]
    cells = np.arange(0, n * n, n) + perms
    return np.bincount(cells.reshape(-1), minlength=n * n).reshape(n, n)


@dataclass(frozen=True)
class UniformityResult:
    tv_distance: float
    chi_sq_p: Optional[float]  # None on a one-member class, where no test is possible
    class_size: int
    samples: int
    min_count: int
    max_count: int

    @property
    def vacuous(self) -> bool:
        """True on a one-member class (d = 0 or d = n): every sampler is
        uniform there, so the result is no evidence either way."""
        return self.class_size == 1


def uniformity_test(sampler: SamplerSpec, N: int) -> UniformityResult:
    """Empirical distribution over the sampler's enumerated class vs uniform.

    Requires enumerate_all to be feasible for the sampler's (m, n, d, dp).
    Returns the total-variation distance and the chi-square p-value against
    the uniform distribution; sampling is sharded exactly like the tail
    harness, so the result is reproducible per (sampler, N).  On a one-member
    class the chi-square test has no degrees of freedom: `chi_sq_p` is None
    and `vacuous` is true.
    """
    if sampler.kind not in CLASS_KINDS:
        raise ValueError("uniformity_test needs a class-valued sampler")
    index = {}
    for i, mat in enumerate(enumerate_all(sampler.m, sampler.n, sampler.d, sampler.dp)):
        index[mat.rows] = i
    size = len(index)
    counts = np.zeros(size, dtype=np.int64)

    produced = 0
    shard = 0
    while produced < N:
        take = min(SHARD_SIZE, N - produced)
        words, _ = draw(dataclasses.replace(sampler, stream=sampler.stream + shard), take)
        for row_key in words_to_rows(words):
            counts[index[row_key]] += 1
        produced += take
        shard += 1

    emp = counts / N
    tv = 0.5 * float(np.abs(emp - 1.0 / size).sum())
    chi_sq_p = None
    if size > 1:
        # scipy.special alone: scipy.stats would take a process to about
        # 100 MB of peak RSS and 1.5 s.
        from scipy.special import chdtrc

        # Pearson's statistic against equal expected counts, and its upper
        # tail on size - 1 degrees of freedom.
        expected = N / size
        chi_sq = float(((counts - expected) ** 2 / expected).sum())
        chi_sq_p = float(chdtrc(size - 1, chi_sq))
    return UniformityResult(
        tv_distance=tv,
        chi_sq_p=chi_sq_p,
        class_size=size,
        samples=N,
        min_count=int(counts.min()),
        max_count=int(counts.max()),
    )


@dataclass(frozen=True)
class DiscrepancyFamilyReport:
    eps: float
    size_threshold: float
    vacuous: bool  # threshold exceeds n: empty family
    checked: int
    violations: int
    max_normalized: float  # max disc/mu_hat seen over the family


def corollary_good_event(
    matrix: BiregularBitMatrix,
    eps: float,
    c0: float = 4.0,
    samples: int = 1000,
    rng: Optional[np.random.Generator] = None,
) -> DiscrepancyFamilyReport:
    """Empirical sweep of disc(A,B) <= eps*mu_hat over large random sets.

    The family is all (A, B) with both sizes at least c0*log(n)/(eps^2 p);
    this routine samples from it and reports the violation frequency and
    the worst normalised discrepancy.  Probabilistic statement: reported,
    never asserted.  Its default stream is `np.random.default_rng(0)`;
    pass `rng` to sample another stream.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    n, d = matrix.n, matrix.d
    if d == 0:
        return DiscrepancyFamilyReport(eps, float("inf"), True, 0, 0, 0.0)
    p = d / n
    threshold = c0 * math.log(n) / (eps * eps * p) if n > 1 else 0.0
    lo = max(1, math.ceil(threshold))
    if lo > n:
        return DiscrepancyFamilyReport(eps, threshold, True, 0, 0, 0.0)
    rng = np.random.default_rng(0) if rng is None else rng
    checked = 0
    violations = 0
    max_norm = 0.0
    for _ in range(samples):
        a = int(rng.integers(lo, n + 1))
        b = int(rng.integers(lo, n + 1))
        A = rng.choice(n, size=a, replace=False)
        B = rng.choice(n, size=b, replace=False)
        pair = VertexSetPair.of((int(x) for x in A), (int(x) for x in B))
        mu_hat = pair.mu_hat(matrix)
        e = edge_count(matrix, pair)
        disc = abs(Fraction(e) - pair.mu(matrix))
        checked += 1
        if mu_hat > 0:
            max_norm = max(max_norm, float(disc / mu_hat))
        if disc > Fraction(eps) * mu_hat:
            violations += 1
    return DiscrepancyFamilyReport(eps, threshold, False, checked, violations, max_norm)
