"""Closed-form tail/discrepancy bound evaluators and deterministic lemmas.

Each evaluator returns the displayed expression of one theorem, together
with a validity flag for its side conditions and a record of which
constants are pinned by the source result (C1 = 64, C2 = 8 for the
edge-count bounds) versus chosen defaults for the genuinely unspecified
absolute constants (reported as non-paper so plots cannot pass them off
as claims).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .matrices import BiregularBitMatrix, VertexSetPair, edge_count

__all__ = [
    "TailBoundSpec",
    "BoundValue",
    "PseudorandomReport",
    "DiscrepancyFamilyReport",
    "THEOREMS",
    "eval_bound",
    "check_pseudorandom_implication",
    "corollary_good_event",
]

THEOREMS = (
    "codegree_upper",
    "codegree_uniform",
    "edge_upper",
    "edge_lower",
    "edge_twosided",
    "perm_edge",
    "er_codegree",
    "er_edge",
    "bipartite_codegree_uniform",
    "bipartite_edge",
)

# Chosen defaults for constants the statements leave unspecified.
DEFAULT_SMALL_C = 1.0 / 64.0
DEFAULT_POLY_C = 1.0

# Most (A, B) pairs check_pseudorandom_implication enumerates on its own.
PSEUDORANDOM_ENUMERATION_CAP = 1 << 22


@dataclass(frozen=True)
class TailBoundSpec:
    """Inputs for one bound evaluation.

    `deviation` is the theorem's deviation parameter (epsilon, tau or eta
    depending on the statement); `eta` is the codegree-event tolerance a
    joint edge-count bound is conditioned on.  Unset constants pick up the
    per-theorem defaults at evaluation time.
    """

    theorem: str
    n: int = 0
    d: int = 0
    m: Optional[int] = None
    deviation: float = 0.0
    a: Optional[int] = None
    b: Optional[int] = None
    eta: Optional[float] = None
    p: Optional[float] = None
    c1: Optional[float] = None
    c2: Optional[float] = None
    c: Optional[float] = None

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem {self.theorem!r}")
        if self.deviation < 0:
            raise ValueError("deviation parameter must be >= 0")
        # Every theorem divides by n, and the bipartite ones by m.
        for name in ("n", "m"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"bound field {name!r} must be >= 1, got {value}")
        # The degree and set sizes of an m x n class: d and b count columns,
        # a counts rows.
        m = self.n if self.m is None else self.m
        for name, low, high in (("d", 0, self.n), ("a", 1, m), ("b", 1, self.n)):
            value = getattr(self, name)
            if value is not None and not low <= value <= high:
                raise ValueError(f"bound field {name!r} must be in [{low}, {high}], got {value}")


@dataclass(frozen=True)
class BoundValue:
    value: float
    valid: bool
    constants: dict = field(default_factory=dict)  # name -> (value, "paper"|"chosen")
    note: str = ""


def _d_hat(n: int, d: int) -> int:
    return min(d, n - d)


def _mu_hat_scaled(n: int, d: int, m: int, a: int, b: int) -> int:
    """n * mu_hat as an exact integer: d * min(ab, (m-a)(n-b))."""
    return d * min(a * b, (m - a) * (n - b))


def _require(spec: TailBoundSpec, *names: str) -> None:
    for name in names:
        if getattr(spec, name) is None:
            raise ValueError(f"theorem {spec.theorem} requires parameter {name!r}")


def eval_bound(spec: TailBoundSpec) -> BoundValue:
    """Evaluate the displayed bound of `spec.theorem` at its parameters."""
    th = spec.theorem
    dev = spec.deviation
    if th == "codegree_upper":
        # exp(-eps^2/(4+2eps) * (d_hat/n)^2 * n), one fixed row pair.
        p_hat_sq_n = _d_hat(spec.n, spec.d) ** 2 / spec.n
        value = math.exp(-(dev * dev) / (4.0 + 2.0 * dev) * p_hat_sq_n)
        return BoundValue(value, True)
    if th == "codegree_uniform":
        c1 = DEFAULT_POLY_C if spec.c1 is None else spec.c1
        c2 = DEFAULT_POLY_C if spec.c2 is None else spec.c2
        c = DEFAULT_SMALL_C if spec.c is None else spec.c
        dh = _d_hat(spec.n, spec.d)
        term1 = c1 * spec.n**2 * dh**2 * math.exp(-c * dev * dh)
        term2 = c2 * spec.n**2 * math.exp(-c * dev * dev / (1.0 + dev) * dh**2 / spec.n)
        return BoundValue(
            term1 + term2,
            True,
            constants={"c1": (c1, "chosen"), "c2": (c2, "chosen"), "c": (c, "chosen")},
            note="absolute constants are not pinned by the statement",
        )
    if th in ("edge_upper", "edge_lower", "edge_twosided", "bipartite_edge"):
        _require(spec, "a", "b")
        m = spec.n if spec.m is None else spec.m
        c1 = 64.0 if spec.c1 is None else spec.c1
        c2 = 8.0 if spec.c2 is None else spec.c2
        mu_hat = _mu_hat_scaled(spec.n, spec.d, m, spec.a, spec.b) / spec.n
        tau = dev
        if th == "edge_lower":
            value = math.exp(-(tau * tau) * mu_hat / c1)
            valid = spec.eta is None or spec.eta <= tau / 4.0
        else:
            factor = 2.0 if th in ("edge_twosided", "bipartite_edge") else 1.0
            value = factor * math.exp(-(tau * tau) * mu_hat / (c1 + c2 * tau))
            valid = spec.eta is None or spec.eta <= min(0.25, tau / 8.0)
        return BoundValue(
            value,
            valid,
            constants={"c1": (c1, "paper"), "c2": (c2, "paper")},
        )
    if th == "perm_edge":
        _require(spec, "a", "b")
        mu = spec.d * spec.a * spec.b / spec.n
        value = 2.0 * math.exp(-(dev * dev) * mu / (2.0 + dev))
        return BoundValue(value, True)
    if th == "er_codegree":
        _require(spec, "p")
        c = DEFAULT_SMALL_C if spec.c is None else spec.c
        value = 2.0 * math.exp(-c * dev * dev / (1.0 + dev) * spec.p**2 * spec.n)
        return BoundValue(value, True, constants={"c": (c, "chosen")})
    if th == "er_edge":
        _require(spec, "p", "a", "b")
        c = DEFAULT_SMALL_C if spec.c is None else spec.c
        value = 2.0 * math.exp(-c * dev * dev / (1.0 + dev) * spec.p * spec.a * spec.b)
        return BoundValue(value, True, constants={"c": (c, "chosen")})
    if th == "bipartite_codegree_uniform":
        _require(spec, "m")
        c1 = DEFAULT_POLY_C if spec.c1 is None else spec.c1
        c2 = DEFAULT_POLY_C if spec.c2 is None else spec.c2
        c = DEFAULT_SMALL_C if spec.c is None else spec.c
        dh = _d_hat(spec.n, spec.d)
        eta = dev
        term1 = c1 * spec.m**2 * dh**2 * math.exp(-c * eta * spec.n**2 / spec.m)
        term2 = c2 * spec.m**2 * math.exp(-c * eta * min(dh, eta * spec.n))
        return BoundValue(
            term1 + term2,
            True,
            constants={"c1": (c1, "chosen"), "c2": (c2, "chosen"), "c": (c, "chosen")},
            note="absolute constants are not pinned by the statement",
        )
    raise AssertionError(f"unhandled theorem {th}")


# ---------------------------------------------------------------------------
# Deterministic implication: uniform codegree control => edge discrepancy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PseudorandomReport:
    eps: float
    hypothesis_holds: bool
    worst_codegree_scaled: int  # max over pairs/directions of n*co
    size_threshold: float  # sets of at least this size are in scope
    pairs_checked: int
    violations: tuple  # ((A, B) tuples that broke the conclusion)

    @property
    def conclusion_holds(self) -> bool:
        return self.hypothesis_holds and not self.violations


def _qualifying_subsets(n: int, threshold: float) -> list:
    sizes = range(max(1, math.ceil(threshold)), n + 1)
    out = []
    for size in sizes:
        out.extend(combinations(range(n), size))
    return out


def check_pseudorandom_implication(
    matrix: BiregularBitMatrix,
    eps: float,
    pairs: Optional[Iterable[Tuple[Sequence[int], Sequence[int]]]] = None,
) -> PseudorandomReport:
    """Check the codegree-to-discrepancy implication on one matrix.

    Hypothesis: every distinct row pair has both out- and in-codegree at
    most (1 + eps) p^2 n.  Conclusion, checked only when the hypothesis
    holds: every pair of sets with |A|, |B| >= n/(eps d) satisfies

        |e(A,B)/(p|A||B|) - 1| <= sqrt(2 eps n / max(|A|, |B|)).

    Both sides are compared squared in exact rational arithmetic.  With no
    explicit family the qualifying pairs are enumerated exhaustively
    (guarded); a conclusion violation is a defect, since the implication
    is deterministic.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n, d = matrix.n, matrix.d
    if matrix.m != n:
        raise ValueError("the implication is stated for the square digraph case")
    eps_frac = Fraction(eps)

    dense = matrix.dense().astype(np.int64)
    co_out = dense @ dense.T
    co_in = dense.T @ dense
    iu = np.triu_indices(n, k=1)
    worst = int(max(co_out[iu].max(initial=0), co_in[iu].max(initial=0)))
    # co <= (1+eps) p^2 n  <=>  n * co <= (1+eps) d^2, exactly.
    hypothesis = Fraction(n * worst) <= (1 + eps_frac) * d * d

    threshold = n / (eps * d) if d > 0 else float("inf")
    if not hypothesis:
        return PseudorandomReport(eps, False, n * worst, threshold, 0, ())

    if pairs is None:
        if d == 0:
            candidates = []
        else:
            subsets = _qualifying_subsets(n, threshold)
            if len(subsets) ** 2 > PSEUDORANDOM_ENUMERATION_CAP:
                raise ValueError(
                    f"{len(subsets)**2} qualifying pairs exceed the enumeration cap; "
                    "pass an explicit family"
                )
            candidates = [(A, B) for A in subsets for B in subsets]
    else:
        candidates = [(tuple(A), tuple(B)) for A, B in pairs]

    violations = []
    checked = 0
    for A, B in candidates:
        a, b = len(A), len(B)
        if a == 0 or b == 0 or math.ceil(threshold) > min(a, b):
            continue
        checked += 1
        e = edge_count(matrix, VertexSetPair.of(A, B))
        # (e/(p a b) - 1)^2 <= 2 eps n / max(a, b), cleared of denominators.
        lhs = Fraction((n * e - d * a * b) ** 2) * max(a, b)
        rhs = 2 * eps_frac * n * Fraction((d * a * b) ** 2)
        if lhs > rhs:
            violations.append((tuple(A), tuple(B)))
    return PseudorandomReport(
        eps, True, n * worst, threshold, checked, tuple(violations)
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
    never asserted.
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
