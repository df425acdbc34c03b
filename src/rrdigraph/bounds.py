"""Closed-form tail/discrepancy bound evaluators and deterministic lemmas.

Each theorem is one row of `_THEOREMS`: the optional inputs it reads, its
constants, its note and its displayed expression.  An evaluation returns
the expression together with a validity flag for its side conditions and
a record of where each constant comes from: pinned by the source result
("paper": C1 = 64, C2 = 8 for the edge-count bounds) or a chosen default
for a genuinely unspecified absolute constant ("chosen", so plots cannot
pass it off as a claim).  `codegree_upper` and `perm_edge` are Chatterjee
tails (PTRF 138, 2007, Thm 1.5) at their pairs' `SELF_BOUND` constants.
No caller sets a constant, so every value is the bound its theorem states.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Tuple

import numpy as np

from .exchangeable import SELF_BOUND, chatterjee_tail
from .matrices import BiregularBitMatrix, codegree_extremes, rows_to_words
from .samplers import Above, check_ranges, check_reads
from .spectral import row_set_extremes

__all__ = [
    "TailBoundSpec",
    "BoundValue",
    "PseudorandomReport",
    "THEOREMS",
    "eval_bound",
    "check_pseudorandom_implication",
]

# Chosen defaults for constants the statements leave unspecified.
DEFAULT_SMALL_C = 1.0 / 64.0
DEFAULT_POLY_C = 1.0


@dataclass(frozen=True)
class TailBoundSpec:
    """Inputs for one bound evaluation.

    `deviation` is the theorem's deviation parameter (epsilon, tau or eta
    depending on the statement); `eta` is the codegree-event tolerance a
    joint edge-count bound is conditioned on.  The optional fields a
    theorem does not read must stay None: every class theorem reads and
    requires d, and the Erdos-Renyi rows read none.
    """

    theorem: str
    n: int = 0
    d: Optional[int] = None
    m: Optional[int] = None
    deviation: float = 0.0
    a: Optional[int] = None
    b: Optional[int] = None
    eta: Optional[float] = None
    p: Optional[float] = None

    def __post_init__(self):
        row = _THEOREMS.get(self.theorem)
        if row is None:
            raise ValueError(f"unknown theorem {self.theorem!r}")
        # Every theorem divides by n, and the bipartite ones by m; d and b count
        # columns of the m x n class and a counts rows.
        m = self.n if self.m is None else self.m
        check_ranges("bound", ("deviation", self.deviation, 0), ("n", self.n, 1), ("m", self.m, 1),
                     ("d", self.d, 0, self.n), ("a", self.a, 1, m), ("b", self.b, 1, self.n),
                     ("p", self.p, 0, 1), ("eta", self.eta, 0))
        check_reads("bound", self, row.reads, f"theorem {self.theorem!r}", row.requires)


@dataclass(frozen=True)
class BoundValue:
    value: float
    valid: bool
    constants: dict = field(default_factory=dict)  # name -> (value, "paper"|"chosen")
    note: str = ""


def _d_hat(s: TailBoundSpec) -> int:
    return min(s.d, s.n - s.d)


def _mu_hat(s: TailBoundSpec) -> float:
    """mu_hat = d * min(ab, (m-a)(n-b)) / n, the numerator an exact integer."""
    m = s.n if s.m is None else s.m
    return s.d * min(s.a * s.b, (m - s.a) * (s.n - s.b)) / s.n


def _self_bounding_upper(coupling: str, s: TailBoundSpec, t: float) -> float:
    """The upper tail at t of a square-class pair with the coupling's
    SELF_BOUND constants."""
    k1, k2 = SELF_BOUND[coupling](s.n, s.n, s.d, s.a, s.b)
    return chatterjee_tail(float(k1), float(k2), t)[0]


@dataclass(frozen=True)
class _Theorem:
    """One theorem: the optional spec fields it reads, those of them it
    requires, its constants as name -> (value, "paper" | "chosen"), its
    displayed bound as formula(spec, deviation, **constants) and its note."""

    reads: Tuple[str, ...]
    requires: Tuple[str, ...]
    constants: dict
    formula: Callable[..., float]
    note: str = ""
    # For a bound joint with the codegree event: the largest eta at which
    # it holds, as a function of the deviation.
    eta_limit: Optional[Callable[[float], float]] = None


_CHOSEN_C = {"c": (DEFAULT_SMALL_C, "chosen")}
_UNPINNED = {"c1": (DEFAULT_POLY_C, "chosen"), "c2": (DEFAULT_POLY_C, "chosen"), **_CHOSEN_C}
_UNPINNED_NOTE = "absolute constants are not pinned by the statement"
_EDGE_READS = ("d", "m", "a", "b", "eta")
_EDGE_REQUIRES = ("d", "a", "b")
_EDGE_CONSTANTS = {"c1": (64.0, "paper"), "c2": (8.0, "paper")}

_THEOREMS = {
    # exp(-eps^2/(4+2eps) * (d_hat/n)^2 * n), one fixed row pair: the
    # reflection pair's tail at t = eps * d_hat^2 / n.
    "codegree_upper": _Theorem(
        ("d",), ("d",), {}, lambda s, t: _self_bounding_upper("reflection", s, t * _d_hat(s) ** 2 / s.n),
    ),
    "codegree_uniform": _Theorem(
        ("d",), ("d",), _UNPINNED,
        lambda s, t, c1, c2, c: c1 * s.n**2 * _d_hat(s) ** 2 * math.exp(-c * t * _d_hat(s))
        + c2 * s.n**2 * math.exp(-c * t * t / (1.0 + t) * _d_hat(s) ** 2 / s.n),
        _UNPINNED_NOTE,
    ),
    # The edge-count tails in tau, with mu_hat over the m x n class.
    "edge_upper": _Theorem(
        _EDGE_READS, _EDGE_REQUIRES, _EDGE_CONSTANTS,
        lambda s, t, c1, c2: math.exp(-(t * t) * _mu_hat(s) / (c1 + c2 * t)),
        eta_limit=lambda t: min(0.25, t / 8.0),
    ),
    # exp(-tau^2 mu_hat / C1): the lower tail has no C2 term.
    "edge_lower": _Theorem(
        _EDGE_READS, _EDGE_REQUIRES, {"c1": _EDGE_CONSTANTS["c1"]},
        lambda s, t, c1: math.exp(-(t * t) * _mu_hat(s) / c1),
        eta_limit=lambda t: t / 4.0,
    ),
    "edge_twosided": _Theorem(
        _EDGE_READS, _EDGE_REQUIRES, _EDGE_CONSTANTS,
        lambda s, t, c1, c2: 2.0 * math.exp(-(t * t) * _mu_hat(s) / (c1 + c2 * t)),
        eta_limit=lambda t: min(0.25, t / 8.0),
    ),
    # 2 exp(-tau^2 mu / (2 + tau)), mu = d a b / n: twice the permutation
    # pair's upper tail at t = tau * mu.
    "perm_edge": _Theorem(
        ("d", "a", "b"), ("d", "a", "b"), {},
        lambda s, t: 2.0 * _self_bounding_upper("permutation", s, t * s.d * s.a * s.b / s.n),
    ),
    "er_codegree": _Theorem(
        ("p",), ("p",), _CHOSEN_C,
        lambda s, t, c: 2.0 * math.exp(-c * t * t / (1.0 + t) * s.p**2 * s.n),
    ),
    "er_edge": _Theorem(
        ("p", "a", "b"), ("p", "a", "b"), _CHOSEN_C,
        lambda s, t, c: 2.0 * math.exp(-c * t * t / (1.0 + t) * s.p * s.a * s.b),
    ),
    "bipartite_codegree_uniform": _Theorem(
        ("d", "m"), ("d", "m"), _UNPINNED,
        lambda s, t, c1, c2, c: c1 * s.m**2 * _d_hat(s) ** 2 * math.exp(-c * t * s.n**2 / s.m)
        + c2 * s.m**2 * math.exp(-c * t * min(_d_hat(s), t * s.n)),
        _UNPINNED_NOTE,
    ),
    "bipartite_edge": _Theorem(
        _EDGE_READS, _EDGE_REQUIRES, _EDGE_CONSTANTS,
        lambda s, t, c1, c2: 2.0 * math.exp(-(t * t) * _mu_hat(s) / (c1 + c2 * t)),
        eta_limit=lambda t: min(0.25, t / 8.0),
    ),
}
THEOREMS = tuple(_THEOREMS)


def eval_bound(spec: TailBoundSpec) -> BoundValue:
    """Evaluate the displayed bound of `spec.theorem` at its parameters."""
    row = _THEOREMS[spec.theorem]
    inputs = {name: v for name, (v, _) in row.constants.items()}
    try:
        value = row.formula(spec, spec.deviation, **inputs)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        # Only an input far out of scale overflows a formula: name the largest.
        inputs.update((k, v) for k, v in asdict(spec).items() if isinstance(v, (int, float)))
        name = max(inputs, key=inputs.get)
        raise ValueError(f"bound field {name!r} must give theorem {spec.theorem!r} a finite bound, "
                         f"got {inputs[name]} (bound {value})")
    valid = spec.eta is None or spec.eta <= row.eta_limit(spec.deviation)
    return BoundValue(value, valid, dict(row.constants), row.note)


# ---------------------------------------------------------------------------
# Deterministic implication: uniform codegree control => edge discrepancy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PseudorandomReport:
    """`pairs_checked` counts the qualifying (A, b), |B| = b, and
    `violations` holds one witness (A, B) per violating (A, b), B the b
    columns of largest or of smallest column sum over A, as ascending index
    tuples."""

    eps: float
    hypothesis_holds: bool
    worst_codegree_scaled: int  # max over pairs/directions of n*co
    size_threshold: float  # sets of at least this size are in scope
    pairs_checked: int
    violations: tuple

    @property
    def conclusion_holds(self) -> bool:
        return self.hypothesis_holds and not self.violations


# The conclusion: |e/(p a b) - 1| <= sqrt(_CONCLUSION_C eps n / max(a, b)).
_CONCLUSION_C = 2


def _allowed_deviation(n: int, d: int, eps: Fraction, a: int, b: int) -> int:
    """The largest |n e - d a b| the conclusion allows at |A| = a, |B| = b: it
    reads (n e - d a b)^2 max(a, b) <= C eps n (d a b)^2, and an integer D
    has D^2 <= R iff D <= isqrt(floor(R))."""
    return math.isqrt(math.floor(_CONCLUSION_C * eps * n * (d * a * b) ** 2 / max(a, b)))


def _extreme_violations(matrix: BiregularBitMatrix, eps: Fraction, lo: int) -> tuple:
    """(checked, violations) over every (A, b) with |A|, b >= lo.  The
    conclusion's left side is convex in e(A,B) and its right side is free
    of B, so some B of size b breaks it iff row_set_extremes' extreme does."""
    n, d = matrix.n, matrix.d
    sizes, dev = row_set_extremes(matrix)
    cutoff = np.full((n + 1, n), n**3, dtype=np.int64)  # n^3: more than any |n e - d a b|
    for a in range(lo, n + 1):
        for b in range(lo, n + 1):
            cutoff[a, b - 1] = min(n**3, _allowed_deviation(n, d, eps, a, b))
    checked, violations = n - lo + 1, []  # the full row set, which gives 0
    for flip, a in ((0, sizes), ((1 << n) - 1, n - sizes)):  # A, and A^c
        checked += int((a >= lo).sum()) * (n - lo + 1)
        for k, j in zip(*np.nonzero(dev > cutoff[a])):
            A, b = tuple(i for i in range(n) if ((int(k) + 1) ^ flip) >> i & 1), int(j) + 1
            colsums = matrix.dense()[list(A)].sum(axis=0, dtype=np.int64)
            order = np.argsort(colsums, kind="stable")
            top = n * int(colsums[order[n - b :]].sum()) - d * len(A) * b
            B = order[n - b :] if top > cutoff[len(A), j] else order[:b]
            violations.append((A, tuple(sorted(int(c) for c in B))))
    return checked, tuple(violations)


def check_pseudorandom_implication(matrix: BiregularBitMatrix, eps: float) -> PseudorandomReport:
    """Check the codegree-to-discrepancy implication on one matrix.

    Hypothesis: every distinct row pair has both out- and in-codegree at
    most (1 + eps) p^2 n.  Conclusion, checked only when the hypothesis
    holds: every pair of sets with |A|, |B| >= n/(eps d) satisfies

        |e(A,B)/(p|A||B|) - 1| <= sqrt(2 eps n / max(|A|, |B|)).

    Both sides are compared squared in exact integer arithmetic.  Each
    qualifying (A, b) is checked at its extreme B, for n <= ALPHA_EXACT_CAP;
    a conclusion violation is a defect, since the implication is
    deterministic.
    """
    check_ranges("implication", ("eps", eps, Above(0)))
    n, d = matrix.n, matrix.d
    if matrix.m != n:
        raise ValueError("the implication is stated for the square digraph case")
    eps_frac = Fraction(eps)

    worst = 0
    if n >= 2:  # the greatest out- and in-codegree, or 0 with no pair
        words = np.stack([rows_to_words(t.rows, n) for t in (matrix, matrix.transpose())])
        worst = int(codegree_extremes(words)[1].max())
    # co <= (1+eps) p^2 n  <=>  n * co <= (1+eps) d^2, exactly.
    hypothesis = Fraction(n * worst) <= (1 + eps_frac) * d * d

    threshold = n / (eps * d) if d > 0 else float("inf")
    if not hypothesis:
        return PseudorandomReport(eps, False, n * worst, threshold, 0, ())

    lo = max(1, math.ceil(threshold)) if d > 0 else n + 1
    checked, violations = _extreme_violations(matrix, eps_frac, lo) if lo <= n else (0, ())
    return PseudorandomReport(eps, True, n * worst, threshold, checked, violations)
