"""Exchangeable-pair diagnostics for the three couplings.

For an involution Phi on a finite class and a uniform element M, the pair
(M, Phi(M)) is exchangeable.  Given an antisymmetric F with conditional
mean f(M) = E[F(M, M~) | M], concentration of f follows from a
self-bounding control on

    v_f(M) = (1/2) E[ |f(M) - f(M~)| |F(M, M~)| | M ].

This module computes f and v_f exactly (integer-scaled / rational) for

* the reflection coupling     (statistic: codegree of a fixed row pair),
* the simple-switching coupling (statistic: edge count e(A, B)),
* the permutation model        (statistic: e_pi(A, B)),

and evaluates the tail bound that a self-bounding pair (K1, K2) yields.
Each coupling has one f and one v_f function.  The f functions return the
arrays their kernel built in `CouplingDiagnostics.scan`, and the v_f
functions take that f and read them, so a caller that wants both pays
for the scan once; without an f, a v_f function computes it.
Each coupling's constants in v_f <= K2*f + K1 have one source,
`SELF_BOUND`: the diagnostics' self-bound check and the `codegree_upper`
and `perm_edge` rows of `bounds` all read it.

Every algebraic identity here is checked in exact arithmetic with a
declared integer scale; floats appear only in the final bound values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from .matrices import BiregularBitMatrix, VertexSetPair, _bits, codegree, codegree_deviation
from .matrices import edge_count, rows_to_words
from .couplings import _BLOCK_CELLS, _bad_mask
from .samplers import ResourceGuardError, check_ranges

__all__ = [
    "CouplingDiagnostics",
    "GoodEventCo",
    "InvariantViolation",
    "SelfBoundViolation",
    "ExactCapExceeded",
    "REFLECTION_EXACT_CAP",
    "SELF_BOUND",
    "SWITCHING_EXACT_CAP",
    "reflection_f",
    "reflection_vf",
    "switching_f",
    "switching_vf",
    "permutation_diagnostics",
    "chatterjee_tail",
    "good_event_co",
]

# Exact v_f cost guards, in units fixed by the class and (A, B) alone, never
# by the draw: m*d*(n-d)*d_hat walk steps for reflection (K sites times the
# walks each one re-reads, an upper bound) and K_ab = a(m-a)b(n-b) site cells
# for switching.  Each cap is about one second of kernel time per call on one
# core (measured 1.0-1.7 ns per walk step and 11-12 ns per site cell at
# n = 120 and 240, d = n/2, a = b = n/2).
REFLECTION_EXACT_CAP = 10**9
SWITCHING_EXACT_CAP = 10**8


class InvariantViolation(AssertionError):
    """An exact identity or proven inequality failed; indicates a defect."""


class SelfBoundViolation(InvariantViolation):
    """v_f exceeded its coupling's self-bound K2*f + K1."""


class ExactCapExceeded(ResourceGuardError):
    """Exact v_f cost guard tripped: the class or (A, B) is too large."""


# Chatterjee's self-bounding constants (PTRF 138, 2007): for each coupling,
# (m, n, d, a, b) -> (K1, K2) with v_f <= K2*f + K1, exact, where
# d_hat = min(d, n - d) and the switching (a, b) are the reduced pair's.
SELF_BOUND = {
    "reflection": lambda m, n, d, a, b: (Fraction(2 * min(d, n - d) ** 2, n), Fraction(1)),
    "switching": lambda m, n, d, a, b: (
        Fraction(2 * m**2 * min(d, n - d) ** 2 * d * a * b, n),
        Fraction(m * min(d, n - d)),
    ),
    "permutation": lambda m, n, d, a, b: (Fraction(d * a * b, n), Fraction(1, 2)),
}


@dataclass
class CouplingDiagnostics:
    """Exact integer-scaled f and v_f for one coupling instance.

    f equals f_scaled / scale; v_f, set by the functions that compute it,
    and the constants K1, K2 of SELF_BOUND[coupling] are exact Fractions.
    `scan` holds the arrays an f function built, which its v_f function
    reads instead of building them again.
    """

    coupling: str  # "reflection" | "switching" | "permutation"
    f_scaled: int
    scale: int
    K1: Fraction
    K2: Fraction
    v_f: Optional[Fraction] = None
    b: Optional[int] = None
    f1_scaled: Optional[int] = None
    f2_scaled: Optional[int] = None
    max_step: Optional[int] = None  # worst |f - f~| over the active sites
    scan: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def f(self) -> Fraction:
        return Fraction(self.f_scaled, self.scale)

    @property
    def bound(self) -> Fraction:
        """The self-bound K2*f + K1 on v_f."""
        return self.K2 * self.f + self.K1

    @property
    def bound_ok(self) -> Optional[bool]:
        """v_f <= bound, exactly; None until v_f is set."""
        if self.v_f is None:
            return None
        return self.v_f <= self.bound


def _check_self_bound(diag: CouplingDiagnostics) -> CouplingDiagnostics:
    """diag, once its v_f is within K2*f + K1; raises SelfBoundViolation."""
    if not diag.bound_ok:
        raise SelfBoundViolation(
            f"{diag.coupling} self-bound failed: v_f = {diag.v_f} > K2*f + K1 = {diag.bound}"
        )
    return diag


@dataclass(frozen=True)
class GoodEventCo:
    """Whether all row-pair codegrees sit within eta*p*(1-p)*n of p^2*n."""

    eta: Fraction
    holds: bool
    worst_deviation_scaled: int  # max over pairs of |n*co - d^2|
    threshold_scaled: Fraction  # eta * d * (n - d)


# ---------------------------------------------------------------------------
# Reflection coupling: F(M1, M2) = n * (co(M1) - co(M2))
# ---------------------------------------------------------------------------


def reflection_f(matrix: BiregularBitMatrix, i1: int, i2: int) -> CouplingDiagnostics:
    """Conditional mean f of the reflection pair at rows (i1, i2), scale n.

    f_scaled = #K-minors - #reflecting-I-minors = n*co - d^2 + b as exact
    integers, b the bad-pair count: the K minors number co*(n - 2d + co)
    and the I minors ex^2, b of them bad.  `scan` holds the (ex1, ex2,
    bad, walk rows) of couplings._bad_mask, which reflection_vf reads.
    """
    scan = _bad_mask(matrix, i1, i2)
    b = int(scan[2].sum())
    f_scaled = matrix.n * codegree(matrix, i1, i2).co - matrix.d**2 + b
    constants = SELF_BOUND["reflection"](matrix.m, matrix.n, matrix.d, None, None)
    return CouplingDiagnostics("reflection", f_scaled, matrix.n, *constants, b=b, scan=scan)


def _k_site_steps(walk_rows, j1s, j2s, ex1, ex2) -> np.ndarray:
    """|f - f~| (scale n) at the K sites (j1s[k], j2s[k]), j1 in Co, j2 in Zz.

    walk_rows is the dense matrix with its rows in walk order.  A K site
    always reflects: columns j1 and j2 swap on walk positions 2..i*.  In
    the image j1 joins Ex(i1,i2) and j2 joins Ex(i2,i1), co drops by one
    and the old Ex pairs keep their walks, so f - f~ = n - b_new, where
    b_new counts the bad pairs (j1', y), y in ex2, and (x, j2'), x in ex1,
    of the image: one cumsum for all of them.
    """
    m, n = walk_rows.shape
    c1 = walk_rows[:, j1s]
    c2 = walk_rows[:, j2s]
    walk = np.cumsum(c1 - c2, axis=0, dtype=np.int32)
    # First return to +1 from position 3 on; it exists because the walk
    # starts 1, 2 and ends at 0.
    i_star = 2 + (walk[2:] == 1).argmax(axis=0)
    swapped = np.arange(m)[:, None] <= i_star
    swapped[0] = False
    new1 = np.where(swapped, c2, c1)
    new2 = np.where(swapped, c1, c2)
    steps = np.concatenate(
        (
            new1[:, :, None] - walk_rows[:, None, ex2],
            walk_rows[:, None, ex1] - new2[:, :, None],
        ),
        axis=2,
    )
    walks = np.cumsum(steps, axis=0, dtype=np.int32)
    bad = ~(walks[2:] == 1).any(axis=0)
    return np.abs(n - bad.sum(axis=1))


def reflection_vf(
    matrix: BiregularBitMatrix, i1: int, i2: int, f: Optional[CouplingDiagnostics] = None
) -> CouplingDiagnostics:
    """Exact v_f of the reflection pair, checked against its self-bound.

    v_f = sum / (2 n^2), the sum of |f - f~| (scale n) over the active
    column pairs, those with |F| = n: every K minor and every reflecting I
    minor.  With R and C the row and column sums of the bad-pair mask, a
    reflecting I site (c1, c2) moves f by R[c1] + C[c2] - n; a K site by
    n - b_new (see _k_site_steps).  Guarded by
    m*d*(n-d)*d_hat <= REFLECTION_EXACT_CAP.

    f, when given, is reflection_f(matrix, i1, i2): its v_f and max_step
    are set and its scan is read, so the bad-pair mask is built once.
    """
    diag = reflection_f(matrix, i1, i2) if f is None else f
    cost = matrix.m * matrix.d * (matrix.n - matrix.d) * matrix.d_hat
    if cost > REFLECTION_EXACT_CAP:
        raise ExactCapExceeded(
            f"exact reflection v_f needs m*d*(n-d)*d_hat = {cost} walk steps, "
            f"above the cap of {REFLECTION_EXACT_CAP}"
        )
    n = matrix.n
    ex1, ex2, bad, walk_rows = diag.scan

    i_steps = np.abs(bad.sum(axis=1)[:, None] + bad.sum(axis=0)[None, :] - n)[~bad]
    total = int(i_steps.sum())
    worst = int(i_steps.max(initial=0))

    r1, r2 = matrix.rows[i1], matrix.rows[i2]
    co_cols = _bits(r1 & r2)
    zz_cols = _bits(~(r1 | r2) & ((1 << n) - 1))
    if co_cols and zz_cols:
        j1s = np.repeat(co_cols, len(zz_cols))
        j2s = np.tile(zz_cols, len(co_cols))
        block = max(1, _BLOCK_CELLS // (matrix.m * max(1, 2 * len(ex1))))
        for start in range(0, j1s.size, block):
            part = slice(start, start + block)
            k_steps = _k_site_steps(walk_rows, j1s[part], j2s[part], ex1, ex2)
            total += int(k_steps.sum())
            worst = max(worst, int(k_steps.max()))

    diag.v_f = Fraction(total, 2 * n * n)
    diag.max_step = worst
    return _check_self_bound(diag)


# ---------------------------------------------------------------------------
# Switching coupling: F(M1, M2) = K_ab * (e_{M1}(A,B) - e_{M2}(A,B))
# ---------------------------------------------------------------------------


def _reduce_pair(matrix: BiregularBitMatrix, pair: VertexSetPair) -> VertexSetPair:
    """Replace (A, B) by complements when mu > mu-of-complements.

    The deviation event is complement-symmetric, so the analysis may
    assume a*b <= (m-a)*(n-b) (a+b <= n in the square case).
    """
    a, b = pair.a, pair.b
    if a * b > (matrix.m - a) * (matrix.n - b):
        return pair.complement(matrix)
    return pair


def _switch_stats(matrix: BiregularBitMatrix, pair: VertexSetPair):
    """(dense, A, A^c, B, B^c, nb, ex): nb[i] the number of row i's columns
    in B, and ex = d - M M^T the exclusive counts of all row pairs."""
    dense = matrix.dense().astype(np.int64)
    rows_a = sorted(pair.rows)
    rows_c = sorted(set(range(matrix.m)) - pair.rows)
    cols_b = sorted(pair.cols)
    cols_c = sorted(set(range(matrix.n)) - pair.cols)
    nb = dense[:, cols_b].sum(axis=1) if cols_b else np.zeros(matrix.m, dtype=np.int64)
    return dense, rows_a, rows_c, cols_b, cols_c, nb, matrix.d - dense @ dense.T


def switching_f(matrix: BiregularBitMatrix, pair: VertexSetPair) -> CouplingDiagnostics:
    """f of the switching pair at (A, B), with the main/error split.

    f is computed two independent ways (the minor-count double sum over
    A x A^c and the exclusive-neighbourhood form) and asserted equal as
    integers.  The main term is the edge-count recentering
    f1 = p(1-p) n m (e(A,B) - mu); scale n in the square case, n^2 for
    rectangular classes, keeps every term integral.  `scan` holds the
    (dense, A, A^c, B, B^c, nb, ex) of _switch_stats at the reduced (A, B),
    which switching_vf reads.
    """
    pair.validate(matrix)
    check_ranges("switching_f", ("a", pair.a, 1, matrix.m - 1))  # A proper and nonempty
    pair = _reduce_pair(matrix, pair)
    m, n, d = matrix.m, matrix.n, matrix.d
    scan = _switch_stats(matrix, pair)
    dense, rows_a, rows_c, cols_b, cols_c, nb, ex = scan

    # Form 1: minor-count double sum.
    sub = dense[:, cols_b] if cols_b else np.zeros((m, 0), dtype=np.int64)
    in_b = sub @ (1 - sub).T  # |Ex(i1,i2) /\ B|
    sub_c = dense[:, cols_c] if cols_c else np.zeros((m, 0), dtype=np.int64)
    in_bc = sub_c @ (1 - sub_c).T  # |Ex(i1,i2) /\ B^c|
    ia = np.ix_(rows_a, rows_c)
    ic = np.ix_(rows_c, rows_a)
    f_minor = int((in_b[ia] * in_bc[ic].T).sum() - (in_b[ic].T * in_bc[ia]).sum())

    # Form 2: exclusive-neighbourhood form.
    diff_nb = nb[rows_a][:, None] - nb[rows_c][None, :]
    f_ex = int((ex[ia] * diff_nb).sum())

    if f_minor != f_ex:
        raise InvariantViolation(
            f"switching f mismatch: minor form {f_minor} != neighbourhood form {f_ex}"
        )

    scale = n if m == n else n * n
    e = edge_count(matrix, pair)
    a, b = pair.a, pair.b
    core = d * (n - d) * (n * e - d * a * b)
    f1_scaled = core if m == n else m * core
    f_scaled = f_minor * scale
    f2_scaled = f_scaled - f1_scaled

    # Independent error-term path: sum (n*ex - d(n-d)) * (nb difference),
    # an integer at scale n; re-scale and compare.
    f2_direct_n = int(((n * ex[ia] - d * (n - d)) * diff_nb).sum())
    if f2_direct_n * (scale // n) != f2_scaled:
        raise InvariantViolation(
            f"switching error-term mismatch: {f2_direct_n} vs {f2_scaled} at scale {scale}"
        )

    constants = SELF_BOUND["switching"](m, n, d, a, b)
    return CouplingDiagnostics(
        "switching", f_scaled, scale, *constants,
        f1_scaled=f1_scaled, f2_scaled=f2_scaled, scan=scan,
    )


def _switching_steps(d, dense, rows_a, rows_c, cols_b, cols_c, nb) -> Iterator[np.ndarray]:
    """|f - f~| at every switchable site, block by block of row pairs.

    Fix (i1, i2) in A x A^c and the kind s (+1 for I sites, whose entries at
    (i1, j1) and (i2, j2) drop, -1 for J sites).  The sites have j1 in B and
    j2 in B^c, and f - f~ = const - g[j1] + g[j2] with
    const = s*(sum_{u in A^c} ex[i1,u] + sum_{u in A} ex[u,i2]) and
    g = s*[(nb1 - s)(S_C - r2) - (T_C - nb2 r2)]
        - s*[(T_A - nb1 r1) - (nb2 + s)(S_A - r1)],
    where S_X = sum_{u in X} row_u, T_X = sum_{u in X} nb_u row_u, and r1,
    r2, nb1, nb2 belong to rows i1, i2.  The ex sums come from the same
    column sums, ex[i, u] = d - row_i . row_u, so no Gram is formed.  Yields
    one array of steps per block.
    """
    rows_a = np.asarray(rows_a)
    rows_c = np.asarray(rows_c)
    weighted = nb[:, None] * dense
    s_a, t_a = dense[rows_a].sum(axis=0), weighted[rows_a].sum(axis=0)
    s_c, t_c = dense[rows_c].sum(axis=0), weighted[rows_c].sum(axis=0)
    ex_c = d * rows_c.size - dense @ s_c  # sum_{u in A^c} ex[i, u]
    ex_a = d * rows_a.size - dense @ s_a  # sum_{u in A} ex[u, i]
    first = np.repeat(rows_a, rows_c.size)
    second = np.tile(rows_c, rows_a.size)
    block = max(1, _BLOCK_CELLS // (len(cols_b) * len(cols_c)))
    for start in range(0, first.size, block):
        p1, p2 = first[start : start + block], second[start : start + block]
        r1, r2 = dense[p1], dense[p2]
        nb1, nb2 = nb[p1][:, None], nb[p2][:, None]
        only1, only2 = r1 > r2, r2 > r1
        for s, in_b, in_c in ((1, only1, only2), (-1, only2, only1)):
            g = s * ((nb1 - s) * (s_c - r2) - (t_c - nb2 * r2)) - s * (
                (t_a - nb1 * r1) - (nb2 + s) * (s_a - r1)
            )
            const = s * (ex_c[p1] + ex_a[p2])
            delta = (const[:, None] - g[:, cols_b])[:, :, None] + g[:, None, cols_c]
            sites = in_b[:, cols_b, None] & in_c[:, None, cols_c]
            yield np.abs(delta[sites])


def switching_vf(
    matrix: BiregularBitMatrix, pair: VertexSetPair, f: Optional[CouplingDiagnostics] = None
) -> CouplingDiagnostics:
    """Exact v_f of the switching pair, checked against its self-bound.

    v_f = (1/2) * sum over switchable sites of |f - f~| (the K_ab
    normalisations cancel), with every site's difference in closed form
    (see _switching_steps); guarded by K_ab = a(m-a)b(n-b) <=
    SWITCHING_EXACT_CAP for the reduced (A, B).  Also asserts the per-site
    step bound |f - f~| <= 2 m d_hat.

    f, when given, is switching_f(matrix, pair): its v_f and max_step are
    set and its scan is read, so the switch statistics are built once.
    """
    pair.validate(matrix)
    check_ranges("switching_vf", ("a", pair.a, 1, matrix.m - 1), ("b", pair.b, 1, matrix.n - 1))
    diag = switching_f(matrix, pair) if f is None else f
    pair = _reduce_pair(matrix, pair)
    m = matrix.m
    k_ab = pair.a * (m - pair.a) * pair.b * (matrix.n - pair.b)
    if k_ab > SWITCHING_EXACT_CAP:
        raise ExactCapExceeded(
            f"exact switching v_f needs K_ab = a(m-a)b(n-b) = {k_ab} site cells, "
            f"above the cap of {SWITCHING_EXACT_CAP}"
        )
    step_cap = 2 * m * matrix.d_hat

    total = 0
    worst = 0
    for steps in _switching_steps(matrix.d, *diag.scan[:-1]):
        total += int(steps.sum())
        worst = max(worst, int(steps.max(initial=0)))
    if worst > step_cap:
        raise InvariantViolation(
            f"switching step bound failed: |f - f~| = {worst} > {step_cap}"
        )
    diag.v_f = Fraction(total, 2)
    diag.max_step = worst
    return _check_self_bound(diag)


# ---------------------------------------------------------------------------
# Permutation model: resample one permutation at a random transposition
# ---------------------------------------------------------------------------


def permutation_diagnostics(perms: np.ndarray, pair: VertexSetPair) -> CouplingDiagnostics:
    """f and exact v_f for the permutation-model pair at (A, B), from a
    (d, n) draw whose row k is the k-th permutation.

    f is the full (J, I1, I2) enumeration at scale n and must equal
    e_pi(A, B) - d*a*b/n exactly; v_f = f/2 + T/n, where T counts the
    (transposed-minor) triples, is checked against its self-bound.  For
    each factor the (I1, I2) pairs in A x A^c are counted as products of
    its hit counts, where row i hits when perm(i) is in B:
    |A hits| * |A^c misses| pairs raise f and |A misses| * |A^c hits|
    lower it and make up T.
    """
    d, n = perms.shape
    a, b = pair.a, pair.b
    check_ranges("permutation coupling", ("a", a, 1, n - 1), ("b", b, 1))
    in_a = np.zeros(n, dtype=bool)
    in_a[sorted(pair.rows)] = True
    in_b = np.zeros(n, dtype=bool)
    in_b[sorted(pair.cols)] = True

    hits = in_b[perms]  # hits[k, i] = 1(perm_k(i) in B)
    hits_a = np.count_nonzero(hits & in_a, axis=1)
    hits_c = np.count_nonzero(hits, axis=1) - hits_a
    plus = hits_a * (n - a - hits_c)
    minus = (a - hits_a) * hits_c
    s_total = int(plus.sum() - minus.sum())  # scale-n numerator of f
    t_total = int(minus.sum())  # scale-n numerator of v_f - f/2
    e_pi = int(hits_a.sum())

    identity_rhs = n * e_pi - d * a * b
    if s_total != identity_rhs:
        raise InvariantViolation(
            f"permutation identity broke: enumerated {s_total} != n*e - d*a*b = {identity_rhs}"
        )
    constants = SELF_BOUND["permutation"](n, n, d, a, b)
    v_f = Fraction(s_total, 2 * n) + Fraction(t_total, n)
    return _check_self_bound(CouplingDiagnostics("permutation", s_total, n, *constants, v_f=v_f))


# ---------------------------------------------------------------------------
# Tail bound from a self-bounding exchangeable pair, and the codegree event
# ---------------------------------------------------------------------------


def chatterjee_tail(k1: float, k2: float, t: float) -> Tuple[float, float]:
    """(upper, lower) tail bounds for a (K1, K2) self-bounding pair.

    upper = exp(-t^2 / (2(K1 + K2 t))) bounds P(f >= t); lower =
    exp(-t^2 / (2 K1)) bounds P(f <= -t).  At t = 0 both are 1.0 for any
    K1 >= 0, so a degenerate class (K1 = 0, e.g. d_hat = 0) has the trivial
    bound there; every t > 0 needs K1 > 0.
    """
    if k2 < 0 or t < 0:
        raise ValueError("K2 and t must be nonnegative")
    if t == 0 and k1 >= 0:
        return 1.0, 1.0
    if k1 <= 0:
        raise ValueError("K1 must be positive")
    upper = math.exp(-(t * t) / (2.0 * (k1 + k2 * t)))
    lower = math.exp(-(t * t) / (2.0 * k1))
    return upper, lower


def good_event_co(
    matrix: BiregularBitMatrix, eta: Union[int, float, Fraction]
) -> GoodEventCo:
    """Scan all row pairs for |co - p^2 n| <= eta p(1-p) n, exactly.

    The comparison is |n*co - d^2| <= eta * d * (n-d) over the integers
    (eta exact as a Fraction), so no float tolerance enters.  The max comes
    from the tail harness's packed-word kernel `matrices.codegree_deviation`;
    with no row pair the event holds.
    """
    check_ranges("good_event_co", ("eta", eta, 0))
    eta = Fraction(eta)
    n, d = matrix.n, matrix.d
    worst = int(codegree_deviation(rows_to_words(matrix.rows, n)[None], n, d)[0])
    return GoodEventCo(eta, worst <= eta * d * (n - d), worst, eta * d * (n - d))
