"""Sampled verification suites behind the `verify` CLI subcommand.

Each suite draws matrices (or permutation draws), checks every exact
identity and proven inequality of its coupling on each draw, and emits
one record per invariant with a status, the number of instances checked,
and the worst margin seen.  A failed record means a defect somewhere:
all of these are theorems.  The class suites call exchangeable's public
f functions and hand each f to the v_f function of its coupling.  Each
suite draws the random choices of every draw (rows, columns, sites and
(A, B) sets) before its loop, in a number of Generator calls that does
not grow with the sample, so the loop only checks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .couplings import RowOrder, SwitchSite, column_walk, reflect, simple_switch
from .exchangeable import (
    InvariantViolation,
    SelfBoundViolation,
    permutation_diagnostics,
    reflection_f,
    reflection_vf,
    switching_f,
    switching_vf,
)
from .matrices import InvalidMatrixError, VertexSetPair, codegree
from .samplers import SamplerSpec, check_ranges, fields_named, rejection_side, sample_many, stream_generator

__all__ = ["VerifyRecord", "SuiteResult", "run_suite", "SUITES"]

SUITES = ("reflection", "switching", "permutation", "all")

# Version 2 of the payload has no v_f cap.  Version 3 replaces the
# reflection record "antisymmetry of the codegree difference", which held
# for any two integers, by the per-site codegree step.  Version 4 names each
# self-bound record after SELF_BOUND, the table its check reads.
SCHEMA_VERSION = 4


@dataclass
class VerifyRecord:
    """One invariant's count: vacuous until checked, then pass until a check
    fails.  It keeps the smallest margin and the first failure's detail."""

    invariant: str
    status: str = "vacuous"  # "pass" | "fail" | "vacuous" (no instance checked)
    checked: int = 0
    worst_margin: Optional[float] = None  # slack of the tightest instance
    detail: str = ""

    def check(self, ok: bool, margin: Optional[float] = None, detail: str = "") -> None:
        self.checked += 1
        if margin is not None and (self.worst_margin is None or margin < self.worst_margin):
            self.worst_margin = margin
        if not ok:
            self.detail = self.detail or detail
        self.status = "pass" if ok and self.status != "fail" else "fail"

    def attempt(self, step, *args, margin=None):
        """Run step(*args) as one check and return its result.  A step that
        raises InvariantViolation or InvalidMatrixError fails the check with
        its message and gives None; otherwise the check passes, with slack
        margin(result) when a margin is given."""
        try:
            result = step(*args)
        except (InvariantViolation, InvalidMatrixError) as exc:
            self.check(False, detail=str(exc))
            return None
        self.check(True, margin=None if margin is None else margin(result))
        return result

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class SuiteResult:
    suite: str
    records: List[VerifyRecord]
    config: dict

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "ok": self.ok,
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
        }


def _slack(diag):
    """How far v_f stays below its self-bound."""
    return float(diag.bound - diag.v_f)


def _ordered_pairs(rng, k, count):
    """`count` ordered pairs of distinct members of range(k), as two int
    arrays, from one draw: code c in [0, k(k - 1)) is the pair (c // (k - 1),
    c % (k - 1)) with the second raised by one where it is not below the
    first.  That is a bijection onto the ordered distinct pairs, so each pair
    has the law of rng.choice(k, 2, replace=False)."""
    first, second = np.divmod(rng.integers(0, k * (k - 1), size=count), k - 1)
    second += second >= first
    return first, second


def _set_pairs(rng, m, n, max_b, count):
    """`count` random (A, B), drawn up front in four calls: |A| in [1, m),
    |B| in [1, max_b], then A the first |A| entries of a uniform permutation
    of the m rows and B the first |B| of one of the n columns, so given its
    size each set is uniform.  Each VertexSetPair is built only as the
    iterator reaches it."""
    a = rng.integers(1, m, size=count)
    b = rng.integers(1, max_b + 1, size=count)
    rows = rng.permuted(np.tile(np.arange(m), (count, 1)), axis=1)
    cols = rng.permuted(np.tile(np.arange(n), (count, 1)), axis=1)
    return (VertexSetPair.of(r[:x].tolist(), c[:y].tolist()) for r, c, x, y in zip(rows, cols, a, b))


# The class suites draw by rejection where the class or its complement has
# k = (d - 1)(dp - 1) at most _REJECTION_MAX_K; rejection_words draws the
# side with the smaller k.  A configuration-model draw is simple with
# probability tending to exp(-k/2) (McKay 1984), so that is at most e^4.5,
# about 90, expected attempts per sample.  Elsewhere they run the switch
# chain.
_REJECTION_MAX_K = 9
# Failures in a row before rejection gives up: over 30 mean waits at
# k = _REJECTION_MAX_K.  Fixed, not a user knob: it also bounds rejection's
# block of attempts, which the default budget would grow far past the
# attempts a verify sample needs.
_REJECTION_ATTEMPTS = 4096


def _by_rejection(n, d, m, dp):
    """Whether the class suites draw the m x n class with row degree d and
    column degree dp by rejection: where the side rejection draws has k at
    most _REJECTION_MAX_K."""
    return rejection_side(n, d, m, dp)[1] <= _REJECTION_MAX_K


_STEPS_UNREAD = (
    "verify field 'steps' is not read: only the reflection and switching suites run the switch "
    f"chain, and only where (d - 1)(dp - 1) and (n - d - 1)(m - dp - 1) both exceed {_REJECTION_MAX_K}"
)


# A class the sampler refuses is named by verify's own fields.
_TYPED = {f"sampler field {name!r}": f"verify field {name!r}" for name in ("d", "dp")}


def _sample_matrices(n, d, count, seed, m=None, dp=None, steps=None):
    # The spec checks the asked class before the rule reads its margins.
    with fields_named(_TYPED):
        spec = SamplerSpec(kind="rejection", n=n, d=d, m=m, dp=dp, seed=seed, max_attempts=_REJECTION_ATTEMPTS)
    if _by_rejection(n, d, spec.m, spec.dp):
        if steps is not None:
            raise ValueError(_STEPS_UNREAD)
    else:
        steps = min(100 * n * d, 4000) if steps is None else steps
        spec = SamplerSpec(kind="switch_mcmc", n=n, d=d, m=m, dp=dp, steps=steps, seed=seed)
    return sample_many(spec, count)


def _reflection_suite(mats, m, n, samples, seed):
    # Rows (0, 1), or with probability 1/2 (where m > 2) two random rows,
    # and two random columns per draw.
    rng = stream_generator(seed, 10_000)
    rows1, rows2 = np.zeros(samples, dtype=np.int64), np.ones(samples, dtype=np.int64)
    if m > 2:
        coin = rng.random(samples) < 0.5
        pick1, pick2 = _ordered_pairs(rng, m, samples)
        rows1, rows2 = np.where(coin, pick1, rows1), np.where(coin, pick2, rows2)
    cols1, cols2 = _ordered_pairs(rng, n, samples)

    t_invol = VerifyRecord("reflect twice is the identity")
    t_member = VerifyRecord("reflection outputs stay in the class")
    t_ident = VerifyRecord("scale-n identity: n*f = n*co - d^2 + b")
    t_step = VerifyRecord("co(M) - co(M~) at the site: +1 on K, -1 on a reflecting I, else 0")
    t_walk = VerifyRecord("walk returns to 0 with at most min(dp, m-dp) up-steps")
    t_vf = VerifyRecord("reflection self-bound v_f <= K2*f + K1 (SELF_BOUND)")
    for mat, i1, i2, j1, j2 in zip(mats, rows1.tolist(), rows2.tolist(), cols1.tolist(), cols2.tolist()):
        order = RowOrder(i1, i2)
        image = reflect(mat, j1, j2, order)
        t_invol.check(reflect(image, j1, j2, order) == mat)
        t_member.attempt(image.validate)
        diag = t_ident.attempt(reflection_f, mat, i1, i2)
        if diag is None:
            continue

        # A K minor [[1,0],[1,0]] always reflects and loses a common column;
        # an I minor [[1,0],[0,1]] that the scan marks as not bad gains one.
        ex1, ex2, bad, _ = diag.scan
        minor = (mat.entry(i1, j1), mat.entry(i1, j2), mat.entry(i2, j1), mat.entry(i2, j2))
        reflecting_i = minor == (1, 0, 0, 1) and not bad[ex1.index(j1), ex2.index(j2)]
        want = 1 if minor == (1, 0, 1, 0) else -1 if reflecting_i else 0
        step = codegree(mat, i1, i2).co - codegree(image, i1, i2).co
        t_step.check(step == want, detail=f"step {step} at ({j1}, {j2}), expected {want}")

        walk = column_walk(mat, j1, j2, order)
        cap = min(mat.dp, mat.m - mat.dp)
        t_walk.check(
            walk.positions[-1] == 0 and walk.r <= cap,
            margin=float(cap - walk.r),
        )
        t_vf.attempt(reflection_vf, mat, i1, i2, diag, margin=_slack)
    return [t_invol, t_member, t_ident, t_step, t_walk, t_vf]


def _switching_suite(mats, m, n, samples, seed):
    # A random site and a random (A, B) with |B| < n per draw.
    rng = stream_generator(seed, 20_000)
    rows = _ordered_pairs(rng, m, samples)
    cols = _ordered_pairs(rng, n, samples)
    sites = map(SwitchSite, *(x.tolist() for x in rows + cols))
    pairs = _set_pairs(rng, m, n, n - 1, samples)

    t_invol = VerifyRecord("switch twice is the identity")
    t_member = VerifyRecord("switching outputs stay in the class")
    t_ident = VerifyRecord("minor-count form equals neighbourhood form; f = f1 + f2")
    t_f2 = VerifyRecord("error term: |f2| <= eta*(f1 + 2p(1-p)n*m*mu) at minimal eta")
    t_vf = VerifyRecord("switching self-bound v_f <= K2*f + K1 (SELF_BOUND)")
    for mat, site, pair in zip(mats, sites, pairs):
        image = simple_switch(mat, site)
        t_invol.check(simple_switch(image, site) == mat)
        if image is not mat:
            t_member.attempt(image.validate)

        diag = t_ident.attempt(switching_f, mat, pair)
        if diag is None:
            continue

        ok, margin = _f2_good_event_check(mat, pair, diag, diag.scan[-1])
        t_f2.check(ok, margin=margin)
        t_vf.attempt(switching_vf, mat, pair, diag, margin=_slack)
    return [t_invol, t_member, t_ident, t_f2, t_vf]


def _f2_good_event_check(mat, pair, diag, ex):
    """|f2| <= eta*(f1 + 2 p(1-p) n m mu) at the smallest eta that holds.

    Scaled through: with W = max|n co - d^2| over row pairs (so eta* =
    W/(d(n-d))), the check is |f2_s| d(n-d) <= W (f1_s + 2 d(n-d) d a b R)
    where R = m for the n^2 scale and 1 for the square scale n, and (a, b)
    are the sizes of the pair switching_f reduces to, a*b = min(ab,
    (m-a)(n-b)), so d a b = n*mu_hat of the pair as given.  W comes from
    switching_f's exclusive counts `ex`, the last array of its scan (see
    _worst_codegree_deviation).
    """
    n, d, mm = mat.n, mat.d, mat.m
    if d in (0, n):
        return True, None
    w = _worst_codegree_deviation(n, d, ex)
    r_factor = 1 if diag.scale == n else mm
    lhs = abs(diag.f2_scaled) * d * (n - d)
    rhs = w * (diag.f1_scaled + 2 * d * (n - d) * int(n * pair.mu_hat(mat)) * r_factor)
    return lhs <= rhs, float(rhs - lhs)


def _worst_codegree_deviation(n, d, ex):
    """good_event_co's W = max over rows i < j of |n*co(i, j) - d^2|, from
    the exclusive counts ex = d - co of all row pairs.  The diagonal is left
    out: ex[i, i] = 0 gives d(n - d), which can exceed every pair's."""
    dev = np.abs(n * (d - ex) - d * d)
    np.fill_diagonal(dev, 0)
    return int(dev.max())


def _permutation_suite(n, d, samples, seed):
    with fields_named(_TYPED):
        spec = SamplerSpec(kind="permutation_model", n=n, d=d, seed=seed)
    draws = np.stack(sample_many(spec, samples))
    # Every factor puts one entry in each row, so the row sums are d by
    # construction; only the column sums can miss.
    margins_ok = (_column_sums(draws) == d).all(axis=1).tolist()
    # One factor index and two points per draw; at d = 0 there is no factor
    # to transpose.
    rng = stream_generator(seed, 30_000)
    twice_ok = []
    if d:
        swap = (rng.integers(0, d, size=samples), *_ordered_pairs(rng, n, samples))
        twice = _transpose_factors(_transpose_factors(draws, *swap), *swap)
        twice_ok = (twice == draws).all(axis=(1, 2)).tolist()
    pairs = _set_pairs(rng, n, n, n, samples)

    t_mult = VerifyRecord("multiplicity matrix has all margins equal to d")
    t_invol = VerifyRecord("transposing one factor twice is the identity")
    t_ident = VerifyRecord("scale-n identity: n*f = n*e_pi - d*a*b")
    t_vf = VerifyRecord("permutation self-bound v_f <= K2*f + K1 (SELF_BOUND)")
    for ok in margins_ok:
        t_mult.check(ok)
    for ok in twice_ok:
        t_invol.check(ok)
    for perms, pair in zip(draws, pairs):
        try:
            diag = permutation_diagnostics(perms, pair)
        except SelfBoundViolation as exc:
            t_ident.check(True)
            t_vf.check(False, detail=str(exc))
            continue
        except InvariantViolation as exc:
            t_ident.check(False, detail=str(exc))
            continue
        t_ident.check(True)
        t_vf.check(True, margin=_slack(diag))
    return [t_mult, t_invol, t_ident, t_vf]


def _column_sums(draws):
    """Column sums of each draw's multiplicity matrix (the entrywise sum of
    its permutation matrices), as a (samples, n) array, from one bincount
    of length samples * n: every factor puts one in column c of each row it
    maps to c."""
    samples, _, n = draws.shape
    base = np.arange(0, samples * n, n)[:, None, None]
    return np.bincount((base + draws).reshape(-1), minlength=samples * n).reshape(samples, n)


def _transpose_factors(draws, j, u, v):
    """The (samples, d, n) draws with entries u[s] and v[s] of factor j[s]
    of each draw s swapped."""
    out = draws.copy()
    s = np.arange(len(out))
    out[s, j, u], out[s, j, v] = out[s, j, v], out[s, j, u]
    return out


def run_suite(
    suite: str,
    n: int,
    d: int,
    samples: int,
    seed: int = 0,
    m: Optional[int] = None,
    dp: Optional[int] = None,
    steps: Optional[int] = None,
) -> List[SuiteResult]:
    """Run one named suite (or all three) and return their results.

    The reflection and switching suites check the same class sample, drawn
    once, so each suite's records are the same run alone or within "all".
    v_f is always exact; a class or (A, B) beyond the exact v_f cost guard
    raises ExactCapExceeded."""
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}")
    chosen = SUITES[:3] if suite == "all" else (suite,)
    class_suites = "reflection" in chosen or "switching" in chosen
    config = {
        "n": n,
        "d": d,
        "m": n if m is None else m,
        "dp": d if dp is None else dp,
        "samples": samples,
        "seed": seed,
        "steps": steps,
    }
    # Every suite draws two distinct columns (or points), and the class
    # suites two distinct rows.
    check_ranges("verify", ("n", n, 2), ("m", config["m"] if class_suites else None, 2),
                 ("samples", samples, 1))
    unread = [name for name, value in (("m", m), ("dp", dp)) if value is not None]
    if unread and not class_suites:
        raise ValueError(f"verify field {unread[0]!r} is not read: only the class suites draw matrices")
    if steps is not None and not class_suites:
        raise ValueError(_STEPS_UNREAD)
    mats = _sample_matrices(n, d, samples, seed, m, dp, steps) if class_suites else None
    runners = {
        "reflection": lambda: _reflection_suite(mats, config["m"], n, samples, seed),
        "switching": lambda: _switching_suite(mats, config["m"], n, samples, seed),
        "permutation": lambda: _permutation_suite(n, d, samples, seed),
    }
    return [SuiteResult(name, runners[name](), dict(config)) for name in chosen]
