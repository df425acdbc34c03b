"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports `rrdigraph`: every value is recomputed from plain
numpy arrays and Python integers, so a defect in the package cannot hide
behind the same defect in its checker.  Each `check_*` function raises
`CheckFailed` with a message naming what disagreed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class CheckFailed(AssertionError):
    """A program output disagreed with its reference computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- inputs made by the benchmark itself ------------------------------------


def random_regular(rng: np.random.Generator, n: int, d: int, sweeps: int = 10) -> np.ndarray:
    """An n x n 0/1 matrix with all line sums d: a relabelled circulant
    after sweeps * n * d attempted edge switches (edges (i1, j1), (i2, j2)
    become (i1, j2), (i2, j1) when both are absent)."""
    edges = [(i, (i + t) % n) for i in range(n) for t in range(d)]
    present = set(edges)
    picks = rng.integers(0, len(edges), size=(sweeps * len(edges), 2))
    for e, f in picks.tolist():
        (i1, j1), (i2, j2) = edges[e], edges[f]
        if (i1, j2) in present or (i2, j1) in present:
            continue  # also rejects i1 == i2 and j1 == j2
        present -= {(i1, j1), (i2, j2)}
        present |= {(i1, j2), (i2, j1)}
        edges[e], edges[f] = (i1, j2), (i2, j1)
    dense = np.zeros((n, n), dtype=np.uint8)
    dense[tuple(np.array(edges).T)] = 1
    return relabel(rng, dense)


def relabel(rng: np.random.Generator, dense: np.ndarray, columns: bool = True) -> np.ndarray:
    """The same digraph under a random row relabelling and, if `columns`,
    a random column relabelling.  Relabelling rows alone leaves M^T M, and
    with it every singular vector, exactly as it was."""
    m, n = dense.shape
    out = dense[rng.permutation(m)]
    if columns:
        out = out[:, rng.permutation(n)]
    return np.ascontiguousarray(out)


def rows_to_dense(rows, n: int) -> np.ndarray:
    """Decode packed row integers (bit j = column j) into a 0/1 array."""
    out = np.zeros((len(rows), n), dtype=np.uint8)
    for i, row in enumerate(rows):
        for j in range(n):
            out[i, j] = (row >> j) & 1
    return out


# -- class membership -------------------------------------------------------


def check_member(dense: np.ndarray, d: int, what: str = "matrix") -> None:
    """0/1 entries, every row sum d and every column sum m*d/n."""
    arr = np.asarray(dense)
    require(arr.ndim == 2, f"{what}: not a 2-dimensional array")
    check_members(arr[None], d, what)


def check_members(batch: np.ndarray, d: int, what: str = "draw") -> None:
    """check_member over a (count, m, n) stack."""
    arr = np.asarray(batch)
    require(arr.ndim == 3, f"{what}: not a (count, m, n) stack")
    require(bool(np.isin(arr, (0, 1)).all()), f"{what}: entries outside {{0, 1}}")
    wide = arr.astype(np.int64)
    m, n = arr.shape[1:]
    dp = m * d // n
    require(bool((wide.sum(axis=2) == d).all()), f"{what}: a row sum differs from {d}")
    require(bool((wide.sum(axis=1) == dp).all()), f"{what}: a column sum differs from {dp}")


# -- closed-form bounds -----------------------------------------------------


def codegree_upper_bound(n: int, d: int, eps: float) -> float:
    """exp(-eps^2 / (4 + 2 eps) * d_hat^2 / n)."""
    d_hat = min(d, n - d)
    return math.exp(-(eps * eps) / (4.0 + 2.0 * eps) * d_hat * d_hat / n)


def edge_upper_bound(n: int, d: int, a: int, b: int, tau: float,
                     c1: float = 64.0, c2: float = 8.0) -> float:
    """exp(-tau^2 mu_hat / (C1 + C2 tau)), mu_hat = d min(ab, (n-a)(n-b)) / n."""
    mu_hat = d * min(a * b, (n - a) * (n - b)) / n
    return math.exp(-(tau * tau) * mu_hat / (c1 + c2 * tau))


def check_close(value: float, expected: float, rel: float, what: str) -> None:
    require(
        abs(value - expected) <= rel * max(abs(expected), 1e-300),
        f"{what}: {value!r} differs from {expected!r} by more than {rel:g} relative",
    )


# -- Clopper-Pearson intervals ----------------------------------------------


def _log_factorials(n: int) -> np.ndarray:
    out = np.zeros(n + 1)
    out[1:] = np.cumsum(np.log(np.arange(1, n + 1)))
    return out


def _binom_upper_tail(k: int, n: int, p: float, logfact: np.ndarray) -> float:
    """P(X >= k) for X ~ Binomial(n, p), summed in log space."""
    x = np.arange(k, n + 1)
    logpmf = logfact[n] - logfact[x] - logfact[n - x] + x * math.log(p) + (n - x) * math.log1p(-p)
    return float(np.exp(logpmf).sum())


def check_clopper_pearson(k: int, n: int, lo: float, hi: float,
                          confidence: float = 0.95, tol: float = 1e-6) -> None:
    """lo and hi are the exact two-sided limits: P(X >= k | lo) = alpha/2 and
    P(X <= k | hi) = alpha/2, with lo = 0 at k = 0 and hi = 1 at k = n."""
    half = (1.0 - confidence) / 2.0
    require(0.0 <= lo <= k / n <= hi <= 1.0, f"interval [{lo}, {hi}] does not hold {k}/{n}")
    logfact = _log_factorials(n)
    if k == 0:
        require(lo == 0.0, f"lower limit {lo} at k = 0")
    else:
        tail = _binom_upper_tail(k, n, lo, logfact)
        require(abs(tail - half) <= tol, f"P(X >= {k} | p = {lo}) = {tail}, expected {half}")
    if k == n:
        require(hi == 1.0, f"upper limit {hi} at k = n")
    else:
        tail = 1.0 - _binom_upper_tail(k + 1, n, hi, logfact)
        require(abs(tail - half) <= tol, f"P(X <= {k} | p = {hi}) = {tail}, expected {half}")


# -- tail statistics recomputed from raw draws -------------------------------


def codegree_threshold(n: int, d: int, eps: float) -> int:
    """Smallest n*co - d^2 the program counts at deviation eps."""
    return math.ceil(Fraction(eps) * min(d, n - d) ** 2)


def codegree_counts(batch: np.ndarray, n: int, d: int, i1: int, i2: int, grid) -> list:
    """#{draws with n*co(i1, i2) - d^2 >= ceil(eps d_hat^2)} per grid value."""
    co = [int(v) for v in (batch[:, i1, :].astype(np.int64) * batch[:, i2, :]).sum(axis=1)]
    return [sum(n * c - d * d >= codegree_threshold(n, d, eps) for c in co) for eps in grid]


def joint_edge_counts(batch: np.ndarray, n: int, d: int, a: int, b: int, eta: float, grid) -> list:
    """Joint counts of {n(e(A,B) - mu) >= ceil(tau n mu_hat)} and the codegree
    event {max over row pairs |n co - d^2| <= floor(eta d (n - d))}, with A and
    B the first a rows and b columns, in integer arithmetic throughout."""
    wide = batch.astype(np.int64)
    m = wide.shape[1]
    limit = math.floor(Fraction(eta) * d * (n - d))
    mu_hat_scaled = d * min(a * b, (m - a) * (n - b))
    upper = np.triu_indices(m, k=1)
    scaled, good = [], []
    for draw in wide:
        co = draw @ draw.T
        scaled.append(n * int(draw[:a, :b].sum()) - d * a * b)
        good.append(int(np.abs(n * co[upper] - d * d).max()) <= limit)
    counts = []
    for tau in grid:
        threshold = math.ceil(Fraction(tau) * mu_hat_scaled)
        counts.append(sum(s >= threshold and g for s, g in zip(scaled, good)))
    return counts


def check_counts(counts, expected, what: str) -> None:
    require(list(counts) == list(expected), f"{what}: counts {list(counts)} != reference {list(expected)}")


def check_mean_codegree(tail_counts, samples: int, n: int, d: int, z: float = 6.0) -> None:
    """tail_counts[k-1] = #{co >= k} for k = 1..d, so their sum / samples is the
    mean codegree; it must sit within z standard errors of d(d-1)/(n-1), the
    exact mean under the uniform distribution on the class."""
    counts = list(tail_counts) + [0]
    require(len(counts) == d + 1, f"expected {d} tail counts, got {len(tail_counts)}")
    require(all(counts[k] >= counts[k + 1] >= 0 for k in range(d)), f"tail counts {tail_counts} not monotone")
    require(counts[0] <= samples, f"tail count {counts[0]} exceeds {samples} samples")
    mean = sum(counts) / samples
    second = sum((2 * k + 1) * c for k, c in enumerate(counts)) / samples  # E[co^2]
    stderr = math.sqrt(max(second - mean * mean, 1e-12) / samples)
    exact = d * (d - 1) / (n - 1)
    require(
        abs(mean - exact) <= z * stderr,
        f"mean codegree {mean:.5f} is {abs(mean - exact) / stderr:.1f} standard errors from {exact:.5f}",
    )


# -- exchangeable-pair conditional means by brute force -----------------------


def reflect(dense: np.ndarray, i1: int, i2: int, j1: int, j2: int) -> np.ndarray:
    """The reflection of columns (j1, j2) read in row order (i1, i2, rest).

    Step +1 on a (1, 0) row, -1 on a (0, 1) row.  The pair reflects when
    the walk is at +1 after step 1, not at +1 after step 2, and at +1 again
    after some later step; the first such step i* bounds the swapped rows,
    order positions 2..i*.  Other pairs map to the matrix itself.
    """
    m = dense.shape[0]
    order = [i1, i2] + [i for i in range(m) if i not in (i1, i2)]
    pos, walk = 0, [0]
    for i in order:
        pos += int(dense[i, j1]) - int(dense[i, j2])
        walk.append(pos)
    if m < 3 or walk[1] != 1 or walk[2] == 1:
        return dense
    later = [t for t in range(3, m + 1) if walk[t] == 1]
    if not later:
        return dense
    out = dense.copy()
    for i in order[1 : later[0]]:
        out[i, j1], out[i, j2] = dense[i, j2], dense[i, j1]
    return out


def reflection_f_scaled(dense: np.ndarray, i1: int, i2: int) -> int:
    """n * f of the reflection pair: the sum over all ordered column pairs
    of co(i1, i2) before minus after reflecting."""
    n = dense.shape[1]
    co = int(dense[i1].astype(np.int64) @ dense[i2])
    total = 0
    for j1 in range(n):
        for j2 in range(n):
            if j1 != j2:
                image = reflect(dense, i1, i2, j1, j2)
                total += co - int(image[i1].astype(np.int64) @ image[i2])
    return total


def switching_f(dense: np.ndarray, rows_a, cols_b) -> int:
    """f of the switching pair: the sum over all unordered row pairs and
    column pairs whose 2x2 minor is switchable of e(A,B) before minus after
    the switch."""
    m, n = dense.shape
    in_a = [int(i in set(int(r) for r in rows_a)) for i in range(m)]
    in_b = [int(j in set(int(c) for c in cols_b)) for j in range(n)]
    dense = dense.tolist()
    total = 0
    for u in range(m):
        for v in range(u + 1, m):
            for x in range(n):
                for y in range(x + 1, n):
                    p, q, r, s = dense[u][x], dense[u][y], dense[v][x], dense[v][y]
                    if p == s and q == r and p != q:
                        # The switch lowers the minor's diagonal entries by
                        # p and raises the anti-diagonal ones by p.
                        sign = 1 if p == 1 else -1
                        total += sign * (in_a[u] * in_b[x] + in_a[v] * in_b[y]
                                         - in_a[u] * in_b[y] - in_a[v] * in_b[x])
    return total


# -- spectral quantities ----------------------------------------------------


def singular_values(dense: np.ndarray) -> np.ndarray:
    return np.linalg.svd(dense.astype(np.float64), compute_uv=False)


def check_sigma(sigma1: float, sigma2: float, dense: np.ndarray, d: int, tol: float = 1e-6) -> None:
    """sigma_1 = d and sigma_2 equal to the LAPACK value within tol."""
    values = singular_values(dense)
    require(abs(sigma1 - d) <= tol, f"sigma_1 = {sigma1!r}, expected d = {d}")
    require(abs(sigma2 - values[1]) <= tol, f"sigma_2 = {sigma2!r}, LAPACK gives {values[1]!r}")


def alpha_brute(dense: np.ndarray) -> float:
    """max over nonempty A, B of |e(A,B) - d|A||B|/n| / sqrt(|A||B|), by
    evaluating e(A,B) for every pair of subsets at once."""
    n = dense.shape[1]
    d = int(dense[0].sum())
    masks = np.arange(1, 1 << n)
    member = ((masks[:, None] >> np.arange(n)) & 1).astype(np.int64)  # subset x vertex
    sizes = member.sum(axis=1)
    edges = member @ dense.astype(np.int64) @ member.T  # e(A, B) for all pairs
    deviation = np.abs(n * edges - d * np.outer(sizes, sizes)) / n
    return float((deviation / np.sqrt(np.outer(sizes, sizes))).max())


def check_alpha(alpha: float, dense: np.ndarray, tol: float = 1e-9) -> None:
    """alpha equals the brute-force maximum and is at most sigma_2."""
    expected = alpha_brute(dense)
    require(abs(alpha - expected) <= tol, f"alpha = {alpha!r}, brute force gives {expected!r}")
    sigma2 = float(singular_values(dense)[1])
    require(alpha <= sigma2 + tol, f"alpha = {alpha!r} exceeds sigma_2 = {sigma2!r}")


# -- verify reports -----------------------------------------------------------

# Records per suite, in the order the suites emit them.  Every record checks
# each draw once, except switching membership, which is checked only when the
# drawn switch changed the matrix.
SUITE_RECORDS = {"reflection": 6, "switching": 5, "permutation": 4}
SWITCH_MEMBERSHIP = ("switching", 1)


def check_verify_report(records, samples: int) -> int:
    """records: (suite, index, status, checked) tuples of one `all` run.
    Returns the number of applied switches (the membership record's count)."""
    seen = {}
    applied = None
    for suite, index, status, checked in records:
        require(status == "pass", f"{suite} record {index} has status {status!r}")
        seen[suite] = seen.get(suite, 0) + 1
        if (suite, index) == SWITCH_MEMBERSHIP:
            require(0 <= checked <= samples, f"switching membership checked {checked} of {samples} draws")
            applied = checked
        else:
            require(checked == samples, f"{suite} record {index} checked {checked}, expected {samples}")
    require(seen == SUITE_RECORDS, f"record counts per suite {seen} != {SUITE_RECORDS}")
    return applied
