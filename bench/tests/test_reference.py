"""Tests of the benchmark's reference checks.

Each check must accept the true value and reject a corrupted one: a
flipped matrix entry, a sigma_2 moved by 1e-4, a count off by one, and a
failed verify record.  The brute-force quantities are tested against
identities that hold for every matrix of the class.

    python3 -m pytest bench/tests -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402
from reference import CheckFailed  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def flipped(dense, i=2, j=5):
    out = dense.copy()
    out[i, j] ^= 1
    return out


def test_random_regular_and_relabel_stay_in_the_class(rng):
    dense = ref.random_regular(rng, 12, 3)
    ref.check_member(dense, 3)
    ref.check_member(ref.relabel(rng, dense), 3)
    ref.check_member(ref.relabel(rng, dense, columns=False), 3)


def test_row_relabelling_keeps_the_gram_matrix(rng):
    dense = ref.random_regular(rng, 12, 3).astype(np.int64)
    rows_only = ref.relabel(rng, dense, columns=False).astype(np.int64)
    assert not np.array_equal(rows_only, dense)
    assert np.array_equal(rows_only.T @ rows_only, dense.T @ dense)


def test_member_rejects_a_flipped_entry(rng):
    dense = ref.random_regular(rng, 10, 3)
    ref.check_member(dense, 3)
    with pytest.raises(CheckFailed):
        ref.check_member(flipped(dense), 3)
    stack = np.stack([dense, dense])
    ref.check_members(stack, 3)
    stack[1] = flipped(dense)
    with pytest.raises(CheckFailed):
        ref.check_members(stack, 3)


def test_rows_to_dense_decodes_packed_rows():
    assert ref.rows_to_dense([0b011, 0b110, 0b101], 3).tolist() == [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


def test_sigma_rejects_a_shift_of_1e_4(rng):
    dense = ref.random_regular(rng, 40, 3)
    values = ref.singular_values(dense)
    ref.check_sigma(3.0, float(values[1]), dense, 3)
    with pytest.raises(CheckFailed):
        ref.check_sigma(3.0, float(values[1]) + 1e-4, dense, 3)
    with pytest.raises(CheckFailed):
        ref.check_sigma(3.0 + 1e-4, float(values[1]), dense, 3)


def _alpha_slow(dense):
    n = dense.shape[0]
    d = int(dense[0].sum())
    best = 0.0
    for amask in range(1, 1 << n):
        rows = [i for i in range(n) if amask >> i & 1]
        for bmask in range(1, 1 << n):
            cols = [j for j in range(n) if bmask >> j & 1]
            e = int(dense[np.ix_(rows, cols)].sum())
            a, b = len(rows), len(cols)
            best = max(best, abs(e - d * a * b / n) / math.sqrt(a * b))
    return best


def test_alpha_brute_matches_the_definition(rng):
    assert ref.alpha_brute(np.eye(2, dtype=np.uint8)) == pytest.approx(0.5)
    dense = ref.random_regular(rng, 6, 2)
    assert ref.alpha_brute(dense) == pytest.approx(_alpha_slow(dense), abs=1e-12)


def test_alpha_check_rejects_a_moved_value(rng):
    dense = ref.random_regular(rng, 8, 3)
    alpha = ref.alpha_brute(dense)
    ref.check_alpha(alpha, dense)
    with pytest.raises(CheckFailed):
        ref.check_alpha(alpha + 1e-4, dense)


def test_joint_counts_reject_a_count_off_by_one(rng):
    n, d, a, b, eta, grid = 12, 6, 6, 6, 0.75, (0.0, 0.05, 0.1)
    batch = np.stack([ref.random_regular(rng, n, d) for _ in range(40)])
    counts = ref.joint_edge_counts(batch, n, d, a, b, eta, grid)
    # The same counts from floats, away from every threshold's rounding.
    edges = batch[:, :a, :b].sum(axis=(1, 2))
    worst = []
    for draw in batch.astype(np.int64):
        co = draw @ draw.T
        worst.append(max(abs(n * co[i, j] - d * d) for i in range(n) for j in range(i + 1, n)))
    good = np.array(worst) <= eta * d * (n - d)
    mu_hat = d * min(a * b, (n - a) * (n - b)) / n
    direct = [int(((edges - d * a * b / n >= tau * mu_hat) & good).sum()) for tau in grid]
    assert counts == direct
    assert 0 < counts[0] < len(batch)
    ref.check_counts(counts, direct, "joint")
    with pytest.raises(CheckFailed):
        ref.check_counts([counts[0] + 1, *counts[1:]], direct, "joint")


def test_codegree_counts_reject_a_count_off_by_one(rng):
    n, d = 20, 4
    grid = tuple((n * k - d * d) / d**2 for k in range(1, d + 1))
    batch = np.stack([ref.random_regular(rng, n, d) for _ in range(60)])
    co = (batch[:, 0, :].astype(int) * batch[:, 1, :]).sum(axis=1)
    expected = [int((co >= k).sum()) for k in range(1, d + 1)]
    counts = ref.codegree_counts(batch, n, d, 0, 1, grid)
    assert counts == expected
    with pytest.raises(CheckFailed):
        ref.check_counts(counts, [expected[0] - 1, *expected[1:]], "codegree")


def test_mean_codegree_check(rng):
    n, d, samples = 60, 4, 40000
    mean = d * (d - 1) / (n - 1)
    # Tail counts of a distribution with exactly the uniform mean.
    exact = [round(mean * samples), 0, 0, 0]
    ref.check_mean_codegree(exact, samples, n, d)
    with pytest.raises(CheckFailed):
        ref.check_mean_codegree([round(1.2 * mean * samples), 0, 0, 0], samples, n, d)
    with pytest.raises(CheckFailed):
        ref.check_mean_codegree([10, 20, 0, 0], samples, n, d)


def test_clopper_pearson_check_matches_beta_quantiles():
    stats = pytest.importorskip("scipy.stats")
    n = 4096
    for k in (0, 1, 37, 800, n):
        lo = 0.0 if k == 0 else float(stats.beta.ppf(0.025, k, n - k + 1))
        hi = 1.0 if k == n else float(stats.beta.ppf(0.975, k + 1, n - k))
        ref.check_clopper_pearson(k, n, lo, hi)
    lo = float(stats.beta.ppf(0.025, 37, n - 36))
    hi = float(stats.beta.ppf(0.975, 38, n - 37))
    with pytest.raises(CheckFailed):
        ref.check_clopper_pearson(38, n, lo, hi)
    with pytest.raises(CheckFailed):
        ref.check_clopper_pearson(37, n, lo * 1.01, hi)


def test_bounds_closed_forms():
    assert ref.codegree_upper_bound(60, 4, 2.75) == pytest.approx(math.exp(-7.5625 / 9.5 * 16 / 60))
    assert ref.edge_upper_bound(60, 30, 30, 30, 0.04) == pytest.approx(math.exp(-0.0016 * 450 / 64.32))
    with pytest.raises(CheckFailed):
        ref.check_close(1.0 + 1e-9, 1.0, 1e-12, "bound")


def _bad_pairs(dense, i1, i2):
    """Pairs (c1, c2), row i1 alone in c1 and row i2 alone in c2, whose walk
    never returns to +1 after step 2."""
    m, n = dense.shape
    order = [i1, i2] + [i for i in range(m) if i not in (i1, i2)]
    bad = 0
    for c1 in range(n):
        for c2 in range(n):
            if (dense[i1, c1], dense[i2, c1], dense[i1, c2], dense[i2, c2]) != (1, 0, 0, 1):
                continue
            walk = np.cumsum([int(dense[i, c1]) - int(dense[i, c2]) for i in order])
            bad += not (walk[2:] == 1).any()
    return bad


def test_reflection_is_an_involution_in_the_class(rng):
    dense = ref.random_regular(rng, 9, 3)
    for j1 in range(9):
        for j2 in range(9):
            if j1 != j2:
                image = ref.reflect(dense, 0, 1, j1, j2)
                ref.check_member(image, 3)
                assert (ref.reflect(image, 0, 1, j1, j2) == dense).all()


def test_reflection_f_satisfies_the_scale_n_identity(rng):
    # n*f = n*co - d^2 + b, b the number of bad pairs.
    for n, d in ((8, 3), (10, 4), (12, 5)):
        dense = ref.random_regular(rng, n, d)
        for i1, i2 in ((0, 1), (3, 2)):
            co = int(dense[i1].astype(int) @ dense[i2])
            assert ref.reflection_f_scaled(dense, i1, i2) == n * co - d * d + _bad_pairs(dense, i1, i2)


def test_switching_f_equals_the_neighbourhood_form(rng):
    # f = sum over u in A, v not in A of (d - co(u, v)) * (e(u, B) - e(v, B)).
    n, d = 10, 4
    dense = ref.random_regular(rng, n, d)
    wide = dense.astype(int)
    for rows, cols in (([0, 1, 2], [4, 5]), ([7], [0, 1, 2, 3, 8]), (list(range(6)), list(range(7)))):
        co = wide @ wide.T
        nb = wide[:, cols].sum(axis=1)
        rest = [v for v in range(n) if v not in rows]
        form = sum((d - co[u, v]) * (nb[u] - nb[v]) for u in rows for v in rest)
        assert ref.switching_f(dense, rows, cols) == form


def _records(samples, applied):
    return (
        [("reflection", i, "pass", samples) for i in range(6)]
        + [("switching", i, "pass", applied if i == 1 else samples) for i in range(5)]
        + [("permutation", i, "pass", samples) for i in range(4)]
    )


def test_verify_report_rejects_a_failed_record_and_a_wrong_count():
    assert ref.check_verify_report(_records(200, 23), 200) == 23
    failed = _records(200, 23)
    failed[4] = ("reflection", 4, "fail", 200)
    with pytest.raises(CheckFailed):
        ref.check_verify_report(failed, 200)
    short = _records(200, 23)
    short[12] = ("permutation", 1, "pass", 199)
    with pytest.raises(CheckFailed):
        ref.check_verify_report(short, 200)
    with pytest.raises(CheckFailed):
        ref.check_verify_report(_records(200, 23)[:-1], 200)
