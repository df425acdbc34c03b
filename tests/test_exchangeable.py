import dataclasses
import math
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from rrdigraph import exchangeable
from rrdigraph.couplings import _BLOCK_CELLS, RowOrder, reflect
from rrdigraph.exchangeable import (
    ExactCapExceeded,
    _reduce_pair,
    chatterjee_tail,
    good_event_co,
    permutation_diagnostics,
    reflection_f,
    reflection_vf,
    switching_f,
    switching_vf,
)
from rrdigraph.matrices import VertexSetPair, codegree, edge_count
from rrdigraph.samplers import (
    SamplerSpec,
    sample_many,
    stream_generator,
)

from conftest import (
    gram_codegrees,
    matrix_from_strings,
    naive_minor_scan,
    reflection_vf_oracle,
    switching_vf_oracle,
)
from oracles import multiplicity

PARALLEL = matrix_from_strings(["1100", "1100", "0011", "0011"])
CROSSED = matrix_from_strings(["1100", "0011", "1010", "0101"])
FULL = matrix_from_strings(["111", "111", "111"])


def _mats(n, d, count, seed, steps=500, m=None, dp=None):
    spec = SamplerSpec(kind="switch_mcmc", n=n, d=d, m=m, dp=dp, steps=steps, seed=seed)
    return sample_many(spec, count)


class TestReflectionF:
    def test_identical_rows(self):
        diag = reflection_f(PARALLEL, 0, 1)
        n, d = 4, 2
        assert diag.f_scaled == n * d - d * d
        assert diag.b == 0
        assert diag.scale == n

    def test_disjoint_rows(self):
        diag = reflection_f(CROSSED, 0, 1)
        assert diag.f_scaled == -4 + diag.b  # nK = 0, so f_scaled = -d^2 + b

    def test_identity_against_minor_scan(self, pool_8_3):
        # Independent paths: direct O(n^2) classification plus naive walks
        # versus n*co - d^2 + b.
        for mat in pool_8_3[:20]:
            for i1, i2 in ((0, 1), (5, 2)):
                n_k, n_i, n_i_refl = naive_minor_scan(mat, i1, i2)
                rec = codegree(mat, i1, i2)
                diag = reflection_f(mat, i1, i2)
                assert diag.f_scaled == n_k - n_i_refl
                assert diag.f_scaled == mat.n * rec.co - mat.d**2 + diag.b

    def test_identity_sampled_n30(self):
        for mat in _mats(30, 6, 60, seed=31, steps=1500):
            diag = reflection_f(mat, 0, 1)
            rec = codegree(mat, 0, 1)
            assert diag.f_scaled == 30 * rec.co - 36 + diag.b

    def test_requires_distinct_rows(self):
        with pytest.raises(ValueError):
            reflection_f(PARALLEL, 2, 2)


def _reflection_f_definition(mats):
    """(cases, mismatches) of f = E[F | M] checked from its definition on
    every matrix and ordered row pair (i1, i2): with F at scale n, n*f sums
    co(M) - co(reflect(M)) over the ordered column pairs, using only
    reflect and codegree."""
    cases = mismatches = 0
    for mat in mats:
        for i1, i2 in permutations(range(mat.m), 2):
            order = RowOrder(i1, i2)
            co = codegree(mat, i1, i2).co
            want = sum(
                co - codegree(reflect(mat, j1, j2, order), i1, i2).co
                for j1, j2 in permutations(range(mat.n), 2)
            )
            cases += 1
            mismatches += reflection_f(mat, i1, i2).f_scaled != want
    return cases, mismatches


class TestReflectionFDefinition:
    """f from its definition on all of (4,2), and two planted defects in
    reflection_f's closed form n*co - d^2 + b, one in b and one in co: the
    definition sees both."""

    def test_definition_holds_on_class_4_2(self, class_4_2):
        assert _reflection_f_definition(class_4_2) == (1080, 0)

    def test_inverted_bad_mask_fails_it(self, class_4_2, monkeypatch):
        original = exchangeable._bad_mask

        def inverted(*args):
            ex1, ex2, bad, walk_rows = original(*args)
            return ex1, ex2, ~bad, walk_rows

        monkeypatch.setattr(exchangeable, "_bad_mask", inverted)
        assert _reflection_f_definition(class_4_2) == (1080, 1008)

    def test_shifted_codegree_fails_it(self, class_4_2, monkeypatch):
        original = exchangeable.codegree

        def shifted(*args):
            rec = original(*args)
            return dataclasses.replace(rec, co=rec.co + 1)

        monkeypatch.setattr(exchangeable, "codegree", shifted)
        assert _reflection_f_definition(class_4_2) == (1080, 1080)


class TestReflectionVf:
    def test_no_reflecting_I_case(self):
        # co = d: only K minors are active; the bound still holds exactly.
        diag = reflection_vf(PARALLEL, 0, 1)
        assert diag.bound_ok
        assert diag.v_f is not None

    def test_exhaustive_class(self, class_4_2):
        for mat in class_4_2[::4]:
            for i1, i2 in ((0, 1), (2, 0), (3, 1)):
                diag = reflection_vf(mat, i1, i2)
                bound = diag.f + Fraction(2 * mat.d_hat**2, mat.n)
                assert diag.v_f <= bound

    def test_exact_cap_guard(self):
        # m*d*(n-d)*d_hat = 320 * 160^3, about 1.31e9 walk steps, is above
        # REFLECTION_EXACT_CAP = 1e9; the guard trips before any kernel work.
        mat = _mats(320, 160, 1, seed=3, steps=0)[0]
        with pytest.raises(ExactCapExceeded, match="above the cap of 1000000000"):
            reflection_vf(mat, 0, 1)


class TestSwitchingF:
    def test_complete_digraph_f_zero(self):
        diag = switching_f(FULL, VertexSetPair.of([0], [1]))
        assert diag.f_scaled == 0

    def test_single_row_full_B(self):
        # every |N(i) /\ B| equals d, so every difference in the
        # neighbourhood form vanishes.
        mat = _mats(8, 3, 1, seed=5)[0]
        diag = switching_f(mat, VertexSetPair.of([3], range(8)))
        assert diag.f_scaled == 0

    def test_identities_sampled_n24(self):
        rng = stream_generator(99, 0)
        mats = _mats(24, 6, 50, seed=24, steps=1500)
        for mat in mats:
            a = int(rng.integers(1, 24))
            b = int(rng.integers(1, 24))
            pair = VertexSetPair.of(
                (int(x) for x in rng.choice(24, a, replace=False)),
                (int(x) for x in rng.choice(24, b, replace=False)),
            )
            diag = switching_f(mat, pair)  # fd2 == fd3 asserted internally
            assert diag.f_scaled == diag.f1_scaled + diag.f2_scaled
            assert diag.scale == 24

    def test_main_term_matches_edge_count(self, pool_8_3):
        mat = pool_8_3[0]
        pair = VertexSetPair.of([0, 1, 2], [1, 5])
        diag = switching_f(mat, pair)
        n, d = mat.n, mat.d
        e = edge_count(mat, pair)
        assert diag.f1_scaled == d * (n - d) * (n * e - d * 3 * 2)

    def test_reduction_to_small_sets(self, pool_8_3):
        # a*b > (m-a)*(n-b) forces the complement pair; f is computed there.
        mat = pool_8_3[1]
        big = VertexSetPair.of(range(6), range(6))
        small = big.complement(mat)
        assert switching_f(mat, big).f_scaled == switching_f(mat, small).f_scaled

    def test_requires_proper_A(self):
        with pytest.raises(ValueError):
            switching_f(PARALLEL, VertexSetPair.of([], [0]))
        with pytest.raises(ValueError):
            switching_f(PARALLEL, VertexSetPair.of(range(4), [0]))


class TestSwitchingVf:
    def test_no_switchable_sites(self):
        diag = switching_vf(FULL, VertexSetPair.of([0], [1]))
        assert diag.v_f == 0 and diag.bound_ok

    def test_step_bound_and_self_bound_sampled(self):
        rng = stream_generator(7, 1)
        for mat in _mats(10, 4, 15, seed=10):
            a = int(rng.integers(1, 10))
            b = int(rng.integers(1, 10))
            pair = VertexSetPair.of(
                (int(x) for x in rng.choice(10, a, replace=False)),
                (int(x) for x in rng.choice(10, b, replace=False)),
            )
            diag = switching_vf(mat, pair)
            assert diag.bound_ok
            assert diag.max_step <= 2 * mat.m * mat.d_hat

    def test_incremental_delta_matches_full_recompute(self):
        # Oracle: f(M) - f(M~) for every switchable site, where f(M~) is
        # recomputed from scratch on the switched matrix.
        from rrdigraph.couplings import SwitchSite, simple_switch
        from rrdigraph.exchangeable import _switch_stats

        from conftest import switch_delta_f, switchable_sites

        for mat in _mats(8, 3, 10, seed=88):
            pair = _reduce_pair(mat, VertexSetPair.of([0, 1, 2], [1, 2, 3, 4]))
            dense, rows_a, rows_c, cols_b, cols_c, nb, ex = _switch_stats(mat, pair)
            f0 = switching_f(mat, pair).f_scaled
            for site in switchable_sites(dense, rows_a, rows_c, cols_b, cols_c):
                i1, i2, j1, j2, _ = site
                inc = switch_delta_f(
                    mat, dense, nb, ex, rows_a, rows_c, set(cols_b), site
                )
                switched = simple_switch(mat, SwitchSite(i1, i2, j1, j2))
                assert switched is not mat
                f1 = switching_f(switched, pair).f_scaled
                assert f0 - f1 == inc * mat.n

    def test_cap_guard(self):
        # K_ab = 101^4, about 1.04e8 site cells, is above SWITCHING_EXACT_CAP
        # = 1e8; the guard trips before any kernel work.
        mat = _mats(202, 101, 1, seed=13, steps=0)[0]
        pair = VertexSetPair.of(range(101), range(101))
        with pytest.raises(ExactCapExceeded, match="above the cap of 100000000"):
            switching_vf(mat, pair)

    def test_requires_proper_sets(self):
        with pytest.raises(ValueError):
            switching_vf(PARALLEL, VertexSetPair.of([0, 1], []))


def _reflection_view(diag):
    return diag.f_scaled, diag.b, diag.v_f, diag.max_step


def _switching_view(diag):
    return diag.f_scaled, diag.f1_scaled, diag.f2_scaled, diag.v_f, diag.max_step


class TestHandOff:
    """v_f from a given f equals v_f computed from scratch, and a given f
    is not computed again."""

    def _check(self, mats, i1, i2, pair):
        for mat in mats:
            given = reflection_vf(mat, i1, i2, reflection_f(mat, i1, i2))
            assert _reflection_view(given) == _reflection_view(reflection_vf(mat, i1, i2))
            given = switching_vf(mat, pair, switching_f(mat, pair))
            assert _switching_view(given) == _switching_view(switching_vf(mat, pair))

    def test_square_pool(self, pool_8_3):
        self._check(pool_8_3[:15], 5, 2, VertexSetPair.of([0, 3], [1, 4, 6]))

    def test_biregular_6x9(self, pool_bipartite):
        self._check(pool_bipartite[:15], 4, 1, VertexSetPair.of([0, 2, 5], [1, 3, 7, 8]))

    def test_complemented_pair(self, pool_8_3):
        pair = VertexSetPair.of(range(6), range(6))
        assert _reduce_pair(pool_8_3[0], pair) == pair.complement(pool_8_3[0])
        self._check(pool_8_3[:15], 0, 1, pair)

    def test_given_f_is_not_computed_again(self, pool_8_3, monkeypatch):
        mat, pair = pool_8_3[0], VertexSetPair.of([0, 3], [1, 4, 6])
        f_r, f_s = reflection_f(mat, 0, 1), switching_f(mat, pair)
        monkeypatch.setattr(exchangeable, "reflection_f", None)
        monkeypatch.setattr(exchangeable, "switching_f", None)
        assert reflection_vf(mat, 0, 1, f_r) is f_r
        assert switching_vf(mat, pair, f_s) is f_s


# (m, n, d, dp): square and biregular, both sides of half density and both
# ends of it.
_SMALL_CLASSES = [
    (8, 8, 3, 3), (12, 12, 4, 4), (16, 16, 4, 4), (20, 20, 13, 13),
    (6, 9, 3, 2), (9, 6, 2, 3), (3, 6, 2, 1), (4, 4, 2, 2),
    (5, 5, 1, 1), (5, 5, 4, 4), (7, 7, 0, 0), (7, 7, 7, 7),
]


def _assert_vf_equals_oracles(mat, i1, i2, pair):
    diag = reflection_vf(mat, i1, i2)
    total, worst = reflection_vf_oracle(mat, i1, i2)
    assert (diag.v_f, diag.max_step) == (Fraction(total, 2 * mat.n**2), worst)
    diag = switching_vf(mat, pair)
    total, worst = switching_vf_oracle(mat, pair)
    assert (diag.v_f, diag.max_step) == (Fraction(total, 2), worst)


class TestExactVfKernels:
    """The closed-form v_f kernels equal the site-by-site oracles."""

    @pytest.mark.parametrize("m,n,d,dp", _SMALL_CLASSES)
    def test_small_classes(self, m, n, d, dp):
        rng = stream_generator(m * n, d)
        for mat in _mats(n, d, 4, seed=m + n + d, steps=3000, m=m, dp=dp):
            i1, i2 = (int(x) for x in rng.choice(m, 2, replace=False))
            pair = VertexSetPair.of(
                (int(x) for x in rng.choice(m, int(rng.integers(1, m)), replace=False)),
                (int(x) for x in rng.choice(n, int(rng.integers(1, n)), replace=False)),
            )
            _assert_vf_equals_oracles(mat, i1, i2, pair)

    @pytest.mark.parametrize(
        "m,n,d,dp,a,b",
        [(30, 30, 10, 10, 15, 15), (60, 60, 30, 30, 6, 6), (40, 60, 15, 10, 8, 9)],
    )
    def test_working_sizes(self, m, n, d, dp, a, b):
        mat = _mats(n, d, 1, seed=n, steps=3000, m=m, dp=dp)[0]
        pair = VertexSetPair.of(range(a), range(3, 3 + b))
        _assert_vf_equals_oracles(mat, 0, 1, pair)
        _assert_vf_equals_oracles(mat, 7, 3, pair.complement(mat))

    def _peak(self, call):
        call()  # fills the matrix's cached dense view
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_switching_memory_is_bounded_by_the_block(self):
        # The whole (pairs, b, n - b) grid at once peaks at about 16 MB here.
        mat = _mats(60, 30, 1, seed=61, steps=4000)[0]
        pair = VertexSetPair.of(range(30), range(30))
        assert self._peak(lambda: switching_vf(mat, pair)) <= 4 * 8 * _BLOCK_CELLS

    def test_reflection_memory_is_bounded_by_the_block(self):
        # All K sites' walks at once peak at about 53 MB here.
        mat = _mats(120, 60, 1, seed=121, steps=20_000)[0]
        assert self._peak(lambda: reflection_vf(mat, 0, 1)) <= 4 * 8 * _BLOCK_CELLS

    def test_bad_pair_scan_memory_is_bounded_by_the_block(self):
        # Rows 0 and 200 of the circulant are disjoint, so all 200 x 200
        # Ex pairs are walked; at once that took 16 MB of steps and 128 MB
        # of walks.
        mat = _mats(400, 200, 1, seed=401, steps=0)[0]
        assert self._peak(lambda: reflection_f(mat, 0, 200)) <= 4 * 8 * _BLOCK_CELLS


class TestPermutationCoupling:
    def test_tiny_example(self):
        perms = np.array([[0, 1]])
        assert permutation_diagnostics(perms, VertexSetPair.of([0], [0])).f == Fraction(1, 2)

    def test_full_B_gives_zero(self):
        spec = SamplerSpec(kind="permutation_model", n=6, d=2, seed=6)
        perms = sample_many(spec, 1)[0]
        assert permutation_diagnostics(perms, VertexSetPair.of([0, 3], range(6))).f == 0

    def test_identity_and_bound_random(self):
        spec = SamplerSpec(kind="permutation_model", n=40, d=3, seed=40)
        draws = sample_many(spec, 60)
        rng = stream_generator(41, 0)
        for perms in draws:
            a = int(rng.integers(1, 40))
            b = int(rng.integers(1, 41))
            pair = VertexSetPair.of(
                (int(x) for x in rng.choice(40, a, replace=False)),
                (int(x) for x in rng.choice(40, b, replace=False)),
            )
            diag = permutation_diagnostics(perms, pair)
            e_pi = sum(
                1
                for perm in perms
                for i in pair.rows
                if perm[i] in pair.cols
            )
            assert diag.f == Fraction(40 * e_pi - 3 * a * b, 40)
            assert diag.bound_ok
            assert diag.v_f <= diag.f / 2 + Fraction(3 * a * b, 40)

    @pytest.mark.parametrize("d", [0, 1, 4])
    def test_counts_equal_the_pair_by_pair_enumeration(self, d):
        # Each factor's (I1, I2) in A x A^c, one pair at a time: a pair whose
        # I1 hits B and I2 misses it raises f, the reverse lowers f and adds
        # to T.  The counts are products of hit counts; this is their sum.
        n = 9
        draws = sample_many(SamplerSpec(kind="permutation_model", n=n, d=d, seed=42), 20)
        rng = stream_generator(43, 0)
        for perms in draws:
            pair = VertexSetPair.of(
                (int(x) for x in rng.choice(n, int(rng.integers(1, n)), replace=False)),
                (int(x) for x in rng.choice(n, int(rng.integers(1, n + 1)), replace=False)),
            )
            plus = minus = 0
            for perm in perms:
                for i1 in pair.rows:
                    for i2 in set(range(n)) - pair.rows:
                        hit1, hit2 = perm[i1] in pair.cols, perm[i2] in pair.cols
                        plus += hit1 and not hit2
                        minus += hit2 and not hit1
            diag = permutation_diagnostics(perms, pair)
            assert (diag.f_scaled, diag.v_f) == (
                plus - minus, Fraction(plus - minus, 2 * n) + Fraction(minus, n)
            )
            mult = [[sum(perm[i] == j for perm in perms) for j in range(n)] for i in range(n)]
            assert multiplicity(perms).tolist() == mult

    def test_rejects_improper_A(self):
        perms = np.array([[0, 1, 2]])
        with pytest.raises(ValueError):
            permutation_diagnostics(perms, VertexSetPair.of(range(3), [0]))
        with pytest.raises(ValueError):
            permutation_diagnostics(perms, VertexSetPair.of([], [0]))


class TestChatterjeeTail:
    def test_zero_deviation(self):
        assert chatterjee_tail(1.0, 0.5, 0.0) == (1.0, 1.0)

    def test_zero_deviation_at_zero_k1(self):
        assert chatterjee_tail(0.0, 1.0, 0.0) == (1.0, 1.0)

    def test_k2_zero_makes_tails_coincide(self):
        up, lo = chatterjee_tail(3.0, 0.0, 2.0)
        assert up == lo == math.exp(-4 / 6)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            chatterjee_tail(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            chatterjee_tail(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            chatterjee_tail(1.0, 1.0, -1.0)

    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n,d", [(60, 4), (100, 50), (30, 27)])
    def test_reproduces_codegree_upper_tail(self, eps, n, d):
        # K1 = 2 d_hat^2/n, K2 = 1, t = eps * p_hat^2 * n collapses to
        # exp(-eps^2/(4+2eps) * p_hat^2 * n).
        d_hat = min(d, n - d)
        p_hat_sq_n = d_hat**2 / n
        upper, _ = chatterjee_tail(2 * d_hat**2 / n, 1.0, eps * p_hat_sq_n)
        target = math.exp(-eps * eps / (4 + 2 * eps) * p_hat_sq_n)
        assert upper == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("tau", [0.3, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("n,a,b", [(10, 3, 4), (16, 8, 6), (50, 25, 25)])
    def test_reproduces_edge_bound_at_half_density(self, tau, n, a, b):
        # At d = n/2 the ratio d_hat/(p(1-p)n) is exactly 2, and the
        # self-bounding constants K1 = 2 n^2 d_hat^2 mu, K2 = n d_hat with
        # t = (tau/2) p(1-p) n^2 mu give exactly exp(-tau^2 mu/(64+8tau)).
        d = n // 2
        d_hat = d
        mu = d * a * b / n
        k1 = 2 * n**2 * d_hat**2 * mu
        k2 = n * d_hat
        t = 0.5 * tau * (d / n) * (1 - d / n) * n**2 * mu
        upper, _ = chatterjee_tail(k1, k2, t)
        target = math.exp(-tau * tau * mu / (64 + 8 * tau))
        assert upper == pytest.approx(target, rel=1e-12)


class TestGoodEventCo:
    def test_complete_digraph_holds_for_all_eta(self):
        assert good_event_co(FULL, 0).holds

    def test_eta_at_least_max_ratio_holds(self, pool_8_3):
        mat = pool_8_3[0]
        event = good_event_co(mat, 0)
        eta_star = Fraction(event.worst_deviation_scaled, mat.d * (mat.n - mat.d))
        assert good_event_co(mat, eta_star).holds
        assert not good_event_co(mat, eta_star - Fraction(1, 10**9)).holds

    def test_block_matrix_threshold(self):
        # max |co - p^2 n| = 1 = p(1-p) n: holds iff eta >= 1.
        assert good_event_co(PARALLEL, 1).holds
        assert not good_event_co(PARALLEL, 0.999).holds

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            good_event_co(PARALLEL, -0.1)

    @pytest.mark.parametrize("n, d", [(65, 20), (130, 40), (300, 7)])
    def test_equal_to_the_dense_oracle(self, n, d):
        # One-word-plus-one-bit, two-word and five-word rows.
        mat = sample_many(SamplerSpec(kind="switch_mcmc", n=n, d=d, steps=20 * n, seed=n), 1)[0]
        w = int(np.abs(n * gram_codegrees(mat.dense()) - d * d).max())
        eta_star = Fraction(w, d * (n - d))
        for eta, holds in ((eta_star, True), (eta_star - Fraction(1, 10**9), False),
                           (Fraction(1, 2), w <= Fraction(1, 2) * d * (n - d))):
            event = good_event_co(mat, eta)
            assert event.worst_deviation_scaled == w
            assert event.threshold_scaled == eta * d * (n - d)
            assert event.holds is holds
