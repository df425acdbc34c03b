import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrdigraph.couplings import (
    RowOrder,
    SwitchSite,
    _bad_mask,
    column_walk,
    reflect,
    simple_switch,
)
from rrdigraph.exchangeable import reflection_f
from rrdigraph.matrices import codegree
from rrdigraph.samplers import SamplerSpec, _switch_rows, sample_many

from conftest import (
    matrix_from_strings,
    naive_minor_scan,
    naive_reflecting,
    naive_walk,
)

PARALLEL = matrix_from_strings(["1100", "1100", "0011", "0011"])
CROSSED = matrix_from_strings(["1100", "0011", "1010", "0101"])


def _bad_pairs(mat, i1, i2):
    """The non-reflecting pairs in Ex(i1,i2) x Ex(i2,i1)."""
    return int(_bad_mask(mat, i1, i2)[2].sum())


def _minor(mat, site):
    return (
        (mat.entry(site.i1, site.j1), mat.entry(site.i1, site.j2)),
        (mat.entry(site.i2, site.j1), mat.entry(site.i2, site.j2)),
    )


def _random_instances(n, d, count, seed, steps=400):
    spec = SamplerSpec(kind="switch_mcmc", n=n, d=d, steps=steps, seed=seed)
    return sample_many(spec, count)


class TestSimpleSwitch:
    def test_switch_exchanges_I_and_J(self):
        site = SwitchSite(0, 2, 0, 2)
        assert _minor(PARALLEL, site) == ((1, 0), (0, 1))
        switched = simple_switch(PARALLEL, site)
        # minor I -> J at the site, everything else untouched
        assert switched.entry(0, 0) == 0 and switched.entry(0, 2) == 1
        assert switched.entry(2, 0) == 1 and switched.entry(2, 2) == 0
        for i in (1, 3):
            assert switched.rows[i] == PARALLEL.rows[i]
        assert _minor(switched, site) == ((0, 1), (1, 0))

    def test_not_switchable_is_identity(self):
        # minor [[1,1],[0,1]]-shaped sites stay put and return the input object
        site = SwitchSite(0, 2, 0, 1)
        assert _minor(PARALLEL, site) == ((1, 1), (0, 0))
        assert simple_switch(PARALLEL, site) is PARALLEL

    def test_degenerate_site_rejected(self):
        with pytest.raises(ValueError):
            SwitchSite(1, 1, 0, 2)
        with pytest.raises(ValueError):
            SwitchSite(0, 1, 2, 2)

    def test_margins_preserved_and_involution_random(self):
        rng = np.random.default_rng(11)
        mats = _random_instances(10, 4, 25, seed=11)
        for mat in mats:
            for _ in range(40):
                i1, i2 = (int(x) for x in rng.choice(10, 2, replace=False))
                j1, j2 = (int(x) for x in rng.choice(10, 2, replace=False))
                site = SwitchSite(i1, i2, j1, j2)
                out = simple_switch(mat, site)
                out.validate()
                assert simple_switch(out, site) == mat

    def test_same_rule_as_the_chain_kernel(self, class_4_2, pool_bipartite):
        # Every ordered site of every (4,2) member and of a few 6 x 9 draws:
        # the object map gives the rows the chain step gives for the site's
        # code, and returns the input object exactly when they are unchanged.
        for mat in class_4_2 + pool_bipartite[:4]:
            m, n = mat.m, mat.n
            for i1, i2 in itertools.permutations(range(m), 2):
                for j1, j2 in itertools.permutations(range(n), 2):
                    rows = list(mat.rows)
                    _switch_rows(rows, m, n, np.array([((i1 * m + i2) * n + j1) * n + j2]))
                    out = simple_switch(mat, SwitchSite(i1, i2, j1, j2))
                    assert out.rows == tuple(rows)
                    assert (out is mat) == (out.rows == mat.rows)


class TestColumnWalk:
    def test_reflecting_example(self):
        walk = column_walk(PARALLEL, 0, 2)
        assert walk.positions == (0, 1, 2, 1, 0)
        assert walk.reflecting and walk.i_star == 3 and walk.r == 2

    def test_condition3_failure(self):
        mat = matrix_from_strings(["1010", "0101", "1100", "0011"])
        # columns (0, 1) read (1,0),(0,1),(1,1),(0,0): w = 1,0,0,0
        walk = column_walk(mat, 0, 1)
        assert walk.positions == (0, 1, 0, 0, 0)
        assert not walk.reflecting and walk.i_star is None

    def test_identical_columns_walk_is_zero(self):
        walk = column_walk(PARALLEL, 0, 1)
        assert all(p == 0 for p in walk.positions)
        assert walk.r == 0 and not walk.reflecting

    def test_walk_ends_at_zero_with_bounded_steps(self, class_4_2, pool_bipartite):
        for mat in list(class_4_2[::7]) + list(pool_bipartite[:6]):
            cap = min(mat.dp, mat.m - mat.dp)
            for j1, j2 in itertools.permutations(range(mat.n), 2):
                walk = column_walk(mat, j1, j2)
                assert walk.positions[-1] == 0
                assert walk.r <= cap

    def test_matches_naive_walk(self, pool_8_3):
        for mat in pool_8_3[:10]:
            order = RowOrder(3, 5)
            walk = column_walk(mat, 1, 6, order)
            assert list(walk.positions[1:]) == naive_walk(mat, 1, 6, order)

    def test_errors(self):
        with pytest.raises(ValueError):
            column_walk(PARALLEL, 2, 2)
        with pytest.raises(IndexError):
            column_walk(PARALLEL, 0, 9)


class TestReflect:
    def test_hand_traced_example(self):
        out = reflect(PARALLEL, 0, 2)
        cols = [(out.entry(i, 0), out.entry(i, 2)) for i in range(4)]
        assert cols == [(1, 0), (0, 1), (1, 0), (0, 1)]
        assert reflect(out, 0, 2) == PARALLEL

    def test_non_reflecting_is_identity(self):
        mat = matrix_from_strings(["1010", "0101", "1100", "0011"])
        assert reflect(mat, 0, 1) is mat

    def test_margins_preserved(self):
        out = reflect(PARALLEL, 0, 2)
        out.validate()

    def test_pair_stays_reflecting_with_same_i_star(self, class_4_2):
        for mat in class_4_2:
            for j1, j2 in itertools.permutations(range(4), 2):
                walk = column_walk(mat, j1, j2)
                if not walk.reflecting:
                    continue
                image = reflect(mat, j1, j2)
                walk_image = column_walk(image, j1, j2)
                assert walk_image.reflecting
                assert walk_image.i_star == walk.i_star

    def test_K_minor_pairs_are_always_reflecting(self, pool_8_3):
        for mat in pool_8_3[:12]:
            for j1, j2 in itertools.permutations(range(mat.n), 2):
                if (
                    mat.entry(0, j1) == 1
                    and mat.entry(1, j1) == 1
                    and mat.entry(0, j2) == 0
                    and mat.entry(1, j2) == 0
                ):
                    assert column_walk(mat, j1, j2).reflecting

    def test_reflection_principle_pairing_exhaustive(self, class_4_2):
        # For each ordered column pair, the reflecting matrices with
        # w(2) = +2 biject (via reflect) with those with w(2) = 0.
        for j1, j2 in itertools.permutations(range(4), 2):
            plus = [m for m in class_4_2
                    if column_walk(m, j1, j2).reflecting
                    and column_walk(m, j1, j2).positions[2] == 2]
            minus = [m for m in class_4_2
                     if column_walk(m, j1, j2).reflecting
                     and column_walk(m, j1, j2).positions[2] == 0]
            assert len(plus) == len(minus)
            image = {reflect(m, j1, j2) for m in plus}
            assert image == set(minus)

    def test_map_is_permutation_of_class(self, class_4_2):
        # Uniformity preservation: both involutions act bijectively.
        whole = set(class_4_2)
        assert {reflect(m, 1, 3) for m in class_4_2} == whole
        site = SwitchSite(0, 2, 1, 3)
        assert {simple_switch(m, site) for m in class_4_2} == whole


class TestBadPairs:
    def test_identical_rows_have_no_candidates(self):
        assert _bad_pairs(PARALLEL, 0, 1) == 0

    def test_crossed_example_matches_naive(self):
        n_k, n_i, n_i_refl = naive_minor_scan(CROSSED, 0, 1)
        assert _bad_pairs(CROSSED, 0, 1) == n_i - n_i_refl

    def test_matches_naive_everywhere_on_class(self, class_4_2):
        for mat in class_4_2[::5]:
            for i1, i2 in itertools.permutations(range(4), 2):
                n_k, n_i, n_i_refl = naive_minor_scan(mat, i1, i2)
                assert _bad_pairs(mat, i1, i2) == n_i - n_i_refl

    def test_matches_naive_sampled(self, pool_8_3):
        for mat in pool_8_3[:12]:
            for i1, i2 in ((0, 1), (2, 6), (7, 3)):
                n_k, n_i, n_i_refl = naive_minor_scan(mat, i1, i2)
                diag = reflection_f(mat, i1, i2)
                assert diag.b == n_i - n_i_refl
                assert diag.f_scaled == n_k - n_i_refl

    def test_reflecting_verdict_depends_on_trailing_order(self):
        # The "returns to +1" condition is NOT invariant under permuting
        # the trailing rows: reading the block matrix at rows (0, 2) and
        # columns (0, 2), trailing order (1, 3) gives steps (+1, -1)
        # (returns to +1) while (3, 1) gives (-1, +1) (never returns).
        # A fixed canonical order (i1, i2, remaining ascending) is
        # therefore part of the definition of the bad-pair count.
        mat = PARALLEL
        up_first = [0, 2, 1, 3]
        down_first = [0, 2, 3, 1]

        def hits_plus_one(order_rows):
            w = 0
            seen = False
            for pos, row in enumerate(order_rows, start=1):
                w += mat.entry(row, 0) - mat.entry(row, 2)
                if pos >= 3 and w == 1:
                    seen = True
            return seen

        assert hits_plus_one(up_first) and not hits_plus_one(down_first)
        # The library's count is pinned to the canonical order and is
        # reproducible.
        assert _bad_pairs(mat, 0, 2) == _bad_pairs(mat, 0, 2)
        assert naive_reflecting(mat, 0, 2, RowOrder(0, 2)) == (
            column_walk(mat, 0, 2, RowOrder(0, 2)).reflecting
        )

    def test_bounded_by_ex_squared(self, pool_8_3):
        for mat in pool_8_3:
            rec = codegree(mat, 0, 1)
            assert 0 <= _bad_pairs(mat, 0, 1) <= rec.ex**2 <= mat.d_hat**2

    def test_errors(self):
        with pytest.raises(ValueError):
            _bad_pairs(PARALLEL, 2, 2)


class TestMinorClassCounts:
    """reflection_f's f = #K - #reflecting I and its bad-pair count b,
    against the naive O(n^2) minor scan."""

    def test_identical_rows(self):
        diag = reflection_f(PARALLEL, 0, 1)
        d, n = 2, 4
        assert naive_minor_scan(PARALLEL, 0, 1) == (d * (n - d), 0, 0)
        assert (diag.f_scaled, diag.b) == (d * (n - d), 0)

    def test_disjoint_rows_have_no_K(self):
        n_k, n_i, n_i_refl = naive_minor_scan(CROSSED, 0, 1)
        diag = reflection_f(CROSSED, 0, 1)
        assert n_k == 0
        assert (diag.f_scaled, diag.b) == (-n_i_refl, n_i - n_i_refl)

    def test_formula_vs_direct_scan_sampled(self):
        mats = _random_instances(8, 3, 60, seed=23)
        for mat in mats:
            for i1, i2 in ((0, 1), (4, 2)):
                n_k, n_i, n_i_refl = naive_minor_scan(mat, i1, i2)
                diag = reflection_f(mat, i1, i2)
                assert (diag.f_scaled, diag.b) == (n_k - n_i_refl, n_i - n_i_refl)
                rec = codegree(mat, i1, i2)
                assert n_k == rec.co * (mat.n - 2 * mat.d + rec.co)
                assert n_i == rec.ex**2


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    dims=st.sampled_from([(6, 2), (6, 3), (8, 3), (9, 4)]),
    data=st.data(),
)
def test_involutions_property(seed, dims, data):
    n, d = dims
    spec = SamplerSpec(kind="switch_mcmc", n=n, d=d, steps=150, seed=seed)
    mat = sample_many(spec, 1)[0]
    idx = st.integers(0, n - 1)
    i1 = data.draw(idx)
    i2 = data.draw(idx.filter(lambda x: x != i1))
    j1 = data.draw(idx)
    j2 = data.draw(idx.filter(lambda x: x != j1))
    switched = simple_switch(mat, SwitchSite(i1, i2, j1, j2))
    assert simple_switch(switched, SwitchSite(i1, i2, j1, j2)) == mat
    switched.validate()
    order = RowOrder(i1, i2)
    reflected = reflect(mat, j1, j2, order)
    assert reflect(reflected, j1, j2, order) == mat
    reflected.validate()
