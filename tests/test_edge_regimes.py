"""Dense-degree and wide/tall biregular regimes through the whole stack.

The derivations only use d_hat = min(d, n-d) and the row/column counts,
so nothing may silently assume d <= n/2 or m <= n.
"""

from fractions import Fraction

import pytest

from rrdigraph.couplings import column_walk
from rrdigraph.exchangeable import (
    _reduce_pair,
    reflection_f,
    reflection_vf,
    switching_f,
    switching_vf,
)
from rrdigraph.matrices import VertexSetPair, codegree, edge_count
from rrdigraph.samplers import SamplerSpec, sample_many
from rrdigraph.verify import run_suite

from conftest import naive_column_classes


@pytest.fixture(scope="module")
def dense_pool():
    spec = SamplerSpec(kind="switch_mcmc", n=8, d=6, steps=500, seed=86)
    return sample_many(spec, 25)


@pytest.fixture(scope="module")
def tall_pool():
    # more rows than columns: theta = m/n = 3/2
    spec = SamplerSpec(kind="rejection", n=6, d=2, m=9, dp=3, seed=96)
    return sample_many(spec, 25)


class TestDenseDegree:
    def test_exclusive_counts_use_complement_degree(self, dense_pool):
        for mat in dense_pool:
            assert mat.d_hat == 2
            for i1, i2 in ((0, 1), (5, 3)):
                assert codegree(mat, i1, i2).ex <= 2

    def test_reflection_identity_and_bound(self, dense_pool):
        for mat in dense_pool:
            for i1, i2 in ((0, 1), (5, 3)):
                rec = codegree(mat, i1, i2)
                diag = reflection_f(mat, i1, i2)
                assert diag.f_scaled == 8 * rec.co - 36 + diag.b
                vf = reflection_vf(mat, i1, i2)
                assert vf.v_f <= vf.f + Fraction(2 * 4, 8)

    def test_switching_bound(self, dense_pool):
        pair = VertexSetPair.of([0, 1, 2], [2, 3, 4, 5])
        for mat in dense_pool:
            assert switching_vf(mat, pair).bound_ok


class TestTallBiregular:
    def test_dimensions_and_membership(self, tall_pool):
        for mat in tall_pool:
            assert (mat.m, mat.n, mat.d, mat.dp) == (9, 6, 2, 3)
            mat.validate()

    def test_codegree_record_uses_column_count(self, tall_pool):
        for mat in tall_pool:
            for i1, i2 in ((0, 1), (7, 2)):
                rec = codegree(mat, i1, i2)
                assert rec.ex == 2 - rec.co
                assert naive_column_classes(mat, i1, i2)["00"] == 6 - 4 + rec.co

    def test_reflection_stack(self, tall_pool):
        for mat in tall_pool:
            for i1, i2 in ((0, 1), (7, 2)):
                rec = codegree(mat, i1, i2)
                diag = reflection_f(mat, i1, i2)
                assert diag.f_scaled == 6 * rec.co - 4 + diag.b
                assert reflection_vf(mat, i1, i2).bound_ok

    def test_walk_boundary_uses_column_sums(self, tall_pool):
        for mat in tall_pool:
            walk = column_walk(mat, 0, 3)
            assert walk.positions[-1] == 0
            assert walk.r <= min(3, 9 - 3)

    def test_switching_scale_and_identity(self, tall_pool):
        pair = VertexSetPair.of([0, 1, 2, 3], [1, 4])
        for mat in tall_pool:
            diag = switching_f(mat, pair)
            reduced = _reduce_pair(mat, pair)
            e = edge_count(mat, reduced)
            assert diag.scale == 36
            core = 2 * 4 * 9 * (6 * e - 2 * reduced.a * reduced.b)
            assert diag.f_scaled == core + diag.f2_scaled
            assert switching_vf(mat, pair).bound_ok

    def test_verify_suites(self):
        for suite in ("reflection", "switching"):
            results = run_suite(suite, n=6, d=2, samples=20, seed=5, m=9, dp=3)
            assert all(r.ok for r in results)
