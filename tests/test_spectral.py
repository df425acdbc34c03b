import math
import tracemalloc

import numpy as np
import pytest

from rrdigraph import spectral
from rrdigraph.matrices import BiregularBitMatrix, VertexSetPair, complement, edge_count
from rrdigraph.samplers import (
    SamplerSpec,
    SearchSpaceTooLarge,
    circulant,
    sample_many,
)
from rrdigraph.spectral import ALPHA_EXACT_CAP, alpha_exact, row_set_extremes, sigma2

from conftest import matrix_from_strings


def brute_alpha(matrix):
    """max over nonempty (A, B) of disc / sqrt(|A||B|), plain loops."""
    n, d = matrix.n, matrix.d
    best = 0.0
    for amask in range(1, 1 << n):
        rows = [i for i in range(n) if amask >> i & 1]
        for bmask in range(1, 1 << n):
            cols = [j for j in range(n) if bmask >> j & 1]
            e = edge_count(matrix, VertexSetPair.of(rows, cols))
            dev = abs(e - d / n * len(rows) * len(cols))
            best = max(best, dev / math.sqrt(len(rows) * len(cols)))
    return best


def alpha_all_pairs(matrix):
    """alpha from the full (2^n - 1)^2 table e(A, B) = x_A M x_B^T.

    The float steps per (A, B) are those of the definition's max over B
    then over A, so the result is comparable with ==.
    """
    n, d = matrix.n, matrix.d
    masks = np.arange(1, 1 << n)
    ind = (masks[:, None] >> np.arange(n)) & 1
    e = ind @ matrix.dense().astype(np.int64) @ ind.T
    size = ind.sum(axis=1)
    dev = np.abs(n * e - d * np.outer(size, size))
    root = np.sqrt(size.astype(np.float64))
    per_a = (dev * (1.0 / root)[None, :]).max(axis=1)
    return float((per_a / (n * root)).max())


def extremes_brute_force(matrix):
    """max over |B| = b of |n e(A,B) - d |A| b| at row (row mask of A) - 1
    and column b - 1, for every nonempty A and b, from the full e(A, B) table."""
    n, d = matrix.n, matrix.d
    masks = np.arange(1, 1 << n)
    ind = (masks[:, None] >> np.arange(n)) & 1
    e = ind @ matrix.dense().astype(np.int64) @ ind.T
    size = ind.sum(axis=1)
    dev = np.abs(n * e - d * np.outer(size, size))
    return np.stack([dev[:, size == b].max(axis=1) for b in range(1, n + 1)], axis=1)


def circulant_sigma2(n, d):
    """Circulant singular values are |sum_{t<d} w^(kt)| = |sin(pi k d/n) / sin(pi k/n)|."""
    return max(abs(math.sin(math.pi * k * d / n) / math.sin(math.pi * k / n)) for k in range(1, n))


class TestSigma2:
    def test_all_ones_is_rank_one(self):
        full = matrix_from_strings(["1111"] * 4)
        report = sigma2(full)
        assert report.sigma1 == pytest.approx(4.0, abs=1e-10)
        assert report.sigma2 == pytest.approx(0.0, abs=1e-10)

    def test_identity_matrix(self):
        eye = matrix_from_strings(["100", "010", "001"])
        report = sigma2(eye)
        assert report.sigma2 == pytest.approx(1.0, abs=1e-10)

    def test_circulant_degeneracy_handled(self):
        # The alternating +-1 vector is an exact singular vector of
        # circulants: a power iteration started there alone reports the
        # wrong value.
        mat = circulant(4, 2)
        oracle = np.linalg.svd(mat.dense().astype(float), compute_uv=False)[1]
        assert sigma2(mat).sigma2 == pytest.approx(oracle, abs=1e-8)
        assert oracle == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_matches_svd_oracle_sampled(self):
        spec = SamplerSpec(kind="switch_mcmc", n=24, d=7, steps=2000, seed=70)
        for mat in sample_many(spec, 20):
            oracle = np.linalg.svd(mat.dense().astype(float), compute_uv=False)[1]
            report = sigma2(mat)
            assert report.converged
            assert report.sigma2 == pytest.approx(oracle, abs=1e-8)

    def test_sigma1_equals_d_and_complement_invariance(self):
        spec = SamplerSpec(kind="switch_mcmc", n=20, d=6, steps=1500, seed=71)
        for mat in sample_many(spec, 15):
            report = sigma2(mat)
            assert abs(report.sigma1 - mat.d) < 1e-8
            comp_report = sigma2(complement(mat))
            assert abs(report.sigma2 - comp_report.sigma2) < 1e-8
            assert abs(comp_report.sigma1 - (mat.n - mat.d)) < 1e-8

    def test_rejects_rectangular(self, pool_bipartite):
        with pytest.raises(ValueError):
            sigma2(pool_bipartite[0])

    @pytest.mark.parametrize("n, d", [(4, 2), (5, 2), (7, 3), (12, 5), (30, 7), (64, 31), (101, 50)])
    def test_circulant_closed_form(self, n, d):
        report = sigma2(circulant(n, d))
        assert report.sigma1 == pytest.approx(d, abs=1e-9)
        assert report.sigma2 == pytest.approx(circulant_sigma2(n, d), abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("full", [False, True])
    def test_empty_and_complete(self, n, full):
        d = n if full else 0
        report = sigma2(circulant(n, d))
        assert report.sigma1 == pytest.approx(d, abs=1e-12)
        assert report.sigma2 == pytest.approx(0.0, abs=1e-12)


def assert_matches_svd(mat):
    """sigma1 is exactly d, and sigma2 agrees with a full LAPACK SVD, the oracle."""
    report = sigma2(mat)
    oracle = float(np.linalg.svd(mat.dense().astype(np.float64), compute_uv=False)[1])
    assert report.sigma1 == float(mat.d)
    assert abs(report.sigma2 - oracle) <= 1e-12 * max(1.0, oracle)


class TestSigma2DeflatedGram:
    """sigma2 reads sigma_2 off the top eigenvalue of n M^T M - d^2 J; the
    full SVD of M stays here as the oracle."""

    def test_every_member_of_the_4_2_class(self, class_4_2):
        for mat in class_4_2:
            assert_matches_svd(mat)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_circulants(self, n):
        for d in range(n + 1):
            assert_matches_svd(circulant(n, d))

    @pytest.mark.parametrize("d", [3, 150, 297])
    def test_switch_draws_at_n_300(self, d):
        spec = SamplerSpec(kind="switch_mcmc", n=300, d=d, steps=3000, seed=d)
        assert_matches_svd(sample_many(spec, 1)[0])

    @pytest.mark.parametrize("k, d", [(5, 2), (9, 4), (40, 3)])
    def test_disjoint_union_of_two_blocks(self, k, d):
        # Each block contributes a singular value d, so sigma_2 = sigma_1 = d.
        block = circulant(k, d).dense()
        dense = np.zeros((2 * k, 2 * k), dtype=np.uint8)
        dense[:k, :k] = block
        dense[k:, k:] = block
        report = sigma2(BiregularBitMatrix.from_dense(dense))
        assert report.sigma1 == float(d)
        assert abs(report.sigma2 - d) <= 1e-12 * d

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 64])
    def test_exact_at_the_extremes(self, n):
        for d in (0, n):
            report = sigma2(circulant(n, d))
            assert report.sigma1 == float(d)
            assert report.sigma2 == 0.0

    def test_peak_memory_at_n_1000(self):
        n = 1000
        mat = circulant(n, n // 2)
        mat.dense()  # the matrix's own cached uint8 view, built before the measurement
        tracemalloc.start()
        try:
            report = sigma2(mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * n * 8 + 2**20
        assert report.sigma2 == pytest.approx(circulant_sigma2(n, n // 2), rel=1e-12)

    @staticmethod
    def _reference(mat):
        """n (D^T D) - d^2 J from the dense float64 product."""
        dense = mat.dense().astype(np.float64)
        return mat.n * (dense.T @ dense) - float(mat.d * mat.d)

    @pytest.mark.parametrize(
        "n, d", [(9, 3), (300, 3), (300, 17), (1000, 31), (300, 297), (12, 0), (12, 12), (300, 150)]
    )
    def test_counted_gram_equals_the_dense_product(self, n, d):
        # d^2 <= n: G' is scattered from each row's column pairs, and is the
        # dense product entry for entry; elsewhere, near-complete classes and
        # d = n included, it is that product.
        mat = sample_many(SamplerSpec(kind="switch_mcmc", n=n, d=d, steps=2000, seed=n + d), 1)[0]
        gram = spectral._deflated_gram(mat)
        assert gram.dtype == np.float64 and gram.shape == (n, n)
        assert np.array_equal(gram, self._reference(mat))
        assert_matches_svd(mat)

    @pytest.mark.parametrize("d", [3, 17, 297])
    def test_sigma2_is_the_eigensolve_of_the_reference_bit_for_bit(self, d):
        n = 300
        mat = sample_many(SamplerSpec(kind="switch_mcmc", n=n, d=d, steps=3000, seed=d), 1)[0]
        top = np.linalg.eigvalsh(self._reference(mat))[-1]
        assert sigma2(mat).sigma2 == float(np.sqrt(max(top, 0.0) / n))

    def test_peak_memory_of_the_counted_gram_at_n_1000(self):
        n, d = 1000, 31
        mat = circulant(n, d)
        mat.dense()  # the matrix's own cached uint8 view, built before the measurement
        tracemalloc.start()
        try:
            sigma2(mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * n * 8 + 2**20


class TestAlphaExact:
    def test_all_ones_zero(self):
        assert alpha_exact(matrix_from_strings(["1111"] * 4)) == 0.0

    def test_zero_matrix_zero(self):
        assert alpha_exact(matrix_from_strings(["0000"] * 4)) == 0.0

    def test_matches_brute_force(self, class_4_2):
        for mat in class_4_2[::17]:
            assert alpha_exact(mat) == pytest.approx(brute_alpha(mat), abs=1e-12)

    def test_jumbledness_bound_exhaustive(self, class_4_2):
        # alpha <= sigma_2 on every matrix of the class: the second
        # singular value certifies jumbledness.
        for mat in class_4_2:
            assert alpha_exact(mat) <= sigma2(mat).sigma2 + 1e-8

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_all_pairs_oracle(self, n):
        for d in range(n + 1):
            spec = SamplerSpec(kind="switch_mcmc", n=n, d=d, steps=20 * n * n, seed=900 + n)
            for mat in [circulant(n, d), *sample_many(spec, 3)]:
                assert alpha_exact(mat) == alpha_all_pairs(mat)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_row_set_extremes_equal_brute_force(self, n):
        # Every (A, b): the table's rows as scanned, and A^c read from A's row.
        full = (1 << n) - 1
        for d in sorted({0, 1, n // 2, n - 1, n}):
            spec = SamplerSpec(kind="switch_mcmc", n=n, d=d, steps=20 * n * n, seed=950 + n)
            for mat in [circulant(n, d), *sample_many(spec, 2)]:
                sizes, dev = row_set_extremes(mat)
                oracle = extremes_brute_force(mat)
                half = np.arange(1, 1 << (n - 1))
                assert (sizes == [bin(k).count("1") for k in half]).all()
                assert (dev == oracle[half - 1]).all()
                assert (dev == oracle[(full ^ half) - 1]).all()
                assert (oracle[full - 1] == 0).all()

    def test_at_cap_memory(self):
        spec = SamplerSpec(kind="switch_mcmc", n=ALPHA_EXACT_CAP, d=5, steps=2000, seed=3)
        mat = sample_many(spec, 1)[0]
        tracemalloc.start()
        try:
            alpha = alpha_exact(mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert 0.0 < alpha <= sigma2(mat).sigma2 + 1e-8

    def test_cap_guard(self):
        spec = SamplerSpec(kind="switch_mcmc", n=16, d=4, steps=100, seed=0)
        mat = sample_many(spec, 1)[0]
        with pytest.raises(SearchSpaceTooLarge):
            alpha_exact(mat)

    def test_rejects_rectangular(self, pool_bipartite):
        with pytest.raises(ValueError):
            alpha_exact(pool_bipartite[0])
