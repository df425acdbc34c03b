import dataclasses
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrdigraph import samplers
from rrdigraph.matrices import BiregularBitMatrix, InvalidMatrixError, rows_to_words, words_to_dense
from rrdigraph.samplers import (
    DEFAULT_MAX_ATTEMPTS,
    SAMPLER_KINDS,
    RejectionBudgetExhausted,
    SamplerSpec,
    SearchSpaceTooLarge,
    circulant,
    draw,
    enumerate_all,
    permutation_batch,
    rejection_dense,
    rejection_side,
    sample_many,
    stream_generator,
    switch_mcmc_dense,
    switch_mcmc_words,
)
from rrdigraph.samplers import (
    _KINDS,
    _members,
    _site_blocks,
    _switch_rows,
    _switch_words,
)

from conftest import brute_force_class_4_2
from oracles import multiplicity


class TestSpec:
    def test_defaults_resolve_square(self):
        spec = SamplerSpec(kind="rejection", n=6, d=2)
        assert spec.m == 6 and spec.dp == 2

    def test_edge_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            SamplerSpec(kind="rejection", n=9, d=3, m=6, dp=3)

    def test_er_requires_probability(self):
        with pytest.raises(ValueError):
            SamplerSpec(kind="erdos_renyi", n=5)
        with pytest.raises(ValueError):
            SamplerSpec(kind="erdos_renyi", n=5, p=1.5)

    @pytest.mark.parametrize("field", ["m", "dp", "steps", "d"])
    def test_er_rejects_fields_it_does_not_read(self, field):
        with pytest.raises(ValueError, match=f"'{field}' is not read by kind 'erdos_renyi'"):
            SamplerSpec(kind="erdos_renyi", n=3, p=0.5, **{field: 2})

    @pytest.mark.parametrize(
        "kind, fields, name",
        [
            ("rejection", dict(n=4, d=2, steps=3), "steps"),
            ("rejection", dict(n=4, d=2, p=0.9), "p"),
            ("switch_mcmc", dict(n=4, d=2, p=0.9), "p"),
            ("permutation_model", dict(n=4, d=2, steps=3), "steps"),
            ("permutation_model", dict(n=4, d=2, p=0.5), "p"),
        ],
        ids=["rejection-steps", "rejection-p", "switch-p", "permutation-steps", "permutation-p"],
    )
    def test_each_kind_rejects_fields_it_does_not_read(self, kind, fields, name):
        with pytest.raises(ValueError, match=f"sampler field '{name}' is not read by kind '{kind}'"):
            SamplerSpec(kind=kind, **fields)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SAMPLER_KINDS), st.sets(st.sampled_from(["m", "dp", "p", "steps", "max_attempts"])))
    def test_accepts_exactly_the_fields_its_kind_reads(self, kind, names):
        # In range at n = 6, d = 2; erdos_renyi cannot do without p, and
        # reads no d.
        values = dict(m=6, dp=2, p=0.5, steps=10, max_attempts=100)
        required = {"p"} if kind == "erdos_renyi" else set()
        accepted = names <= set(_KINDS[kind].reads) and required <= names
        d = 2 if "d" in _KINDS[kind].reads else 0
        try:
            SamplerSpec(kind=kind, n=6, d=d, **{name: values[name] for name in names})
        except ValueError:
            assert not accepted
        else:
            assert accepted

    def test_max_attempts_resolved_for_rejection_only(self):
        assert SamplerSpec(kind="rejection", n=6, d=2).max_attempts == DEFAULT_MAX_ATTEMPTS
        assert SamplerSpec(kind="switch_mcmc", n=6, d=2).max_attempts is None

    def test_permutation_model_is_square(self):
        with pytest.raises(ValueError, match="sampler field 'm' must equal n = 4"):
            SamplerSpec(kind="permutation_model", n=4, d=2, m=2, dp=1)
        assert SamplerSpec(kind="permutation_model", n=4, d=2, m=4).m == 4

    @pytest.mark.parametrize(
        "spec",
        [
            SamplerSpec(kind="rejection", n=9, d=3, m=6, dp=2),
            SamplerSpec(kind="switch_mcmc", n=6, d=2, steps=5),
            SamplerSpec(kind="permutation_model", n=5, d=2),
            SamplerSpec(kind="erdos_renyi", n=5, p=0.5),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_resolved_spec_survives_replace(self, spec):
        # The tail harness re-validates a resolved spec once per shard.
        moved = dataclasses.replace(spec, stream=7)
        assert moved.stream == 7 and dataclasses.replace(moved, stream=spec.stream) == spec

    def test_unknown_kind(self):
        # Exhaustive generation is enumerate_all, not a sampler kind.
        for kind in ("bogus", "enumerate"):
            with pytest.raises(ValueError, match="unknown sampler kind"):
                SamplerSpec(kind=kind, n=3, d=1)
            assert kind not in SAMPLER_KINDS

    def test_default_steps(self):
        spec = SamplerSpec(kind="switch_mcmc", n=10, d=3)
        assert spec.resolved_steps == 100 * 10 * 3


class TestRejection:
    def test_n3_d1_yields_permutation_matrices(self, request):
        perms = set(enumerate_all(3, 3, 1, 1))
        spec = SamplerSpec(kind="rejection", n=3, d=1, seed=5)
        for mat in sample_many(spec, 50):
            assert mat in perms

    def test_degenerate_full_degree_accepted_immediately(self):
        spec = SamplerSpec(kind="rejection", n=4, d=4, max_attempts=1, seed=0)
        mat = sample_many(spec, 1)[0]
        assert mat.rows == (15, 15, 15, 15)

    def test_degenerate_empty_degree(self):
        spec = SamplerSpec(kind="rejection", n=4, d=0, max_attempts=1, seed=0)
        assert sample_many(spec, 1)[0].rows == (0, 0, 0, 0)

    def test_outputs_validate(self):
        spec = SamplerSpec(kind="rejection", n=12, d=3, seed=8)
        for mat in sample_many(spec, 30):
            mat.validate()

    def test_biregular_outputs(self, pool_bipartite):
        for mat in pool_bipartite:
            mat.validate()
            assert (mat.m, mat.n, mat.d, mat.dp) == (6, 9, 3, 2)

    def test_budget_guard(self):
        spec = SamplerSpec(kind="rejection", n=50, d=20, max_attempts=1500, seed=1)
        with pytest.raises(RejectionBudgetExhausted):
            sample_many(spec, 1)

    def test_acceptance_depends_only_on_collapse(self):
        # Simplicity of the collapse is exactly "no duplicated (row, col)
        # code"; re-derive the accept decision for a fixed matching.
        spec = SamplerSpec(kind="rejection", n=4, d=2, seed=3)
        rng = spec.rng()
        md = 8
        perm = rng.permutation(md)
        rows = np.repeat(np.arange(4), 2)
        codes = rows * 4 + perm // 2
        accept = np.bincount(codes, minlength=16).max() <= 1
        multiplicities = np.bincount(codes, minlength=16).reshape(4, 4)
        assert accept == bool((multiplicities <= 1).all())


class TestRejectionKernel:
    """The row-by-row early-exit kernel, checked against answers that do not
    come from it: the enumerated class and closed-form acceptance rates."""

    @staticmethod
    def _acceptance(m, n, d, dp):
        # Each class member is the collapse of d!^m * dp!^n of the (m d)!
        # stub matchings.
        size = sum(1 for _ in enumerate_all(m, n, d, dp))
        return Fraction(size * math.factorial(d) ** m * math.factorial(dp) ** n, math.factorial(m * d))

    def test_uniform_on_the_enumerated_biregular_class(self):
        from scipy import stats

        index = {mat.rows: k for k, mat in enumerate(enumerate_all(3, 6, 2, 1))}
        assert len(index) == 90
        spec = SamplerSpec(kind="rejection", n=6, d=2, m=3, dp=1, seed=17)
        out = rejection_dense(spec, 18_000)
        keys = out.astype(np.int64) @ (1 << np.arange(6, dtype=np.int64))
        counts = np.zeros(90, dtype=np.int64)
        for rows in map(tuple, keys.tolist()):
            counts[index[rows]] += 1
        assert counts.sum() == 18_000
        tv = 0.5 * np.abs(counts / 18_000 - 1 / 90).sum()
        assert tv <= 0.05
        assert stats.chisquare(counts).pvalue > 1e-3

    @staticmethod
    def _drawn_side(m, n, d, dp):
        """(m, n, d, dp) of the side the kernel draws."""
        return (m, n, n - d, m - dp) if rejection_side(n, d, m, dp)[0] == "complement" else (m, n, d, dp)

    @pytest.mark.parametrize(
        "n, d, m, dp, side",
        [
            (16, 12, 16, 12, ("complement", 9)),
            (8, 5, 8, 5, ("complement", 4)),
            (60, 4, 60, 4, ("class", 9)),
            (4, 2, 4, 2, ("class", 1)),  # a tie draws the class
            (9, 3, 6, 2, ("class", 2)),
            (7, 0, 7, 0, ("class", 1)),
            (7, 7, 7, 7, ("complement", 1)),
        ],
        ids=lambda v: str(v),
    )
    def test_rejection_side_is_the_side_with_the_smaller_k(self, n, d, m, dp, side):
        assert rejection_side(n, d, m, dp) == side

    @pytest.mark.parametrize(
        "m, n, d, dp", [(4, 4, 2, 2), (4, 4, 3, 3), (3, 6, 2, 1)], ids=lambda v: str(v)
    )
    def test_attempt_count_matches_the_exact_acceptance(self, m, n, d, dp):
        # The attempts are those on the side drawn: at (4, 4, 3, 3) the
        # complement, permutation matrices, which every attempt collapses to.
        p = self._acceptance(*self._drawn_side(m, n, d, dp))
        spec = SamplerSpec(kind="rejection", n=n, d=d, m=m, dp=dp, seed=23)
        count = 20_000
        out, attempts = draw(spec, count)
        assert out.shape == (count, m, 1)
        if p == 1:
            assert attempts == count
        else:
            # attempts - count is negative binomial: mean count (1-p)/p.
            mean = count * (1 - p) / p
            sd = math.sqrt(count * (1 - p)) / p
            assert abs(attempts - count - mean) < 5 * sd

    @pytest.mark.parametrize("m, n, d, dp", [(7, 7, 1, 1), (300, 300, 2, 2)], ids=lambda v: str(v))
    def test_outputs_validate(self, m, n, d, dp):
        # d = 1 cannot repeat a column in a row; n = 300 labels stubs in int32.
        spec = SamplerSpec(kind="rejection", n=n, d=d, m=m, dp=dp, seed=4)
        out = rejection_dense(spec, 12)
        assert out.shape == (12, m, n) and out.dtype == np.uint8
        for sample in out:
            BiregularBitMatrix.from_dense(sample).validate()

    @pytest.mark.parametrize(
        "m, n, d, dp", [(16, 16, 12, 12), (3, 6, 4, 2), (8, 8, 6, 6), (9, 6, 4, 6)], ids=lambda v: str(v)
    )
    def test_the_complement_side_is_drawn_where_it_accepts_more_often(self, m, n, d, dp):
        # Each draw is the complement of the complement class's draw from the
        # same stream, with the same attempts, and a member of the class.
        assert self._drawn_side(m, n, d, dp) == (m, n, n - d, m - dp)
        spec = SamplerSpec(kind="rejection", n=n, d=d, m=m, dp=dp, seed=5)
        words, attempts = draw(spec, 40)
        other, other_attempts = draw(dataclasses.replace(spec, d=n - d, dp=m - dp), 40)
        assert attempts == other_attempts
        assert np.array_equal(words_to_dense(words, n), 1 - words_to_dense(other, n))
        for mat in sample_many(spec, 40):  # the margin check counts the pad bits too
            assert (mat.m, mat.n, mat.d, mat.dp) == (m, n, d, dp)

    def test_budget_guard_reports_the_failed_attempts(self):
        spec = SamplerSpec(kind="rejection", n=50, d=20, max_attempts=1500, seed=1)
        with pytest.raises(RejectionBudgetExhausted) as caught:
            rejection_dense(spec, 1)
        # The guard trips at the end of the block that reaches the budget,
        # and no block holds more than max_attempts attempts.
        assert 1500 <= caught.value.attempts < 3000

    def test_bytes_repeat_and_fewer_samples_are_a_prefix(self):
        spec = SamplerSpec(kind="rejection", n=12, d=3, seed=8, stream=2)
        many = rejection_dense(spec, 300)
        assert many.tobytes() == rejection_dense(spec, 300).tobytes()
        assert np.array_equal(rejection_dense(spec, 7), many[:7])

    def test_memory_stays_near_the_output_size(self):
        spec = SamplerSpec(kind="rejection", n=60, d=4, seed=1)
        tracemalloc.start()
        try:
            out = rejection_dense(spec, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 4 * 2**20


class TestSwitchChain:
    def test_zero_steps_is_circulant(self):
        spec = SamplerSpec(kind="switch_mcmc", n=7, d=3, steps=0, seed=0)
        assert sample_many(spec, 1)[0] == circulant(7, 3)

    def test_circulant_rows(self):
        mat = circulant(5, 2)
        assert mat.rows[0] == 0b00011
        assert mat.rows[4] == 0b10001  # wraps mod n

    @staticmethod
    def circulant_bit_loop(n, d, m):
        """Each row set one column at a time: the plain form of circulant."""
        rows = []
        for i in range(m):
            start = i if m == n else i * d
            r = 0
            for t in range(d):
                r |= 1 << ((start + t) % n)
            rows.append(r)
        return rows

    @pytest.mark.parametrize("n", range(1, 25))
    def test_circulant_equals_bit_loop(self, n):
        for d in range(n + 1):
            assert list(circulant(n, d).rows) == self.circulant_bit_loop(n, d, n)
            for m in range(1, 2 * n + 1):
                if m != n and m * d % n == 0:
                    assert list(circulant(n, d, m).rows) == self.circulant_bit_loop(n, d, m)

    @pytest.mark.parametrize(
        "m, n, d",
        [(6, 9, 3), (9, 6, 4), (7, 7, 0), (7, 7, 7), (9, 6, 0), (9, 6, 6), (8, 8, 3), (130, 130, 5), (1, 1, 1)],
        ids=lambda v: str(v),
    )
    def test_chain_starts_at_the_circulant(self, m, n, d):
        # The chain reads its start rows from the circulant formula, without
        # building a matrix; a chain of no steps, lone or batched, returns them.
        rows = list(circulant(n, d, m).rows)
        assert samplers._circulant_rows(n, d, m) == rows
        spec = SamplerSpec(kind="switch_mcmc", n=n, d=d, m=m, dp=m * d // n, steps=0, seed=1)
        for count in (1, 3):
            words = switch_mcmc_words(spec, count)
            assert words.shape == (count, m, (n + 63) // 64)
            assert (words == rows_to_words(rows, n)).all()

    def test_every_state_is_a_member(self):
        spec = SamplerSpec(kind="switch_mcmc", n=9, d=4, steps=350, seed=2)
        for mat in sample_many(spec, 25):
            mat.validate()

    def test_biregular_chain(self):
        spec = SamplerSpec(kind="switch_mcmc", n=9, d=3, m=6, dp=2, steps=300, seed=2)
        for mat in sample_many(spec, 10):
            mat.validate()

    def test_chain_moves(self):
        spec = SamplerSpec(kind="switch_mcmc", n=8, d=2, steps=500, seed=4)
        mats = sample_many(spec, 6)
        assert any(mat != circulant(8, 2) for mat in mats)


class TestSwitchKernel:
    """The packed-word batch and the lone-chain loop against each other."""

    @staticmethod
    def _sites(spec, count):
        blocks = _site_blocks(spec.rng(), spec.m, spec.n, spec.resolved_steps, count)
        return np.concatenate(list(blocks))

    @pytest.mark.parametrize(
        "m, n, d",
        # 260^4 > 2^32, so (260, 260) runs on 64-bit site codes.
        [(5, 5, 2), (64, 64, 20), (65, 65, 30), (130, 130, 40), (260, 260, 100), (6, 9, 3)],
        ids=lambda v: str(v),
    )
    def test_batch_and_lone_chain_agree_on_the_same_sites(self, m, n, d):
        # 3500 steps at 5 chains spans two site blocks.
        spec = SamplerSpec(kind="switch_mcmc", n=n, d=d, m=m, dp=m * d // n, steps=3500, seed=11)
        start = circulant(n, d, m)
        batch = switch_mcmc_dense(spec, 5)
        sites = self._sites(spec, 5)
        for k in range(5):
            rows = list(start.rows)
            _switch_rows(rows, m, n, sites[:, k])
            assert BiregularBitMatrix(rows, n) == BiregularBitMatrix.from_dense(batch[k])
        assert (batch != start.dense()).any()
        # and the other way round: the lone chain's draws through the batch path
        lone = switch_mcmc_dense(spec, 1)
        words = rows_to_words(start.rows, n)[None].copy()
        _switch_words(words, m, n, self._sites(spec, 1))
        assert np.array_equal(words_to_dense(words, n), lone)

    def test_one_word_rows_on_64_bit_codes(self):
        # m*m*n*n = 1024^2 * 64^2 >= 2^32: one-word rows, int64 site codes.
        m, n, d, count = 1024, 64, 2, 3
        spec = SamplerSpec(kind="switch_mcmc", m=m, n=n, d=d, dp=m * d // n, steps=3000, seed=3)
        sites = self._sites(spec, count)
        assert sites.dtype == np.int64
        batch = switch_mcmc_words(spec, count)
        for k in range(count):
            rows = list(circulant(n, d, m).rows)
            _switch_rows(rows, m, n, sites[:, k])
            assert np.array_equal(rows_to_words(rows, n), batch[k])
        assert (batch != rows_to_words(circulant(n, d, m).rows, n)).any()

    @pytest.mark.parametrize(
        "spec, count",
        [
            (SamplerSpec(kind="switch_mcmc", n=8, d=3, steps=200, seed=13), 1),
            (SamplerSpec(kind="switch_mcmc", n=8, d=3, steps=200, seed=13), 3),
            (SamplerSpec(kind="switch_mcmc", n=130, d=5, steps=2000, seed=14), 1),
            (SamplerSpec(kind="switch_mcmc", n=130, d=5, steps=2000, seed=14), 3),
            (SamplerSpec(kind="switch_mcmc", n=16, d=4, steps=4000, seed=5), 200),
            (SamplerSpec(kind="switch_mcmc", m=6, n=9, d=3, dp=2, steps=500, seed=5), 7),
        ],
        ids=["one-word-lone", "one-word-batch", "three-words-lone", "three-words-batch",
             "verify-batch", "biregular-batch"],
    )
    def test_block_size_does_not_enter_the_stream(self, monkeypatch, spec, count):
        # The sites are one row-major run of bounded draws, cut into blocks.
        outputs = []
        for block in (1, 7, 1 << 14, 10**7):
            monkeypatch.setattr(samplers, "_SITE_BLOCK", block)
            outputs.append(switch_mcmc_words(spec, count).tobytes())
        assert outputs == outputs[:1] * 4

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("n", [7, 70])
    def test_zero_steps_is_circulant(self, count, n):
        spec = SamplerSpec(kind="switch_mcmc", n=n, d=3, steps=0, seed=0)
        out = switch_mcmc_dense(spec, count)
        assert out.shape == (count, n, n) and out.dtype == np.uint8
        assert (out == circulant(n, 3).dense()).all()

    @pytest.mark.parametrize("count", [1, 4])
    @pytest.mark.parametrize("d", [0, 6])
    def test_degenerate_degree_stays_fixed(self, count, d):
        spec = SamplerSpec(kind="switch_mcmc", n=6, d=d, steps=300, seed=1)
        assert (switch_mcmc_dense(spec, count) == (d == 6)).all()

    @pytest.mark.parametrize("count", [1, 9])
    @pytest.mark.parametrize(
        "m, n, d", [(9, 9, 4), (6, 9, 3), (70, 70, 35)], ids=lambda v: str(v)
    )
    def test_margins_and_bytes(self, count, m, n, d):
        dp = m * d // n
        spec = SamplerSpec(kind="switch_mcmc", n=n, d=d, m=m, dp=dp, steps=400, seed=5)
        out = switch_mcmc_dense(spec, count)
        assert out.shape == (count, m, n) and out.dtype == np.uint8
        assert (out.sum(axis=2) == d).all() and (out.sum(axis=1) == dp).all()
        assert out.tobytes() == switch_mcmc_dense(spec, count).tobytes()

    def test_batch_memory_stays_near_the_output_size(self):
        spec = SamplerSpec(kind="switch_mcmc", n=60, d=30, steps=200, seed=1)
        tracemalloc.start()
        try:
            out = switch_mcmc_dense(spec, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 4 * 2**20
        # The stepping alone, words allocated beforehand: a site block and
        # its temporaries take about 1.7 MB, a block of 4x the codes 4 MB.
        words = rows_to_words(circulant(60, 30).rows, 60)
        words = np.broadcast_to(words, (4096, *words.shape)).copy()
        tracemalloc.start()
        try:
            for sites in _site_blocks(spec.rng(), 60, 60, 200, 4096):
                _switch_words(words, 60, 60, sites)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


class TestPermutationModel:
    def test_single_factor_is_permutation_matrix(self):
        spec = SamplerSpec(kind="permutation_model", n=6, d=1, seed=9)
        mult = multiplicity(sample_many(spec, 1)[0])
        assert set(np.unique(mult)) <= {0, 1}
        assert (mult.sum(axis=0) == 1).all() and (mult.sum(axis=1) == 1).all()

    def test_margins_equal_d(self):
        spec = SamplerSpec(kind="permutation_model", n=7, d=4, seed=9)
        for perms in sample_many(spec, 10):
            assert all(sorted(perm) == list(range(7)) for perm in perms)
            mult = multiplicity(perms)
            assert (mult.sum(axis=0) == 4).all() and (mult.sum(axis=1) == 4).all()

    def test_double_entry_probability_quarter(self):
        # n = 2, d = 2: entry (0, 0) = 2 iff both factors are the identity.
        spec = SamplerSpec(kind="permutation_model", n=2, d=2, seed=13)
        perms = permutation_batch(spec, 40_000)
        hits = ((perms[:, 0, 0] == 0) & (perms[:, 1, 0] == 0)).sum()
        phat = hits / 40_000
        se = math.sqrt(0.25 * 0.75 / 40_000)
        assert abs(phat - 0.25) < 4 * se

    @pytest.mark.parametrize("n, dtype", [(5, np.uint8), (256, np.uint8), (257, np.uint16), (300, np.uint16)])
    def test_narrow_labels_keep_the_stream(self, n, dtype):
        # The same permutations as shuffling int64 labels on the same stream.
        spec = SamplerSpec(kind="permutation_model", n=n, d=3, seed=21)
        perms = permutation_batch(spec, 7)
        wide = spec.rng().permuted(np.tile(np.arange(n, dtype=np.int64), (7 * 3, 1)), axis=1)
        assert perms.dtype == dtype
        assert np.array_equal(perms.reshape(7 * 3, n), wide)

    @pytest.mark.parametrize("d", [0, 1, 4])
    def test_objects_are_the_rows_of_draw(self, d):
        spec = SamplerSpec(kind="permutation_model", n=9, d=d, seed=8)
        batch, _ = draw(spec, 5)
        objects = sample_many(spec, 5)
        assert len(objects) == 5
        for k, perms in enumerate(objects):
            assert perms.shape == (d, 9) and perms.dtype == batch.dtype
            assert perms.tobytes() == batch[k].tobytes()


class TestPackedMembers:
    """sample_many builds class members from row words after one margin
    check of the whole batch, in place of a full validation per draw."""

    @pytest.mark.parametrize(
        "spec",
        [
            SamplerSpec(kind="rejection", n=12, d=3, seed=1),
            SamplerSpec(kind="rejection", n=70, d=2, seed=2),
            SamplerSpec(kind="switch_mcmc", n=130, d=40, steps=300, seed=3),
            SamplerSpec(kind="switch_mcmc", n=9, d=3, m=6, dp=2, steps=300, seed=2),
        ],
        ids=["rejection", "rejection-two-words", "switch-three-words", "switch-biregular"],
    )
    def test_equal_to_validated_matrices(self, spec):
        mats = sample_many(spec, 5)
        words, _ = draw(spec, 5)
        assert mats == [BiregularBitMatrix.from_dense(x) for x in words_to_dense(words, spec.n)]
        assert all((mat.m, mat.d, mat.dp) == (spec.m, spec.d, spec.dp) for mat in mats)

    @pytest.mark.parametrize(
        "flips",
        [[(0, 1, 63)], [(0, 0, 5), (1, 0, 5)], [(0, 0, 0), (0, 0, 5)]],
        ids=["pad-bit", "row-sums", "column-sums"],
    )
    def test_margin_check_rejects_a_non_member(self, flips):
        spec = SamplerSpec(kind="switch_mcmc", n=70, d=5, steps=0)
        words, _ = draw(spec, 3)
        # Rows 0 and 1 hold columns 0-4 and 1-5.  Moving column 5 from row 1
        # to row 0 keeps every column sum, and moving row 0's column 0 to
        # column 5 keeps every row sum.
        for row, word, bit in flips:
            words[2, row, word] ^= np.uint64(1) << np.uint64(bit)
        with pytest.raises(InvalidMatrixError):
            _members(spec, words)
        _members(spec, words[:2])


class TestErdosRenyi:
    def test_p_zero_and_one(self):
        zero = sample_many(SamplerSpec(kind="erdos_renyi", n=5, p=0.0, seed=0), 1)[0]
        ones = sample_many(SamplerSpec(kind="erdos_renyi", n=5, p=1.0, seed=0), 1)[0]
        assert zero.sum() == 0 and ones.sum() == 25

    def test_mean_edge_count(self):
        spec = SamplerSpec(kind="erdos_renyi", n=50, p=0.2, seed=21)
        batch = words_to_dense(draw(spec, 10_000)[0], spec.n)
        mean_edges = batch.sum(axis=(1, 2)).mean()
        se = math.sqrt(2500 * 0.2 * 0.8 / 10_000)
        assert abs(mean_edges - 500.0) < 4 * se


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            SamplerSpec(kind="rejection", n=8, d=2, seed=3, stream=1),
            SamplerSpec(kind="switch_mcmc", n=8, d=3, steps=200, seed=3, stream=2),
            SamplerSpec(kind="permutation_model", n=9, d=2, seed=3, stream=3),
            SamplerSpec(kind="erdos_renyi", n=9, p=0.4, seed=3, stream=4),
        ],
        ids=lambda s: s.kind,
    )
    def test_identical_spec_identical_sequence(self, spec):
        first = sample_many(spec, 6)
        second = sample_many(spec, 6)
        if spec.kind in ("erdos_renyi", "permutation_model"):
            assert all((a == b).all() for a, b in zip(first, second))
        else:
            assert first == second

    def test_distinct_streams_differ(self):
        a = SamplerSpec(kind="switch_mcmc", n=8, d=3, steps=200, seed=3, stream=0)
        b = SamplerSpec(kind="switch_mcmc", n=8, d=3, steps=200, seed=3, stream=1)
        assert sample_many(a, 5) != sample_many(b, 5)

    def test_stream_generator_reproducible(self):
        g1 = stream_generator(123, 7)
        g2 = stream_generator(123, 7)
        assert (g1.integers(0, 1000, 20) == g2.integers(0, 1000, 20)).all()


class TestEnumeration:
    def test_permutation_class(self):
        assert len(list(enumerate_all(3, 3, 1, 1))) == 6

    def test_single_matrix_classes(self):
        assert len(list(enumerate_all(4, 4, 4, 4))) == 1
        assert len(list(enumerate_all(4, 4, 0, 0))) == 1

    def test_class_4_2_matches_brute_force(self, class_4_2):
        brute = brute_force_class_4_2()
        assert len(brute) == 90
        assert set(mat.rows for mat in class_4_2) == set(brute)
        assert len(class_4_2) == 90

    def test_lexicographic_packed_order(self, class_4_2):
        keys = [mat.rows for mat in class_4_2]
        assert keys == sorted(keys)

    def test_guard(self):
        with pytest.raises(SearchSpaceTooLarge):
            list(enumerate_all(12, 12, 5, 5))

    def test_biregular_enumeration_consistency(self):
        mats = list(enumerate_all(3, 6, 2, 1))
        for mat in mats:
            mat.validate()
        # every 6-column pairing of 3 disjoint 2-subsets, counted directly:
        # choose the support of row 0 (C(6,2)), row 1 (C(4,2)), row 2 forced.
        assert len(mats) == 15 * 6

    def test_stream_is_lazy(self):
        gen = enumerate_all(4, 4, 2, 2)
        first = next(gen)
        assert isinstance(first, BiregularBitMatrix)


class TestPinnedStreams:
    """SHA-256 of draw(spec, count)'s array bytes for each kind, and for the
    switch chain's lone-chain and batch paths on one word and on three.  A
    change to any kernel's stream, its block shapes or its output layout
    shows here; a change that means to alter a stream updates its digest
    and says so in CHANGES.md."""

    @pytest.mark.parametrize(
        "spec, count, attempts, digest",
        [
            (SamplerSpec(kind="rejection", n=8, d=3, seed=11), 5, 49,
             "6d6566d13d71311db75e2157832d86e4828a1d5f6cd6c4488f4a1c51e5c221b7"),
            (SamplerSpec(kind="rejection", m=6, n=9, d=3, dp=2, seed=12), 5, 23,
             "2cef8820befeecb629f7fb05f9c5860793310df923fa6008ff3a33124d1e76a2"),
            (SamplerSpec(kind="switch_mcmc", n=8, d=3, steps=200, seed=13), 1, 1,
             "fe8c7283719141e599a07508511ed3d6daa6b4ba461ced62f5503cfcacf2c153"),
            (SamplerSpec(kind="switch_mcmc", n=8, d=3, steps=200, seed=13), 3, 3,
             "e41ce0eaf7ba2827573e378e711be5f9bc0a32937e738277883e490869c89403"),
            (SamplerSpec(kind="switch_mcmc", n=130, d=5, steps=2000, seed=14), 1, 1,
             "f6874a69ad8cfe63b26023338b9870b025ce33213eb2010d1e8e6293bf9a06c6"),
            (SamplerSpec(kind="switch_mcmc", n=130, d=5, steps=2000, seed=14), 3, 3,
             "9b2acb2920eeb3579389f228f9727e9c64b0cb22c4ddf3740eee04c9ed7d727c"),
            (SamplerSpec(kind="permutation_model", n=7, d=2, seed=15), 4, 4,
             "e020506860acebaf3d13a5671f4500965649c4ad37ff8c79fae98a38fae3d8bd"),
            (SamplerSpec(kind="erdos_renyi", n=9, p=0.3, seed=16), 4, 4,
             "8da3cbd8540031c8c3fc12af53355e0a9f2b01fe9578da099ee073bd6e99ac3c"),
        ],
        ids=["rejection", "rejection-biregular", "switch-lone-chain", "switch-batch",
             "switch-lone-chain-three-words", "switch-batch-three-words", "permutation_model",
             "erdos_renyi"],
    )
    def test_digest(self, spec, count, attempts, digest):
        batch, made = draw(spec, count)
        assert made == attempts
        assert hashlib.sha256(batch.tobytes()).hexdigest() == digest


class TestDimensionMessages:
    @pytest.mark.parametrize(
        "fields, name",
        [({"n": 0, "d": 0}, "n"), ({"n": -2, "d": 0}, "n"), ({"n": 3, "d": 0, "m": 0, "dp": 0}, "m")],
    )
    @pytest.mark.parametrize("kind", ["rejection", "switch_mcmc", "permutation_model"])
    def test_names_the_field(self, kind, fields, name):
        with pytest.raises(ValueError, match=rf"sampler field '{name}' must be >= 1, got {fields[name]}"):
            SamplerSpec(kind=kind, **fields)
