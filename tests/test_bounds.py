import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrdigraph import bounds
from rrdigraph.bounds import (
    _THEOREMS,
    THEOREMS,
    TailBoundSpec,
    check_pseudorandom_implication,
    eval_bound,
)
from rrdigraph.matrices import VertexSetPair, codegree, edge_count
from rrdigraph.samplers import SamplerSpec, SearchSpaceTooLarge, circulant, sample_many, stream_generator

from conftest import all_set_pairs, gram_codegrees, matrix_from_strings
from oracles import corollary_good_event

FULL3 = matrix_from_strings(["111", "111", "111"])


class TestEvalBound:
    def test_codegree_upper_example(self):
        bv = eval_bound(TailBoundSpec(theorem="codegree_upper", n=100, d=50, deviation=1.0))
        assert bv.value == pytest.approx(math.exp(-25 / 6), rel=1e-12)
        assert bv.valid

    def test_edge_twosided_vacuous_at_zero(self):
        bv = eval_bound(TailBoundSpec(theorem="edge_twosided", n=8, d=3, a=2, b=5))
        assert bv.value == 2.0 and bv.valid

    def test_perm_edge_example(self):
        bv = eval_bound(
            TailBoundSpec(theorem="perm_edge", n=20, d=3, a=10, b=20, deviation=1.0)
        )
        assert bv.value == pytest.approx(2 * math.exp(-10), rel=1e-12)

    def test_paper_constants_are_labelled(self):
        bv = eval_bound(
            TailBoundSpec(theorem="edge_upper", n=8, d=3, a=2, b=2, deviation=0.5)
        )
        assert bv.constants["c1"] == (64.0, "paper")
        assert bv.constants["c2"] == (8.0, "paper")

    def test_unpinned_constants_are_labelled_chosen(self):
        bv = eval_bound(
            TailBoundSpec(theorem="codegree_uniform", n=30, d=6, deviation=1.0)
        )
        assert all(source == "chosen" for _, source in bv.constants.values())
        bv = eval_bound(
            TailBoundSpec(theorem="er_codegree", n=30, p=0.2, deviation=1.0)
        )
        assert bv.constants["c"][1] == "chosen"

    def test_side_condition_flags(self):
        ok = eval_bound(
            TailBoundSpec(
                theorem="edge_upper", n=60, d=30, a=30, b=30, deviation=0.5, eta=1 / 16
            )
        )
        assert ok.valid  # eta = 1/16 = tau/8 exactly
        bad = eval_bound(
            TailBoundSpec(
                theorem="edge_upper", n=60, d=30, a=30, b=30, deviation=0.5, eta=0.2
            )
        )
        assert not bad.valid
        lower = eval_bound(
            TailBoundSpec(
                theorem="edge_lower", n=60, d=30, a=30, b=30, deviation=0.5, eta=0.12
            )
        )
        assert lower.valid  # eta <= tau/4

    def test_mu_hat_uses_complement_minimum(self):
        near_full = eval_bound(
            TailBoundSpec(theorem="edge_twosided", n=10, d=5, a=9, b=9, deviation=1.0)
        )
        small = eval_bound(
            TailBoundSpec(theorem="edge_twosided", n=10, d=5, a=1, b=1, deviation=1.0)
        )
        # mu_hat(9,9) = p*min(81, 1) = p: identical to mu_hat(1,1).
        assert near_full.value == pytest.approx(small.value, rel=1e-12)

    @pytest.mark.parametrize("tau", [0.25, 0.5, 1.0, 2.0])
    def test_edge_bound_coincides_with_self_bounding_tail(self, tau):
        # Feeding the self-bounding constants K1 = 2 n^2 d_hat^2 mu,
        # K2 = n d_hat, t = (tau/2) p(1-p) n^2 mu into the generic tail at
        # half density (where d_hat/(p(1-p)n) = 2 exactly) reproduces the
        # displayed edge bound exp(-tau^2 mu / (64 + 8 tau)).
        from rrdigraph.exchangeable import chatterjee_tail

        n, a, b = 16, 5, 7
        d = n // 2
        mu = d * a * b / n
        evaluated = eval_bound(
            TailBoundSpec(theorem="edge_upper", n=n, d=d, a=a, b=b, deviation=tau)
        )
        k1 = 2 * n**2 * d**2 * mu
        k2 = n * d
        t = 0.5 * tau * 0.25 * n**2 * mu
        upper, _ = chatterjee_tail(k1, k2, t)
        assert evaluated.value == pytest.approx(upper, rel=1e-12)

    def test_bipartite_edge_uses_m(self):
        bv_square = eval_bound(
            TailBoundSpec(theorem="bipartite_edge", n=9, d=3, m=9, a=5, b=5, deviation=1.0)
        )
        bv_rect = eval_bound(
            TailBoundSpec(theorem="bipartite_edge", n=9, d=3, m=6, a=5, b=5, deviation=1.0)
        )
        # mu_hat differs: min(25, 4*4) vs min(25, 1*4).
        assert bv_rect.value > bv_square.value

    @pytest.mark.parametrize("theorem", [t for t in THEOREMS])
    def test_monotone_in_deviation_and_vanishing(self, theorem):
        optional = dict(d=6, m=24, a=6, b=8, p=0.25, eta=None)
        kwargs = dict(n=24, **{k: v for k, v in optional.items() if k in _THEOREMS[theorem].reads})
        grid = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        values = [
            eval_bound(TailBoundSpec(theorem=theorem, deviation=g, **kwargs)).value
            for g in grid
        ]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-12
        assert values[0] >= values[-1]
        huge = eval_bound(TailBoundSpec(theorem=theorem, deviation=5000.0, **kwargs)).value
        assert huge < 1e-6 * max(values[0], 1.0)

    def test_negative_deviation_rejected(self):
        with pytest.raises(ValueError):
            TailBoundSpec(theorem="codegree_upper", n=10, d=2, deviation=-0.5)

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError):
            TailBoundSpec(theorem="nonsense", n=10, d=2)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(n=5, d=6),
            dict(n=5, d=-1),
            dict(n=9, m=6, d=3, a=7, b=1),
            dict(n=9, m=6, d=3, a=0, b=1),
            dict(n=9, m=6, d=3, a=1, b=10),
            dict(n=5, d=2, a=6, b=1),
        ],
    )
    def test_sizes_outside_the_class_rejected(self, fields):
        with pytest.raises(ValueError, match="bound field '(d|a|b)' must be in"):
            TailBoundSpec(theorem="bipartite_edge", deviation=1.0, **fields)

    def test_sizes_at_the_class_edges_accepted(self):
        spec = TailBoundSpec(theorem="bipartite_edge", n=9, m=6, d=9, a=6, b=9, deviation=1.0)
        assert eval_bound(spec).value > 0

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError, match="bound field 'p' is required by theorem 'er_codegree'"):
            eval_bound(TailBoundSpec(theorem="er_codegree", n=10, deviation=1.0))

    def test_unread_field_rejected(self):
        with pytest.raises(ValueError, match="bound field 'p' is not read by theorem 'codegree_upper'"):
            TailBoundSpec(theorem="codegree_upper", n=10, d=3, deviation=1.0, p=0.5)

    @pytest.mark.parametrize("p", [2.0, -0.5, float("nan")])
    def test_p_outside_the_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match=r"bound field 'p' must be in \[0, 1\]"):
            TailBoundSpec(theorem="er_codegree", n=10, p=p, deviation=1.0)

    def test_range_checks_run_before_the_read_check(self):
        with pytest.raises(ValueError, match="bound field 'a' must be in"):
            TailBoundSpec(theorem="codegree_upper", n=10, d=3, a=11)


def violating_sizes_oracle(matrix, eps, constant):
    """{(A, b)}: row sets A with some |B| = b, both at least n/(eps d), that
    break |e/(p a b) - 1| <= sqrt(constant eps n / max(a, b)), from every
    (A, B) pair and the inequality squared in Fractions."""
    n, d = matrix.n, matrix.d
    out = set()
    for A, B in all_set_pairs(n, n):
        a, b = len(A), len(B)
        if min(a, b) < n / (eps * d):
            continue
        e = sum(matrix.dense()[i, j] for i in A for j in B)
        if Fraction((n * int(e) - d * a * b) ** 2 * max(a, b)) > constant * Fraction(eps) * n * (d * a * b) ** 2:
            out.add((A, b))
    return out


# (n, d, eps) of one switch-chain draw each; a draw that fails the hypothesis is skipped.
_SCAN_CASES = [(n, d, eps) for n in (4, 5, 6) for d in (1, n // 2, n - 1) for eps in (0.5, 1.0, 3.0)]


class TestPseudorandomImplication:
    def test_complete_digraph_trivial(self):
        report = check_pseudorandom_implication(FULL3, eps=0.5)
        assert report.hypothesis_holds and report.conclusion_holds

    def test_exhaustive_on_class(self, class_4_2):
        for mat in class_4_2:
            co_max = max(
                max(codegree(mat, i1, i2).co, codegree(mat.transpose(), i1, i2).co)
                for i1 in range(4)
                for i2 in range(i1 + 1, 4)
            )
            # smallest eps for which the hypothesis holds: n*co <= (1+eps)d^2
            eps_star = Fraction(4 * co_max, 4) - 1  # p^2 n = 1 here
            for eps in (eps_star if eps_star > 0 else Fraction(1, 2), Fraction(2)):
                report = check_pseudorandom_implication(mat, eps=float(eps))
                if report.hypothesis_holds:
                    assert report.conclusion_holds, (mat.rows, eps)

    def test_hypothesis_violation_reported_without_conclusion(self):
        block = matrix_from_strings(["1100", "1100", "0011", "0011"])
        # max co = 2 = 2 * p^2 n, so eps = 0.5 fails the hypothesis.
        report = check_pseudorandom_implication(block, eps=0.5)
        assert not report.hypothesis_holds
        assert report.pairs_checked == 0 and not report.violations

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            check_pseudorandom_implication(FULL3, eps=0.0)

    def _scan_against_oracle(self, constant):
        """The exhaustive path's violating (A, b) set, each witness checked,
        against the oracle's; returns how many violations were seen."""
        seen = 0
        for n, d, eps in _SCAN_CASES:
            mat = sample_many(SamplerSpec(kind="switch_mcmc", n=n, d=d, steps=20 * n, seed=n + 7 * d), 1)[0]
            report = check_pseudorandom_implication(mat, eps=eps)
            if not report.hypothesis_holds:
                continue
            got = {(A, len(B)) for A, B in report.violations}
            assert len(got) == len(report.violations)
            assert got == violating_sizes_oracle(mat, eps, constant), (n, d, eps)
            for A, B in report.violations:
                colsums = mat.dense()[list(A)].sum(axis=0)
                ranked = sorted(colsums)
                assert sorted(colsums[list(B)]) in (ranked[: len(B)], ranked[n - len(B) :])
                a, b = len(A), len(B)
                dev = abs(n * edge_count(mat, VertexSetPair.of(A, B)) - d * a * b)
                assert dev > bounds._allowed_deviation(n, d, Fraction(eps), a, b)
            seen += len(report.violations)
        return seen

    def test_exhaustive_scan_equals_the_oracle(self):
        self._scan_against_oracle(2)

    def test_tightened_constant_gives_the_same_violations(self, monkeypatch):
        # A negative control: with the conclusion's constant cut from 2 to
        # 1/5 the conclusion fails, and the scan must find what the oracle does.
        monkeypatch.setattr(bounds, "_CONCLUSION_C", Fraction(1, 5))
        assert self._scan_against_oracle(Fraction(1, 5)) > 0

    @pytest.mark.parametrize("n, d, eps", [(6, 3, 1.0), (8, 4, 2.0), (10, 5, 0.9), (12, 6, 1.5)])
    def test_pairs_checked_closed_form(self, n, d, eps):
        mat = sample_many(SamplerSpec(kind="switch_mcmc", n=n, d=d, seed=1), 1)[0]
        report = check_pseudorandom_implication(mat, eps=eps)
        assert report.hypothesis_holds
        lo = max(1, math.ceil(n / (eps * d)))
        assert report.pairs_checked == sum(math.comb(n, s) for s in range(lo, n + 1)) * (n - lo + 1)

    def test_guard_only_for_a_non_empty_family(self):
        n = 15
        mat = sample_many(SamplerSpec(kind="switch_mcmc", n=n, d=7, steps=200, seed=2), 1)[0]
        with pytest.raises(SearchSpaceTooLarge):
            check_pseudorandom_implication(mat, eps=10.0)
        # n / (eps d) = 30 > n: no set qualifies, at any n.
        report = check_pseudorandom_implication(circulant(n, 1), eps=0.5)
        assert report.hypothesis_holds and report.pairs_checked == 0 and not report.violations

    @pytest.mark.parametrize("n, d", [(1, 1), (8, 3), (65, 20), (130, 40)])
    def test_worst_codegree_equal_to_the_gram_oracle(self, n, d):
        # The hypothesis fails at eps = 0.01 on every draw here but n = 1,
        # which has no row pair and reports 0.
        mat = sample_many(SamplerSpec(kind="switch_mcmc", n=n, d=d, steps=20 * n, seed=n), 1)[0]
        co = [gram_codegrees(mat.dense()), gram_codegrees(mat.dense().T)]
        worst = max(int(c.max(initial=0)) for c in co)
        report = check_pseudorandom_implication(mat, eps=0.01)
        assert report.worst_codegree_scaled == n * worst
        assert report.hypothesis_holds is (n == 1)


class TestCorollarySweep:
    def test_vacuous_when_threshold_exceeds_n(self):
        mat = matrix_from_strings(["10", "01"])
        report = corollary_good_event(mat, eps=0.9, c0=100.0, samples=10)
        assert report.vacuous and report.checked == 0

    def test_full_sets_never_violate(self, pool_8_3):
        mat = pool_8_3[0]
        pair = VertexSetPair.of(range(8), range(8))
        assert edge_count(mat, pair) == pair.mu(mat)

    def test_sampled_family_report(self):
        spec = SamplerSpec(kind="switch_mcmc", n=30, d=15, steps=2000, seed=55)
        mat = sample_many(spec, 1)[0]
        report = corollary_good_event(
            mat, eps=0.5, c0=1.0, samples=300, rng=stream_generator(5, 5)
        )
        assert not report.vacuous
        assert report.checked == 300
        assert 0 <= report.violations <= 300
        assert report.max_normalized >= 0.0

    def test_eps_range(self):
        with pytest.raises(ValueError):
            corollary_good_event(FULL3, eps=1.5)


# eval_bound at fixed inputs, one or more per theorem, as (theorem, fields,
# value, valid): values recorded from the if-chain that the theorem table
# replaced, or, for rows without a caller-set constant there, from
# eval_bound at the theorem's own constants.
_PINNED = [
    ("codegree_upper", dict(n=40, d=7, deviation=0.75), 0.8822462288460213, True),
    ("codegree_uniform", dict(n=40, d=7, deviation=3.0), 58001.95807790781, True),
    # d_hat = min(d, n - d): d = 33 gives the value of d = 7.
    ("codegree_uniform", dict(n=40, d=33, deviation=3.0), 58001.95807790781, True),
    ("edge_upper", dict(n=40, d=7, a=9, b=13, deviation=0.5, eta=0.05), 0.9274877099703895, True),
    ("edge_upper", dict(n=40, d=7, a=9, b=13, deviation=0.5, eta=0.07), 0.9274877099703895, False),
    ("edge_lower", dict(n=40, d=7, a=9, b=13, deviation=0.5, eta=0.125), 0.9231343761788477, True),
    ("edge_lower", dict(n=40, d=7, a=9, b=13, deviation=0.5, eta=0.13), 0.9231343761788477, False),
    ("edge_twosided", dict(n=40, d=7, a=35, b=30, deviation=1.5), 1.54357495876165, True),
    ("perm_edge", dict(n=40, d=3, a=12, b=12, deviation=0.5), 0.6791910512898782, True),
    ("er_codegree", dict(n=40, p=0.3, deviation=2.0), 1.8554869726571057, True),
    ("er_edge", dict(n=40, p=0.3, a=10, b=20, deviation=2.0), 0.5730095937203803, True),
    ("bipartite_codegree_uniform", dict(n=9, m=6, d=3, deviation=0.5), 326.73450147196206, True),
    ("bipartite_edge", dict(n=9, m=6, d=3, a=5, b=5, deviation=1.0, eta=0.125), 1.9633037913693197, True),
    ("bipartite_edge", dict(n=9, m=6, d=3, a=5, b=5, deviation=3.0), 1.7450505857388476, True),
    # K1 = 0 at d_hat = 0 or d = 0, where t = 0 too: the trivial bound.
    ("codegree_upper", dict(n=10, d=0, deviation=1.0), 1.0, True),
    ("codegree_upper", dict(n=10, d=10, deviation=1.0), 1.0, True),
    ("perm_edge", dict(n=10, d=0, a=2, b=3, deviation=1.0), 2.0, True),
]


class TestPinnedBounds:
    @pytest.mark.parametrize("theorem, fields, value, valid", _PINNED)
    def test_value_and_validity(self, theorem, fields, value, valid):
        bv = eval_bound(TailBoundSpec(theorem=theorem, **fields))
        assert bv.value == value
        assert bv.valid is valid

    def test_every_theorem_is_pinned(self):
        assert {case[0] for case in _PINNED} == set(THEOREMS)


# A value in range for each optional field at n = 24, d = 6.
_BOUND_VALUES = dict(d=6, m=24, a=6, b=8, eta=0.1, p=0.25)


class TestOptionalFields:
    """A spec is accepted exactly when the optional fields set are among the
    ones its theorem reads and cover the ones it requires."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(THEOREMS), st.sets(st.sampled_from(sorted(_BOUND_VALUES))))
    def test_bound_spec_accepts_exactly_the_read_fields(self, theorem, names):
        row = _THEOREMS[theorem]
        accepted = names <= set(row.reads) and set(row.requires) <= names
        fields = {name: _BOUND_VALUES[name] for name in names}
        try:
            TailBoundSpec(theorem=theorem, n=24, deviation=1.0, **fields)
        except ValueError:
            assert not accepted
        else:
            assert accepted
