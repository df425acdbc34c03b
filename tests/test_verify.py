"""The verify suites: one class draw shared by the class suites, one f per
draw handed to its v_f, and failures attributed to the record whose check
broke."""

import hashlib
import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rrdigraph import exchangeable, verify
from rrdigraph.bounds import TailBoundSpec, eval_bound
from rrdigraph.exchangeable import InvariantViolation, good_event_co
from rrdigraph.matrices import BiregularBitMatrix, InvalidMatrixError
from rrdigraph.samplers import SamplerSpec, sample_many, stream_generator
from rrdigraph.verify import run_suite

from conftest import reflection_vf_oracle, switching_vf_oracle
from oracles import multiplicity

# (n, d, samples, m, dp); the biregular class has m = 6 rows of degree 3
# over n = 9 columns of degree 2.
_CONFIGS = [
    (16, 4, 200, None, None),
    (12, 3, 200, None, None),
    (9, 3, 200, 6, 2),
    (8, 0, 50, None, None),
]


def _records(results):
    return [(r.suite, r.to_dict()) for r in results]


class TestSharedDraw:
    @pytest.mark.parametrize("n,d,samples,m,dp", _CONFIGS)
    def test_all_equals_the_single_suites_in_order(self, n, d, samples, m, dp):
        whole = run_suite("all", n, d, samples, seed=5, m=m, dp=dp)
        parts = [
            result
            for suite in ("reflection", "switching")
            for result in run_suite(suite, n, d, samples, seed=5, m=m, dp=dp)
        ]
        assert _records(whole[:2]) == _records(parts)
        # The permutation suite reads no m or dp; "all" echoes the class's.
        (alone,) = run_suite("permutation", n, d, samples, seed=5)
        assert alone.records == whole[2].records
        assert alone.config == dict(whole[2].config, m=n, dp=d)

    @pytest.mark.parametrize(
        "suite,kinds",
        [
            ("all", ["rejection", "permutation_model"]),
            ("reflection", ["rejection"]),
            ("switching", ["rejection"]),
            ("permutation", ["permutation_model"]),
        ],
    )
    def test_one_class_draw(self, monkeypatch, suite, kinds):
        seen = []
        sample_many = verify.sample_many

        def counting(spec, count):
            seen.append(spec.kind)
            return sample_many(spec, count)

        monkeypatch.setattr(verify, "sample_many", counting)
        run_suite(suite, 10, 3, 5, seed=1)
        assert seen == kinds

    def test_steps_reach_the_chain(self, monkeypatch):
        specs = []
        sample_many = verify.sample_many

        def recording(spec, count):
            specs.append(spec)
            return sample_many(spec, count)

        monkeypatch.setattr(verify, "sample_many", recording)
        (result,) = run_suite("switching", 10, 5, 2, seed=1, steps=7)
        assert [(spec.kind, spec.steps) for spec in specs] == [("switch_mcmc", 7)]
        assert result.config["steps"] == 7

    @pytest.mark.parametrize(
        "suite,n,d",
        [("permutation", 10, 3), ("all", 10, 2), ("reflection", 10, 8), ("switching", 10, 1),
         ("all", 10, 3), ("reflection", 16, 4)],
    )
    def test_steps_rejected_where_no_chain_runs(self, monkeypatch, suite, n, d):
        monkeypatch.setattr(verify, "sample_many", None)  # any draw would raise TypeError
        with pytest.raises(ValueError, match="verify field 'steps' is not read"):
            run_suite(suite, n, d, 3, steps=5)

    @pytest.mark.parametrize(
        "argv",
        [("all", 1, 1, 3, None), ("permutation", 1, 0, 3, None), ("reflection", 4, 1, 3, 1)],
    )
    def test_sizes_checked_before_any_draw(self, monkeypatch, argv):
        suite, n, d, samples, m = argv
        monkeypatch.setattr(verify, "sample_many", None)  # any draw would raise TypeError
        with pytest.raises(ValueError, match="verify field '[nm]' must be >= 2"):
            run_suite(suite, n, d, samples, m=m, dp=None if m is None else 4)


class TestDrawRule:
    """The class suites draw by rejection where the class or its complement
    has k = (d - 1)(dp - 1) at most 9, and run the switch chain elsewhere.
    The spec is the asked class's either way; rejection_words draws the side
    with the smaller k."""

    # (n, d, m, dp) -> the kind drawn and the (d, dp) of its spec; the comment
    # gives k for the class and for its complement.
    _CASES = [
        ((16, 4, None, None), "rejection", (4, 4)),  # 9 and 121
        ((16, 5, None, None), "switch_mcmc", (5, 5)),  # 16 and 100
        ((16, 12, None, None), "rejection", (12, 12)),  # 121 and 9: the kernel draws the complement
        ((9, 3, 6, 2), "rejection", (3, 2)),  # 2 and 15
        ((10, 5, None, None), "switch_mcmc", (5, 5)),  # 16 and 16
        ((4, 2, 22, 11), "switch_mcmc", (2, 11)),  # 10 and 10
        ((4, 2, 40, 20), "switch_mcmc", (2, 20)),  # 19 and 19: acceptance near e^-9.5
        ((8, 0, None, None), "rejection", (0, 0)),  # 1 and 36
    ]
    _IDS = ["n16-d4", "n16-d5", "n16-d12", "6x9-d3", "n10-d5", "22x4-d2", "40x4-d2", "n8-d0"]

    @staticmethod
    def _recorded(monkeypatch):
        specs = []
        monkeypatch.setattr(verify, "sample_many", lambda spec, count: specs.append(spec) or [])
        return specs

    @pytest.mark.parametrize("shape, kind, drawn", _CASES, ids=_IDS)
    def test_kind_and_side(self, monkeypatch, shape, kind, drawn):
        specs = self._recorded(monkeypatch)
        n, d, m, dp = shape
        verify._sample_matrices(n, d, 3, 1, m=m, dp=dp)
        (spec,) = specs
        assert (spec.kind, (spec.d, spec.dp)) == (kind, drawn)
        if kind == "rejection":
            assert spec.max_attempts == verify._REJECTION_ATTEMPTS == 4096
        else:
            assert spec.steps == min(100 * n * d, 4000)

    @pytest.mark.parametrize("shape, kind, drawn", _CASES, ids=_IDS)
    def test_steps_read_exactly_where_the_chain_runs(self, monkeypatch, shape, kind, drawn):
        specs = self._recorded(monkeypatch)
        n, d, m, dp = shape
        if kind == "switch_mcmc":
            run_suite("switching", n, d, 3, m=m, dp=dp, steps=5)
            assert [(spec.kind, spec.steps) for spec in specs] == [("switch_mcmc", 5)]
        else:
            with pytest.raises(ValueError, match="verify field 'steps' is not read"):
                run_suite("switching", n, d, 3, m=m, dp=dp, steps=5)
            assert specs == []

    @pytest.mark.parametrize(
        "d, m, dp, message",
        [(18, None, None, "verify field 'd' must be in"), (4, 10, 3, "edge-count mismatch")],
    )
    def test_the_class_is_checked_before_steps(self, monkeypatch, d, m, dp, message):
        specs = self._recorded(monkeypatch)
        with pytest.raises(ValueError, match=message):
            run_suite("all", 16, d, 3, m=m, dp=dp, steps=5)
        assert specs == []


class TestReusedF:
    """The v_f that each suite computes from the f it hands over equals the
    site-by-site oracles."""

    @pytest.mark.parametrize("n,d,samples", [(30, 10, 3), (60, 4, 2)])
    def test_suite_vf_equals_the_oracles(self, monkeypatch, n, d, samples):
        seen = {"reflection": [], "switching": []}

        def recording(name, vf):
            def wrapper(mat, *args):
                diag = vf(mat, *args)
                seen[name].append((mat, args, diag.v_f, diag.max_step))
                return diag
            return wrapper

        monkeypatch.setattr(verify, "reflection_vf", recording("reflection", verify.reflection_vf))
        monkeypatch.setattr(verify, "switching_vf", recording("switching", verify.switching_vf))
        results = run_suite("all", n, d, samples, seed=7)
        assert all(r.ok for r in results)
        assert [len(seen[name]) for name in seen] == [samples, samples]
        for mat, (i1, i2, _), v_f, worst in seen["reflection"]:
            total, oracle_worst = reflection_vf_oracle(mat, i1, i2)
            assert (v_f, worst) == (Fraction(total, 2 * n * n), oracle_worst)
        for mat, (pair, _), v_f, worst in seen["switching"]:
            total, oracle_worst = switching_vf_oracle(mat, pair)
            assert (v_f, worst) == (Fraction(total, 2), oracle_worst)


class TestPinnedPayload:
    """SHA-256 of run_suite("all")'s records, worst margins and details
    included: rejection at n = 16 and on the biregular class, the one-word
    batch chain at n = 60 and wide rows at n = 130.  Like TestPinnedStreams,
    the digests assume NumPy's Philox and bounded-integer streams stay as
    they are."""

    @pytest.mark.parametrize(
        "n, d, samples, kwargs, digest",
        [
            (16, 4, 200, dict(seed=3),
             "f13f6f613a1f0336e01a59bff4f37eec6b91ad6cc9cd1a1e3b7cf8f484649d3a"),
            (9, 3, 200, dict(m=6, dp=2, seed=3),
             "fc1ccaa773de0586867cf5acb10454bbf9bc1ea131224f88bf21020cff96d6c5"),
            (60, 30, 5, dict(seed=0),
             "ad9b52b4d64f2bb80ec98fea6741c34d109409e453f0b2a436f8e0e43e1ae65b"),
            (130, 5, 3, dict(seed=1),
             "03a18c2d154534526d2748b904f6f91d1ec4361a1f224ca221edf4cfe2643fe4"),
        ],
        ids=["n16-d4", "biregular-6x9", "n60-d30", "n130-d5"],
    )
    def test_digest(self, n, d, samples, kwargs, digest):
        results = run_suite("all", n, d, samples, **kwargs)
        payload = json.dumps([r.to_dict() for r in results], sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest


class _CountingGenerator:
    """A Generator that appends the name of each method called on it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return counted


class TestUpFrontChoices:
    """Each suite draws its per-draw choices before its loop, in a number of
    Generator calls that does not grow with the sample."""

    @pytest.mark.parametrize("k", [2, 3, 16])
    def test_pair_decode_is_a_bijection(self, k):
        class EveryCode:
            def integers(self, low, high, size):
                assert (low, high, size) == (0, k * (k - 1), k * (k - 1))
                return np.arange(low, high)

        first, second = verify._ordered_pairs(EveryCode(), k, k * (k - 1))
        pairs = list(zip(first.tolist(), second.tolist()))
        assert sorted(pairs) == list(itertools.permutations(range(k), 2))

    @pytest.mark.parametrize("m, n, max_b", [(2, 2, 1), (6, 9, 8), (16, 16, 16)])
    def test_set_pairs_stay_in_range(self, m, n, max_b):
        pairs = list(verify._set_pairs(stream_generator(0, 1), m, n, max_b, 600))
        assert len(pairs) == 600
        # Every size is drawn, the smallest and the largest included.
        assert {pair.a for pair in pairs} == set(range(1, m))
        assert {pair.b for pair in pairs} == set(range(1, max_b + 1))
        for pair in pairs:
            assert pair.rows <= set(range(m)) and pair.cols <= set(range(n))

    def test_generator_calls_do_not_grow_with_the_sample(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            verify, "stream_generator", lambda *key: _CountingGenerator(stream_generator(*key), calls)
        )
        counts = []
        for samples in (20, 200):
            calls.clear()
            run_suite("all", 16, 4, samples, seed=3)
            counts.append(list(calls))
        assert counts[0] == counts[1]

    def test_batched_margins_equal_the_dense_multiplicity(self):
        spec = SamplerSpec(kind="permutation_model", n=7, d=4, seed=9)
        draws = np.stack(sample_many(spec, 30))
        draws[3, 1, 2] = draws[3, 1, 0]  # no longer a permutation: one margin moves
        cols = verify._column_sums(draws)
        for s, perms in enumerate(draws):
            dense = multiplicity(perms)
            # The row sums are d whatever the draw holds, so only the columns are counted.
            assert (dense.sum(axis=1) == 4).all()
            assert cols[s].tolist() == dense.sum(axis=0).tolist()
        assert [s for s in range(30) if (cols[s] != 4).any()] == [3]

    def test_permutation_suite_memory_grows_with_samples_times_n(self):
        # A (samples, n, n) multiplicity cube would take 32 MB here.
        run_suite("permutation", 100, 1, 400, seed=1)
        tracemalloc.start()
        try:
            run_suite("permutation", 100, 1, 400, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20


_ERROR_TERM = "error term: |f2| <= eta*(f1 + 2p(1-p)n*m*mu) at minimal eta"


class TestGoodEventFromTheFPart:
    """The error-term record takes W = max |n*co - d^2| over row pairs from
    the exclusive counts in switching_f's scan, not from good_event_co."""

    @pytest.mark.parametrize("n, d, samples, seed", [(16, 4, 200, 3), (60, 30, 5, 0)])
    def test_w_equals_good_event_co(self, monkeypatch, n, d, samples, seed):
        seen = []
        switching_f = verify.switching_f

        def recording(mat, pair):
            diag = switching_f(mat, pair)
            seen.append((mat, diag.scan[-1]))
            return diag

        monkeypatch.setattr(verify, "switching_f", recording)
        run_suite("switching", n, d, samples, seed=seed)
        assert len(seen) == samples
        for mat, ex in seen:
            want = good_event_co(mat, 0).worst_deviation_scaled
            assert verify._worst_codegree_deviation(mat.n, mat.d, ex) == want

    @pytest.mark.parametrize("n, d, samples, seed", [(12, 3, 20, 4), (16, 4, 200, 3)])
    def test_zero_w_fails_only_the_error_term(self, monkeypatch, n, d, samples, seed):
        (clean,) = run_suite("switching", n, d, samples, seed=seed)
        monkeypatch.setattr(verify, "_worst_codegree_deviation", lambda n, d, ex: 0)
        (planted,) = run_suite("switching", n, d, samples, seed=seed)
        assert _ERROR_TERM in [rec.invariant for rec in planted.records]
        for before, after in zip(clean.records, planted.records):
            if after.invariant == _ERROR_TERM:
                assert (before.status, after.status, after.checked) == ("pass", "fail", samples)
            else:
                assert (after.status, after.checked) == (before.status, before.checked)


_SITE_STEP = "co(M) - co(M~) at the site: +1 on K, -1 on a reflecting I, else 0"


def _status(result):
    return {rec.invariant: (rec.status, rec.checked) for rec in result.records}


class TestAttribution:
    """Planted defects flip the record whose check they break, and only it."""

    n, d, samples = 12, 3, 20

    def _run(self, suite):
        (result,) = run_suite(suite, self.n, self.d, self.samples, seed=4)
        return result

    def _fail_on_call(self, monkeypatch, owner, name, call):
        original = getattr(owner, name)
        calls = []

        def planted(*args):
            calls.append(None)
            if len(calls) == call:
                raise InvariantViolation("planted f defect")
            return original(*args)

        monkeypatch.setattr(owner, name, planted)

    def test_switching_steps_scaled(self, monkeypatch):
        original = exchangeable._switching_steps
        monkeypatch.setattr(
            exchangeable, "_switching_steps", lambda *stats: (10 * s for s in original(*stats))
        )
        status = _status(self._run("switching"))
        assert status["minor-count form equals neighbourhood form; f = f1 + f2"] == (
            "pass", self.samples,
        )
        vf_status, vf_checked = status["switching self-bound v_f <= K2*f + K1 (SELF_BOUND)"]
        assert (vf_status, vf_checked) == ("fail", self.samples)

    def test_switching_f_part_fails(self, monkeypatch):
        self._fail_on_call(monkeypatch, verify, "switching_f", 3)
        result = self._run("switching")
        status = _status(result)
        assert status["minor-count form equals neighbourhood form; f = f1 + f2"] == (
            "fail", self.samples,
        )
        ident = result.records[2]
        assert ident.detail == "planted f defect"
        assert status["error term: |f2| <= eta*(f1 + 2p(1-p)n*m*mu) at minimal eta"] == (
            "pass", self.samples - 1,
        )
        assert status["switching self-bound v_f <= K2*f + K1 (SELF_BOUND)"] == (
            "pass", self.samples - 1,
        )

    def test_reflection_steps_scaled(self, monkeypatch):
        original = exchangeable._k_site_steps
        monkeypatch.setattr(
            exchangeable, "_k_site_steps", lambda *args: 10 * original(*args)
        )
        status = _status(self._run("reflection"))
        assert status["scale-n identity: n*f = n*co - d^2 + b"] == ("pass", self.samples)
        assert status["reflection self-bound v_f <= K2*f + K1 (SELF_BOUND)"] == ("fail", self.samples)

    def test_reflection_f_part_fails(self, monkeypatch):
        self._fail_on_call(monkeypatch, verify, "reflection_f", 3)
        result = self._run("reflection")
        status = _status(result)
        assert status["scale-n identity: n*f = n*co - d^2 + b"] == ("fail", self.samples)
        assert result.records[2].detail == "planted f defect"
        for invariant in (
            _SITE_STEP,
            "walk returns to 0 with at most min(dp, m-dp) up-steps",
            "reflection self-bound v_f <= K2*f + K1 (SELF_BOUND)",
        ):
            assert status[invariant] == ("pass", self.samples - 1)
        # A check made before the f part still counts every draw.
        assert status["reflect twice is the identity"] == ("pass", self.samples)

    @pytest.mark.parametrize("suite", ["reflection", "switching", "permutation"])
    def test_self_bound_failure_books_to_the_self_bound_record(self, monkeypatch, suite):
        clean = self._run(suite).records
        never = property(lambda diag: False)
        monkeypatch.setattr(exchangeable.CouplingDiagnostics, "bound_ok", never)
        records = self._run(suite).records
        # The self-bound record is each suite's last; every other record,
        # the identity one included, reads as it does without the defect.
        assert [(r.status, r.checked) for r in records[:-1]] == [
            (r.status, r.checked) for r in clean[:-1]
        ]
        assert (records[-1].status, records[-1].checked) == ("fail", self.samples)
        assert records[-1].detail.startswith(f"{suite} self-bound failed: v_f = ")

    # The site-step record sees a defect only on draws whose sampled columns
    # form a K or an I minor: 12 of these 200 draws (5 K, 7 I), and none of
    # the 20 draws at n = 12, d = 3 that the tests above use.
    def _site_step_only_fails(self):
        (result,) = run_suite("reflection", 16, 4, 200, seed=3)
        for rec in result.records:
            want = "fail" if rec.invariant == _SITE_STEP else "pass"
            assert (rec.invariant, rec.status, rec.checked) == (rec.invariant, want, 200)

    def test_reflect_as_identity(self, monkeypatch):
        # Still an involution that keeps the class, so only the site step sees it.
        monkeypatch.setattr(verify, "reflect", lambda mat, j1, j2, order: mat)
        self._site_step_only_fails()

    def test_bad_pair_mask_inverted(self, monkeypatch):
        original = exchangeable._bad_mask

        def inverted(*args):
            ex1, ex2, bad, walk_rows = original(*args)
            return ex1, ex2, ~bad, walk_rows

        monkeypatch.setattr(exchangeable, "_bad_mask", inverted)
        self._site_step_only_fails()


class TestMembershipCheck:
    """The membership record books an InvalidMatrixError from `validate` as a
    failure; any other exception there is a bug in the check, so it
    propagates out of the suite."""

    n, d, samples = 12, 3, 20
    _MEMBER = "switching outputs stay in the class"

    def _plant(self, monkeypatch, exc):
        # Planted once the class is drawn, so only the suite's own calls raise.
        def planted(mat):
            raise exc

        original = verify._sample_matrices

        def sample_then_plant(*args):
            mats = original(*args)
            monkeypatch.setattr(BiregularBitMatrix, "validate", planted)
            return mats

        monkeypatch.setattr(verify, "_sample_matrices", sample_then_plant)

    def test_other_exceptions_propagate(self, monkeypatch):
        self._plant(monkeypatch, TypeError("planted bug in validate"))
        with pytest.raises(TypeError, match="planted bug in validate"):
            run_suite("switching", self.n, self.d, self.samples, seed=4)

    def test_invalid_matrix_fails_only_the_membership_record(self, monkeypatch):
        (clean,) = run_suite("switching", self.n, self.d, self.samples, seed=4)
        self._plant(monkeypatch, InvalidMatrixError("planted non-member"))
        (result,) = run_suite("switching", self.n, self.d, self.samples, seed=4)
        for before, after in zip(clean.records, result.records):
            if after.invariant == self._MEMBER:
                assert before.status == "pass" and before.checked > 0
                assert (after.status, after.checked, after.detail) == (
                    "fail", before.checked, "planted non-member",
                )
            else:
                assert after == before


class TestOneSelfBoundTable:
    """verify's self-bound check and the theorem row of the same coupling
    read one SELF_BOUND entry: shrinking it moves both."""

    _ROWS = {
        "reflection": TailBoundSpec(theorem="codegree_upper", n=40, d=7, deviation=0.75),
        "permutation": TailBoundSpec(theorem="perm_edge", n=40, d=3, a=12, b=12, deviation=0.5),
    }

    @pytest.mark.parametrize("coupling", sorted(_ROWS))
    def test_one_entry_moves_the_check_and_the_bound(self, monkeypatch, coupling):
        before = {name: eval_bound(spec).value for name, spec in self._ROWS.items()}
        original = exchangeable.SELF_BOUND[coupling]

        def planted(*sizes):
            k1, _ = original(*sizes)
            return k1 / 100, Fraction(0)

        monkeypatch.setitem(exchangeable.SELF_BOUND, coupling, planted)
        (result,) = run_suite(coupling, 12, 3, 20, seed=4)
        assert [r.status for r in result.records] == ["pass"] * (len(result.records) - 1) + ["fail"]
        after = {name: eval_bound(spec).value for name, spec in self._ROWS.items()}
        assert {name for name in after if after[name] != before[name]} == {coupling}


class TestNearCompleteClasses:
    """Where the complement class has the smaller (d - 1)(dp - 1), the class
    suites ask rejection for the class itself, and rejection_words draws the
    complement, with row degree n - d, and complements each draw back."""

    @pytest.mark.parametrize("n, d, m, dp", [(16, 14, None, None), (8, 6, None, None), (6, 4, 3, 2)])
    def test_every_record_passes(self, monkeypatch, n, d, m, dp):
        specs = []
        sample_many = verify.sample_many

        def recording(spec, count):
            specs.append(spec)
            return sample_many(spec, count)

        monkeypatch.setattr(verify, "sample_many", recording)
        results = run_suite("all", n, d, 20, seed=1, m=m, dp=dp)
        rows = n if m is None else m
        assert [(s.kind, s.n, s.d, s.m, s.dp) for s in specs][0] == (
            "rejection", n, d, rows, d if dp is None else dp
        )
        assert all(result.ok for result in results)
        assert all(rec.status != "fail" for result in results for rec in result.records)

    def test_draws_are_members_of_the_asked_class(self):
        mats = verify._sample_matrices(6, 4, 50, 3, m=3, dp=2)
        assert len(mats) == 50
        for mat in mats:
            mat.validate()
            assert (mat.m, mat.n, mat.d, mat.dp) == (3, 6, 4, 2)

    def test_uniform_on_the_4_3_class(self):
        # The 24 complements of the 4 x 4 permutation matrices; N = 4800,
        # seed 2024 and the level 1e-3 were fixed before the first run.
        from scipy import stats

        from rrdigraph.samplers import enumerate_all

        index = {mat.rows: k for k, mat in enumerate(enumerate_all(4, 4, 3, 3))}
        assert len(index) == 24
        mats = verify._sample_matrices(4, 3, 4800, 2024)
        counts = np.bincount([index[mat.rows] for mat in mats], minlength=24)
        assert counts.sum() == 4800
        assert stats.chisquare(counts).pvalue > 1e-3


class TestNegativeSamples:
    @pytest.mark.parametrize("suite", ["all", "reflection", "permutation"])
    def test_refused_before_any_draw(self, monkeypatch, suite):
        monkeypatch.setattr(verify, "sample_many", None)  # any draw would raise TypeError
        with pytest.raises(ValueError, match=r"verify field 'samples' must be >= 1, got -3"):
            run_suite(suite, 8, 3, -3)
