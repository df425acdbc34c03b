import ast
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rrdigraph

from rrdigraph import experiments
from rrdigraph.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    binomial_ci,
    result_to_csv,
    run_tail_experiment,
)
from rrdigraph.matrices import codegree_deviation, rows_to_words, words_to_dense, words_to_rows
from rrdigraph.samplers import SamplerSpec, draw, enumerate_all, switch_mcmc_dense

from oracles import catalan_walk_check, uniformity_test


class TestCatalanWalk:
    @pytest.mark.parametrize("r", range(1, 7))
    def test_fraction_is_one_over_r(self, r):
        assert catalan_walk_check(r) == Fraction(1, r)

    def test_counts_match_catalan_numbers(self):
        # Independent oracle: C_m = binom(2m, m)/(m+1).
        for r in range(1, 7):
            frac = catalan_walk_check(r)
            m = r - 1
            catalan = math.comb(2 * m, m) // (m + 1)
            assert frac == Fraction(catalan, math.comb(2 * m, m))

    def test_range_guard(self):
        with pytest.raises(ValueError):
            catalan_walk_check(0)
        with pytest.raises(ValueError):
            catalan_walk_check(11)


class TestBinomialCI:
    def test_zero_successes(self):
        lo, hi = binomial_ci(0, 100)
        assert lo == 0.0 and 0 < hi < 0.05

    def test_all_successes(self):
        lo, hi = binomial_ci(100, 100)
        assert hi == 1.0 and lo > 0.95

    def test_contains_point_estimate(self):
        for k, n in ((3, 50), (17, 40), (500, 20000)):
            lo, hi = binomial_ci(k, n)
            assert lo <= k / n <= hi

    def test_coverage_shrinks_with_n(self):
        lo1, hi1 = binomial_ci(5, 50)
        lo2, hi2 = binomial_ci(500, 5000)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            binomial_ci(5, 4)

    @pytest.mark.parametrize("n", [1, 2, 50, 4096, 20000])
    def test_equals_beta_quantiles(self, n):
        # The reference is the textbook form, beta.ppf from scipy.stats,
        # which the package itself never imports.
        from scipy import stats

        for k in sorted({0, 1, n // 2, n - 1, n}):
            lo = 0.0 if k == 0 else stats.beta.ppf(0.025, k, n - k + 1)
            hi = 1.0 if k == n else stats.beta.ppf(0.975, k + 1, n - k)
            assert binomial_ci(k, n) == pytest.approx((lo, hi), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_limits_solve_their_tail_equations(self, n):
        # From the definition in exact arithmetic, no SciPy: P(X >= k) - alpha/2
        # changes sign within 8 ulps either side of the lower limit, and
        # P(X <= k) - alpha/2 within 8 ulps of the upper one.
        target = Fraction((1.0 - 0.95) / 2.0)

        def tail(k, p, upper):
            p = Fraction(p)
            return sum(math.comb(n, j) * p**j * (1 - p) ** (n - j)
                       for j in (range(k, n + 1) if upper else range(k + 1)))

        def ulps(x, toward):
            for _ in range(8):
                x = math.nextafter(x, toward)
            return x

        for k in range(n + 1):
            lo, hi = binomial_ci(k, n)
            if k > 0:
                assert tail(k, ulps(lo, 0.0), True) < target < tail(k, ulps(lo, 1.0), True)
            if k < n:
                assert tail(k, ulps(hi, 1.0), False) < target < tail(k, ulps(hi, 0.0), False)

    @pytest.mark.parametrize("n", [*range(1, 61), 4096, 20000, 100000])
    def test_equals_betaincinv(self, n):
        # The oracle is imported here only; the package never imports it.
        from scipy.special import betaincinv

        target = (1.0 - 0.95) / 2.0
        ks = range(n + 1) if n <= 60 else sorted(
            {0, 1, 2, 3, 10, n // 3, n // 2, n - 10, n - 3, n - 2, n - 1, n})
        for k in ks:
            lo = 0.0 if k == 0 else betaincinv(k, n - k + 1, target)
            hi = 1.0 if k == n else betaincinv(k + 1, n - k, 1.0 - target)
            limits = binomial_ci(k, n)
            assert limits == pytest.approx((lo, hi), rel=1e-12, abs=0.0)
            # The tail CSV writes the limits with repr, which spells np.float64 out.
            assert [type(x) for x in limits] == [float, float]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 5000), data=st.data())
    def test_ordered_monotone_and_mirrored(self, n, data):
        k = data.draw(st.integers(0, n))
        lo, hi = binomial_ci(k, n)
        assert lo <= k / n <= hi
        if k < n:
            lo_next, hi_next = binomial_ci(k + 1, n)
            assert lo <= lo_next and hi <= hi_next
        assert binomial_ci(n - k, n)[1] == pytest.approx(1.0 - lo, rel=1e-12)

    def test_bad_confidence(self):
        for confidence in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                binomial_ci(1, 4, confidence)


class TestUniformity:
    def test_rejection_3_1(self):
        spec = SamplerSpec(kind="rejection", n=3, d=1, seed=301)
        res = uniformity_test(spec, 20_000)
        assert res.class_size == 6
        assert res.tv_distance <= 0.02
        assert res.chi_sq_p > 0.001

    def test_mcmc_4_2_smoke(self):
        spec = SamplerSpec(kind="switch_mcmc", n=4, d=2, steps=200, seed=302)
        res = uniformity_test(spec, 20_000)
        assert res.class_size == 90
        assert res.tv_distance <= 0.05

    def test_rejection_4_2_chi_square(self):
        # uniform over the 90-element class: the chi-square test must not
        # reject at any sane level
        spec = SamplerSpec(kind="rejection", n=4, d=2, seed=303)
        res = uniformity_test(spec, 30_000)
        assert res.chi_sq_p > 0.001
        assert res.min_count > 0

    @pytest.mark.parametrize("kind", ["rejection", "switch_mcmc"])
    @pytest.mark.parametrize("d", [0, 3])
    def test_one_member_class_is_vacuous(self, kind, d):
        # Every sampler is uniform on one member: no chi-square test, no nan.
        res = uniformity_test(SamplerSpec(kind=kind, n=3, d=d), 50)
        assert res.vacuous and res.chi_sq_p is None
        assert (res.class_size, res.tv_distance, res.min_count, res.max_count) == (1, 0.0, 50, 50)
        assert not uniformity_test(SamplerSpec(kind=kind, n=3, d=1), 50).vacuous

    def test_rejects_non_class_sampler(self):
        spec = SamplerSpec(kind="erdos_renyi", n=4, p=0.5, seed=1)
        with pytest.raises(ValueError):
            uniformity_test(spec, 100)

    @pytest.mark.parametrize("spec, N", [
        (SamplerSpec(kind="rejection", n=4, d=2, seed=304), 5000),
        (SamplerSpec(kind="rejection", n=3, d=1, seed=305), 9000),  # two shards
        # Short chains are biased: p near 1e-9 and 1e-94.
        (SamplerSpec(kind="switch_mcmc", n=4, d=2, steps=30, seed=306), 3000),
        (SamplerSpec(kind="switch_mcmc", n=4, d=2, steps=20, seed=306), 3000),
    ])
    def test_p_value_equals_chisquare(self, spec, N):
        # Recount the same shards, then take scipy.stats.chisquare as the
        # reference for the p-value the package computes without it.
        from scipy import stats

        index = {mat.rows: i for i, mat in enumerate(enumerate_all(spec.m, spec.n, spec.d, spec.dp))}
        counts = np.zeros(len(index), dtype=np.int64)
        for shard, start in enumerate(range(0, N, experiments.SHARD_SIZE)):
            take = min(experiments.SHARD_SIZE, N - start)
            words, _ = draw(dataclasses.replace(spec, stream=spec.stream + shard), take)
            for key in words_to_rows(words):
                counts[index[key]] += 1
        res = uniformity_test(spec, N)
        assert (res.min_count, res.max_count) == (counts.min(), counts.max())
        assert res.chi_sq_p == pytest.approx(stats.chisquare(counts).pvalue, rel=1e-12, abs=0.0)


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(
            sampler=SamplerSpec(kind="permutation_model", n=20, d=2),
            statistic="perm_edge_count",
            grid=(0.5, 1.0),
            N=100,
            seed=4,
            a=5,
            b=5,
        )
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    @pytest.mark.parametrize("seed", [0, 5])
    def test_sampler_seed_is_not_an_input(self, seed):
        cfg = ExperimentConfig(sampler=SamplerSpec(kind="rejection", n=8, d=2), statistic="codegree",
                               grid=(0.5,), N=10, seed=3)
        payload = cfg.to_dict()
        assert "seed" not in payload["sampler"] and payload["seed"] == 3
        payload["sampler"]["seed"] = seed
        with pytest.raises(ValueError, match="'sampler.seed'"):
            ExperimentConfig.from_dict(payload)

    def test_validation(self):
        sampler = SamplerSpec(kind="rejection", n=8, d=2, seed=0)
        with pytest.raises(ValueError, match="statistic"):
            ExperimentConfig(sampler=sampler, statistic="wat", grid=(0.5,), N=10)
        with pytest.raises(ValueError, match="config field 'a' is required by statistic 'edge_count'"):
            ExperimentConfig(sampler=sampler, statistic="edge_count", grid=(0.5,), N=10)
        with pytest.raises(ValueError, match="sampler kind"):
            ExperimentConfig(
                sampler=sampler, statistic="perm_edge_count", grid=(0.5,), N=10, a=2, b=2
            )
        with pytest.raises(ValueError, match="good_event_eta"):
            ExperimentConfig(
                sampler=SamplerSpec(kind="permutation_model", n=8, d=2, seed=0),
                statistic="perm_edge_count",
                grid=(0.5,),
                N=10,
                a=2,
                b=2,
                good_event_eta=0.1,
            )


    @pytest.mark.parametrize(
        "sampler, fields, match",
        [
            (dict(kind="rejection", n=20, d=3), dict(statistic="codegree", i2=25), "'i2' must be a row"),
            (dict(kind="rejection", n=20, d=3), dict(statistic="codegree", i1=-1), "'i1' must be a row"),
            (dict(kind="rejection", n=20, d=3), dict(statistic="codegree", i1=3, i2=3), "'i1' and 'i2' must differ"),
            (dict(kind="erdos_renyi", n=20, p=0.3), dict(statistic="er_codegree", i1=20), "'i1' must be a row"),
            (dict(kind="permutation_model", n=40, d=3), dict(statistic="perm_edge_count", a=12, b=50), "'b' must be in"),
            (dict(kind="switch_mcmc", n=10, d=3), dict(statistic="edge_count", a=0, b=4), "'a' must be in"),
            (dict(kind="erdos_renyi", n=10, p=0.3), dict(statistic="er_edge", a=11, b=4), "'a' must be in"),
            (dict(kind="rejection", n=20, d=3), dict(statistic="codegree", a=3), "'a' is not read"),
            (dict(kind="switch_mcmc", n=10, d=3), dict(statistic="codegree_uniform", good_event_eta=0.1), "good_event_eta"),
            (dict(kind="erdos_renyi", n=10, p=0.3), dict(statistic="er_codegree", a=2), "'a' is not read"),
            (dict(kind="permutation_model", n=10, d=3), dict(statistic="perm_edge_count", a=2, b=2, good_event_eta=0.5),
             "'good_event_eta' is not read"),
            (dict(kind="switch_mcmc", n=10, d=3), dict(statistic="codegree_uniform", i1=5, i2=6), "'i1' is not read"),
            (dict(kind="rejection", m=3, n=6, d=2, dp=1), dict(statistic="edge_count", a=2, b=5), "sampler.m"),
            (dict(kind="switch_mcmc", m=6, n=9, d=3, dp=2), dict(statistic="codegree"), "sampler.m"),
        ],
        ids=["i2-out-of-range", "i1-negative", "i1-equals-i2", "er-i1-out-of-range", "b-above-n",
             "a-zero", "er-a-above-n", "unread-a", "unread-eta", "er-unread-a",
             "perm-unread-eta", "unread-i1", "biregular-edge", "biregular-codegree"],
    )
    def test_fields_checked_per_statistic(self, sampler, fields, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(sampler=SamplerSpec(**sampler), grid=(0.5,), N=10, **fields)

    def test_row_pair_defaults_only_where_read(self):
        def make(statistic, sampler):
            return ExperimentConfig(sampler=SamplerSpec(**sampler), statistic=statistic, grid=(0.5,), N=10)

        for cfg in (make("codegree", dict(kind="rejection", n=20, d=3)),
                    make("er_codegree", dict(kind="erdos_renyi", n=20, p=0.3))):
            assert (cfg.i1, cfg.i2) == (0, 1)
            assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        cfg = make("codegree_uniform", dict(kind="switch_mcmc", n=10, d=3))
        assert (cfg.i1, cfg.i2) == (None, None)


def _co_dev(x, i, k, n, d):
    """co(i, k) - d^2/n, from the rows of one sample."""
    return sum(u * v for u, v in zip(x[i], x[k])) - Fraction(d * d, n)


def _recount(cfg, batch):
    """Per-grid-point event counts recomputed from the statistics'
    definitions, one sample at a time."""
    n, d, p, a, b = cfg.sampler.n, cfg.sampler.d, cfg.sampler.p, cfg.a, cfg.b
    counts = [0] * len(cfg.grid)
    for x in batch.tolist():
        if cfg.statistic in ("codegree", "codegree_uniform"):
            if cfg.statistic == "codegree":
                dev = _co_dev(x, cfg.i1, cfg.i2, n, d)
            else:
                dev = max(abs(_co_dev(x, i, k, n, d)) for i, k in itertools.combinations(range(n), 2))
            hits = [dev >= Fraction(eps) * Fraction(min(d, n - d) ** 2, n) for eps in cfg.grid]
        elif cfg.statistic == "edge_count":
            e = sum(x[i][j] for i in range(a) for j in range(b))
            mu, mu_hat = Fraction(d * a * b, n), Fraction(d * min(a * b, (n - a) * (n - b)), n)
            good = cfg.good_event_eta is None or all(
                abs(_co_dev(x, i, k, n, d)) <= Fraction(cfg.good_event_eta) * Fraction(d * (n - d), n)
                for i, k in itertools.combinations(range(n), 2)
            )
            hits = [good and e - mu >= Fraction(tau) * mu_hat for tau in cfg.grid]
        elif cfg.statistic == "perm_edge_count":
            e = sum(1 for perm in x for i in range(a) if perm[i] < b)
            mu = Fraction(d * a * b, n)
            hits = [abs(e - mu) >= Fraction(tau) * mu for tau in cfg.grid]
        elif cfg.statistic == "er_codegree":
            co = sum(u * v for u, v in zip(x[cfg.i1], x[cfg.i2]))
            center = Fraction(p) ** 2 * n
            hits = [abs(co - center) >= Fraction(eps) * center for eps in cfg.grid]
        else:  # er_edge
            e = sum(x[i][j] for i in range(a) for j in range(b))
            center = Fraction(p) * a * b
            hits = [abs(e - center) >= Fraction(eps) * center for eps in cfg.grid]
        counts = [c + h for c, h in zip(counts, hits)]
    return counts


class TestRecount:
    @pytest.mark.parametrize(
        "sampler, fields",
        [
            (dict(kind="switch_mcmc", n=10, d=7, steps=200), dict(statistic="codegree", i1=0, i2=3, grid=(0.0, 1.125, 2.0))),
            (dict(kind="switch_mcmc", n=8, d=5, steps=200), dict(statistic="codegree_uniform", grid=(0.5, 1.5))),
            (dict(kind="switch_mcmc", n=10, d=4, steps=200), dict(statistic="edge_count", a=6, b=7, grid=(0.0, 0.25, 0.5))),
            (dict(kind="rejection", n=10, d=5), dict(statistic="edge_count", a=5, b=5, good_event_eta=0.625, grid=(0.0, 0.25))),
            (dict(kind="permutation_model", n=12, d=2), dict(statistic="perm_edge_count", a=4, b=6, grid=(0.25, 0.5, 1.0))),
            (dict(kind="erdos_renyi", n=12, p=0.4), dict(statistic="er_codegree", i1=1, i2=4, grid=(0.25, 0.5, 1.0))),
            (dict(kind="erdos_renyi", n=12, p=0.4), dict(statistic="er_edge", a=3, b=5, grid=(0.25, 0.5, 1.0))),
        ],
        ids=["codegree", "codegree_uniform", "edge_count", "edge_count-joint", "perm_edge_count",
             "er_codegree", "er_edge"],
    )
    def test_counts_match_definitions(self, sampler, fields):
        cfg = ExperimentConfig(sampler=SamplerSpec(**sampler), N=600, seed=7, **fields)
        res = run_tail_experiment(cfg)
        assert res.metadata["shards"] == 1
        got = [round(row.empirical * cfg.N) for row in res.rows]
        batch, _ = draw(dataclasses.replace(cfg.sampler, seed=cfg.seed), cfg.N)
        if cfg.sampler.kind != "permutation_model":
            batch = words_to_dense(batch, cfg.sampler.n)
        expected = _recount(cfg, batch)
        assert got == expected
        # Some grid point has both outcomes, so a shifted threshold shows.
        # The sizes keep d_hat != d, mu_hat != d*a*b/n and eta*d*(n-d) at
        # an attainable deviation, so those formulas are tested too.
        assert any(0 < k < cfg.N for k in expected)


class TestErEventsAreExact:
    """|X - c| >= eps * c in exact rationals, with c from the float p as the
    exact rational it is: a float comparison of the same doubles gets each
    of these cases wrong."""

    @pytest.mark.parametrize(
        "n, p, eps, co, event",
        [(50, 0.6, 0.5, 9, False), (110, 0.6, 1.5, 99, True)],
    )
    def test_codegree_threshold(self, n, p, eps, co, event):
        cfg = ExperimentConfig(sampler=SamplerSpec(kind="erdos_renyi", n=n, p=p), statistic="er_codegree",
                               grid=(eps,), N=1)
        words = rows_to_words([(1 << co) - 1] * 2 + [0] * (n - 2), n)[None]
        (mask,) = experiments._STATISTICS["er_codegree"].events(cfg, words)
        assert mask.tolist() == [event]

    @pytest.mark.parametrize(
        "n, p, a, b, eps, e, event",
        [(10, 0.1, 2, 10, 0.5, 3, False), (8, 0.6, 4, 7, 0.25, 21, True)],
    )
    def test_edge_threshold(self, n, p, a, b, eps, e, event):
        cfg = ExperimentConfig(sampler=SamplerSpec(kind="erdos_renyi", n=n, p=p), statistic="er_edge",
                               grid=(eps,), N=1, a=a, b=b)
        full, rest = divmod(e, b)  # e ones in the first b columns of the first a rows
        words = rows_to_words([(1 << b) - 1] * full + [(1 << rest) - 1] + [0] * (n - 1 - full), n)[None]
        (mask,) = experiments._STATISTICS["er_edge"].events(cfg, words)
        assert mask.tolist() == [event]


class TestTailHarness:
    def test_vacuous_grid_point_passes(self):
        cfg = ExperimentConfig(
            sampler=SamplerSpec(kind="switch_mcmc", n=8, d=2, steps=150),
            statistic="edge_count",
            grid=(0.0,),
            N=400,
            seed=6,
            a=4,
            b=4,
            good_event_eta=0.0,
        )
        res = run_tail_experiment(cfg)
        row = res.rows[0]
        assert row.bound == 1.0 and row.valid and row.verdict == "pass"

    def test_perm_edge_rows(self):
        cfg = ExperimentConfig(
            sampler=SamplerSpec(kind="permutation_model", n=60, d=4),
            statistic="perm_edge_count",
            grid=(0.5, 1.0),
            N=4000,
            seed=9,
            a=20,
            b=20,
        )
        res = run_tail_experiment(cfg)
        mu = 4 * 20 * 20 / 60
        for row, tau in zip(res.rows, cfg.grid):
            assert row.bound == pytest.approx(
                2 * math.exp(-(tau**2) * mu / (2 + tau)), rel=1e-12
            )
            assert row.verdict == "pass"
            assert row.ci_lo <= row.empirical <= row.ci_hi

    def test_er_statistics_run(self):
        cfg = ExperimentConfig(
            sampler=SamplerSpec(kind="erdos_renyi", n=30, p=0.3),
            statistic="er_codegree",
            grid=(0.5, 1.0),
            N=2000,
            seed=12,
        )
        res = run_tail_experiment(cfg)
        assert all(row.verdict == "pass" for row in res.rows)
        cfg2 = ExperimentConfig(
            sampler=SamplerSpec(kind="erdos_renyi", n=30, p=0.3),
            statistic="er_edge",
            grid=(0.5,),
            N=2000,
            seed=12,
            a=10,
            b=10,
        )
        res2 = run_tail_experiment(cfg2)
        assert res2.rows[0].verdict == "pass"

    def test_codegree_uniform_statistic_runs(self):
        cfg = ExperimentConfig(
            sampler=SamplerSpec(kind="switch_mcmc", n=16, d=4, steps=400),
            statistic="codegree_uniform",
            grid=(1.0,),
            N=1000,
            seed=14,
        )
        res = run_tail_experiment(cfg)
        assert res.rows[0].valid

    def test_edge_count_without_eta_is_invalid_row(self):
        cfg = ExperimentConfig(
            sampler=SamplerSpec(kind="switch_mcmc", n=8, d=2, steps=150),
            statistic="edge_count",
            grid=(0.5,),
            N=200,
            seed=6,
            a=4,
            b=4,
        )
        res = run_tail_experiment(cfg)
        assert res.rows[0].verdict == "invalid"

    def test_reproducible_and_worker_independent(self):
        cfg = ExperimentConfig(
            sampler=SamplerSpec(kind="permutation_model", n=30, d=3),
            statistic="perm_edge_count",
            grid=(0.25, 0.75),
            N=9000,
            seed=22,
            a=10,
            b=12,
        )
        first = run_tail_experiment(cfg)
        second = run_tail_experiment(cfg)
        threaded = run_tail_experiment(cfg, max_workers=4)
        assert result_to_csv(first) == result_to_csv(second) == result_to_csv(threaded)
        meta1 = dict(first.metadata)
        meta2 = dict(second.metadata)
        meta1.pop("wall_time_s")
        meta2.pop("wall_time_s")
        assert meta1 == meta2

    @pytest.mark.parametrize("max_workers", [0, -3])
    def test_workers_below_one_refused_before_any_draw(self, monkeypatch, max_workers):
        cfg = ExperimentConfig(
            sampler=SamplerSpec(kind="rejection", n=20, d=3),
            statistic="codegree",
            grid=(0.5,),
            N=100,
            seed=1,
        )
        monkeypatch.setattr(experiments, "draw", None)  # any draw would raise TypeError
        with pytest.raises(ValueError, match="run_tail_experiment field 'max_workers' must be >= 1"):
            run_tail_experiment(cfg, max_workers=max_workers)

    def test_rejection_counters_in_metadata(self):
        cfg = ExperimentConfig(
            sampler=SamplerSpec(kind="rejection", n=60, d=4),
            statistic="codegree",
            grid=(0.5,),
            N=4096 + 512,  # two shards, so two workers run them apart
            seed=41,
        )
        first = run_tail_experiment(cfg)
        threaded = run_tail_experiment(cfg, max_workers=2)
        meta1 = dict(first.metadata)
        meta2 = dict(threaded.metadata)
        meta1.pop("wall_time_s")
        meta2.pop("wall_time_s")
        assert meta1 == meta2
        assert meta1["shards"] == 2
        assert meta1["acceptance_rate"] == cfg.N / meta1["rejection_attempts"]
        # The limit is exp(-(d-1)(dp-1)/2) = exp(-4.5), about 0.011.
        assert 0.008 <= meta1["acceptance_rate"] <= 0.015
        assert meta1["rejection_side"] == "class"

    def test_rejection_side_in_metadata_on_a_near_complete_class(self):
        # The (16, 13) class is drawn as its complement, the (16, 3) class,
        # whose attempts are the ones counted.
        spec = SamplerSpec(kind="rejection", n=16, d=13)
        cfg = ExperimentConfig(sampler=spec, statistic="codegree", grid=(0.5,), N=200, seed=2)
        meta = run_tail_experiment(cfg).metadata
        assert meta["rejection_side"] == "complement"
        complement = dataclasses.replace(cfg, sampler=dataclasses.replace(spec, d=3, dp=3))
        assert meta["rejection_attempts"] == run_tail_experiment(complement).metadata["rejection_attempts"]

    def test_csv_shape(self):
        cfg = ExperimentConfig(
            sampler=SamplerSpec(kind="permutation_model", n=20, d=2),
            statistic="perm_edge_count",
            grid=(0.5,),
            N=500,
            seed=32,
            a=5,
            b=5,
        )
        text = result_to_csv(run_tail_experiment(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert len(fields) == 7
        assert fields[5] in ("true", "false")


class TestWordStatistics:
    """The popcount statistics on packed row words against a dense numpy
    oracle, on one word (n <= 64), on a partial last word and on three."""

    @pytest.mark.parametrize(
        "n, d, a, b",
        # b = n at n = 65 sets one bit of the second word; a = n is every row.
        [(5, 2, 5, 3), (64, 20, 64, 63), (65, 30, 65, 65), (130, 40, 130, 97), (130, 40, 17, 70)],
        ids=lambda v: str(v),
    )
    def test_equal_to_the_dense_oracle(self, monkeypatch, n, d, a, b):
        spec = SamplerSpec(kind="switch_mcmc", n=n, d=d, steps=40 * n, seed=n)
        words, _ = draw(spec, 37)
        dense = words_to_dense(words, n).astype(np.int64)
        assert np.array_equal(dense, switch_mcmc_dense(spec, 37))
        gram = dense @ dense.transpose(0, 2, 1)
        spec = dataclasses.replace(spec, seed=0)  # a config's sampler takes no seed
        cfg = ExperimentConfig(sampler=spec, statistic="codegree", grid=(0.5,), N=37, i1=1, i2=n - 1)
        assert np.array_equal(experiments._row_codegree(cfg, words), gram[:, 1, n - 1])
        cfg = ExperimentConfig(sampler=spec, statistic="edge_count", grid=(0.5,), N=37, a=a, b=b)
        assert np.array_equal(experiments._box_edges(cfg, words), dense[:, :a, :b].sum(axis=(1, 2)))
        upper = np.triu_indices(n, k=1)
        oracle = np.abs(n * gram[:, upper[0], upper[1]] - d * d).max(axis=1)
        assert np.array_equal(codegree_deviation(words, n, d), oracle)
        # Blocks of 8 samples, the last one partial, give the same answer.
        monkeypatch.setattr("rrdigraph.matrices._PAIR_BLOCK_BYTES", 8 * words[0].nbytes)
        assert np.array_equal(codegree_deviation(words, n, d), oracle)

    def test_codegree_spread_reaches_both_ends(self):
        # Bernoulli rows have codegrees on both sides of d^2/n, so a kernel
        # that kept only the least or only the greatest codegree fails.
        n, d = 70, 35
        words, _ = draw(SamplerSpec(kind="erdos_renyi", n=n, p=0.5, seed=3), 25)
        dense = words_to_dense(words, n).astype(np.int64)
        gram = dense @ dense.transpose(0, 2, 1)
        upper = np.triu_indices(n, k=1)
        scaled = n * gram[:, upper[0], upper[1]] - d * d
        assert (scaled.min(axis=1) < 0).all() and (scaled.max(axis=1) > 0).all()
        assert np.array_equal(codegree_deviation(words, n, d), np.abs(scaled).max(axis=1))

    def test_one_row_has_no_pair(self):
        # With no row pair the uniform-codegree event holds, as good_event_co
        # says: W = 0, whatever n and d.
        words = np.ones((3, 1, 1), dtype=np.uint64)
        assert np.array_equal(codegree_deviation(words, 1, 1), [0, 0, 0])

    @pytest.mark.parametrize("kind", ["rejection", "switch_mcmc"])
    def test_joint_edge_count_at_one_vertex(self, kind):
        # n = d = a = b = 1: e = mu = 1 and n*mu_hat = 0, so every grid value
        # is reached, and the good event holds on every draw.
        cfg = ExperimentConfig(sampler=SamplerSpec(kind=kind, n=1, d=1), statistic="edge_count",
                               grid=(0.0, 1.0), N=20, a=1, b=1, good_event_eta=0.25)
        assert [row.empirical for row in run_tail_experiment(cfg).rows] == [1.0, 1.0]


@pytest.mark.parametrize(
    "sampler, fields, count",
    [
        (dict(kind="switch_mcmc", n=200, d=100, steps=20), dict(statistic="codegree_uniform"), 1024),
        (dict(kind="erdos_renyi", n=100, p=0.3), dict(statistic="er_edge", a=30, b=70), 4096),
    ],
    ids=["codegree_uniform", "er_edge"],
)
def test_shard_memory_stays_near_the_packed_batch(sampler, fields, count):
    # A shard holds its row words, count x n rows of ceil(n/64) words
    # (6.25 MB for both cases), and a fixed few MB besides.  A (count, m, m)
    # Gram of the dense draws takes over 160 MB in the first case, and the
    # count x n x n uniforms of one Bernoulli draw over 300 MB in the second.
    # SHARD_SIZE, not the thread count, sets how many samples a shard holds.
    cfg = ExperimentConfig(sampler=SamplerSpec(**sampler), grid=(0.5,), N=count, **fields)
    n = cfg.sampler.n
    batch_bytes = count * n * ((n + 63) // 64) * 8
    tracemalloc.start()
    try:
        experiments._shard_counts(cfg, 0, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * batch_bytes + 4 * 2**20


def test_permutation_shard_holds_narrow_labels():
    # 4096 x 5 permutations of 200 labels take 4 MB as uint8, permuted in
    # place; as int64 labels copied once the shard peaked at 63 MB.
    count, d, n = 4096, 5, 200
    cfg = ExperimentConfig(
        sampler=SamplerSpec(kind="permutation_model", n=n, d=d), statistic="perm_edge_count",
        grid=(0.5,), N=count, a=60, b=60,
    )
    tracemalloc.start()
    try:
        experiments._shard_counts(cfg, 0, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * count * d * n + 4 * 2**20


def test_perm_edge_count_with_b_equal_to_256_labels():
    # uint8 labels stop at 255, so b = n = 256 puts every label in B: each
    # sample has e = d*a = mu exactly, an event at tau = 0 and none above.
    cfg = ExperimentConfig(
        sampler=SamplerSpec(kind="permutation_model", n=256, d=2), statistic="perm_edge_count",
        grid=(0.0, 0.5), N=50, a=3, b=256,
    )
    assert [row.empirical for row in run_tail_experiment(cfg).rows] == [1.0, 0.0]


def test_tail_run_loads_no_scipy(tmp_path):
    # NumPy is the package's only runtime dependency: `import rrdigraph`, a
    # tail run, `verify` and `sigma2` load no part of SciPy (scipy.special
    # alone takes a process from about 27 to 52 MB of peak RSS).
    config = tmp_path / "tail.json"
    config.write_text(json.dumps({"sampler": {"kind": "rejection", "n": 8, "d": 2},
                                  "statistic": "codegree", "grid": [0.0, 0.5], "N": 20}))
    stdout = _run_fresh([
        "import contextlib, io, sys",
        "import rrdigraph",
        "from rrdigraph.cli import main",
        "scipy = lambda: sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')",
        "print(scipy())",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    codes = [main(['tail', '--config', {str(config)!r}, '--out', {str(tmp_path / 'tail.csv')!r}]),",
        "             main(['verify', '--suite', 'all', '--n', '8', '--d', '3', '--samples', '5']),",
        "             main(['sigma2', '--kind', 'rejection', '--n', '12', '--d', '3'])]",
        "print(codes, scipy())",
    ])
    assert stdout.split("\n") == ["[]", "[0, 0, 0] []", ""]


def test_no_module_imports_scipy():
    # SciPy is a test dependency: no module of the package may import it,
    # at the top or inside a function.
    package = Path(rrdigraph.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def _run_fresh(lines):
    """Run the lines in a fresh interpreter on this checkout; return its stdout."""
    src = Path(rrdigraph.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout
