"""The four benchmark workloads.

Each workload builds its inputs from the seed in `__init__` (that is the
set-up that `setup_s` times), runs one pass of fixed work in `run_pass`,
and checks the outputs of every pass in `check` against `reference`.  A
pass is the unit the timer and the tracer see; `items` says how many
items (the unit of `items_per_s_norm`) one pass completes.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np

import reference as ref
from reference import require


def derived_seed(seed: int, *tags: int) -> int:
    """A 63-bit seed for one part of a workload, a pure function of its inputs."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(2, np.uint32).view(np.uint64)[0] >> 1)


def _tail_rows(result, samples):
    """(count, empirical, ci_lo, ci_hi, bound, valid, verdict) per grid value."""
    rows = []
    for row in result.rows:
        count = round(row.empirical * samples)
        require(count / samples == row.empirical, f"empirical {row.empirical!r} is not a count over {samples}")
        rows.append((count, row.empirical, row.ci_lo, row.ci_hi, row.bound, row.valid, row.verdict))
    return rows


def _check_tail_rows(rows, samples, grid, bound_of, valid_of):
    for (count, _, lo, hi, bound, valid, verdict), value in zip(rows, grid):
        ref.check_clopper_pearson(count, samples, lo, hi)
        ref.check_close(bound, bound_of(value), 1e-12, f"bound at {value}")
        require(valid == valid_of(value), f"validity {valid} at {value}")
        expected = "invalid" if not valid else ("pass" if lo <= bound else "fail")
        require(verdict == expected, f"verdict {verdict!r} at {value}, expected {expected!r}")


class _TailWorkload:
    """run_tail_experiment with no workers; one pass is one 4096-sample shard."""

    samples = 4096
    recount_samples = 256
    measures_allocation = True

    def __init__(self, rrd, seed):
        self.rrd = rrd
        self.seed = seed
        self.items = self.samples
        self.base = self.config(derived_seed(seed, 0), self.samples)

    def config(self, seed, samples):
        raise NotImplementedError

    def run_pass(self, index):
        cfg = dataclasses.replace(self.base, seed=derived_seed(self.seed, 1, index))
        result = self.rrd.run_tail_experiment(cfg)
        return cfg.seed, _tail_rows(result, self.samples)

    def recount(self, sampler_kernel, reference_counts):
        """A short run of the same config, recounted from the sampler's draws."""
        cfg = self.config(derived_seed(self.seed, 2), self.recount_samples)
        result = self.rrd.run_tail_experiment(cfg)
        counts = [row[0] for row in _tail_rows(result, cfg.N)]
        # Shard 0 of a run draws from stream (cfg.seed, sampler.stream).
        spec = dataclasses.replace(cfg.sampler, seed=cfg.seed)
        batch = sampler_kernel(spec, cfg.N)
        ref.check_members(batch, spec.d)
        ref.check_counts(counts, reference_counts(batch, cfg), "recounted short run")


class TailRejection(_TailWorkload):
    """Exact-uniform rejection sampler, n=60, d=4, codegree of rows 0 and 1.

    The grid puts the program's threshold n*co - d^2 >= ceil(eps d_hat^2)
    at n*k - d^2 for k = 1..d, so the counts are #{co >= k}."""

    n, d = 60, 4

    def __init__(self, rrd, seed):
        n, d = self.n, self.d
        self.grid = tuple(float(Fraction(n * k - d * d, min(d, n - d) ** 2)) for k in range(1, d + 1))
        for k, eps in enumerate(self.grid, start=1):
            require(ref.codegree_threshold(n, d, eps) == n * k - d * d, f"grid value {eps} misses co >= {k}")
        super().__init__(rrd, seed)

    def config(self, seed, samples):
        rrd = self.rrd
        return rrd.ExperimentConfig(
            sampler=rrd.SamplerSpec(kind="rejection", n=self.n, d=self.d),
            statistic="codegree", grid=self.grid, N=samples, seed=seed,
        )

    def check(self, outputs):
        tails = [0] * self.d
        for _, rows in outputs:
            _check_tail_rows(rows, self.samples, self.grid,
                             lambda eps: ref.codegree_upper_bound(self.n, self.d, eps),
                             lambda eps: True)
            tails = [t + row[0] for t, row in zip(tails, rows)]
        ref.check_mean_codegree(tails, self.samples * len(outputs), self.n, self.d)
        self.recount(
            self.rrd.samplers.rejection_dense,
            lambda batch, cfg: ref.codegree_counts(batch, self.n, self.d, cfg.i1, cfg.i2, self.grid),
        )


class TailSwitchJoint(_TailWorkload):
    """Batched switch chains, n=60, d=30, 2500 steps; e(A, B) for the first 30
    rows and columns jointly with the all-pair codegree event.

    At 2500 steps the largest |n co - d^2| over row pairs sits near 450, so
    eta = 1/2 (a limit of 450) lets the joint event occur in a few percent of
    the draws; at the paper's eta = 1/16 it never does."""

    n, d, steps, a, b = 60, 30, 2500, 30, 30
    eta = 0.5
    grid = (0.0, 0.01, 0.02, 0.04)

    def config(self, seed, samples):
        rrd = self.rrd
        return rrd.ExperimentConfig(
            sampler=rrd.SamplerSpec(kind="switch_mcmc", n=self.n, d=self.d, steps=self.steps),
            statistic="edge_count", grid=self.grid, N=samples, seed=seed,
            a=self.a, b=self.b, good_event_eta=self.eta,
        )

    def check(self, outputs):
        joint = 0
        for _, rows in outputs:
            _check_tail_rows(rows, self.samples, self.grid,
                             lambda tau: ref.edge_upper_bound(self.n, self.d, self.a, self.b, tau),
                             lambda tau: self.eta <= min(0.25, tau / 8.0))
            counts = [row[0] for row in rows]
            require(counts == sorted(counts, reverse=True), f"joint counts {counts} not monotone in tau")
            joint += counts[0]
        require(joint > 0, "the joint event never occurred, so the counts check nothing")
        self.recount(
            self.rrd.samplers.switch_mcmc_dense,
            lambda batch, cfg: ref.joint_edge_counts(batch, self.n, self.d, self.a, self.b, self.eta, self.grid),
        )


class VerifySuites:
    """verify.run_suite('all') at n=16, d=4 with the default exact caps.

    Every pass repeats the same call, so the per-call counts of the traced
    run repeat exactly for a seed."""

    n, d, samples = 16, 4, 200
    brute_force_draws = 3
    measures_allocation = False

    def __init__(self, rrd, seed):
        self.rrd = rrd
        self.seed = seed
        self.items = 3 * self.samples
        self.suite_seed = derived_seed(seed, 0)

    def run_pass(self, index):
        results = self.rrd.run_suite("all", self.n, self.d, self.samples, seed=self.suite_seed)
        return [(r.suite, i, rec.status, rec.checked) for r in results for i, rec in enumerate(r.records)]

    def check(self, outputs):
        for records in outputs:
            ref.check_verify_report(records, self.samples)
        rrd = self.rrd
        rng = np.random.default_rng([self.seed, 3])
        for k in range(self.brute_force_draws):
            dense = ref.random_regular(rng, self.n, self.d)
            mat = rrd.BiregularBitMatrix.from_dense(dense)
            i1, i2 = (int(x) for x in rng.choice(self.n, 2, replace=False))
            got = rrd.reflection_f(mat, i1, i2).f_scaled
            want = ref.reflection_f_scaled(dense, i1, i2)
            require(got == want, f"draw {k}: reflection n*f = {got}, brute force {want}")
            rows = rng.choice(self.n, int(rng.integers(1, self.n)), replace=False)
            cols = rng.choice(self.n, int(rng.integers(1, self.n)), replace=False)
            pair = rrd.VertexSetPair.of((int(x) for x in rows), (int(x) for x in cols))
            got = rrd.switching_f(mat, pair).f
            want = ref.switching_f(dense, rows, cols)
            require(got == want, f"draw {k}: switching f = {got}, brute force {want}")


class SingleDraws:
    """One-at-a-time CLI actions.  A round is one switch-chain draw through
    sample_many(spec, 1), sigma2 of an n=300, d=3 digraph and alpha_exact of
    an n=11, d=3 digraph; a pass is eight rounds over the same inputs.

    The sigma2 inputs are eight fixed base digraphs whose rows are
    relabelled from the seed.  Power-iteration counts of independent random
    digraphs spread from under 1000 to over 5000 with their spectral gaps,
    and a column relabelling still moved the count per pass from 17,286 to
    23,580 between seeds, since sigma2 starts from fixed vectors.  A row relabelling
    leaves M^T M as it was, so the sigma2 work is the same for every seed."""

    chain_n, chain_d, chain_steps = 60, 30, 2500
    sigma_n, sigma_d = 300, 3
    alpha_n, alpha_d = 11, 3
    rounds, alpha_inputs = 8, 4
    sigma_base_seed = 20141021
    measures_allocation = False

    def __init__(self, rrd, seed):
        self.rrd = rrd
        self.items = self.rounds
        chain_seed = derived_seed(seed, 0)
        self.specs = [
            rrd.SamplerSpec(kind="switch_mcmc", n=self.chain_n, d=self.chain_d,
                            steps=self.chain_steps, seed=chain_seed, stream=r)
            for r in range(self.rounds)
        ]
        relabelling = np.random.default_rng([seed, 1])
        self.sigma_dense = [
            ref.relabel(relabelling, ref.random_regular(
                np.random.default_rng([self.sigma_base_seed, k]), self.sigma_n, self.sigma_d),
                columns=False)
            for k in range(self.rounds)
        ]
        alpha_rng = np.random.default_rng([seed, 2])
        self.alpha_dense = [ref.random_regular(alpha_rng, self.alpha_n, self.alpha_d)
                            for _ in range(self.alpha_inputs)]
        self.sigma_inputs = [rrd.BiregularBitMatrix.from_dense(x) for x in self.sigma_dense]
        self.alpha_matrices = [rrd.BiregularBitMatrix.from_dense(x) for x in self.alpha_dense]

    def run_pass(self, index):
        rrd = self.rrd
        out = []
        for r in range(self.rounds):
            draw = rrd.sample_many(self.specs[r], 1)[0]
            report = rrd.sigma2(self.sigma_inputs[r])
            alpha = rrd.alpha_exact(self.alpha_matrices[r % self.alpha_inputs])
            out.append((draw.rows, report.sigma1, report.sigma2, report.converged, alpha))
        return out

    def check(self, outputs):
        sigma_seen = [set() for _ in range(self.rounds)]
        alpha_seen = [set() for _ in range(self.alpha_inputs)]
        for rounds in outputs:
            for r, (rows, sigma1, sigma2, converged, alpha) in enumerate(rounds):
                ref.check_member(ref.rows_to_dense(rows, self.chain_n), self.chain_d, f"chain draw {r}")
                require(converged, f"sigma2 of input {r} did not converge")
                sigma_seen[r].add((sigma1, sigma2))
                alpha_seen[r % self.alpha_inputs].add(alpha)
        for dense, seen in zip(self.sigma_dense, sigma_seen):
            for sigma1, sigma2 in seen:
                ref.check_sigma(sigma1, sigma2, dense, self.sigma_d)
        for dense, seen in zip(self.alpha_dense, alpha_seen):
            for alpha in seen:
                ref.check_alpha(alpha, dense)


WORKLOADS = {
    "tail_rejection": TailRejection,
    "tail_switch_joint": TailSwitchJoint,
    "verify_suites": VerifySuites,
    "single_draws": SingleDraws,
}
