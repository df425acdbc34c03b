"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test records a PASS/FAIL line; the lines are printed in the
terminal summary (and immediately under -s).  Exact identities are
compared as integers or rationals with zero tolerance; Monte Carlo
soundness checks gate on exact binomial confidence intervals.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from rrdigraph import exchangeable
from rrdigraph.bounds import check_pseudorandom_implication
from rrdigraph.couplings import (
    RowOrder,
    SwitchSite,
    _bad_mask,
    column_walk,
    reflect,
    simple_switch,
)
from rrdigraph.exchangeable import (
    good_event_co,
    permutation_diagnostics,
    reflection_f,
    reflection_vf,
    switching_f,
    switching_vf,
    _reduce_pair,
)
from rrdigraph.experiments import (
    ExperimentConfig,
    result_to_csv,
    run_tail_experiment,
)
from rrdigraph.matrices import VertexSetPair, codegree, complement, edge_count
from rrdigraph.samplers import SamplerSpec, sample_many, stream_generator
from rrdigraph.spectral import alpha_exact, sigma2
from rrdigraph.verify import run_suite

from conftest import naive_column_classes, naive_minor_scan
from oracles import catalan_walk_check, uniformity_test

ACCEPTANCE_LINES = []


def record(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:>2} {name}: {status}" + (f"  [{detail}]" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _mats(n, d, count, seed, steps, m=None, dp=None, kind="switch_mcmc"):
    spec = SamplerSpec(kind=kind, n=n, d=d, m=m, dp=dp, steps=steps, seed=seed)
    return sample_many(spec, count)


def test_criterion_01_involution_and_membership():
    started = time.time()
    total = 0
    ok = True
    for n in (8, 16, 32):
        d = max(2, n // 4)
        mats = _mats(n, d, 40, seed=n, steps=500)
        rng = stream_generator(1000 + n, 0)
        for mat in mats:
            draws = rng.integers(0, n, size=(1100, 4))
            for k in range(550):
                i1, i2, j1, j2 = (int(x) for x in draws[k])
                if i1 == i2 or j1 == j2:
                    continue
                site = SwitchSite(i1, i2, j1, j2)
                out = simple_switch(mat, site)
                ok &= simple_switch(out, site) == mat
                if out is not mat:
                    out.validate()
                total += 1
            for k in range(550, 1100):
                j1, j2, i1, i2 = (int(x) for x in draws[k])
                if j1 == j2 or i1 == i2:
                    continue
                order = RowOrder(i1, i2)
                out = reflect(mat, j1, j2, order)
                ok &= reflect(out, j1, j2, order) == mat
                if out is not mat:
                    out.validate()
                total += 1
    elapsed = time.time() - started
    record(
        1,
        "involution & membership (switch + reflect, n in {8,16,32})",
        ok and total >= 100_000 and elapsed < 60,
        f"{total} instances in {elapsed:.1f}s",
    )


def _walk_bad_pairs(mat, i1, i2):
    """b from its definition: the (c1, c2) in Ex(i1,i2) x Ex(i2,i1) whose
    column walk in row order (i1, i2, rest) is not reflecting."""
    rows = mat.dense()
    ex1, ex2 = (np.flatnonzero(rows[r] > rows[s]) for r, s in ((i1, i2), (i2, i1)))
    order = RowOrder(i1, i2)
    return sum(not column_walk(mat, int(c1), int(c2), order).reflecting for c1 in ex1 for c2 in ex2)


def _sampled_identity_mismatches(mats):
    """(cases, mismatches) of reflection_f's b and n*f = 30 co - 36 + b at
    n = 30, d = 6, b from `_walk_bad_pairs`, on the row pair (0, 1) and one
    drawn pair of each matrix."""
    rng = stream_generator(231, 0)
    cases = mismatches = 0
    for mat in mats:
        pick = rng.choice(30, 2, replace=False)
        for i1, i2 in ((0, 1), (int(pick[0]), int(pick[1]))):
            b = _walk_bad_pairs(mat, i1, i2)
            diag = reflection_f(mat, i1, i2)
            mismatches += diag.b != b or diag.f_scaled != 30 * codegree(mat, i1, i2).co - 36 + b
            cases += 1
    return cases, mismatches


def test_criterion_02_reflection_identity(class_4_2):
    started = time.time()
    ok = True
    checked = 0
    # Exhaustive class, every ordered row pair, against the naive
    # minor-scan oracle (independent plain-Python walks).
    for mat in class_4_2:
        for i1, i2 in itertools.permutations(range(4), 2):
            n_k, n_i, n_i_refl = naive_minor_scan(mat, i1, i2)
            rec = codegree(mat, i1, i2)
            b = int(_bad_mask(mat, i1, i2)[2].sum())
            ok &= n_i - n_i_refl == b
            ok &= n_k - n_i_refl == 4 * rec.co - 4 + b
            ok &= reflection_f(mat, i1, i2).f_scaled == n_k - n_i_refl
            checked += 1
    # 10^3 sampled matrices at n = 30, d = 6, b counted by plain walks.
    mats = _mats(30, 6, 1000, seed=230, steps=1500)
    cases, mismatches = _sampled_identity_mismatches(mats)
    ok &= mismatches == 0
    checked += cases
    for idx, mat in enumerate(mats):
        if idx % 25 == 0:  # plain-Python oracle on a subsample
            n_k, n_i, n_i_refl = naive_minor_scan(mat, 0, 1)
            diag = reflection_f(mat, 0, 1)
            ok &= diag.f_scaled == n_k - n_i_refl and diag.b == n_i - n_i_refl
    elapsed = time.time() - started
    record(
        2,
        "reflection identity n*f = n*co - d^2 + b (exact integers)",
        ok and elapsed < 60,
        f"{checked} instances in {elapsed:.1f}s",
    )


def test_criterion_02_sampled_check_fails_on_an_inverted_bad_mask(monkeypatch):
    original = exchangeable._bad_mask

    def inverted(*args):
        ex1, ex2, bad, walk_rows = original(*args)
        return ex1, ex2, ~bad, walk_rows

    monkeypatch.setattr(exchangeable, "_bad_mask", inverted)
    assert _sampled_identity_mismatches(_mats(30, 6, 2, seed=230, steps=1500)) == (4, 4)


def test_criterion_03_reflection_self_bounding(class_4_2):
    started = time.time()
    ok = True
    checked = 0
    for mat in class_4_2:
        for i1, i2 in itertools.permutations(range(4), 2):
            diag = reflection_vf(mat, i1, i2)
            ok &= diag.v_f <= diag.f + Fraction(2 * mat.d_hat**2, mat.n)
            checked += 1
    for mat in _mats(16, 4, 100, seed=316, steps=1200):
        diag = reflection_vf(mat, 0, 1)
        ok &= diag.v_f <= diag.f + Fraction(2 * mat.d_hat**2, mat.n)
        checked += 1
    elapsed = time.time() - started
    record(
        3,
        "reflection self-bound v_f <= f + 2*d_hat^2/n (exact)",
        ok and elapsed < 120,
        f"{checked} instances in {elapsed:.1f}s",
    )


def _f2_bound_holds(mat, pair, diag):
    """|f2| <= eta*(f1 + 2 p(1-p) n m mu) at the smallest eta with G^co(eta)."""
    n, d, m = mat.n, mat.d, mat.m
    if d in (0, n):
        return True
    w = good_event_co(mat, 0).worst_deviation_scaled  # = eta* . d(n-d)
    r_factor = 1 if diag.scale == n else m
    lhs = abs(diag.f2_scaled) * d * (n - d)
    rhs = w * (diag.f1_scaled + 2 * d * (n - d) * d * pair.a * pair.b * r_factor)
    return lhs <= rhs


def test_criterion_04_switching_identities(class_4_2):
    started = time.time()
    ok = True
    rng = stream_generator(424, 0)
    # 10^3 sampled (M, A, B) at n = 24, d = 6: both f forms agree
    # (asserted inside switching_f), main-term identity, error-term bound.
    for mat in _mats(24, 6, 1000, seed=424, steps=1500):
        a = int(rng.integers(1, 24))
        b = int(rng.integers(1, 24))
        pair = VertexSetPair.of(
            (int(x) for x in rng.choice(24, a, replace=False)),
            (int(x) for x in rng.choice(24, b, replace=False)),
        )
        diag = switching_f(mat, pair)
        reduced = _reduce_pair(mat, pair)
        e = edge_count(mat, reduced)
        core = 6 * 18 * (24 * e - 6 * reduced.a * reduced.b)
        ok &= diag.f_scaled == core + diag.f2_scaled
        ok &= _f2_bound_holds(mat, reduced, diag)
    # Exhaustive v_f self-bound over the tiny class, all (A,B), a+b <= 4.
    pairs = []
    for a in range(1, 4):
        for b in range(1, 4):
            if a + b <= 4:
                pairs.extend(
                    VertexSetPair.of(A, B)
                    for A in itertools.combinations(range(4), a)
                    for B in itertools.combinations(range(4), b)
                )
    step_cap_ok = True
    for mat in class_4_2:
        for pair in pairs:
            vf = switching_vf(mat, pair)
            reduced = _reduce_pair(mat, pair)
            bound = Fraction(4 * mat.d_hat) * (vf.f + 2 * 4 * mat.d_hat * reduced.mu(mat))
            ok &= vf.v_f <= bound
            step_cap_ok &= (vf.max_step or 0) <= 2 * 4 * mat.d_hat
    elapsed = time.time() - started
    record(
        4,
        "switching identities + self-bound + error-term bound (exact)",
        ok and step_cap_ok and elapsed < 300,
        f"90x{len(pairs)} exhaustive + 1000 sampled in {elapsed:.1f}s",
    )


def test_criterion_05_permutation_identity():
    started = time.time()
    ok = True
    spec = SamplerSpec(kind="permutation_model", n=40, d=3, seed=525)
    rng = stream_generator(526, 0)
    for pi in sample_many(spec, 1000):
        a = int(rng.integers(1, 40))
        b = int(rng.integers(1, 41))
        pair = VertexSetPair.of(
            (int(x) for x in rng.choice(40, a, replace=False)),
            (int(x) for x in rng.choice(40, b, replace=False)),
        )
        diag = permutation_diagnostics(pi, pair)  # identity asserted inside
        e_pi = sum(
            1 for perm in pi for i in pair.rows if perm[i] in pair.cols
        )
        ok &= diag.f == Fraction(40 * e_pi - 3 * a * b, 40)
        ok &= diag.v_f <= diag.f / 2 + Fraction(3 * a * b, 40)
    elapsed = time.time() - started
    record(
        5,
        "permutation-model identity f = e_pi - d*a*b/n and v_f bound (exact)",
        ok and elapsed < 60,
        f"1000 instances in {elapsed:.1f}s",
    )


def test_criterion_06_catalan_ratio():
    started = time.time()
    ok = all(catalan_walk_check(r) == Fraction(1, r) for r in range(1, 9))
    elapsed = time.time() - started
    record(6, "non-crossing walk fraction equals 1/r for r = 1..8", ok and elapsed < 10,
           f"{elapsed:.1f}s")


def test_criterion_07_sampler_uniformity():
    started = time.time()
    r31 = uniformity_test(SamplerSpec(kind="rejection", n=3, d=1, seed=731), 90_000)
    r42 = uniformity_test(SamplerSpec(kind="rejection", n=4, d=2, seed=732), 90_000)
    m42 = uniformity_test(
        SamplerSpec(kind="switch_mcmc", n=4, d=2, steps=200, seed=733), 90_000
    )
    ok = r31.tv_distance <= 0.02 and r42.tv_distance <= 0.02 and m42.tv_distance <= 0.03
    elapsed = time.time() - started
    record(
        7,
        "sampler uniformity vs enumerated class (TV distance)",
        ok and elapsed < 120,
        f"rej(3,1)={r31.tv_distance:.4f} rej(4,2)={r42.tv_distance:.4f} "
        f"mcmc(4,2)={m42.tv_distance:.4f} in {elapsed:.1f}s",
    )


def test_criterion_08_theorem_soundness_tails():
    started = time.time()
    # (a) codegree upper tail under the exact-uniform rejection sampler.
    cfg_a = ExperimentConfig(
        sampler=SamplerSpec(kind="rejection", n=60, d=4),
        statistic="codegree",
        grid=(0.5, 1.0, 2.0),
        N=20_000,
        seed=801,
    )
    res_a = run_tail_experiment(cfg_a)
    ok_a = True
    for row, eps in zip(res_a.rows, cfg_a.grid):
        expected = math.exp(-(eps**2) / (4 + 2 * eps) * (4 / 60) ** 2 * 60)
        ok_a &= abs(row.bound - expected) < 1e-12 and row.verdict == "pass"
    # (b) permutation-model edge counts.
    cfg_b = ExperimentConfig(
        sampler=SamplerSpec(kind="permutation_model", n=200, d=5),
        statistic="perm_edge_count",
        grid=(0.5, 1.0),
        N=20_000,
        seed=802,
        a=50,
        b=50,
    )
    res_b = run_tail_experiment(cfg_b)
    mu = 5 * 50 * 50 / 200
    ok_b = True
    for row, tau in zip(res_b.rows, cfg_b.grid):
        expected = 2 * math.exp(-(tau**2) * mu / (2 + tau))
        ok_b &= abs(row.bound - expected) < 1e-12 and row.verdict == "pass"
    # (c) joint edge/codegree event under the switch chain.
    cfg_c = ExperimentConfig(
        sampler=SamplerSpec(kind="switch_mcmc", n=60, d=30, steps=2500),
        statistic="edge_count",
        grid=(0.5,),
        N=20_000,
        seed=803,
        a=30,
        b=30,
        good_event_eta=1 / 16,
    )
    res_c = run_tail_experiment(cfg_c)
    row_c = res_c.rows[0]
    mu_hat = 30 * 30 * 30 / 60
    ok_c = (
        row_c.valid
        and abs(row_c.bound - math.exp(-(0.5**2) * mu_hat / (64 + 8 * 0.5))) < 1e-12
        and row_c.verdict == "pass"
    )
    elapsed = time.time() - started
    record(
        8,
        "theorem-soundness Monte Carlo tails (codegree / permutation / joint)",
        ok_a and ok_b and ok_c and elapsed < 600,
        f"lower-CIs vs bounds all pass in {elapsed:.1f}s",
    )


def test_criterion_09_deterministic_lemma_instances(class_4_2):
    started = time.time()
    ok_lemma = True
    for mat in class_4_2:
        co_max = max(
            max(codegree(mat, i1, i2).co, codegree(mat.transpose(), i1, i2).co)
            for i1 in range(4)
            for i2 in range(i1 + 1, 4)
        )
        eps_star = max(Fraction(co_max) - 1, Fraction(1, 100))  # p^2 n = 1 here
        for eps in (float(eps_star), 1.0, 2.0):
            report = check_pseudorandom_implication(mat, eps=eps)
            if report.hypothesis_holds:
                ok_lemma &= not report.violations
    ok_jumbled = all(
        alpha_exact(mat) <= sigma2(mat).sigma2 + 1e-8 for mat in class_4_2
    )
    ok_spectral = True
    for mat in _mats(40, 10, 100, seed=940, steps=3000):
        rep = sigma2(mat)
        ok_spectral &= abs(rep.sigma1 - 10) < 1e-8
        ok_spectral &= abs(rep.sigma2 - sigma2(complement(mat)).sigma2) < 1e-8
    elapsed = time.time() - started
    record(
        9,
        "pseudorandomness implication + jumbledness + sigma invariances",
        ok_lemma and ok_jumbled and ok_spectral and elapsed < 180,
        f"in {elapsed:.1f}s",
    )


def test_criterion_10_bipartite_extension():
    started = time.time()
    mats = _mats(9, 3, 200, seed=1060, steps=None, m=6, dp=2, kind="rejection")
    rng = stream_generator(1061, 0)
    ok = True
    for idx, mat in enumerate(mats):
        assert (mat.m, mat.n, mat.d, mat.dp) == (6, 9, 3, 2)
        # codegree record invariants with column count n = 9
        for i1, i2 in itertools.permutations(range(6), 2):
            rec = codegree(mat, i1, i2)
            ok &= rec.ex == 3 - rec.co
            ok &= naive_column_classes(mat, i1, i2)["00"] == 9 - 6 + rec.co
            ok &= rec.ex <= min(3, 9 - 3)
            # criterion 2 identity at column count n
            diag = reflection_f(mat, i1, i2)
            ok &= diag.f_scaled == 9 * rec.co - 9 + diag.b
        if idx % 20 == 0:
            n_k, n_i, n_i_refl = naive_minor_scan(mat, 0, 1)
            diag = reflection_f(mat, 0, 1)
            ok &= diag.f_scaled == n_k - n_i_refl and diag.b == n_i - n_i_refl
        # criterion 3: v_f self-bound, exact mode
        diag = reflection_vf(mat, 0, 1)
        ok &= diag.v_f <= diag.f + Fraction(2 * mat.d_hat**2, mat.n)
        # criterion 4: switching identities with the bipartite mu_hat
        a = int(rng.integers(1, 6))
        b = int(rng.integers(1, 9))
        pair = VertexSetPair.of(
            (int(x) for x in rng.choice(6, a, replace=False)),
            (int(x) for x in rng.choice(9, b, replace=False)),
        )
        sdiag = switching_f(mat, pair)
        reduced = _reduce_pair(mat, pair)
        e = edge_count(mat, reduced)
        ok &= sdiag.scale == 81
        ok &= sdiag.f_scaled == 3 * 6 * 6 * (9 * e - 3 * reduced.a * reduced.b) + sdiag.f2_scaled
        ok &= _f2_bound_holds(mat, reduced, sdiag)
        svf = switching_vf(mat, pair)
        bound = Fraction(6 * mat.d_hat) * (svf.f + 2 * 6 * mat.d_hat * reduced.mu(mat))
        ok &= svf.v_f <= bound
        # walk boundary with column sums dp over m rows
        j1, j2 = (int(x) for x in rng.choice(9, 2, replace=False))
        walk = column_walk(mat, j1, j2)
        ok &= walk.positions[-1] == 0 and walk.r <= min(2, 6 - 2)
    elapsed = time.time() - started
    record(
        10,
        "bipartite (6,9,3,2): criteria 2-4 identities re-verified",
        ok and elapsed < 120,
        f"200 matrices in {elapsed:.1f}s",
    )


def test_criterion_11_reproducibility(tmp_path):
    started = time.time()
    cfg = ExperimentConfig(
        sampler=SamplerSpec(kind="permutation_model", n=50, d=3),
        statistic="perm_edge_count",
        grid=(0.5, 1.0),
        N=6000,
        seed=1111,
        a=15,
        b=15,
    )
    first = run_tail_experiment(cfg)
    second = run_tail_experiment(cfg, max_workers=3)
    csv_equal = result_to_csv(first) == result_to_csv(second)
    meta1 = {k: v for k, v in first.metadata.items() if k != "wall_time_s"}
    meta2 = {k: v for k, v in second.metadata.items() if k != "wall_time_s"}
    verify1 = [r.to_dict() for r in run_suite("reflection", 12, 3, 30, seed=7)]
    verify2 = [r.to_dict() for r in run_suite("reflection", 12, 3, 30, seed=7)]
    ok = csv_equal and meta1 == meta2 and verify1 == verify2
    elapsed = time.time() - started
    record(
        11,
        "byte-identical payloads for repeated seeded runs",
        ok,
        f"in {elapsed:.1f}s",
    )
