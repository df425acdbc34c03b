"""Monte Carlo tail experiments and standalone combinatorial checks.

The harness estimates, for a grid of deviation values, the empirical
probability of a deviation event (optionally intersected with the
uniform-codegree event) under one of the samplers, with exact
Clopper-Pearson confidence intervals, next to the matching closed-form
bound.  Exceedance of a proven bound by the lower CI endpoint is flagged
as a defect; nothing is asserted here, verdicts are reported.

Work is sharded into fixed-size blocks, one (seed, stream) pair per
shard, so results are bit-identical for a given config regardless of how
many workers execute the shards.
"""

from __future__ import annotations

import dataclasses
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from .bounds import BoundValue, TailBoundSpec, eval_bound
from .samplers import (
    SamplerSpec,
    _rejection,
    enumerate_all,
    er_dense,
    permutation_batch,
    rejection_dense,
    switch_mcmc_dense,
)

__all__ = [
    "ExperimentConfig",
    "TailRow",
    "TailExperimentResult",
    "UniformityResult",
    "run_tail_experiment",
    "catalan_walk_check",
    "uniformity_test",
    "binomial_ci",
    "result_to_csv",
    "CSV_HEADER",
]

STATISTICS = (
    "codegree",
    "codegree_uniform",
    "edge_count",
    "perm_edge_count",
    "er_codegree",
    "er_edge",
)

SHARD_SIZE = 4096
CSV_HEADER = "grid_value,empirical,ci_lo,ci_hi,bound,valid,verdict"
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """One tail experiment: sampler, statistic, deviation grid, sample count.

    `seed` overrides the sampler's own (seed, stream): shard k runs with
    (seed, sampler.stream + k), which makes the merge independent of
    worker scheduling.
    """

    sampler: SamplerSpec
    statistic: str
    grid: Tuple[float, ...]
    N: int
    seed: int = 0
    good_event_eta: Optional[float] = None
    i1: int = 0
    i2: int = 1
    a: Optional[int] = None
    b: Optional[int] = None
    c: Optional[float] = None
    c1: Optional[float] = None
    c2: Optional[float] = None

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {self.statistic!r}")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if any(g < 0 for g in self.grid):
            raise ValueError("grid values must be >= 0")
        if self.good_event_eta is not None and self.statistic != "edge_count":
            raise ValueError("good_event_eta applies only to statistic='edge_count'")
        needs_sets = self.statistic in ("edge_count", "perm_edge_count", "er_edge")
        if needs_sets and (self.a is None or self.b is None):
            raise ValueError(f"statistic {self.statistic!r} requires set sizes a and b")
        expected_kind = {
            "codegree": ("rejection", "switch_mcmc"),
            "codegree_uniform": ("rejection", "switch_mcmc"),
            "edge_count": ("rejection", "switch_mcmc"),
            "perm_edge_count": ("permutation_model",),
            "er_codegree": ("erdos_renyi",),
            "er_edge": ("erdos_renyi",),
        }[self.statistic]
        if self.sampler.kind not in expected_kind:
            raise ValueError(
                f"statistic {self.statistic!r} needs sampler kind in {expected_kind}, "
                f"got {self.sampler.kind!r}"
            )

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        """Build a config from its JSON form; malformed input raises ValueError
        naming the offending field."""
        if not isinstance(payload, dict):
            raise ValueError(f"config must be a JSON object, got {type(payload).__name__}")
        fields = dataclasses.fields(cls)
        unknown = sorted(set(payload) - {f.name for f in fields})
        if unknown:
            raise ValueError(f"unknown config field(s): {', '.join(unknown)}")
        missing = [
            f.name for f in fields
            if f.default is dataclasses.MISSING and f.name not in payload
        ]
        if missing:
            raise ValueError(f"missing required config field(s): {', '.join(missing)}")
        data = dict(payload)
        sampler = data.pop("sampler")
        if not isinstance(sampler, dict):
            raise ValueError(f"config field 'sampler' must be an object, got {type(sampler).__name__}")
        try:
            _check_scalar_types(SamplerSpec, sampler, "sampler.")
            spec = SamplerSpec(**sampler)
        except TypeError as exc:
            raise ValueError(f"config field 'sampler': {exc}") from exc
        grid = data.pop("grid")
        if not isinstance(grid, list) or not all(_is_number(g) for g in grid):
            raise ValueError("config field 'grid' must be a list of numbers")
        _check_scalar_types(cls, data)
        return cls(sampler=spec, grid=tuple(float(g) for g in grid), **data)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["grid"] = list(self.grid)
        return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# JSON types accepted for each scalar annotation; an int is a valid float.
_SCALAR_CHECKS = {int: lambda v: isinstance(v, int) and not isinstance(v, bool),
                  float: _is_number, str: lambda v: isinstance(v, str)}


def _check_scalar_types(cls, data: dict, prefix: str = "") -> None:
    """Raise ValueError naming the first key of `data` whose value does not
    match the int, float or str (optionally None) annotation of `cls`."""
    hints = get_type_hints(cls)
    for key, value in data.items():
        hint = hints.get(key)
        options = get_args(hint) if get_origin(hint) is Union else (hint,)
        checks = [_SCALAR_CHECKS[t] for t in options if t in _SCALAR_CHECKS]
        if not checks or (value is None and type(None) in options):
            continue
        if not any(check(value) for check in checks):
            wanted = " or ".join("null" if t is type(None) else t.__name__ for t in options)
            raise ValueError(f"config field '{prefix}{key}' must be {wanted}, got {type(value).__name__}")


@dataclass(frozen=True)
class TailRow:
    grid_value: float
    empirical: float
    ci_lo: float
    ci_hi: float
    bound: float
    valid: bool
    verdict: str  # "pass" | "fail" | "invalid"


@dataclass(frozen=True)
class TailExperimentResult:
    rows: Tuple[TailRow, ...]
    metadata: dict

    @property
    def all_pass(self) -> bool:
        return all(row.verdict != "fail" for row in self.rows)


def binomial_ci(k: int, n: int, confidence: float = 0.95) -> Tuple[float, float]:
    """Exact (Clopper-Pearson) binomial confidence interval for k/n."""
    # scipy.stats is imported here and in uniformity_test, not at module
    # level: it costs about a second, and most callers of the package never
    # need it.
    from scipy import stats as scipy_stats

    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    alpha = 1.0 - confidence
    lo = 0.0 if k == 0 else float(scipy_stats.beta.ppf(alpha / 2.0, k, n - k + 1))
    hi = 1.0 if k == n else float(scipy_stats.beta.ppf(1.0 - alpha / 2.0, k + 1, n - k))
    return lo, hi


def _all_pair_codegree_dev(batch: np.ndarray, n: int, d: int) -> np.ndarray:
    """max over row pairs of |n*co - d^2| per sample (exact in float32)."""
    f32 = batch.astype(np.float32)
    gram = np.matmul(f32, f32.transpose(0, 2, 1))
    dev = np.abs(n * gram - d * d)
    m = batch.shape[1]
    iu = np.triu_indices(m, k=1)
    return dev[:, iu[0], iu[1]].max(axis=1).astype(np.int64)


def _shard_counts(cfg: ExperimentConfig, shard_index: int, count: int) -> Tuple[np.ndarray, int]:
    """Per-grid-point exceedance counts for one shard, and the rejection
    sampler's attempts for it (0 for the other samplers)."""
    spec = dataclasses.replace(
        cfg.sampler, seed=cfg.seed, stream=cfg.sampler.stream + shard_index
    )
    stat = cfg.statistic
    n, d = spec.n, spec.d
    counts = np.zeros(len(cfg.grid), dtype=np.int64)
    attempts = 0

    if stat in ("codegree", "codegree_uniform", "edge_count"):
        if spec.kind == "rejection":
            batch, attempts = _rejection(spec, count)
        else:
            batch = switch_mcmc_dense(spec, count)
        d_hat = min(d, n - d)
        if stat == "codegree":
            co = (
                batch[:, cfg.i1, :].astype(np.int64) * batch[:, cfg.i2, :]
            ).sum(axis=1)
            scaled = n * co - d * d
            for g, eps in enumerate(cfg.grid):
                counts[g] = int((scaled >= math.ceil(Fraction(eps) * d_hat**2)).sum())
        elif stat == "codegree_uniform":
            dev = _all_pair_codegree_dev(batch, n, d)
            for g, eps in enumerate(cfg.grid):
                counts[g] = int((dev >= math.ceil(Fraction(eps) * d_hat**2)).sum())
        else:  # edge_count, optionally joint with the codegree event
            a, b = cfg.a, cfg.b
            e = batch[:, :a, :b].astype(np.int64).sum(axis=(1, 2))
            scaled = n * e - d * a * b  # n * (e - mu)
            mu_hat_scaled = d * min(a * b, (n - a) * (n - b))  # n * mu_hat
            if cfg.good_event_eta is not None:
                dev = _all_pair_codegree_dev(batch, n, d)
                good = dev <= math.floor(Fraction(cfg.good_event_eta) * d * (n - d))
            else:
                good = np.ones(count, dtype=bool)
            for g, tau in enumerate(cfg.grid):
                thr = math.ceil(Fraction(tau) * mu_hat_scaled)
                counts[g] = int(((scaled >= thr) & good).sum())
        return counts, attempts

    if stat == "perm_edge_count":
        a, b = cfg.a, cfg.b
        perms = permutation_batch(spec, count)
        e = (perms[:, :, :a] < b).sum(axis=(1, 2)).astype(np.int64)
        scaled = n * e - d * a * b  # n * (e - mu)
        mu_scaled = d * a * b
        for g, tau in enumerate(cfg.grid):
            thr = math.ceil(Fraction(tau) * mu_scaled)
            counts[g] = int(((scaled >= thr) | (-scaled >= thr)).sum())
        return counts, attempts

    # Erdos-Renyi baselines; p is a float so events compare in floats here.
    batch = er_dense(spec, count)
    p = spec.p
    if stat == "er_codegree":
        co = (batch[:, cfg.i1, :].astype(np.int64) * batch[:, cfg.i2, :]).sum(axis=1)
        center = p * p * n
        for g, eps in enumerate(cfg.grid):
            counts[g] = int((np.abs(co - center) >= eps * center).sum())
    else:  # er_edge
        a, b = cfg.a, cfg.b
        e = batch[:, :a, :b].astype(np.int64).sum(axis=(1, 2))
        center = p * a * b
        for g, eps in enumerate(cfg.grid):
            counts[g] = int((np.abs(e - center) >= eps * center).sum())
    return counts, attempts


def _bound_for(cfg: ExperimentConfig, grid_value: float) -> Tuple[BoundValue, bool]:
    spec = cfg.sampler
    if cfg.statistic == "codegree":
        bv = eval_bound(
            TailBoundSpec(theorem="codegree_upper", n=spec.n, d=spec.d, deviation=grid_value)
        )
        return bv, bv.valid
    if cfg.statistic == "codegree_uniform":
        bv = eval_bound(
            TailBoundSpec(
                theorem="codegree_uniform", n=spec.n, d=spec.d, deviation=grid_value,
                c=cfg.c, c1=cfg.c1, c2=cfg.c2,
            )
        )
        return bv, bv.valid
    if cfg.statistic == "edge_count":
        bv = eval_bound(
            TailBoundSpec(
                theorem="edge_upper", n=spec.n, d=spec.d, deviation=grid_value,
                a=cfg.a, b=cfg.b, eta=cfg.good_event_eta, c1=cfg.c1, c2=cfg.c2,
            )
        )
        # The joint statement needs the codegree event; without eta the
        # curve is shown but carries no claim.
        return bv, bv.valid and cfg.good_event_eta is not None
    if cfg.statistic == "perm_edge_count":
        bv = eval_bound(
            TailBoundSpec(
                theorem="perm_edge", n=spec.n, d=spec.d, deviation=grid_value,
                a=cfg.a, b=cfg.b,
            )
        )
        return bv, bv.valid
    if cfg.statistic == "er_codegree":
        bv = eval_bound(
            TailBoundSpec(
                theorem="er_codegree", n=spec.n, deviation=grid_value, p=spec.p, c=cfg.c
            )
        )
        return bv, bv.valid
    bv = eval_bound(
        TailBoundSpec(
            theorem="er_edge", n=spec.n, deviation=grid_value, p=spec.p,
            a=cfg.a, b=cfg.b, c=cfg.c,
        )
    )
    return bv, bv.valid


def run_tail_experiment(
    cfg: ExperimentConfig, max_workers: Optional[int] = None
) -> TailExperimentResult:
    """Estimate the tail at each grid point and compare to the bound.

    Shards of SHARD_SIZE samples run on streams (seed, stream + k); the
    merge is an order-independent sum, so the payload depends only on the
    config, never on worker count or scheduling.
    """
    started = time.time()
    shards = []
    remaining = cfg.N
    index = 0
    while remaining > 0:
        take = min(SHARD_SIZE, remaining)
        shards.append((index, take))
        remaining -= take
        index += 1

    if max_workers is None or max_workers <= 1 or len(shards) == 1:
        parts = [_shard_counts(cfg, i, c) for i, c in shards]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            parts = list(pool.map(lambda s: _shard_counts(cfg, *s), shards))
    totals = np.sum([counts for counts, _ in parts], axis=0)

    rows = []
    for g, value in enumerate(cfg.grid):
        k = int(totals[g])
        empirical = k / cfg.N
        ci_lo, ci_hi = binomial_ci(k, cfg.N)
        bound, valid = _bound_for(cfg, value)
        if not valid:
            verdict = "invalid"
        else:
            verdict = "pass" if ci_lo <= bound.value else "fail"
        rows.append(
            TailRow(
                grid_value=value,
                empirical=empirical,
                ci_lo=ci_lo,
                ci_hi=ci_hi,
                bound=bound.value,
                valid=valid,
                verdict=verdict,
            )
        )
    metadata = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "sampler_kind": cfg.sampler.kind,
        "shards": len(shards),
        "shard_size": SHARD_SIZE,
        "wall_time_s": time.time() - started,
    }
    if cfg.sampler.kind == "rejection":
        # Summed over shards, so the counters depend on the config alone.
        attempts = sum(a for _, a in parts)
        metadata["rejection_attempts"] = attempts
        metadata["acceptance_rate"] = cfg.N / attempts
    return TailExperimentResult(tuple(rows), metadata)


def result_to_csv(result: TailExperimentResult) -> str:
    lines = [CSV_HEADER]
    for row in result.rows:
        lines.append(
            f"{row.grid_value!r},{row.empirical!r},{row.ci_lo!r},{row.ci_hi!r},"
            f"{row.bound!r},{str(row.valid).lower()},{row.verdict}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Standalone combinatorial checks
# ---------------------------------------------------------------------------


def catalan_walk_check(r: int) -> Fraction:
    """Exact fraction of (r-1, r-1) step orderings that never reach +1.

    Enumerates all C(2(r-1), r-1) placements of the +1 steps; a walk from
    0 that never hits +1 is counted.  The count is the Catalan number
    C_{r-1}, so the returned fraction is exactly 1/r.
    """
    if not 1 <= r <= 10:
        raise ValueError("r must be in [1, 10]")
    import itertools

    steps = 2 * (r - 1)
    total = math.comb(steps, r - 1)
    non_crossing = 0
    for ups in itertools.combinations(range(steps), r - 1):
        up_set = set(ups)
        pos = 0
        ok = True
        for t in range(steps):
            pos += 1 if t in up_set else -1
            if pos == 1:
                ok = False
                break
        non_crossing += ok
    return Fraction(non_crossing, total)


@dataclass(frozen=True)
class UniformityResult:
    tv_distance: float
    chi_sq_p: float
    class_size: int
    samples: int
    min_count: int
    max_count: int


def uniformity_test(
    n: int,
    d: int,
    sampler: SamplerSpec,
    N: int,
    m: Optional[int] = None,
    dp: Optional[int] = None,
) -> UniformityResult:
    """Empirical distribution over the enumerated class vs uniform.

    Requires enumerate_all to be feasible for (m, n, d, dp).  Returns the
    total-variation distance and the chi-square p-value against the
    uniform distribution; sampling is sharded exactly like the tail
    harness, so the result is reproducible per (sampler, N).
    """
    mm = n if m is None else m
    index = {}
    for i, mat in enumerate(enumerate_all(mm, n, d, dp)):
        index[mat.rows] = i
    size = len(index)
    counts = np.zeros(size, dtype=np.int64)

    produced = 0
    shard = 0
    while produced < N:
        take = min(SHARD_SIZE, N - produced)
        spec = dataclasses.replace(sampler, stream=sampler.stream + shard)
        if spec.kind == "rejection":
            batch = rejection_dense(spec, take)
        elif spec.kind == "switch_mcmc":
            batch = switch_mcmc_dense(spec, take)
        else:
            raise ValueError("uniformity_test needs a class-valued sampler")
        weights = 1 << np.arange(n, dtype=np.int64)
        keys = batch.astype(np.int64) @ weights
        for row_key in map(tuple, keys):
            counts[index[row_key]] += 1
        produced += take
        shard += 1

    emp = counts / N
    tv = 0.5 * float(np.abs(emp - 1.0 / size).sum())
    from scipy import stats as scipy_stats

    chi = scipy_stats.chisquare(counts)
    return UniformityResult(
        tv_distance=tv,
        chi_sq_p=float(chi.pvalue),
        class_size=size,
        samples=N,
        min_count=int(counts.min()),
        max_count=int(counts.max()),
    )
