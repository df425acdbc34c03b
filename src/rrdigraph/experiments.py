"""Monte Carlo tail experiments.

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
from typing import Callable, List, Optional, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from .bounds import _THEOREMS, BoundValue, TailBoundSpec, eval_bound
from .matrices import codegree_deviation, rows_to_words
from .samplers import CLASS_KINDS, SamplerSpec, check_ranges, check_reads, draw, fields_named, rejection_side

__all__ = [
    "ExperimentConfig",
    "TailRow",
    "TailExperimentResult",
    "run_tail_experiment",
    "binomial_ci",
    "result_to_csv",
    "CSV_HEADER",
]

SHARD_SIZE = 4096
CSV_HEADER = "grid_value,empirical,ci_lo,ci_hi,bound,valid,verdict"
# Version 5 of the tail metadata echoes `sampler.d` as null for the
# Erdos-Renyi kind, which reads none.  Version 4 echoes no theorem constants
# (none is set); version 3 has no `sampler.seed` (always 0, never read);
# version 2 echoes `sampler.max_attempts` as null for the kinds other than
# rejection, which alone reads it.  For the rejection sampler, `rejection_side` names the
# side that rejection_words draws, "class" or "complement", and
# `rejection_attempts` and `acceptance_rate` are that side's.
SCHEMA_VERSION = 5


@dataclass(frozen=True)
class ExperimentConfig:
    """One tail experiment: sampler, statistic, deviation grid, sample count.

    `seed` keys the draws in place of the sampler's own, which must stay 0:
    shard k runs with (seed, sampler.stream + k), which makes the merge
    independent of worker scheduling.
    """

    sampler: SamplerSpec
    statistic: str
    grid: Tuple[float, ...]
    N: int
    seed: int = 0
    good_event_eta: Optional[float] = None
    i1: Optional[int] = None  # 0 for the statistics that read it
    i2: Optional[int] = None  # 1 for the statistics that read it
    a: Optional[int] = None
    b: Optional[int] = None

    def __post_init__(self):
        stat = _STATISTICS.get(self.statistic)
        if stat is None:
            raise ValueError(f"unknown statistic {self.statistic!r}")
        if not self.grid:
            raise ValueError("config field 'grid' must hold at least one value")
        check_ranges("config", ("N", self.N, 1), *(("grid", g, 0) for g in self.grid),
                     ("good_event_eta", self.good_event_eta, 0))
        if self.sampler.seed:
            raise ValueError(
                f"config field 'sampler.seed' is not read (the shards use 'seed'), got {self.sampler.seed}"
            )
        if self.sampler.kind not in stat.kinds:
            raise ValueError(
                f"statistic {self.statistic!r} needs sampler kind in {stat.kinds}, "
                f"got {self.sampler.kind!r}"
            )
        n = self.sampler.n
        # The events and theorems are the square-case ones (n*mu_hat uses
        # (n-a)(n-b), the codegree mean is d^2/n).
        if self.sampler.m not in (None, n):
            raise ValueError(
                f"config field 'sampler.m' must equal sampler.n = {n} for statistic "
                f"{self.statistic!r}, got {self.sampler.m}"
            )
        check_reads("config", self, stat.reads, f"statistic {self.statistic!r}", stat.requires)
        if "i1" in stat.reads:
            for name, default in (("i1", 0), ("i2", 1)):
                if getattr(self, name) is None:
                    object.__setattr__(self, name, default)
                value = getattr(self, name)
                if not 0 <= value < n:
                    raise ValueError(f"config field {name!r} must be a row in [0, {n}), got {value}")
            if self.i1 == self.i2:
                raise ValueError(f"config fields 'i1' and 'i2' must differ, both are {self.i1}")
        # The theorem checks a, b and each grid value, and that its bound is finite there.
        with fields_named({"bound field 'deviation'": "config field 'grid'"}):
            for g in self.grid:
                eval_bound(stat.bound_spec(self, g))

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
        if "seed" in sampler:
            raise ValueError("config field 'sampler.seed' is not read (the shards use 'seed'); drop it")
        try:
            _check_scalar_types(SamplerSpec, sampler, "sampler.")
            spec = SamplerSpec(**sampler)
        except TypeError as exc:
            raise ValueError(f"config field 'sampler': {exc}") from exc
        grid = data.pop("grid")
        if not isinstance(grid, list) or not all(_is_number(g) for g in grid):
            raise ValueError("config field 'grid' must be a list of numbers")
        try:
            grid = tuple(float(g) for g in grid)
        except OverflowError:
            raise ValueError("config field 'grid' must hold numbers within float range") from None
        _check_scalar_types(cls, data)
        return cls(sampler=spec, grid=grid, **data)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        del out["sampler"]["seed"]  # always 0: the shards draw from `seed`
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


# Each tail of the 95% interval: (1 - 0.95) / 2 in floats, 0.025000000000000022.
_CI_TAIL = (1.0 - 0.95) / 2.0


def binomial_ci(k: int, n: int) -> Tuple[float, float]:
    """Exact (Clopper-Pearson) 95% binomial confidence interval for k/n.

    With X ~ Bin(n, p), the lower limit solves P(X >= k) = _CI_TAIL and the
    upper limit P(X <= k) = _CI_TAIL; they are 0 at k = 0 and 1 at k = n.
    Both are Python floats.
    """
    # Each limit is the root of its own tail equation (_tail_root): taken as 1
    # minus a mirrored lower limit, a small upper limit would lose its
    # relative accuracy.  At k = n and k = 0 the tails are p^n and (1 - p)^n,
    # which give the limits in closed form.  Accuracy: within 1e-12 relative
    # of SciPy's betaincinv, and for n <= 40 within 8 ulps of the exact root
    # (both tested).  Against 40-digit roots the largest errors measured are
    # 1.2e-14 at n = 100000, where each O(n)-sized term of the log tail
    # carries an ulp, and 3.3e-14 for betaincinv itself at n = 4881.  Cost:
    # 0.16-0.6 ms per call at n = 4096 and 0.17-1.9 ms at n = 20000 on a
    # 2-core Xeon, mostly the tail sums of 5-13 Newton steps.  No SciPy: NumPy
    # is the package's only runtime dependency.
    check_ranges("binomial_ci", ("k", k, 0, n))
    if k == 0:
        lo = 0.0
    elif k == n:
        lo = math.exp(math.log(_CI_TAIL) / n)
    else:
        lo = _tail_root(k, n, _CI_TAIL, upper=True)
    if k == n:
        hi = 1.0
    elif k == 0:
        hi = -math.expm1(math.log(_CI_TAIL) / n)
    else:
        hi = _tail_root(k, n, _CI_TAIL, upper=False)
    return lo, hi


def _log_comb(n: int, k: int) -> float:
    """log C(n, k) as the exact sum of min(k, n - k) rounded log ratios.

    Within an ulp of log(math.comb(n, k)) for every k at n < 400 and on 300
    k at n = 20000; lgamma differences are off by up to 7e-11 there, at
    k = 1 as elsewhere, which alone moves a limit by more than 1e-12.
    """
    j = np.arange(min(k, n - k), dtype=np.float64)
    return math.fsum(np.log((n - j) / (j + 1.0)))


def _tail_root(k: int, n: int, target: float, upper: bool) -> float:
    """The p at which P(X >= k) (upper) or P(X <= k) equals target, X ~ Bin(n, p).

    Needs 0 < k < n and 0 < target < 1/2.  Newton steps on log p of the log
    tail, kept inside a bracket that every evaluation shrinks; a step that
    leaves the bracket is replaced by the bracket's geometric midpoint.  The
    root lies between k/n, where either tail is at least 1/2 (k is a median
    of Bin(n, k/n)), and the point where the union bound C(n, k) p^k (upper)
    or C(n, k) (1 - p)^(n - k) reaches target.

    The tail is the pmf at k, exp(log C(n, k) + k log p + (n - k) log(1 - p)),
    times 1 plus the products of the pmf's ratios, running away from k.  With
    j the successes (upper) or failures at k, the i-th ratio is at most
    j / (j + i + 1) anywhere in the bracket, so the products fall below e^-100
    within 20 (isqrt(j) + 1) terms and the rest of the sum is dropped.
    """
    j = k if upper else n - k
    log_comb = _log_comb(n, k)
    log_target = math.log(target)
    i = np.arange(min(n - j, 20 * (math.isqrt(j) + 1)), dtype=np.float64)
    ratios = (n - j - i) / (j + 1.0 + i)
    edge = (log_target - log_comb) / j
    low, high = (math.exp(edge), k / n) if upper else (k / n, -math.expm1(edge))
    p = k / n
    for _ in range(100):
        odds = p / (1.0 - p) if upper else (1.0 - p) / p
        s = 1.0 + float(np.cumprod(ratios * odds).sum())
        a, b = k * math.log(p), (n - k) * math.log1p(-p)
        f = log_comb + a + b + math.log(s) - log_target  # increasing in p if upper
        slope = j / s if upper else -j / (odds * s)  # df / dlog p
        if (f > 0) == upper:
            high = p
        else:
            low = p
        step = -f / slope
        # Done when the step is within what an ulp in each large term of f
        # moves the root by, or is below 1e-15 relative.
        noise = 8 * 2.0**-52 * (abs(log_comb) + abs(a) + abs(b)) / abs(slope)
        if abs(step) <= max(1e-15, noise):
            return p * math.exp(step)
        if math.log(low / p) < step < math.log(high / p):
            p *= math.exp(step)
        else:
            p = math.sqrt(low * high)
    raise ArithmeticError(f"no Clopper-Pearson limit found for k={k}, n={n}")


def _row_codegree(cfg: ExperimentConfig, words: np.ndarray) -> np.ndarray:
    """Codegree of rows i1 and i2 per sample: the popcount of their AND."""
    return np.bitwise_count(words[:, cfg.i1] & words[:, cfg.i2]).sum(axis=-1, dtype=np.int64)


def _box_edges(cfg: ExperimentConfig, words: np.ndarray) -> np.ndarray:
    """e(A, B) per sample, for the first a rows and the first b columns: the
    popcount of those rows masked by those columns."""
    columns = rows_to_words([(1 << cfg.b) - 1], cfg.sampler.n)[0]
    return np.bitwise_count(words[:, : cfg.a] & columns).sum(axis=(1, 2), dtype=np.int64)


def _ceil_scaled(grid, scale: int) -> List[int]:
    """ceil(g * scale) per grid value, exactly: the least integer statistic
    that reaches the deviation g on the integer scale `scale`."""
    return [math.ceil(Fraction(g) * scale) for g in grid]


def _codegree_events(cfg: ExperimentConfig, words: np.ndarray) -> List[np.ndarray]:
    n, d = cfg.sampler.n, cfg.sampler.d
    scaled = n * _row_codegree(cfg, words) - d * d
    return [scaled >= t for t in _ceil_scaled(cfg.grid, min(d, n - d) ** 2)]


def _codegree_uniform_events(cfg: ExperimentConfig, words: np.ndarray) -> List[np.ndarray]:
    n, d = cfg.sampler.n, cfg.sampler.d
    dev = codegree_deviation(words, n, d)
    return [dev >= t for t in _ceil_scaled(cfg.grid, min(d, n - d) ** 2)]


def _edge_events(cfg: ExperimentConfig, words: np.ndarray) -> List[np.ndarray]:
    """Upper deviations of e(A, B), joint with the uniform-codegree event
    when good_event_eta is set."""
    n, d, a, b = cfg.sampler.n, cfg.sampler.d, cfg.a, cfg.b
    scaled = n * _box_edges(cfg, words) - d * a * b  # n * (e - mu)
    thresholds = _ceil_scaled(cfg.grid, d * min(a * b, (n - a) * (n - b)))  # n * mu_hat
    if cfg.good_event_eta is None:
        return [scaled >= t for t in thresholds]
    dev = codegree_deviation(words, n, d)
    good = dev <= math.floor(Fraction(cfg.good_event_eta) * d * (n - d))
    return [(scaled >= t) & good for t in thresholds]


def _perm_edge_events(cfg: ExperimentConfig, perms: np.ndarray) -> List[np.ndarray]:
    n, d, a, b = cfg.sampler.n, cfg.sampler.d, cfg.a, cfg.b
    e = (perms[:, :, :a] < b).sum(axis=(1, 2)).astype(np.int64)
    dev = np.abs(n * e - d * a * b)  # n * |e - mu|
    return [dev >= t for t in _ceil_scaled(cfg.grid, d * a * b)]


# Erdos-Renyi baselines: |X - c| >= eps * c about the mean c, exactly.
def _two_sided_events(x: np.ndarray, center: Fraction, grid) -> List[np.ndarray]:
    """Per grid value eps, X >= ceil((1 + eps) c) or X <= floor((1 - eps) c)."""
    return [(x >= math.ceil((1 + eps) * center)) | (x <= math.floor((1 - eps) * center))
            for eps in map(Fraction, grid)]


def _er_codegree_events(cfg: ExperimentConfig, words: np.ndarray) -> List[np.ndarray]:
    center = Fraction(cfg.sampler.p) ** 2 * cfg.sampler.n
    return _two_sided_events(_row_codegree(cfg, words), center, cfg.grid)


def _er_edge_events(cfg: ExperimentConfig, words: np.ndarray) -> List[np.ndarray]:
    center = Fraction(cfg.sampler.p) * cfg.a * cfg.b
    return _two_sided_events(_box_edges(cfg, words), center, cfg.grid)


# The config field that feeds each theorem field; the sampler feeds d, m and p.
_CONFIG_FIELD = {"eta": "good_event_eta", "d": None, "m": None, "p": None}


@dataclass(frozen=True)
class _Statistic:
    """One tail statistic: where it is defined, its event and the theorem
    that bounds the event's probability."""

    kinds: Tuple[str, ...]  # sampler kinds it is defined under
    events: Callable[[ExperimentConfig, np.ndarray], List[np.ndarray]]  # one mask per grid value
    theorem: str
    row_pair: bool = False  # reads the rows i1 and i2
    # The joint statement needs the codegree event; without eta the curve
    # is shown but carries no claim.
    claim_needs_eta: bool = False
    bound_fields: dict = dataclasses.field(init=False)  # theorem field -> the config field feeding it
    reads: Tuple[str, ...] = dataclasses.field(init=False)  # config fields besides sampler, grid, N, seed
    requires: Tuple[str, ...] = dataclasses.field(init=False)  # those the theorem requires

    def __post_init__(self):
        feeds = {name: _CONFIG_FIELD.get(name, name) for name in _THEOREMS[self.theorem].reads}
        object.__setattr__(self, "bound_fields", {name: c for name, c in feeds.items() if c is not None})
        object.__setattr__(self, "reads", ("i1", "i2") * self.row_pair + tuple(self.bound_fields.values()))
        object.__setattr__(self, "requires", tuple(feeds[t] for t in _THEOREMS[self.theorem].requires if feeds[t]))

    def bound_spec(self, cfg: ExperimentConfig, grid_value: float) -> TailBoundSpec:
        """The theorem's inputs at one grid value, from the config fields it reads."""
        fields = {name: getattr(cfg, c) for name, c in self.bound_fields.items()}
        s = cfg.sampler
        return TailBoundSpec(theorem=self.theorem, n=s.n, d=s.d, p=s.p, deviation=grid_value, **fields)

    def bound(self, cfg: ExperimentConfig, grid_value: float) -> Tuple[BoundValue, bool]:
        """The theorem's bound at one grid value, and whether it makes a claim there."""
        value = eval_bound(self.bound_spec(cfg, grid_value))
        return value, value.valid and (cfg.good_event_eta is not None or not self.claim_needs_eta)


_STATISTICS = {
    "codegree": _Statistic(CLASS_KINDS, _codegree_events, "codegree_upper", row_pair=True),
    "codegree_uniform": _Statistic(CLASS_KINDS, _codegree_uniform_events, "codegree_uniform"),
    "edge_count": _Statistic(CLASS_KINDS, _edge_events, "edge_upper", claim_needs_eta=True),
    "perm_edge_count": _Statistic(("permutation_model",), _perm_edge_events, "perm_edge"),
    "er_codegree": _Statistic(("erdos_renyi",), _er_codegree_events, "er_codegree", row_pair=True),
    "er_edge": _Statistic(("erdos_renyi",), _er_edge_events, "er_edge"),
}


def _shard_counts(cfg: ExperimentConfig, shard_index: int, count: int) -> Tuple[np.ndarray, int]:
    """Per-grid-point event counts for one shard, and the sampler's attempts
    for it."""
    spec = dataclasses.replace(
        cfg.sampler, seed=cfg.seed, stream=cfg.sampler.stream + shard_index
    )
    batch, attempts = draw(spec, count)
    masks = _STATISTICS[cfg.statistic].events(cfg, batch)
    return np.array([int(mask.sum()) for mask in masks], dtype=np.int64), attempts


def run_tail_experiment(
    cfg: ExperimentConfig, max_workers: Optional[int] = None
) -> TailExperimentResult:
    """Estimate the tail at each grid point and compare to the bound.

    Shards of SHARD_SIZE samples run on streams (seed, stream + k); the
    merge is an order-independent sum, so the payload depends only on the
    config, never on worker count or scheduling.  max_workers below 1 is
    refused before any draw.
    """
    check_ranges("run_tail_experiment", ("max_workers", max_workers, 1))
    started = time.time()
    shards = []
    remaining = cfg.N
    index = 0
    while remaining > 0:
        take = min(SHARD_SIZE, remaining)
        shards.append((index, take))
        remaining -= take
        index += 1

    if max_workers in (None, 1) or len(shards) == 1:
        parts = [_shard_counts(cfg, i, c) for i, c in shards]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            parts = list(pool.map(lambda s: _shard_counts(cfg, *s), shards))
    totals = np.sum([counts for counts, _ in parts], axis=0)

    stat = _STATISTICS[cfg.statistic]
    rows = []
    for g, value in enumerate(cfg.grid):
        k = int(totals[g])
        empirical = k / cfg.N
        ci_lo, ci_hi = binomial_ci(k, cfg.N)
        bound, valid = stat.bound(cfg, value)
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
        spec = cfg.sampler
        metadata["rejection_side"] = rejection_side(spec.n, spec.d, spec.m, spec.dp)[0]
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

