"""Command-line interface.

Subcommands: sample, stats, couple, verify, bound, tail, sigma2,
enumerate.  Exit codes are fixed so CI scripts can gate on them:

  0  success (all verdicts pass)
  1  usage error
  2  a verification suite or tail run found a violated identity/bound
  3  resource guard (enumeration cap, exact v_f cost cap, rejection budget)
  4  couple: the requested operation was a no-op (not switchable /
     not reflecting)

Every run echoes its fully-resolved configuration (defaults filled) into
the JSON metadata it emits.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .bounds import THEOREMS, TailBoundSpec, eval_bound
from .couplings import RowOrder, SwitchSite, reflect, simple_switch
from .exchangeable import InvariantViolation
from .experiments import (
    ExperimentConfig,
    result_to_csv,
    run_tail_experiment,
)
from .matrices import (
    BiregularBitMatrix,
    InvalidMatrixError,
    codegree_extremes,
    format_matrix,
    format_matrices,
    parse_matrix,
    rows_to_words,
)
from .samplers import (
    CLASS_KINDS,
    DEFAULT_ENUMERATION_CAP,
    SAMPLER_KINDS,
    ResourceGuardError,
    SamplerSpec,
    check_ranges,
    enumerate_all,
    fields_named,
    sample_many,
)
from .spectral import alpha_exact, check_alpha_shape, check_sigma2_shape, sigma2
from .verify import SCHEMA_VERSION as VERIFY_SCHEMA_VERSION, SUITES, run_suite

SCHEMA_VERSION = 1
# Version 2 of the stats payload has no `format`.  The sample (2) and sigma2
# (3; 2 dropped `tol` and `max_iters`) payloads echo `max_attempts` as null
# for the kinds other than rejection.  The bound payload (6) echoes no
# theorem constants, which a caller no longer sets; 5 evaluates
# `codegree_upper` and `perm_edge` as Chatterjee tails at the SELF_BOUND
# constants, which moves some values in their last bits; 4 dropped C2 for
# `edge_lower`, 3 labelled a caller-set constant, 2 dropped `dp`.  The
# verify and tail payloads report their module's version; the other
# payloads keep version 1.
SAMPLE_SCHEMA_VERSION = 2
SIGMA2_SCHEMA_VERSION = 3
STATS_SCHEMA_VERSION = 2
BOUND_SCHEMA_VERSION = 6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the taxonomy reserves 2 for
    # verification failures, so usage problems are rethrown and mapped to 1.
    def error(self, message):
        raise _UsageError(message)


def _emit(payload: dict, stream=None) -> None:
    text = json.dumps(payload, indent=2, default=str)
    stream = stream or sys.stdout
    print(text, file=stream)


def _resolved_config(args, keys) -> dict:
    return {key: getattr(args, key) for key in keys}


def _read_matrix(path: str) -> BiregularBitMatrix:
    return parse_matrix(Path(path).read_text())


# The flags of _add_sampler_flags, by their SamplerSpec field names.
_SAMPLER_FLAGS = ("kind", "n", "d", "m", "dp", "p", "steps", "stream", "max_attempts")


def _spec_from_args(args) -> SamplerSpec:
    """The spec the sampler flags and --seed name; a flag not given keeps its default."""
    given = {name: getattr(args, name) for name in ("seed",) + _SAMPLER_FLAGS}
    return SamplerSpec(**{name: value for name, value in given.items() if value is not None})


# -- subcommand implementations ----------------------------------------------------


def _cmd_sample(args) -> int:
    spec = _spec_from_args(args)
    config = dict(dataclasses.asdict(spec), count=args.count)
    head = {"schema_version": SAMPLE_SCHEMA_VERSION, "config": config}
    with fields_named({"draw field 'count'": "sample field 'count'"}):
        samples = sample_many(spec, args.count)
    if spec.kind in CLASS_KINDS:
        text = format_matrices(samples)
        payload = dict(head, count=args.count)
    else:
        # Multigraph / Bernoulli outputs are not class members, so the
        # bit-exact matrix text format does not apply; emit JSON instead.
        payload = dict(head, samples=[x.tolist() for x in samples])
        text = json.dumps(payload)
    if args.out:
        Path(args.out).write_text(text)
        _emit(dict(head, written=args.out, count=args.count))
    elif spec.kind in CLASS_KINDS:
        # matrices stream to stdout; the config echo goes to stderr so
        # the output stays parseable
        sys.stdout.write(text)
        _emit(payload, stream=sys.stderr)
    else:
        _emit(payload)
    return 0


def _cmd_stats(args) -> int:
    matrix = _read_matrix(getattr(args, "in"))
    report = {
        "schema_version": STATS_SCHEMA_VERSION,
        "config": {"in": getattr(args, "in")},
        "m": matrix.m,
        "n": matrix.n,
        "d": matrix.d,
        "dp": matrix.dp,
        "p": float(matrix.p),
        "d_hat": matrix.d_hat,
        "edges": matrix.m * matrix.d,
        "codegree_out": _codegree_range(matrix),
        "codegree_in": _codegree_range(matrix.transpose()),
    }
    _emit(report)
    if args.out:
        Path(args.out).write_text(format_matrix(matrix))
    return 0


def _codegree_range(matrix: BiregularBitMatrix) -> dict:
    """Smallest and largest codegree over the pairs of distinct rows."""
    if matrix.m < 2:
        return {"min": None, "max": None}
    lo, hi = codegree_extremes(rows_to_words(matrix.rows, matrix.n)[None])
    return {"min": int(lo[0]), "max": int(hi[0])}


def _cmd_couple(args) -> int:
    matrix = _read_matrix(getattr(args, "in"))
    for name, size in (("i1", matrix.m), ("i2", matrix.m), ("j1", matrix.n), ("j2", matrix.n)):
        value = getattr(args, name)
        if not 0 <= value < size:
            raise _UsageError(f"--{name} must be in [0, {size}), got {value}")
    if args.op == "switch":
        site = SwitchSite(args.i1, args.i2, args.j1, args.j2)
        result = simple_switch(matrix, site)
    else:
        if args.i1 == args.i2:
            raise _UsageError(f"--i1 and --i2 must differ for reflect, both are {args.i1}")
        result = reflect(matrix, args.j1, args.j2, RowOrder(args.i1, args.i2))
    applied = result is not matrix
    if args.out:
        Path(args.out).write_text(format_matrix(result))
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "config": _resolved_config(args, ("op", "i1", "i2", "j1", "j2", "out")),
            "applied": applied,
        }
    )
    return 0 if applied else 4


def _cmd_verify(args) -> int:
    results = run_suite(
        args.suite,
        n=args.n,
        d=args.d,
        samples=args.samples,
        seed=args.seed,
        m=args.m,
        dp=args.dp,
        steps=args.steps,
    )
    payload = {
        "schema_version": VERIFY_SCHEMA_VERSION,
        "suites": [r.to_dict() for r in results],
        "ok": all(r.ok for r in results),
    }
    if args.format == "csv":
        # csv quotes the invariant names that hold commas; no margin is an empty field.
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(
            [("suite", "invariant", "status", "checked", "worst_margin")]
            + [(r.suite, rec.invariant, rec.status, rec.checked, rec.worst_margin)
               for r in results for rec in r.records]
        )
        text = buffer.getvalue()
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    else:
        if args.out:
            Path(args.out).write_text(json.dumps(payload, indent=2, default=str))
        _emit(payload)
    return 0 if payload["ok"] else 2


def _cmd_bound(args) -> int:
    given = [name for name in ("eps", "tau", "eta") if getattr(args, name) is not None]
    if len(given) > 1:
        flags = " ".join(f"--{name}" for name in given)
        raise _UsageError(f"give at most one of --eps --tau --eta, got {flags}")
    names = ("theorem", "n", "d", "m", "a", "b", "p")
    # A refused deviation or tolerance is named by the flag typed, not by its spec field.
    typed = {"bound field 'eta'": "bound field '--good-eta'"}
    if given:
        typed["bound field 'deviation'"] = f"bound field '--{given[0]}'"
    with fields_named(typed):
        spec = TailBoundSpec(deviation=getattr(args, given[0]) if given else 0.0, eta=args.good_eta,
                             **{name: getattr(args, name) for name in names})
        result = eval_bound(spec)
    _emit(
        {
            "schema_version": BOUND_SCHEMA_VERSION,
            "config": dataclasses.asdict(spec),
            "bound": result.value,
            "valid": result.valid,
            "constants": {k: {"value": v, "source": src} for k, (v, src) in result.constants.items()},
            "note": result.note,
        }
    )
    return 0


def _cmd_tail(args) -> int:
    check_ranges("tail", ("threads", args.threads, 1))
    payload = json.loads(Path(args.config).read_text())
    cfg = ExperimentConfig.from_dict(payload)
    result = run_tail_experiment(cfg, max_workers=args.threads)
    csv_text = result_to_csv(result)
    out_path = Path(args.out)
    out_path.write_text(csv_text)
    sidecar = out_path.with_suffix(out_path.suffix + ".meta.json")
    sidecar.write_text(json.dumps(result.metadata, indent=2, default=str))
    _emit(
        {
            "schema_version": result.metadata["schema_version"],
            "config": result.metadata["config"],
            "csv": str(out_path),
            "metadata": str(sidecar),
            "all_pass": result.all_pass,
        }
    )
    return 0 if result.all_pass else 2


def _check_sigma2_shapes(m: int, n: int, alpha: bool) -> None:
    """Refuse what sigma2 (and alpha_exact, with --alpha) would refuse,
    before the draw and the decomposition."""
    check_sigma2_shape(m, n)
    if alpha:
        check_alpha_shape(m, n)


def _cmd_sigma2(args) -> int:
    if getattr(args, "in"):
        given = [name for name in ("seed",) + _SAMPLER_FLAGS if getattr(args, name) is not None]
        if given:
            flags = " ".join("--" + name.replace("_", "-") for name in given)
            raise _UsageError(f"--in reads the matrix from a file; the sampler flags {flags} do not apply")
        matrix = _read_matrix(getattr(args, "in"))
        _check_sigma2_shapes(matrix.m, matrix.n, args.alpha)
        source = {"in": getattr(args, "in")}
    else:
        if args.kind is None or args.n is None:
            raise _UsageError("sigma2 needs --in or sampler flags (--kind/--n/--d)")
        spec = _spec_from_args(args)
        if spec.kind not in CLASS_KINDS:
            raise _UsageError(f"sigma2 needs a class-valued sampler kind {CLASS_KINDS}, "
                              f"got {spec.kind!r}")
        _check_sigma2_shapes(spec.m, spec.n, args.alpha)
        matrix = sample_many(spec, 1)[0]
        source = dataclasses.asdict(spec)
    report = sigma2(matrix)
    payload = {
        "schema_version": SIGMA2_SCHEMA_VERSION,
        "config": dict(source, alpha=args.alpha),
        "sigma1": report.sigma1,
        "sigma2": report.sigma2,
        "iterations": report.iterations,
        "residual": report.residual,
        "converged": report.converged,
    }
    if args.alpha:
        payload["alpha_exact"] = alpha_exact(matrix)
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2, default=str))
    _emit(payload)
    return 0


def _cmd_enumerate(args) -> int:
    if args.count_only and args.out:
        raise _UsageError("--count-only prints the count and writes no file; drop --out")
    mats = enumerate_all(
        args.m if args.m is not None else args.n, args.n, args.d, args.dp,
        max_states=args.max_states,
    )
    if args.count_only:
        count = sum(1 for _ in mats)
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "config": _resolved_config(args, ("m", "n", "d", "dp", "max_states")),
                "count": count,
            }
        )
        return 0
    text = format_matrices(mats)
    count = text.count("\n\n") + 1 if text else 0
    if args.out:
        Path(args.out).write_text(text)
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "config": _resolved_config(args, ("m", "n", "d", "dp", "max_states")),
                "written": args.out,
                "count": count,
            }
        )
    else:
        sys.stdout.write(text)
    return 0


# -- parser wiring ------------------------------------------------------------------


def _add_sampler_flags(sub, kind_required=True):
    # None stands for a flag not given, which keeps the SamplerSpec default.
    sub.add_argument("--kind", choices=SAMPLER_KINDS, required=kind_required)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--m", type=int, default=None)
    sub.add_argument("--dp", type=int, default=None)
    sub.add_argument("--p", type=float, default=None)
    sub.add_argument("--steps", type=int, default=None)
    sub.add_argument("--stream", type=int, default=None)
    sub.add_argument("--max-attempts", dest="max_attempts", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="rrdigraph", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sample = subs.add_parser("sample", help="draw matrices from one of the samplers")
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", type=str, default=None)
    _add_sampler_flags(sample)
    sample.add_argument("--count", type=int, default=1)
    sample.set_defaults(func=_cmd_sample)

    stats = subs.add_parser("stats", help="read a matrix file and report statistics")
    stats.add_argument("--out", type=str, default=None)
    stats.add_argument("--in", dest="in", required=True)
    stats.set_defaults(func=_cmd_stats)

    couple = subs.add_parser("couple", help="apply a switching or reflection")
    couple.add_argument("--out", type=str, default=None)
    couple.add_argument("--op", choices=("switch", "reflect"), required=True)
    couple.add_argument("--i1", type=int, default=0)
    couple.add_argument("--i2", type=int, default=1)
    couple.add_argument("--j1", type=int, required=True)
    couple.add_argument("--j2", type=int, required=True)
    couple.add_argument("--in", dest="in", required=True)
    couple.set_defaults(func=_cmd_couple)

    verify = subs.add_parser("verify", help="run sampled invariant suites")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", type=str, default=None)
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.add_argument("--suite", choices=SUITES, required=True)
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--d", type=int, required=True)
    verify.add_argument("--m", type=int, default=None)
    verify.add_argument("--dp", type=int, default=None)
    verify.add_argument("--samples", type=int, default=200)
    verify.add_argument("--steps", type=int, default=None)
    verify.set_defaults(func=_cmd_verify)

    bound = subs.add_parser("bound", help="evaluate one closed-form tail bound")
    bound.add_argument("--theorem", choices=THEOREMS, required=True)
    bound.add_argument("--n", type=int, default=0)
    bound.add_argument("--d", type=int, default=0)
    bound.add_argument("--m", type=int, default=None)
    bound.add_argument("--eps", type=float, default=None)
    bound.add_argument("--tau", type=float, default=None)
    bound.add_argument("--eta", type=float, default=None)
    bound.add_argument("--good-eta", dest="good_eta", type=float, default=None)
    bound.add_argument("--a", type=int, default=None)
    bound.add_argument("--b", type=int, default=None)
    bound.add_argument("--p", type=float, default=None)
    bound.set_defaults(func=_cmd_bound)

    tail = subs.add_parser("tail", help="run a Monte Carlo tail experiment")
    tail.add_argument("--config", required=True)
    tail.add_argument("--out", type=str, required=True)
    tail.add_argument("--threads", type=int, default=None)
    tail.set_defaults(func=_cmd_tail)

    sig = subs.add_parser("sigma2", help="second singular value diagnostics")
    # One JSON payload from one thread, so no --threads and no --format;
    # --seed seeds only the sampler flags.
    sig.add_argument("--seed", type=int, default=None)
    sig.add_argument("--out", type=str, default=None)
    sig.add_argument("--in", dest="in", default=None)
    _add_sampler_flags(sig, kind_required=False)
    sig.add_argument("--alpha", action="store_true", help="also compute exact jumbledness")
    sig.set_defaults(func=_cmd_sigma2)

    enum = subs.add_parser("enumerate", help="exhaustively list a tiny class")
    enum.add_argument("--out", type=str, default=None)
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--d", type=int, required=True)
    enum.add_argument("--m", type=int, default=None)
    enum.add_argument("--dp", type=int, default=None)
    enum.add_argument("--count-only", dest="count_only", action="store_true")
    enum.add_argument("--max-states", dest="max_states", type=int, default=DEFAULT_ENUMERATION_CAP)
    enum.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 2
    except (InvalidMatrixError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
