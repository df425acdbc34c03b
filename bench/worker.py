"""One benchmark process: build a workload's inputs, then time its passes.

`run.py` starts this script in a fresh interpreter.  With `--mode setup`
it stops once the inputs are built and prints the monotonic clock
reading at that moment, so the parent can time set-up from before the
interpreter started.  With `--mode run` it also makes one untimed warm-up
pass, times whole passes until `--seconds` have elapsed, checks every
output, and prints one JSON line.

With `--trace 1` the timed passes alternate between untraced and traced,
so the tracing overhead is measured in the same process; per-layer
metrics come from the traced passes only.

The host's speed drifts by 20% and more over seconds to minutes, and
CPU time drifts with wall time, so a plain rate says as much about the
host as about the program.  A fixed burst of work (`host_burst`) is
therefore timed once the inputs are built, before the first timed pass
and after every one.  `items_per_s_norm` is the plain rate of the
untraced passes (their items over their wall time) times the mean burst
time over `HOST_BURST_REF_S`: the rate the passes would have had on a
host that runs the burst in `HOST_BURST_REF_S`.  A change to the program
moves it as much as the plain rate; a slow spell of the host slows
passes and bursts alike, and cancels.  `run.py` scales the set-up time
by the first burst in the same way.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


HOST_BURST_REF_S = 0.3  # a round figure; the median was 0.26 s on a 2-vCPU Xeon VM, Python 3.11, numpy 2.4
_BURST_ROWS = np.tile(np.arange(240, dtype=np.int64), (256, 1))


def host_burst() -> float:
    """Seconds taken by a fixed mix of interpreted and numpy work: a loop of
    integer arithmetic and dict stores, then shuffles and sorts of integer
    rows.  The workloads mix the same two kinds of work.  It runs no
    rrdigraph code, so only the host moves it."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(900_000):
        acc += (i * i) % 7
        table[i & 1023] = acc
    rng = np.random.default_rng(acc)
    for _ in range(90):
        np.sort(rng.permuted(_BURST_ROWS, axis=1) // 4, axis=1)
    return time.perf_counter() - t0


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import rrdigraph

    if Path(rrdigraph.__file__).resolve().parent != ROOT / "src" / "rrdigraph":
        raise SystemExit(f"imported rrdigraph from {rrdigraph.__file__}, not from this checkout")
    return rrdigraph


# Span names whose self time, and whose call count, are reported per item
# of the workload; a layer a workload never calls reads 0.
SELF_TIMES = [
    "samplers.rejection", "samplers.switch_batch", "samplers.switch_single",
    "samplers.sample_many", "samplers.permutation_batch",
    "experiments.statistic", "experiments.binomial_ci", "bounds.eval_bound",
    "exchangeable.switching_vf", "exchangeable.reflection_vf",
    "exchangeable.switching_f", "exchangeable.reflection_f",
    "exchangeable.permutation_diagnostics", "exchangeable.good_event_co",
    "couplings.reflect", "couplings.simple_switch", "couplings.column_walk",
    "matrices.codegree", "matrices.validate",
    "spectral.sigma2", "spectral.alpha_exact", "verify.run_suite",
]
CALL_COUNTS = [
    "exchangeable.switching_vf", "exchangeable.reflection_vf",
    "exchangeable.switching_f", "exchangeable.reflection_f",
    "exchangeable.permutation_diagnostics", "exchangeable.good_event_co",
]


def layer_metrics(tracer, traced_items, peak_alloc, rates) -> dict:
    own = tracer.self_times()
    counts = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def ratio(num, den):
        return num / den if den else 0.0

    for name in SELF_TIMES:
        put(f"{name}.self_s", ratio(own.get(name, 0.0), traced_items), "s/item")
    for name in CALL_COUNTS:
        put(f"{name}.calls", ratio(counts.get(f"{name}.calls", 0), traced_items), "calls/item")
    put("samplers.rejection.samples_per_s",
        ratio(counts.get("samplers.rejection.samples", 0), own.get("samplers.rejection", 0.0)), "1/s")
    for kind in ("switch_batch", "switch_single"):
        put(f"samplers.{kind}.chain_steps_per_s",
            ratio(counts.get(f"samplers.{kind}.chain_steps", 0), own.get(f"samplers.{kind}", 0.0)), "1/s")
    put("experiments.shards",
        ratio(counts.get("experiments.statistic.shards", 0), counts.get("experiments.statistic.calls", 0)),
        "count")
    put("experiments.peak_alloc_mb", peak_alloc / 2**20, "MB")
    put("spectral.sigma2.iterations",
        ratio(counts.get("spectral.sigma2.iterations", 0), counts.get("spectral.sigma2.calls", 0)), "count")
    suites = counts.get("verify.run_suite.calls", 0)
    put("verify.checked", ratio(counts.get("verify.checked", 0), suites), "count")
    put("verify.switches_applied", ratio(counts.get("verify.switches_applied", 0), suites), "count")
    put("trace.untraced_items_per_s", rates[False], "1/s")
    put("trace.traced_items_per_s", rates[True], "1/s")
    put("trace.overhead_items_per_s", rates[True] - rates[False], "1/s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    rrd = import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](rrd, args.seed % 2**64)
    ready = monotonic()
    host_factor = host_burst() / HOST_BURST_REF_S
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "host_factor": host_factor}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    outputs = []
    try:
        outputs.append(workload.run_pass(0))  # warm-up: untimed, untraced, checked
    except Exception:
        traceback.print_exc()

    timings = {False: [], True: []}  # traced? -> per-pass items/s
    untraced_items, untraced_s = 0, 0.0
    bursts = [host_burst()]
    attempted = failed = traced_items = 0
    peak_alloc = 0
    started = time.perf_counter()
    index = 1
    while True:
        traced = bool(args.trace) and index % 2 == 0
        try:
            if traced:
                with tracer.installed(rrd):
                    tracer.current_pass = index
                    t0 = time.perf_counter()
                    outputs.append(workload.run_pass(index))
                    elapsed = time.perf_counter() - t0
                traced_items += workload.items
            else:
                t0 = time.perf_counter()
                outputs.append(workload.run_pass(index))
                elapsed = time.perf_counter() - t0
            bursts.append(host_burst())
            timings[traced].append(workload.items / elapsed)
            if not traced:
                untraced_items += workload.items
                untraced_s += elapsed
        except Exception:
            traceback.print_exc()
            failed += workload.items
        attempted += workload.items
        index += 1
        enough = time.perf_counter() - started >= args.seconds
        if enough and (not args.trace or (timings[False] and timings[True]) or failed):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace and workload.measures_allocation:
        # tracemalloc slows every allocation, so the allocation peak comes
        # from one more pass that is neither timed nor traced.
        tracemalloc.start()
        try:
            outputs.append(workload.run_pass(index))
            peak_alloc = tracemalloc.get_traced_memory()[1]
        except Exception:
            traceback.print_exc()
        finally:
            tracemalloc.stop()

    try:
        workload.check(outputs)
        correct = True
    except Exception:
        traceback.print_exc()
        correct = False

    rates = {k: statistics.median(v) if v else 0.0 for k, v in timings.items()}
    if args.trace:
        metrics = layer_metrics(tracer, traced_items, peak_alloc, rates)
        if args.trace_out:
            tracer.write(args.trace_out)
    else:
        metrics = {
            "items_per_s_norm": {"value": untraced_items / untraced_s * statistics.fmean(bursts) / HOST_BURST_REF_S
                                 if untraced_s else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "ready": ready, "host_factor": host_factor, "correct": correct, "attempted": attempted,
        "failed": failed, "items_per_s": rates[False], "pass_rates": timings[False] + timings[True],
        "bursts": bursts, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
