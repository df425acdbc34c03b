"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload tail_rejection --seed 1 --seconds 12 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`, never from an installed copy.  Every measurement runs
in a child interpreter (see worker.py) with BLAS pinned to one thread.

--trace 0 prints the end-to-end metrics: `setup_s` (median over three
fresh interpreters of the time from interpreter start to built inputs,
each divided by its interpreter's host factor; see worker.py),
`items_per_s_norm` (the items per second of the timed passes times the
run's mean host factor; see worker.py) and `peak_rss_mb`.
--trace 1 prints the per-layer metrics of a traced run instead and writes
its spans to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tail_rejection", "tail_switch_joint", "verify_suites", "single_draws")
SETUP_SAMPLES = 2  # set-up-only interpreters; the measuring one makes three
DEADLINE_S = 170.0
# One BLAS thread: the workloads are single-threaded by design, and on a
# two-core box OpenBLAS would otherwise take both cores.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ChildFailed(RuntimeError):
    pass


def run_child(args: list, deadline: float) -> tuple:
    """(spawn time, parsed last stdout line) of one worker interpreter."""
    env = dict(os.environ, **PINNED)
    spawned = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env, capture_output=True, text=True, timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker {' '.join(args)} passed the {DEADLINE_S:.0f} s deadline") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    return spawned, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rrdigraph benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    if not (ROOT / "src" / "rrdigraph" / "__init__.py").is_file():
        print(f"no rrdigraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setups = []

        def time_setups(count):
            for _ in range(count):
                spawned, line = run_child([*common, "--mode", "setup"], deadline)
                setups.append((line["ready"] - spawned, line["host_factor"]))

        if not args.trace:
            time_setups(SETUP_SAMPLES // 2)
        run_args = [*common, "--mode", "run", "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run_args += ["--trace-out", str(out_dir / f"spans-{tag}.jsonl.gz")]
        spawned, line = run_child(run_args, deadline)
        setups.append((line["ready"] - spawned, line["host_factor"]))
        if not args.trace:
            # Half the set-up samples after the run, so that a slow spell
            # of the machine at one moment does not set the median.
            time_setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    metrics = line["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(t / host for t, host in setups), "unit": "s"}, **metrics}
    result = {
        "correct": line["correct"],
        "attempted": line["attempted"],
        "failed": line["failed"],
        "metrics": metrics,
    }
    detail = dict(result, setups=setups, items_per_s=line["items_per_s"],
                  pass_rates=line["pass_rates"], bursts=line["bursts"])
    (out_dir / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
