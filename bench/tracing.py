"""Spans and counts around the public functions of `rrdigraph`.

A `Tracer` replaces each listed function by a wrapper under every name an
`rrdigraph` module looks it up by (`experiments.rejection_dense` as well as
`samplers.rejection_dense`), so calls made inside the package are traced
too.  Each call records a span (name, start, end, parent span, pass id)
into flat in-memory arrays; counts are taken from arguments and return
values.  Nothing is written until `write` is called after the run.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _switch_span(args, kwargs):
    count = args[1] if len(args) > 1 else kwargs["count"]
    return "samplers.switch_single" if count == 1 else "samplers.switch_batch"


def _chain_steps(tracer, name, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    tracer.add(name + ".chain_steps", result.shape[0] * spec.resolved_steps)


def _samples(tracer, name, args, kwargs, result):
    tracer.add(name + ".samples", result.shape[0])


def _iterations(tracer, name, args, kwargs, result):
    tracer.add(name + ".iterations", result.iterations)


def _shards(tracer, name, args, kwargs, result):
    tracer.add(name + ".shards", result.metadata["shards"])


def _suite_counts(tracer, name, args, kwargs, result):
    for suite in result:
        tracer.add("verify.checked", sum(r.checked for r in suite.records))
        if suite.suite == "switching":
            tracer.add("verify.switches_applied", suite.records[1].checked)


# (module, attribute, span name or a function of the call's arguments, counter)
TRACED = [
    ("samplers", "rejection_dense", "samplers.rejection", _samples),
    ("samplers", "switch_mcmc_dense", _switch_span, _chain_steps),
    ("samplers", "sample_many", "samplers.sample_many", None),
    ("samplers", "permutation_batch", "samplers.permutation_batch", None),
    ("experiments", "run_tail_experiment", "experiments.statistic", _shards),
    ("experiments", "binomial_ci", "experiments.binomial_ci", None),
    ("bounds", "eval_bound", "bounds.eval_bound", None),
    ("exchangeable", "switching_vf", "exchangeable.switching_vf", None),
    ("exchangeable", "reflection_vf", "exchangeable.reflection_vf", None),
    ("exchangeable", "switching_f", "exchangeable.switching_f", None),
    ("exchangeable", "reflection_f", "exchangeable.reflection_f", None),
    ("exchangeable", "permutation_diagnostics", "exchangeable.permutation_diagnostics", None),
    ("exchangeable", "good_event_co", "exchangeable.good_event_co", None),
    ("couplings", "reflect", "couplings.reflect", None),
    ("couplings", "simple_switch", "couplings.simple_switch", None),
    ("couplings", "column_walk", "couplings.column_walk", None),
    ("matrices", "codegree", "matrices.codegree", None),
    ("matrices", "BiregularBitMatrix.validate", "matrices.validate", None),
    ("spectral", "sigma2", "spectral.sigma2", _iterations),
    ("spectral", "alpha_exact", "spectral.alpha_exact", None),
    ("verify", "run_suite", "verify.run_suite", _suite_counts),
]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict = {}
        self.current_pass = -1
        self._stack: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter: str, value) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    def wrap(self, func, span, counter):
        clock = time.perf_counter
        stack = self._stack
        fixed = None if callable(span) else self._id(span)

        def traced(*args, **kwargs):
            name = span(args, kwargs) if fixed is None else span
            index = len(self.start)
            self.name_id.append(self._id(name) if fixed is None else fixed)
            self.parent.append(stack[-1] if stack else -1)
            self.pass_id.append(self.current_pass)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            self.add(name + ".calls", 1)
            if counter is not None:
                counter(self, name, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, package):
        """Swap the wrappers in for the duration of the block."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        patched = []
        try:
            for module_name, attribute, span, counter in TRACED:
                owner = sys.modules[f"{package.__name__}.{module_name}"]
                holder_name, _, attr = attribute.rpartition(".")
                if holder_name:  # a method: patch the class that defines it
                    holder = getattr(owner, holder_name)
                    original = holder.__dict__[attr]
                    patched.append((holder, attr, original))
                    setattr(holder, attr, self.wrap(original, span, counter))
                    continue
                original = getattr(owner, attr)
                wrapper = self.wrap(original, span, counter)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(patched):
                setattr(holder, key, original)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name: duration minus its children's."""
        if not self.start:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(start))
        own = np.bincount(names, weights=duration - covered, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: one header line with the name table
        and counts, then [name, parent, pass, start, end] per span."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names, "counts": self.counts}) + "\n")
            for row in zip(self.name_id, self.parent, self.pass_id, self.start, self.end):
                out.write(json.dumps(row) + "\n")
