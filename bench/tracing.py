"""Spans around patternrace's public functions, recorded from outside.

A traced pass replaces each function listed in TARGETS, in every
patternrace module that holds it, with a wrapper that records a span
(name, start, end, parent span, job id) in memory.  The program's files
are not edited, and the originals are put back after the pass.  A target
missing from the program reads as 0 calls.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (layer, module, function)
TARGETS = [
    ("cli", "patternrace.cli", "main"),
    ("serialize", "patternrace.serialize", "load_problem"),
    ("serialize", "patternrace.serialize", "input_digest"),
    ("serialize", "patternrace.serialize", "solution_to_obj"),
    ("model", "patternrace.model", "validate_race"),
    ("correlation", "patternrace.correlation", "correlation_matrix"),
    ("correlation", "patternrace.correlation", "initial_correlation_vector"),
    ("correlation", "patternrace.correlation", "correlation"),
    ("solver", "patternrace.solver", "solve_race"),
    ("solver", "patternrace.solver", "det_laurent"),
    ("solver", "patternrace.solver", "fraction_det"),
    ("solver", "patternrace.solver", "series"),
    ("algebra", "patternrace.algebra", "poly_mul"),
    ("algebra", "patternrace.algebra", "poly_divmod"),
    ("algebra", "patternrace.algebra", "poly_gcd"),
    ("oracle", "patternrace.oracle", "build_automaton"),
    ("oracle", "patternrace.oracle", "absorbing_solve"),
    ("oracle", "patternrace.oracle", "exact_distribution"),
    ("oracle", "patternrace.oracle", "monte_carlo"),
    ("oracle", "patternrace.oracle", "martingale_check"),
]
LAYERS = sorted({layer for layer, _, _ in TARGETS})


class Tracer:
    def __init__(self):
        self.names = [f"{mod.rsplit('.', 1)[1]}.{fn}" for _, mod, fn in TARGETS]
        self.layers = [layer for layer, _, _ in TARGETS]
        # Columns of the span table; a span's parent is its row, or -1.
        self.name = array("i")
        self.job = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.job_id = 0
        self._open = [-1]
        self._child_time = [0.0]
        self._patches = []
        self.reset_pass()

    def reset_pass(self):
        """Start the per-pass totals: calls, seconds and self seconds per
        target, and the largest automaton built."""
        self.calls = [0] * len(TARGETS)
        self.seconds = [0.0] * len(TARGETS)
        self.self_seconds = [0.0] * len(TARGETS)
        self.automaton_states = 0

    def _wrap(self, nid, fn):
        name, job, parent, start, end = self.name, self.job, self.parent, self.start, self.end
        opened, child_time = self._open, self._child_time
        states = nid == self.names.index("oracle.build_automaton")

        def wrapper(*args, **kwargs):
            row = len(start)
            name.append(nid)
            job.append(self.job_id)
            parent.append(opened[-1])
            end.append(0.0)
            opened.append(row)
            child_time.append(0.0)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                end[row] = t1
                opened.pop()
                inner = child_time.pop()
                child_time[-1] += t1 - t0
                self.calls[nid] += 1
                self.seconds[nid] += t1 - t0
                self.self_seconds[nid] += t1 - t0 - inner
            if states:
                self.automaton_states = max(self.automaton_states, len(result.states))
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "patternrace" or n.startswith("patternrace."))]
        for nid, (_, modname, fn) in enumerate(TARGETS):
            original = getattr(sys.modules.get(modname), fn, None)
            if original is None:
                continue
            wrapper = self._wrap(nid, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def remove(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def pass_metrics(self) -> dict:
        """Per-layer figures of the pass since reset_pass."""
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.s"] = self.seconds[nid]
            out[f"{name}.self_s"] = self.self_seconds[nid]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s for s, l in zip(self.self_seconds, self.layers)
                                         if l == layer)
        out["oracle.automaton_states"] = self.automaton_states
        out["trace.spans"] = sum(self.calls)
        return out

    def write(self, path: str):
        """All spans as columns; times are perf_counter seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "job": self.job.tolist(), "parent": self.parent.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist()}, fh)
