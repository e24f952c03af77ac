"""Spans around bgpconv's public functions, wrapped from outside the package.

Tracer.install() replaces each function named in SPANS by a wrapper in
every bgpconv module that holds it, which is where callers look the name
up (bgpconv.cli.run_sweep, bgpconv.experiments.run_dissemination,
bgpconv.graphs.reachable_set, bgpconv._kernels.unit_exponential_buffer,
...); uninstall() restores the originals.  A span records its name, its
parent span, the CLI invocation it belongs to, its start and end, and the
count observed at that boundary.  Spans stay in memory until write().

A span's layer is the part of its name before the dot.  Self time is a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

SPANS = {
    "bgpconv.cli.main": "cli.main",
    "bgpconv.experiments.run_sweep": "experiments.run_sweep",
    "bgpconv.experiments.run_case_study": "experiments.run_case_study",
    "bgpconv.experiments.emit": "experiments.emit",
    "bgpconv.simulate.simulate_batch": "simulate.simulate_batch",
    "bgpconv.simulate.simulate_once": "simulate.simulate_once",
    "bgpconv._kernels.run_dissemination": "kernel.run_dissemination",
    "bgpconv._kernels.unit_exponential_buffer": "kernel.unit_exponential_buffer",
    "bgpconv.graphs.gen_graph": "graphs.gen_graph",
    "bgpconv.graphs.reachable_set": "graphs.reachable_set",
    "bgpconv.graphs.ensure_reachable": "graphs.ensure_reachable",
    "bgpconv.analytic.convergence_time": "analytic.convergence_time",
    "bgpconv.analytic.core_convergence_time": "analytic.core_convergence_time",
    "bgpconv.model.p_sdn_distribution": "analytic.p_sdn_distribution",
}

# span name -> the count a returning call contributes
COUNTS = {
    "kernel.unit_exponential_buffer": lambda result: int(result.size),
    "kernel.run_dissemination": lambda result: int(result[1]),
    "analytic.convergence_time": lambda result: int(result.profile.values.nbytes),
    "graphs.ensure_reachable": lambda result: 1,
}

# per-layer counts that repeat exactly for one seed
EXACT = ("kernel.calls", "kernel.draws_generated", "kernel.draws_used",
         "kernel.buffer_regens", "graphs.gen_calls", "graphs.reach_calls",
         "analytic.calls", "analytic.profile_bytes")

NAME, PARENT, INVOCATION, START, END, COUNT = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.invocation = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.invocation, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for path, name in SPANS.items():
            module, attr = path.rsplit(".", 1)
            fn = getattr(sys.modules[module], attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "bgpconv" and not modname.startswith("bgpconv."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, original in self._patches:
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line, times relative to the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": s[PARENT], "invocation": s[INVOCATION],
                    "name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
                    "count": s[COUNT],
                }) + "\n")


def _pass_metrics(spans, lo: int, hi: int, self_time) -> dict[str, float]:
    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counted: dict[str, int] = {}
    entry_s, entry_calls = 0.0, 0
    for i in range(lo, hi):
        s = spans[i]
        name, d = s[NAME], s[END] - s[START]
        dur[name] = dur.get(name, 0.0) + d
        own[name] = own.get(name, 0.0) + self_time[i]
        calls[name] = calls.get(name, 0) + 1
        if s[COUNT] is not None:
            counted[name] = counted.get(name, 0) + s[COUNT]
        if name.startswith("analytic.") and not (
            s[PARENT] >= 0 and spans[s[PARENT]][NAME].startswith("analytic.")
        ):
            entry_s += d
            entry_calls += 1

    def ratio(a, b):
        return a / b if b else 0.0

    kernel, rng = "kernel.run_dissemination", "kernel.unit_exponential_buffer"
    generated, used = counted.get(rng, 0), counted.get(kernel, 0)
    gen_calls = calls.get("graphs.gen_graph", 0)
    return {
        "kernel.s": dur.get(kernel, 0.0),
        "kernel.calls": calls.get(kernel, 0),
        "kernel.rng_s": dur.get(rng, 0.0),
        "kernel.draws_generated": generated,
        "kernel.draws_used": used,
        "kernel.draw_use_ratio": ratio(used, generated),
        "kernel.buffer_regens": calls.get(rng, 0) - calls.get(kernel, 0),
        "graphs.gen_s": dur.get("graphs.gen_graph", 0.0),
        "graphs.gen_calls": gen_calls,
        "graphs.reach_s": dur.get("graphs.reachable_set", 0.0),
        "graphs.reach_calls": calls.get("graphs.reachable_set", 0),
        "graphs.accept_ratio": ratio(counted.get("graphs.ensure_reachable", 0), gen_calls),
        "analytic.s": entry_s,
        "analytic.calls": entry_calls,
        "analytic.profile_bytes": counted.get("analytic.convergence_time", 0),
        "simulate.self_s": own.get("simulate.simulate_batch", 0.0)
        + own.get("simulate.simulate_once", 0.0),
        "experiments.self_s": own.get("experiments.run_sweep", 0.0)
        + own.get("experiments.run_case_study", 0.0),
        "experiments.emit_s": dur.get("experiments.emit", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
    }


def layer_metrics(spans, passes: list[tuple[int, int]]) -> dict[str, float]:
    """Per-layer metrics of traced passes, each given as a span index range.

    Times are medians over passes; counts come from one pass and must
    repeat exactly in the others, which run the same invocations.
    Kernel call percentiles pool the calls of every pass.
    """
    self_time = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= s[END] - s[START]
    per_pass = [_pass_metrics(spans, lo, hi, self_time) for lo, hi in passes]
    out: dict[str, float] = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key in EXACT:
            if len(set(values)) != 1:
                raise ValueError(f"{key} differs between identical passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    run_ms = sorted(
        (s[END] - s[START]) * 1e3
        for lo, hi in passes for s in spans[lo:hi] if s[NAME] == "kernel.run_dissemination"
    )
    out["kernel.run_ms_p50"] = _percentile(run_ms, 50)
    out["kernel.run_ms_p99"] = _percentile(run_ms, 99)
    return out


def _percentile(sorted_values: list[float], q: int) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100)[q - 1]
