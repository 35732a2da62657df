"""Call tracer for the traced benchmark run.

The tracer wraps crpla's public functions under the module attributes
their callers look up (``crpla.coding.uniform_expectation``, not
``crpla.specfun.uniform_expectation``, because ``coding`` imported the
name).  Every wrapped call pushes a frame on one call stack, so the self
time of a call is exactly its duration minus the durations of the wrapped
calls it made.

Per-call work (about 10^6 calls on a traced map) is kept as counters
only.  Full spans -- name, start, end, parent span, request id -- are kept
for the coarse levels (``cli``, ``sweep``, ``hybrid.optimize`` and
``montecarlo``) and written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import time
import tracemalloc
from typing import Callable

# (counter name, [(module, attribute), ...] callers look it up under, keep spans)
TARGETS = (
    ("cli.main", (("crpla.cli", "main"),), True),
    ("sweep.load_sweep_spec", (("crpla.sweep", "load_sweep_spec"),), True),
    ("sweep.run_sweep", (("crpla.sweep", "run_sweep"),), True),
    ("sweep.evaluate_point", (("crpla.sweep", "evaluate_point"),), True),
    ("sweep.write_csv", (("crpla.sweep", "write_csv"),), True),
    ("hybrid.optimize", (("crpla.hybrid", "optimize"),), True),
    ("hybrid.hybrid_bits", (("crpla.hybrid", "hybrid_bits"),), False),
    ("channel.equivalent_key_bits", (("crpla.channel", "equivalent_key_bits"),), False),
    ("channel.log2_p_succ", (("crpla.channel", "log2_p_succ"),), False),
    ("coding.b_key_hybrid", (("crpla.coding", "b_key_hybrid"),), False),
    ("specfun.uniform_expectation", (("crpla.coding", "uniform_expectation"),), False),
    ("specfun.q_inverse", (("crpla.coding", "q_inverse"), ("crpla.channel", "q_inverse")), False),
    ("params.validate", (("crpla.params", "validate"),), False),
    ("montecarlo.measure_false_alarm", (("crpla.montecarlo", "measure_false_alarm"),), True),
    ("montecarlo.measure_attack_success", (("crpla.montecarlo", "measure_attack_success"),), True),
    (
        "montecarlo.simulate_pilot_estimation",
        (("crpla.montecarlo", "simulate_pilot_estimation"),),
        True,
    ),
)

KERNELS = frozenset(name for name, _, _ in TARGETS if name.startswith("montecarlo."))


class Tracer:
    """Counters, exact self times and coarse spans of wrapped calls.

    ``clock`` is injectable so tests can drive the arithmetic with a fake
    time source.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.request = None
        self.stats: dict[str, dict[str, float]] = {}
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, start, child seconds, span id or None]

    def _stat(self, name: str) -> dict[str, float]:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        return stat

    def add(self, name: str, key: str, amount: float) -> None:
        stat = self._stat(name)
        stat[key] = stat.get(key, 0) + amount

    def peak(self, name: str, key: str, value: float) -> None:
        stat = self._stat(name)
        stat[key] = max(stat.get(key, 0), value)

    def depth(self, name: str) -> int:
        return sum(1 for frame in self._stack if frame[0] == name)

    def wrap(self, name: str, fn: Callable, span: bool = False, after: Callable | None = None):
        """Return ``fn`` wrapped so each call updates the counters of ``name``.

        ``after(args, kwargs, result)`` runs once the call has returned; its
        cost, like the rest of the tracing overhead, lands in the caller's
        self time.
        """
        stack = self._stack
        stat = self._stat(name)
        clock = self.clock

        def wrapper(*args, **kwargs):
            start = clock()
            span_id = None
            if span:
                span_id = len(self.spans)
                parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                self.spans.append(
                    {"id": span_id, "name": name, "parent": parent, "request": self.request,
                     "start": start}
                )  # fmt: skip
            frame = [name, start, 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                stat["calls"] += 1
                stat["total_s"] += duration
                stat["self_s"] += duration - frame[2]
                if span_id is not None:
                    self.spans[span_id]["end"] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists in the imported crpla package."""
        for name, lookups, span in TARGETS:
            for module_name, attr in lookups:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                if name in KERNELS:
                    fn = self._kernel(name, fn)
                setattr(module, attr, self.wrap(name, fn, span, self._after(name, fn)))

    def _after(self, name: str, fn: Callable) -> Callable | None:
        if name == "hybrid.hybrid_bits":
            def count_cell(args, kwargs, result):
                if self.depth("hybrid.optimize"):
                    self.add("hybrid.optimize", "cells", 1)
            return count_cell
        if name == "sweep.write_csv":
            signature = inspect.signature(fn)

            def count_bytes(args, kwargs, result):
                path = signature.bind(*args, **kwargs).arguments["path"]
                self.add(name, "bytes", os.path.getsize(path))
            return count_bytes
        return None

    def _kernel(self, name: str, fn: Callable) -> Callable:
        """Count the trials and blocks of a Monte Carlo kernel and its peak allocation."""
        signature = inspect.signature(fn)
        block_trials = importlib.import_module("crpla.montecarlo").BLOCK_TRIALS

        def kernel(*args, **kwargs):
            trials = signature.bind(*args, **kwargs).arguments["trials"]
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.add(name, "trials", trials)
                self.add("montecarlo", "blocks", math.ceil(trials / block_trials))
                self.peak(name, "peak_alloc_bytes", peak)

        return kernel

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"stats": self.stats, "spans": self.spans, "missing": self.missing}, fh)
