"""Span tracer for the benchmark's traced run.

The tracer wraps the program's public functions from outside: each name is
replaced in the namespace where the program looks it up (``zeros`` calls its
own imported ``evaluate_on_grid``, ``harness`` its own ``count_zeros``...),
so no program file changes.  Spans (layer, start, end, parent) and counts
stay in memory until the run ends.  A layer's self time is the time of its
spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter
from time import perf_counter

import numpy as np

from trigzeros import constants, harness, kacrice, trigpoly, zeros

LAYERS = (
    "harness", "models", "zeros", "trigpoly.grid", "trigpoly.reduced",
    "constants", "kacrice.quad", "kacrice.abc_closed", "kacrice.abc_reduced",
    "kacrice.abc_direct",
)

# Bytes a grid evaluation of N nodes writes and reads: the folded complex128
# spectrum (16 N), the complex transform (16 N) and the real values (8 N).
GRID_BYTES_PER_NODE = 40


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1]
        self.counts = Counter()
        self.err_est_rel = []
        self._stack = []
        self._patches = []

    # -- wrapping -----------------------------------------------------------

    def _span(self, layer, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = t0, t1
            if count is not None:
                count(args, out)
            return out

        return wrapper

    def _counting_integrand(self, integral):
        """Count the points handed to the integrand of a constants grid."""
        counts = self.counts

        @functools.wraps(integral)
        def wrapper(func, *args, **kwargs):
            def counted(s, t):
                counts["constants.integrand_points"] += np.size(s)
                return func(s, t)
            return integral(counted, *args, **kwargs)

        return wrapper

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        c = self.counts

        def grid(args, out):
            c["trigpoly.grid.calls"] += 1
            c["trigpoly.grid.nodes"] += int(args[1])

        def reduced(args, out):
            c["trigpoly.reduced.nodes"] += np.size(args[1])
            c["trigpoly.reduced.term_evals"] += np.size(args[1]) * args[0].a.size

        def trial(args, out):
            c["zeros.trials"] += 1
            c["zeros.doublings"] += out.doublings_used
            c["zeros.unstable"] += not out.stable
            c["zeros.zeros"] += out.count

        def points(layer):
            def count(args, out):
                c[layer + ".points"] += np.size(args[1])
            return count

        def quad(args, out):
            self.err_est_rel.append(out.abs_error_estimate / out.total())

        def calls(layer):
            def count(args, out):
                c[layer + ".calls"] += 1
            return count

        wrap = self._span
        self._patch(harness, "run_experiment", wrap("harness", harness.run_experiment))
        self._patch(harness, "sample_coefficients",
                    wrap("models", harness.sample_coefficients, calls("models")))
        self._patch(harness, "count_zeros", wrap("zeros", harness.count_zeros, trial))
        self._patch(harness, "theoretical_mean", wrap("constants", harness.theoretical_mean))
        self._patch(zeros, "evaluate_on_grid",
                    wrap("trigpoly.grid", zeros.evaluate_on_grid, grid))
        self._patch(trigpoly.ReducedSample, "evaluate",
                    wrap("trigpoly.reduced", trigpoly.ReducedSample.evaluate, reduced))
        for name in ("compute_C", "compute_K", "compute_J"):
            self._patch(constants, name,
                        wrap("constants", getattr(constants, name), calls("constants")))
        for name in ("_ridge_split_integral", "_tensor_integral"):
            self._patch(constants, name, self._counting_integrand(getattr(constants, name)))
        self._patch(kacrice, "expected_zeros_quadrature",
                    wrap("kacrice.quad", kacrice.expected_zeros_quadrature, quad))
        for name in ("abc_closed", "abc_reduced", "abc_direct"):
            layer = "kacrice." + name
            self._patch(kacrice, name, wrap(layer, getattr(kacrice, name), points(layer)))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- summary ------------------------------------------------------------

    def self_times(self) -> dict:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        busy = dict.fromkeys(LAYERS, 0.0)
        for (layer, *_), t in zip(self.spans, own):
            busy[layer] += t
        return busy

    def summary(self) -> dict:
        """Per-layer metric values (before the trace overhead is known)."""
        c = self.counts
        busy = self.self_times()
        trial_ms = [1e3 * (end - start) for layer, start, end, _ in self.spans
                    if layer == "zeros"]
        nodes = c["trigpoly.grid.nodes"] + c["trigpoly.reduced.nodes"]
        out = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}
        out.update({
            "trigpoly.grid.calls": c["trigpoly.grid.calls"],
            "trigpoly.grid.nodes": c["trigpoly.grid.nodes"],
            "trigpoly.grid.bytes_computed": GRID_BYTES_PER_NODE * c["trigpoly.grid.nodes"],
            "trigpoly.reduced.term_evals": c["trigpoly.reduced.term_evals"],
            "zeros.trial_ms_p50": statistics.median(trial_ms) if trial_ms else 0.0,
            "zeros.trial_ms_p90": (statistics.quantiles(trial_ms, n=10)[-1]
                                   if len(trial_ms) > 1 else sum(trial_ms)),
            "zeros.doublings": c["zeros.doublings"],
            "zeros.unstable": c["zeros.unstable"],
            "zeros.nodes_per_zero": nodes / c["zeros.zeros"] if c["zeros.zeros"] else 0.0,
            "models.calls": c["models.calls"],
            "constants.calls": c["constants.calls"],
            "constants.integrand_points": c["constants.integrand_points"],
            "kacrice.quad.err_est_rel": max(self.err_est_rel, default=0.0),
        })
        for name in ("abc_closed", "abc_reduced", "abc_direct"):
            out[f"kacrice.{name}.points"] = c[f"kacrice.{name}.points"]
        bases = {
            "zeros.nodes_per_zero": (nodes, c["zeros.zeros"]),
            "zeros.trials": c["zeros.trials"],
            "spans": len(self.spans),
        }
        return {"metrics": out, "bases": bases}
