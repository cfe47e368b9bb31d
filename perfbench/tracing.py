"""Spans around the public functions at each unruh_coherence layer boundary.

The program itself is not instrumented.  `Tracer` replaces each traced
function under every name any `unruh_coherence` module binds it to (the
package namespace, the defining module and every module that imported it),
so calls between layers are caught as well as calls from the benchmark.
Spans are kept in memory as `[id, parent, name, start, end, items]` lists
and written out once, when the run ends.  Outside an op (no open span) the
wrappers call straight through and record nothing, so output checks made
between ops are not traced.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _count_matrices(fn, args, kwargs):
    return fn(*args, **kwargs), int(np.prod(np.shape(args[0])[:-2]))


def _count_bytes(fn, args, kwargs):
    stream = args[1]
    start = stream.tell()
    result = fn(*args, **kwargs)
    return result, stream.tell() - start


# Traced function -> (metric group, item counter).  The four tensor
# helpers share one group; the item count of a group is what its
# `matrices` or `bytes` metric reports.
TRACED = {
    "linalg.hermitian_eigenvalues": ("linalg.hermitian_eigenvalues", _count_matrices),
    "linalg.spectrum_entropy": ("linalg.spectrum_entropy", None),
    "linalg.partial_trace": ("linalg.tensor", None),
    "linalg.tensor_product": ("linalg.tensor", None),
    "linalg.equal_mixture": ("linalg.tensor", None),
    "linalg.maximally_mixed": ("linalg.tensor", None),
    "coherence.reference_states": ("coherence.reference_states", None),
    "coherence.coherence_components": ("coherence.coherence_components", None),
    "model.alpha_beta_gamma": ("model.alpha_beta_gamma", None),
    "model.detector_matrix": ("model.detector_matrix", None),
    "model.closed_form_spectra": ("model.closed_form_spectra", None),
    "model.coherence_closed_form": ("model.coherence_closed_form", None),
    "model.spectra_comparison": ("model.spectra_comparison", None),
    "sweep.sweep_arrays": ("sweep.sweep_arrays", None),
    "sweep.run_sweep": ("sweep.run_sweep", None),
    "sweep.verify_grid": ("sweep.verify_grid", None),
    "sweep.write_csv": ("sweep.write_csv", _count_bytes),
    "cli.main": ("cli.main", None),
}
LAYERS = ("linalg", "coherence", "model", "sweep", "cli")
OP_SPAN = "op"


class Tracer:
    """Records spans while installed; `with tracer:` installs the wrappers
    and removes them on exit, and may be entered any number of times."""

    def __init__(self):
        self.spans = []
        self.errors = defaultdict(int)
        self._stack = []
        package = sys.modules["unruh_coherence"]
        modules = [package] + [
            module
            for name, module in sorted(sys.modules.items())
            if name.startswith("unruh_coherence.")
        ]
        self._patches = []
        for qualified in TRACED:
            module_name, func_name = qualified.split(".")
            original = getattr(sys.modules[f"unruh_coherence.{module_name}"], func_name)
            wrapper = self._wrap(qualified, original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def __enter__(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        return False

    def _wrap(self, name, fn):
        counter = TRACED[name][1]
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                if counter is None:
                    return fn(*args, **kwargs)
                result, span[5] = counter(fn, args, kwargs)
                return result
            except Exception:
                # Count an exception once per layer it leaves.
                if not self.spans[span[1]][2].startswith(layer + "."):
                    self.errors[layer] += 1
                raise
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        return traced

    def _open(self, name):
        span = [len(self.spans), self._stack[-1] if self._stack else None, name, 0.0, 0.0, 0]
        self.spans.append(span)
        self._stack.append(span[0])
        span[3] = time.perf_counter()
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self):
        """Root span of one benchmark op; every traced call nests under it."""
        span = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(span)

    def write(self, path):
        """Write every span, one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread and nest, so children never overlap and the
    covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[sid] for sid, _, _, start, end, _ in spans]


def layer_metrics(spans, errors):
    """Per-op calls, items and self time of each metric group.

    Returns a dict of metric name -> value.  `op.self_s` is time inside ops
    that no traced function covers (benchmark glue and untraced program
    code).  Error counts are totals, not per op.
    """
    ops = sum(1 for span in spans if span[2] == OP_SPAN)
    calls = defaultdict(int)
    items = defaultdict(int)
    busy = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        group = TRACED[span[2]][0] if span[2] in TRACED else OP_SPAN
        calls[group] += 1
        items[group] += span[5]
        busy[group] += own
    per_op = 1.0 / max(ops, 1)
    metrics = {}
    for group in sorted({g for g, _ in TRACED.values()} | {OP_SPAN}):
        metrics[f"{group}.self_s"] = busy[group] * per_op
    for group in ("linalg.hermitian_eigenvalues", "linalg.spectrum_entropy"):
        metrics[f"{group}.calls"] = calls[group] * per_op
    matrices = items["linalg.hermitian_eigenvalues"]
    metrics["linalg.hermitian_eigenvalues.matrices"] = matrices * per_op
    metrics["linalg.hermitian_eigenvalues.us_per_matrix"] = (
        1e6 * busy["linalg.hermitian_eigenvalues"] / matrices if matrices else 0.0
    )
    metrics["sweep.write_csv.bytes"] = items["sweep.write_csv"] * per_op
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = errors.get(layer, 0)
    return metrics
