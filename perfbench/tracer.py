"""Layer spans for the traced run, recorded from outside the package.

Every public function of a ``sobolev`` layer module is wrapped in each
namespace that looks it up: the package itself (the benchmark's own
calls) and every layer module (calls between and within layers).  A
wrapper opens a span of the layer that defines the function; a layer's
self time is its span time minus the time of the spans nested in it.
A call counts toward ``<layer>.calls`` only where it crosses a layer
boundary, so ``solve_hessenberg`` calling ``update_solve`` is one hiep
call.  A few wrappers also count work, and the updating and Arnoldi
solvers get a ``trace`` callback injected so that their per-step events
can be counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("quadrature", "spectral", "hiep", "eigen", "sop", "experiments")
ROOT = "bench"
COUNTERS = ("hiep.dim_sum", "hiep.restore_steps", "hiep.eliminated", "hiep.arnoldi_steps",
            "spectral.matvec_calls", "eigen.dim_sum", "sop.evaluate_calls", "sop.evaluate_work")


def _layer_of(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    head, _, tail = module.partition(".")
    return tail if head == "sobolev" and tail in LAYERS else None


class Tracer:
    """Spans and counters of one traced run; install around traced ops only."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: importlib.import_module(f"sobolev.{name}") for name in LAYERS}
        self.spans = Counter()
        self.calls = Counter()
        self.failures = Counter()
        self.self_s = defaultdict(float)
        self.fn_s = defaultdict(float)
        self.counts = Counter(dict.fromkeys(COUNTERS, 0))
        self.kernel_max = 0
        self.columns_scanned = 0
        self._stack = []
        self._saved = []
        self._hooks = {
            ("hiep", "update_solve"): self._hook_update_solve,
            ("hiep", "arnoldi"): self._hook_arnoldi,
            ("spectral", "jordan_matvec"): self._hook_matvec,
            ("eigen", "hessenberg_eigenvalues"): self._hook_eigenvalues,
            ("sop", "evaluate"): self._hook_evaluate,
        }

    # -- installation ---------------------------------------------------

    def install(self):
        owners = [self.package, *self.modules.values()]
        for owner in owners:
            for name, fn in list(vars(owner).items()):
                layer = _layer_of(fn)
                if name.startswith("_") or layer is None or not inspect.isfunction(fn):
                    continue
                self._saved.append((owner, name, fn))
                setattr(owner, name, self._wrap(fn, layer))

    def uninstall(self):
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    def _wrap(self, fn, layer):
        hook = self._hooks.get((layer, fn.__name__))
        signature = inspect.signature(fn)
        key = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                hook(bound)
                args, kwargs = bound.args, bound.kwargs
            boundary = not self._stack or self._stack[-1][0] != layer
            self.spans[layer] += 1
            if boundary:
                self.calls[layer] += 1
            frame = [layer, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except Exception:
                if boundary:
                    self.failures[layer] += 1
                raise
            finally:
                self._close(frame, key)

        return wrapper

    def _close(self, frame, key):
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += duration - frame[2]
        self.fn_s[key] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def op(self, fn):
        """Run one op inside the root span and return its result."""
        frame = [ROOT, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn()
        finally:
            self._close(frame, f"{ROOT}.op")

    # -- counters -------------------------------------------------------

    @staticmethod
    def _chain(bound, ours):
        theirs = bound.arguments.get("trace")
        if theirs is None:
            bound.arguments["trace"] = ours
        else:
            def both(event):
                ours(event)
                theirs(event)

            bound.arguments["trace"] = both

    def _hook_update_solve(self, bound):
        Z = bound.arguments["Z"]
        self.counts["hiep.dim_sum"] += Z.m
        # the restoration loop scans columns 0..d-3 after each merged block
        dim = Z.blocks[0].size
        for block in Z.blocks[1:]:
            dim += block.size
            self.columns_scanned += max(dim - 2, 0)

        def on_event(event):
            if event.get("event") == "update-restore":
                self.counts["hiep.restore_steps"] += 1
                self.counts["hiep.eliminated"] += event["eliminated"]
                self.kernel_max = max(self.kernel_max, event["eliminated"] + 1)

        self._chain(bound, on_event)

    def _hook_arnoldi(self, bound):
        self.counts["hiep.dim_sum"] += bound.arguments["Z"].m

        def on_event(event):
            if event.get("event") == "arnoldi-step":
                self.counts["hiep.arnoldi_steps"] += 1

        self._chain(bound, on_event)

    def _hook_matvec(self, bound):
        self.counts["spectral.matvec_calls"] += 1

    def _hook_eigenvalues(self, bound):
        self.counts["eigen.dim_sum"] += len(bound.arguments["H"])

    def _hook_evaluate(self, bound):
        points = int(np.size(bound.arguments["x"]))
        self.counts["sop.evaluate_calls"] += 1
        self.counts["sop.evaluate_work"] += (bound.arguments["k"] + 1) * points

    # -- report ---------------------------------------------------------

    def per_op(self, n_ops: int) -> dict:
        """Per-layer metrics as means per traced op (ratios over the run)."""
        n = max(n_ops, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer] / n
            out[f"{layer}.self_s"] = self.self_s[layer] / n
            out[f"{layer}.failures"] = self.failures[layer] / n
        for key, value in self.counts.items():
            out[key] = value / n
        out["hiep.kernel_max"] = float(self.kernel_max)
        out["hiep.restore_useful_ratio"] = (
            self.counts["hiep.restore_steps"] / self.columns_scanned
            if self.columns_scanned else 0.0
        )
        out["experiments.serialize_s"] = sum(
            seconds for key, seconds in self.fn_s.items()
            if key.startswith("experiments.report_to_")
        ) / n
        out["bench.self_s"] = self.self_s[ROOT] / n
        out["trace.op_s"] = self.fn_s[f"{ROOT}.op"] / n
        return out
