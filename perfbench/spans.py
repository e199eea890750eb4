"""Span tracing from outside the program, for the traced run.

`Tracer.install` replaces each public function of the five layer modules
under every name the package's modules look it up by (for example
``qudit_bell.optimize.born_rule_distribution``) and wraps the ``__init__``
of each public class, so construction is traced wherever it happens.
`Tracer.uninstall` puts the originals back.  The program is not edited.

Each span records name, start, end and parent index.  Spans stay in memory
and are written out at the end; self time is a span's duration minus its
children's.
"""

from __future__ import annotations

import csv
import functools
import importlib
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "optimize", "quantum", "local_models", "expressions")

# Spans whose calls and self time are reported on their own; the rest count
# only towards their layer's total (cli.main is the whole cli layer).
REPORTED_SPANS = (
    "optimize.maximize",
    "quantum.born_rule_distribution",
    "quantum.QuantumSetup",
    "quantum.closed_form_distribution",
    "quantum.quantum_value",
    "quantum.catalan_constant",
    "expressions.JointDistribution",
    "expressions.evaluate",
    "expressions.build_expression",
    "local_models.local_bound_bruteforce",
    "local_models.local_bound_cases",
)
MEMORY_SPANS = ("local_models.local_bound_bruteforce", "local_models.local_bound_cases")
# Built once per maximizer inside local_bound_bruteforce, up to ~10^5 times a
# call: a span each would swamp the trace, so its cost stays in the caller's
# self time.
UNTRACED = ("local_models.DeterministicStrategy",)


def _work_counts(name: str, args: tuple, result) -> dict[str, int]:
    """Work a finished call did, computed from its arguments or result."""
    if name in MEMORY_SPANS:
        # the first argument is the dimension or an expression that has one
        d = getattr(args[0], "dimension", args[0]) if args else 0
        if name == "local_models.local_bound_bruteforce":
            return {"strategies": d ** 4}
        return {"shift_tuples": d ** 3}
    if name == "optimize.maximize":
        return {"improvements": len(getattr(result, "trace", ()))}
    return {}


class Tracer:
    """Collects spans, work counts and the largest memory-measured calls."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._largest: dict[str, tuple] = {}
        self._stack: list[int] = []
        self._patches = self._build_patches()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            for key, value in _work_counts(name, args, result).items():
                self.counts[f"{name}.{key}"] += value
                if name in MEMORY_SPANS and value > self._largest.get(name, (0,))[0]:
                    self._largest[name] = (value, fn, args, kwargs)
            return result

        return traced

    def _peak_mb(self, name: str) -> float:
        """tracemalloc peak of the call with the most work, replayed outside any span.

        tracemalloc slows allocation-heavy code several times over, so it is
        kept out of the timed spans; a call's memory depends on its arguments
        only, so the largest call's replay gives the peak over all calls.
        """
        if name not in self._largest:
            return 0.0
        _, fn, args, kwargs = self._largest[name]
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        modules = {layer: importlib.import_module(f"qudit_bell.{layer}") for layer in LAYERS}
        patches = []
        for layer, module in modules.items():
            for attr in module.__all__:
                obj = getattr(module, attr)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in UNTRACED:
                    continue
                if isinstance(obj, type):
                    if "__init__" in vars(obj) and not issubclass(obj, BaseException):
                        init = vars(obj)["__init__"]
                        patches.append((obj, "__init__", init, self._wrap(name, init)))
                elif callable(obj):
                    traced = self._wrap(name, obj)
                    patches += [(caller, attr, obj, traced) for caller in modules.values()
                                if vars(caller).get(attr) is obj]
        return patches

    def install(self) -> None:
        for target, attr, _, traced in self._patches:
            setattr(target, attr, traced)

    def uninstall(self) -> None:
        for target, attr, original, _ in self._patches:
            setattr(target, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as CSV: index, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "name", "start_s", "end_s", "parent"])
            for index, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([index, name, repr(start), repr(end), parent])

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        under_maximize = [False] * len(self.spans)
        maximize_s = 0.0
        evaluations = 0
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_s[index]
            if name == "optimize.maximize":
                under_maximize[index] = True
                maximize_s += end - start
            elif parent >= 0 and under_maximize[parent]:
                under_maximize[index] = True
                evaluations += name == "quantum.born_rule_distribution"

        metrics: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            total = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
            metrics[f"{layer}.self_s"] = (total, "s")
        metrics["cli.main.calls"] = (calls["cli.main"], "count")
        for name in REPORTED_SPANS:
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.self_s"] = (self_s[name], "s")
        for name in MEMORY_SPANS:
            metrics[f"{name}.peak_mb"] = (self._peak_mb(name), "MB")
        metrics["local_models.local_bound_bruteforce.strategies"] = (
            self.counts["local_models.local_bound_bruteforce.strategies"], "count")
        metrics["local_models.local_bound_cases.shift_tuples"] = (
            self.counts["local_models.local_bound_cases.shift_tuples"], "count")
        improvements = self.counts["optimize.maximize.improvements"]
        metrics["optimize.evaluations"] = (evaluations, "count")
        metrics["optimize.evals_per_s"] = (evaluations / maximize_s if maximize_s else 0.0, "1/s")
        metrics["optimize.improve_ratio"] = (
            improvements / evaluations if evaluations else 0.0, "ratio")
        return metrics
