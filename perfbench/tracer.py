"""Span and counter tracing of skeinlab from outside the package.

`Tracer.install()` replaces selected public functions and methods of the
skeinlab modules with wrappers, in every skeinlab namespace that bound
the original object (e.g. `detect` and `cli` both import
`enumerate_admissible_states` by name). `uninstall()` puts every original
back. Nothing under src/ is changed.

Spans (name, start, end, parent, request) stay in memory; `summary()`
reduces them to per-name calls, total and self time, where self time is
a span's duration minus the durations of its direct child spans.
Hot, tiny entry points (Cyclotomic arithmetic, reduce_mod_rows) only
count calls: a span on each of their ~10^5 calls per irrep would cost
more than the work they wrap, so their time stays in the caller's self
time.

Run as a script, it executes one skeinlab CLI command under the tracer
and writes the summary to a JSON file:

    PYTHONPATH=src python perfbench/tracer.py OUT.json detect --curve 2,1
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path, span name or None for count-only, observer key)
TARGETS = [
    ("skeinlab.curves", "enumerate_admissible_states", "curves.dp", "dp"),
    ("skeinlab.curves", "enumerate_admissible_states_bruteforce", "curves.bruteforce", None),
    ("skeinlab.curves", "support_bounds_check", "curves.bounds_check", None),
    ("skeinlab._kernels", "admissible_masks", "_kernels.masks", "masks"),
    ("skeinlab._kernels", "support_from_masks", "_kernels.support", None),
    ("skeinlab.intlinalg", "smith_normal_form", "intlinalg.snf", None),
    ("skeinlab.intlinalg", "hnf", "intlinalg.hnf", None),
    ("skeinlab.intlinalg", "kernel_mod", "intlinalg.kernel_mod", None),
    ("skeinlab.intlinalg", "solve_integer", "intlinalg.solve_integer", None),
    ("skeinlab.intlinalg", "sublattice_index", "intlinalg.sublattice_index", None),
    ("skeinlab.intlinalg", "skew_normal_form", "intlinalg.skew_normal_form", None),
    ("skeinlab.intlinalg", "reduce_mod_rows", None, "intlinalg.reduce_calls"),
    ("skeinlab.surface", "build_sigma_g_star", "surface.build_sigma_g_star", None),
    ("skeinlab.surface", "BalancedLattice.__init__", "surface.balanced.init", None),
    ("skeinlab.surface", "BalancedLattice.coordinates", "surface.balanced.coordinates", None),
    ("skeinlab.surface", "BalancedLattice.central_sublattice", "surface.balanced.central_sublattice", None),
    ("skeinlab.surface", "BalancedLattice.pi_degree", "surface.balanced.pi_degree", None),
    ("skeinlab.surface", "BalancedLattice.pairing", "surface.balanced.pairing", None),
    ("skeinlab.lattice", "SkewLattice.__init__", "surface.balanced.skew_init", None),
    ("skeinlab.lattice", "SkewLattice.pairing", "surface.balanced.skew_pairing", None),
    ("skeinlab.surface", "RefinedLattice.__init__", "surface.refined.init", None),
    ("skeinlab.surface", "RefinedLattice.kernel_mod", "surface.refined.kernel_mod", None),
    ("skeinlab.surface", "RefinedLattice.pi_degree", "surface.refined.pi_degree", None),
    ("skeinlab.surface", "RefinedLattice.lemma_comparison", "surface.lemma", None),
    ("skeinlab.qtorus", "build_irrep", "qtorus.build_irrep", None),
    ("skeinlab.qtorus", "QuantumTorus.__init__", "qtorus.torus_init", None),
    ("skeinlab.qtorus", "CentralCharacter.__init__", "qtorus.character_init", None),
    ("skeinlab.qtorus", "TorusIrrep.__init__", "qtorus.irrep_init", "irrep"),
    ("skeinlab.cyclotomic", "Cyclotomic.__init__", None, "cyclotomic.new_calls"),
    ("skeinlab.cyclotomic", "Cyclotomic.__mul__", None, "cyclotomic.mul_calls"),
    ("skeinlab.cyclotomic", "Cyclotomic.__rmul__", None, "cyclotomic.mul_calls"),
    ("skeinlab.detect", "detect_theorem2", "detect.theorem2", None),
    ("skeinlab.detect", "detect_support", "detect.support", None),
]

REQUEST_SPAN = "request"


def _observe(counters, key, args, result):
    """Counts taken from a wrapped call's arguments or result."""
    if key == "dp":
        counters["curves.dp_support_size"] += len(result.fibers)
    elif key == "masks":
        counters["_kernels.states_scanned"] += 1 << int(args[0])
        counters["_kernels.admissible_masks"] += len(result)
    elif key == "irrep":
        counters["qtorus.irrep_dim_total"] += args[0].dimension


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, request id)
        self.stack = []
        self.request = -1
        self.counters = {
            "intlinalg.reduce_calls": 0,
            "cyclotomic.new_calls": 0,
            "cyclotomic.mul_calls": 0,
            "curves.dp_support_size": 0,
            "_kernels.states_scanned": 0,
            "_kernels.admissible_masks": 0,
            "qtorus.irrep_dim_total": 0,
        }
        self._patched = []  # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name, key):
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if key is not None:
                _observe(counters, key, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, key):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        # import first, so that every namespace exists before any patching
        modules = {name: importlib.import_module(name) for name, _, _, _ in TARGETS}
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "skeinlab" or name.startswith("skeinlab."))
        ]
        for module_name, path, span_name, key in TARGETS:
            module = modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, span_name, key))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(original, span_name, key)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, original))
                        setattr(ns, attr, wrapped)
        return self

    def wrap(self, fn, span_name, key=None):
        """fn wrapped to record a span (or, with no span name, to count)."""
        if span_name is None:
            return self._count_wrapper(fn, key)
        return self._span_wrapper(fn, span_name, key)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reduction -----------------------------------------------------------

    def summary(self):
        """{'spans': {name: [calls, total_ms, self_ms]}, 'counters': {...}}"""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = by_name.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (end - start) * 1e3
            row[2] += (end - start - child[i]) * 1e3
        return {"spans": by_name, "counters": dict(self.counters)}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")


def merge_summaries(summaries):
    out = {"spans": {}, "counters": {}}
    for s in summaries:
        for name, row in s["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for key, value in s["counters"].items():
            out["counters"][key] = out["counters"].get(key, 0) + value
    return out


def _span_total(summary, prefix, column):
    return sum(
        row[column] for name, row in summary["spans"].items()
        if name == prefix or name.startswith(prefix + ".")
    )


def layer_metrics(summary):
    """Per-layer metrics (without the harness-level ones) from a summary.
    Metric names start with a letter or digit, so the _kernels module
    reports as kernels.*."""
    c = summary["counters"]
    calls = lambda p: int(_span_total(summary, p, 0))
    self_ms = lambda p: _span_total(summary, p, 2)
    scanned = c.get("_kernels.states_scanned", 0)
    return {
        "kernels.masks_self_ms": (self_ms("_kernels.masks"), "ms"),
        "kernels.support_self_ms": (self_ms("_kernels.support"), "ms"),
        "kernels.states_scanned": (scanned, "count"),
        "kernels.admissible_ratio": (
            c.get("_kernels.admissible_masks", 0) / scanned if scanned else 0.0, "ratio"),
        "curves.bruteforce_calls": (calls("curves.bruteforce"), "count"),
        "curves.dp_calls": (calls("curves.dp"), "count"),
        "curves.dp_self_ms": (self_ms("curves.dp"), "ms"),
        "curves.dp_support_size": (c.get("curves.dp_support_size", 0), "count"),
        "intlinalg.snf_calls": (calls("intlinalg.snf"), "count"),
        "intlinalg.snf_self_ms": (self_ms("intlinalg.snf"), "ms"),
        "intlinalg.hnf_calls": (calls("intlinalg.hnf"), "count"),
        "intlinalg.hnf_self_ms": (self_ms("intlinalg.hnf"), "ms"),
        "intlinalg.reduce_calls": (c.get("intlinalg.reduce_calls", 0), "count"),
        "surface.balanced_self_ms": (self_ms("surface.balanced"), "ms"),
        "surface.refined_self_ms": (self_ms("surface.refined"), "ms"),
        "surface.lemma_self_ms": (self_ms("surface.lemma"), "ms"),
        "qtorus.irrep_self_ms": (self_ms("qtorus"), "ms"),
        "qtorus.irrep_dim_total": (c.get("qtorus.irrep_dim_total", 0), "count"),
        "cyclotomic.mul_calls": (c.get("cyclotomic.mul_calls", 0), "count"),
        "cyclotomic.new_calls": (c.get("cyclotomic.new_calls", 0), "count"),
        "detect.self_ms": (self_ms("detect"), "ms"),
    }


def _run_cli(out_path, argv):
    import skeinlab.cli as cli

    tracer = Tracer()
    code = 0
    with tracer:
        try:
            cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    with open(out_path, "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_run_cli(sys.argv[1], sys.argv[2:]))
