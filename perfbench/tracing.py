"""Per-layer tracing of the netsteer package, installed from outside it.

``Tracer.install`` wraps every public function of every ``netsteer.*``
module at each module binding that names it (``experiments`` imports
``assemblage_element`` by name, ``network`` imports ``is_psd`` by name, and
so on), the constructors of the package's public classes, and the ``find``
method of the LHS providers.  Each call records a span (name, parent span,
start, end, on the process CPU clock) in memory;
counters are taken at the same boundaries.  Nothing in ``src/`` is modified
on disk.

Layers are the package's modules.  A span's self time (its duration minus
the time covered by its child spans) is charged to one layer metric by
``_bucket``; self time outside those metrics (the kernels) is not reported.
A function missing from the package simply never produces a span, so its
metric reads zero.
"""

from __future__ import annotations

import functools
import inspect
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

# Self time of these spans goes to the named metric.
BUCKETS = {
    "operators.negativity": "operators.spectrum_s",
    "operators.is_psd": "operators.validate_s",
    "operators.is_density": "operators.validate_s",
    "operators.hermitian_eigenvalues": "operators.validate_s",
    "network.line_assemblage": "network.contract_s",
    "network.assemblage_element": "network.contract_s",
    "network.standard_assemblage": "network.contract_s",
    "network.condition_on_trusted_measurement": "network.contract_s",
    "certificates.dew_unsteerable_both_ways": "certificates.unsteerable_s",
    "certificates.erased_unsteerable": "certificates.unsteerable_s",
    "nlhs.BruteForceLHSProvider.find": "nlhs.solve_s",
    "nlhs.solve_lhv": "nlhs.solve_s",
    "nlhs.build_percolation_line": "nlhs.construct_s",
    "nlhs.reconstruct": "nlhs.reconstruct_s",
    "nlhs.nlhs_to_separable_realization": "nlhs.realize_s",
    "nlhs.separabilize_endpoint": "nlhs.realize_s",
    "experiments.write_csv": "experiments.write_s",
    "experiments.write_json": "experiments.write_s",
}
# Every other span goes to its module's metric.  Other nlhs spans (model and
# decomposition constructors, the trivial provider) inherit the metric of
# the nearest nlhs ancestor, so a realisation's constructors count as
# realisation.
MODULE_BUCKETS = {
    "states": "states.build_s",
    "measurements": "measurements.build_s",
    "operators": "operators.algebra_s",
    "network": "network.build_s",
    "certificates": "certificates.certify_s",
    "nlhs": "nlhs.construct_s",
    "nlhs_io": "nlhs_io.serialise_s",
    "experiments": "experiments.self_s",
    "cli": "cli.self_s",
}
SPECTRUM_ROOT = "operators.negativity"
SEARCH_KERNELS = {"kernels.sphere_maximize", "kernels.criterion_values",
                  "kernels.lhs_bound_brute_force"}
COUNT_ONLY_CLASSES = {"operators.QOperator": "operators.qoperators_built"}  # too many to span
SPANNED_METHODS = ("find",)                      # LHS provider entry points
SOLVER_BINDINGS = ("nnls", "linprog")            # scipy solvers bound in netsteer

TIME_METRICS = (
    "states.build_s", "measurements.build_s", "operators.validate_s",
    "operators.spectrum_s", "operators.algebra_s", "network.contract_s",
    "network.build_s", "certificates.unsteerable_s", "certificates.certify_s",
    "nlhs.solve_s", "nlhs.construct_s", "nlhs.reconstruct_s", "nlhs.realize_s",
    "nlhs_io.serialise_s", "experiments.write_s", "experiments.self_s", "cli.self_s",
)


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.passes = []          # finished passes: (spans, counts)
        self.spans = []           # current pass: [name, parent index, start, end]
        self.counts = defaultdict(int)
        self._current = -1
        self._hooks = {
            "network.line_assemblage": self._hook_line_assemblage,
            "network.assemblage_element": self._hook_assemblage_element,
            "network.standard_assemblage": self._hook_standard_assemblage,
            "network.condition_on_trusted_measurement": self._hook_condition,
        }

    # ---------------------------------------------------------------- install

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "netsteer" or name.startswith("netsteer."))]
        replaced = {}
        classes = set()
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith("netsteer"):
                    if obj not in replaced:
                        name = f"{_short(obj.__module__)}.{obj.__name__}"
                        replaced[obj] = self._span(name, obj, self._hooks.get(name))
                    setattr(module, attr, replaced[obj])
                elif attr in SOLVER_BINDINGS and callable(obj):
                    if obj not in replaced:
                        replaced[obj] = self._solver(obj)
                    setattr(module, attr, replaced[obj])
                elif inspect.isclass(obj) and obj.__module__.startswith("netsteer") and obj not in classes:
                    classes.add(obj)
                    self._wrap_class(obj)

    def _wrap_class(self, cls) -> None:
        name = f"{_short(cls.__module__)}.{cls.__name__}"
        if "__init__" in vars(cls):
            init = vars(cls)["__init__"]
            if name in COUNT_ONLY_CLASSES:
                cls.__init__ = self._counter(COUNT_ONLY_CLASSES[name], init)
            else:
                cls.__init__ = self._span(name, init, None)
        for method in SPANNED_METHODS:
            fn = vars(cls).get(method)
            if inspect.isfunction(fn):
                setattr(cls, method, self._span(f"{name}.{method}", fn, self._hook_provider))

    def _span(self, name, fn, hook):
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            record = [name, self._current, time.process_time(), 0.0]
            spans.append(record)
            parent, self._current = self._current, index
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.process_time()
                self._current = parent
            if hook is not None:
                self._run_hook(hook, signature, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _solver(self, fn):
        """Count the columns offered to a solver and the columns it kept."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            try:
                a = signature.bind(*args, **kwargs).arguments
                matrix = next(a[k] for k in ("A", "A_eq", "A_ub") if a.get(k) is not None)
                x = result[0] if isinstance(result, tuple) else result.x
                self.counts["nlhs.solve_columns"] += np.shape(matrix)[1]
                self.counts["nlhs.solve_kept"] += int(np.count_nonzero(np.asarray(x) > 1e-14))
            except (AttributeError, IndexError, StopIteration, TypeError):
                self.counts["trace.hook_errors"] += 1
            return result

        return wrapper

    # ------------------------------------------------------------------ hooks

    def _run_hook(self, hook, signature, args, kwargs, result) -> None:
        try:
            hook(signature.bind(*args, **kwargs).arguments, result)
        except (AttributeError, KeyError, TypeError, ValueError):
            self.counts["trace.hook_errors"] += 1

    def _hook_line_assemblage(self, a, result) -> None:
        branches = 1
        for m in a["net"].central_measurements:
            branches *= m.n_outcomes
            self.counts["network.contract_steps"] += branches
        self.counts["network.elements"] += len(result.elements)

    def _hook_assemblage_element(self, a, result) -> None:
        self.counts["network.contract_steps"] += len(a["outcome"])
        self.counts["network.elements"] += 1

    def _hook_standard_assemblage(self, a, result) -> None:
        self.counts["network.contract_steps"] += sum(m.n_outcomes for m in a["measurements"])

    def _hook_condition(self, a, result) -> None:
        self.counts["network.contract_steps"] += len(a["asm"].elements) * a["m"].n_outcomes

    def _hook_provider(self, a, result) -> None:
        povms = list(a["povms"])
        distinct = {
            tuple(np.round(e.matrix, 10).tobytes() for e in p.effects) for p in povms
        }
        self.counts["nlhs.inputs_total"] += len(povms)
        self.counts["nlhs.inputs_distinct"] += len(distinct)

    # ----------------------------------------------------------------- passes

    def begin_pass(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._current = -1

    def end_pass(self) -> None:
        self.passes.append((self.spans, self.counts))
        self.spans = []
        self.counts = defaultdict(int)

    def layer_metrics(self) -> dict:
        """Per-pass layer metrics, the median over the traced passes."""
        per_pass = [_pass_metrics(spans, counts) for spans, counts in self.passes]
        return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}

    def dump(self) -> dict:
        """All spans, compactly: a name table and per-pass rows of
        [name index, parent index, start us, duration us]."""
        names = sorted({s[0] for spans, _ in self.passes for s in spans})
        index = {n: i for i, n in enumerate(names)}
        passes = []
        for spans, counts in self.passes:
            origin = spans[0][2] if spans else 0.0
            rows = [[index[n], p, round((t0 - origin) * 1e6, 1), round((t1 - t0) * 1e6, 1)]
                    for n, p, t0, t1 in spans]
            passes.append({"counts": dict(counts), "spans": rows})
        return {"names": names, "passes": passes}


def _bucket(name: str, parent_bucket, under_spectrum: bool) -> str:
    module = name.split(".", 1)[0]
    if module == "operators" and under_spectrum:
        return "operators.spectrum_s"
    if name in BUCKETS:
        return BUCKETS[name]
    if module == "nlhs" and parent_bucket is not None and parent_bucket.startswith("nlhs."):
        return parent_bucket
    return MODULE_BUCKETS.get(module, "other_s")


def _pass_metrics(spans: list, counts: dict) -> dict:
    n = len(spans)
    child_time = [0.0] * n
    bucket = [None] * n
    spectrum = [False] * n
    for i, (name, parent, t0, t1) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += t1 - t0
        spectrum[i] = name == SPECTRUM_ROOT or (parent >= 0 and spectrum[parent])
        bucket[i] = _bucket(name, bucket[parent] if parent >= 0 else None, spectrum[i])
    out = dict.fromkeys(TIME_METRICS, 0.0)
    calls = defaultdict(int)
    for i, (name, _, t0, t1) in enumerate(spans):
        if bucket[i] in out:
            out[bucket[i]] += (t1 - t0) - child_time[i]
        calls[name] += 1
    out["states.calls"] = sum(c for k, c in calls.items() if k.startswith("states."))
    out["measurements.povms_built"] = calls["measurements.POVM"]
    out["operators.qoperators_built"] = counts.get("operators.qoperators_built", 0)
    out["operators.eig_calls"] = calls["operators.hermitian_eigenvalues"]
    out["network.contract_steps"] = counts.get("network.contract_steps", 0)
    out["network.elements"] = counts.get("network.elements", 0)
    out["kernels.search_calls"] = sum(calls[k] for k in SEARCH_KERNELS)
    columns = counts.get("nlhs.solve_columns", 0)
    out["nlhs.solve_columns"] = columns
    out["nlhs.solve_useful_ratio"] = counts.get("nlhs.solve_kept", 0) / columns if columns else 0.0
    total = counts.get("nlhs.inputs_total", 0)
    out["nlhs.inputs_distinct_ratio"] = counts.get("nlhs.inputs_distinct", 0) / total if total else 0.0
    return out


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_seconds(python: str, src: str, module: str, repeats: int = 3) -> float:
    """Cumulative import time of ``module`` when a fresh interpreter imports
    netsteer.cli, from ``-X importtime``; the median of ``repeats`` runs, or
    0 when the module is not imported."""
    values = []
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", f"import sys; sys.path.insert(0, {src!r}); import netsteer.cli"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        cumulative = {m.group(3): int(m.group(2)) for m in _IMPORTTIME.finditer(proc.stderr)}
        values.append(cumulative.get(module, 0) / 1e6)
    return statistics.median(values)
