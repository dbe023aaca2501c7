"""Span tracer that wraps adtstab's public functions from outside the package.

Every listed function is replaced, in each adtstab module that binds it, by
a wrapper that records one span: item, span id, parent span id, name, start
and end.  Modules call each other through their module globals, so patching
every binding also catches internal calls such as
``certify.evaluate_certificate -> linalg.expm``.  A function that the
package no longer defines is skipped and reported as missing.

The wrapper does as little as it can, because the calls it wraps can be as
short as 20 us.  Call counts, self times and the P0 search's trials are
derived from the spans after the run.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import math
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = {
    "linalg": ("expm", "spectral_norm"),
    "commutators": (
        "commutator_series",
        "correction_terms",
        "correction_bound",
        "lift_bound",
        "convergence_margin",
    ),
    "certify": ("evaluate_certificate", "search_p0", "inequality_lhs"),
    "systems": ("comparison_jump", "lifted_initial"),
    "schedules": ("generate", "validate"),
    "simulate": (
        "simulate_parabolic",
        "simulate_ode",
        "simulate_comparison",
        "matching_residual",
        "trajectory_to_csv",
        "mode_csv",
    ),
    "serialize": ("dumps",),
    "cli": (
        "cmd_certify",
        "cmd_simulate",
        "cmd_omega",
        "cmd_mr_check",
        "cmd_gen_times",
        "cmd_commutators",
    ),
}

ITEM = "item"
SPAN_FIELDS = ("item", "span", "parent", "name", "start_ns", "end_ns")
_EXPM = "linalg.expm"
_SEARCH = "certify.search_p0"
_TRIAL = "certify.inequality_lhs"


class Tracer:
    """Collects spans while installed; each traced item is one root span."""

    def __init__(self):
        # spans as consecutive int64 rows of SPAN_FIELDS, which keeps
        # millions of them out of the garbage collector's way; the name
        # field indexes self.names
        self._rows = array("q")
        self.names: list[str] = [ITEM]
        self.item_labels: dict[int, str] = {}
        self.expm_matrices = 0
        self.search_found = 0
        self.missing: list[str] = []
        self._stack = [0]
        self._next_id = 0
        self._item = 0

    @contextmanager
    def installed(self):
        """Patch every adtstab binding of the listed functions, then restore."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "adtstab" or name.startswith("adtstab.")]
        patches = []
        self.missing = []
        for mod_name, funcs in LAYERS.items():
            try:
                home = importlib.import_module(f"adtstab.{mod_name}")
            except ModuleNotFoundError:
                self.missing += [f"{mod_name}.{f}" for f in funcs]
                continue
            for func in funcs:
                original = getattr(home, func, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{func}")
                    continue
                wrapped = self._wrap(f"{mod_name}.{func}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original))
                            setattr(module, attr, wrapped)
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    @contextmanager
    def item(self, label: str):
        """Root span of one workload item; layer spans nest under it."""
        self._next_id += 1
        span = self._item = self._next_id
        self.item_labels[span] = label
        self._stack.append(span)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self._rows.extend((span, span, 0, 0, start, end))

    def _wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)
        counts_matrices = name == _EXPM
        counts_found = name == _SEARCH
        stack = self._stack
        record = self._rows.extend
        tracer = self

        def traced(*args, **kwargs):
            tracer._next_id = span = tracer._next_id + 1
            parent = stack[-1]
            stack.append(span)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                record((tracer._item, span, parent, name_index, start, end))
            if counts_matrices:
                tracer.expm_matrices += math.prod(getattr(result, "shape", (1, 1))[:-2])
            elif counts_found and result is not None:
                tracer.search_found += 1
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def spans(self):
        """(item, span, parent, name, start_ns, end_ns) for every span recorded."""
        rows = self._rows
        width = len(SPAN_FIELDS)
        for i in range(0, len(rows), width):
            item, span, parent, name, start, end = rows[i:i + width]
            yield item, span, parent, self.names[name], start, end

    @staticmethod
    def _self_ns(spans) -> dict[int, int]:
        """Self time of each span: its duration minus its children's."""
        own = {s[1]: s[5] - s[4] for s in spans}
        for _item, _span, parent, _name, start, end in spans:
            if parent in own:
                own[parent] -= end - start
        return own

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass counters and self times, keyed <module>.<function>.<stat>."""
        spans = list(self.spans())
        own = self._self_ns(spans)
        name_of = {s[1]: s[3] for s in spans}
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        trials = 0
        for _item, span, parent, name, _start, _end in spans:
            calls[name] += 1
            self_ns[name] += own[span]
            trials += name == _TRIAL and name_of.get(parent) == _SEARCH
        out = {}
        for mod_name, funcs in LAYERS.items():
            for func in funcs:
                name = f"{mod_name}.{func}"
                out[f"{name}.calls"] = calls[name] / passes
                out[f"{name}.self_s"] = self_ns[name] / 1e9 / passes
        out[f"{_EXPM}.matrices"] = self.expm_matrices / passes
        out[f"{_SEARCH}.hit_ratio"] = self.search_found / trials if trials else 0.0
        return out

    def subtree_profile(self, root_name: str) -> dict[str, dict]:
        """Per item label: mean inclusive ms of root_name spans and the share
        of their time spent as self time of each function below them."""
        spans = list(self.spans())
        own = self._self_ns(spans)
        parent_of = {s[1]: s[2] for s in spans}
        name_of = {s[1]: s[3] for s in spans}
        durations: dict[str, list[int]] = defaultdict(list)
        shares: dict[str, Counter] = defaultdict(Counter)
        for item, span, _parent, name, start, end in spans:
            label = self.item_labels.get(item, "?")
            if name == root_name:
                durations[label].append(end - start)
            node = span
            while node in name_of:
                if name_of[node] == root_name:
                    shares[label][name] += own[span]
                    break
                node = parent_of[node]
        profile = {}
        for label, times in sorted(durations.items()):
            total = sum(times)
            profile[label] = {
                "calls": len(times),
                "mean_ms": total / len(times) / 1e6,
                "self_share": {name: ns / total for name, ns in shares[label].most_common()},
            }
        return profile

    def write_spans(self, path) -> None:
        """Gzipped CSV, one row per span."""
        with gzip.open(path, "wt", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([*SPAN_FIELDS, "label"])
            for span in self.spans():
                writer.writerow([*span, self.item_labels.get(span[0], "")])
