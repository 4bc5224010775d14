"""Spans around calls into kgcharge's modules, recorded from outside the package.

Each traced function is replaced, in every module namespace that holds it
(``from ... import`` copies the binding, sometimes under another name such as
``cli.run_series``), by a wrapper that records a span: name, start, end and
the index of the enclosing span.  Spans stay in memory until ``op_metrics``
turns one op's spans into per-layer numbers.  A function that a refactor
removes or stops calling reports zero calls; it never fails the run.

The benchmark is single-threaded, so one stack of open spans suffices and
the child spans of a span never overlap each other.
"""

from __future__ import annotations

import os
import sys
import time

# The layers are the package's modules; these are the public functions timed.
TRACED = {
    "trees": ("enumerate_trees",),
    "spectral": ("pointwise_product", "estimate_algebra_constant"),
    "propagation": ("free_evolve", "suffix_time_integral"),
    "solver": ("solve", "energy", "field_energy_norm"),
    "series": ("series", "tree_amplitude", "subtree_table", "leaf_table", "readout"),
    "storage": ("write_trajectory", "read_trajectory"),
}
CLI_COMMANDS = ("solve", "transport", "readout", "sweep")
STORAGE_CALLS = ("storage.write_trajectory", "storage.read_trajectory")

# Per-layer metric name -> (span name, statistic, unit).
PER_LAYER = {
    "storage.write_trajectory.calls": ("storage.write_trajectory", "calls", "count"),
    "storage.write_trajectory.s": ("storage.write_trajectory", "s", "s"),
    "storage.read_trajectory.calls": ("storage.read_trajectory", "calls", "count"),
    "storage.read_trajectory.s": ("storage.read_trajectory", "s", "s"),
    "series.series.calls": ("series.series", "calls", "count"),
    "series.series.s": ("series.series", "s", "s"),
    "series.tree_amplitude.calls": ("series.tree_amplitude", "calls", "count"),
    "series.tree_amplitude.self_s": ("series.tree_amplitude", "self_s", "s"),
    "series.subtree_table.calls": ("series.subtree_table", "calls", "count"),
    "series.subtree_table.self_s": ("series.subtree_table", "self_s", "s"),
    "series.leaf_table.calls": ("series.leaf_table", "calls", "count"),
    "series.readout.s": ("series.readout", "s", "s"),
    "solver.solve.s": ("solver.solve", "s", "s"),
    "solver.energy.calls": ("solver.energy", "calls", "count"),
    "solver.energy.s": ("solver.energy", "s", "s"),
    "solver.field_energy_norm.s": ("solver.field_energy_norm", "s", "s"),
    "spectral.pointwise_product.calls": ("spectral.pointwise_product", "calls", "count"),
    "spectral.pointwise_product.s": ("spectral.pointwise_product", "s", "s"),
    "spectral.estimate_algebra_constant.calls": ("spectral.estimate_algebra_constant", "calls", "count"),
    "spectral.estimate_algebra_constant.s": ("spectral.estimate_algebra_constant", "s", "s"),
    "propagation.free_evolve.calls": ("propagation.free_evolve", "calls", "count"),
    "propagation.free_evolve.s": ("propagation.free_evolve", "s", "s"),
    "propagation.suffix_time_integral.calls": ("propagation.suffix_time_integral", "calls", "count"),
    "propagation.suffix_time_integral.s": ("propagation.suffix_time_integral", "s", "s"),
    "trees.enumerate_trees.calls": ("trees.enumerate_trees", "calls", "count"),
    "trees.enumerate_trees.s": ("trees.enumerate_trees", "s", "s"),
    "cli.solve.s": ("cli.solve", "s", "s"),
    "cli.transport.s": ("cli.transport", "s", "s"),
    "cli.readout.s": ("cli.readout", "s", "s"),
    "cli.sweep.s": ("cli.sweep", "s", "s"),
}
# Computed by the tracer outside the spans.
EXTRA_UNITS = {
    "series.subtree_table.hit_ratio": "ratio",
    "storage.trajectory_bytes": "B",
    "trace.op_s.median": "s",
    "trace.overhead": "ratio",
}


def _directory_bytes(directory) -> int:
    try:
        return sum(entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())
    except OSError:
        return 0


class Tracer:
    """Installs span-recording wrappers into the kgcharge modules and removes them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.subtree_lookups = 0
        self.subtree_hits = 0
        self.storage_dirs: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for name, m in sys.modules.items() if name == "kgcharge" or name.startswith("kgcharge.")]

    def install(self) -> None:
        modules = self._modules()
        for layer, names in TRACED.items():
            home = sys.modules.get(f"kgcharge.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)
        cli = sys.modules.get("kgcharge.cli")
        for command in CLI_COMMANDS:
            cmd = getattr(cli, command, None)
            callback = getattr(cmd, "callback", None)
            if callable(callback):
                self._restore.append((cmd, "callback", callback))
                cmd.callback = self._wrap(f"cli.{command}", callback)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        lookup_hit = self._subtree_lookup if name == "series.subtree_table" else None
        records_dir = name in STORAGE_CALLS

        def traced(*args, **kwargs):
            if lookup_hit is not None:
                lookup_hit(args)
            if records_dir and args:
                self.storage_dirs.append(args[0])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _subtree_lookup(self, args) -> None:
        """Check the subtree cache before the call: would it return a stored table?"""
        try:
            tree, cache = args[0], args[1]
            hit = sys.modules["kgcharge.trees"].to_dyck(tree) in cache.tables
        except (IndexError, AttributeError, KeyError, TypeError):
            return
        self.subtree_lookups += 1
        self.subtree_hits += hit

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.subtree_lookups = self.subtree_hits = 0
        self.storage_dirs.clear()

    def op_metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer numbers for the spans recorded since the last reset.

        ``s`` covers the outermost spans of a name (a recursive call is not
        counted twice); ``self_s`` is each span's duration minus its
        children's.  Seconds are multiplied by ``scale``.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        stats: dict[str, dict[str, float]] = {}
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry["s"] += end - start
        metrics = {
            metric: stats.get(span, {}).get(stat, 0) * (scale if unit == "s" else 1)
            for metric, (span, stat, unit) in PER_LAYER.items()
        }
        metrics["series.subtree_table.hit_ratio"] = (
            self.subtree_hits / self.subtree_lookups if self.subtree_lookups else 0.0
        )
        metrics["storage.trajectory_bytes"] = sum(_directory_bytes(d) for d in self.storage_dirs)
        return metrics


def per_layer_units() -> dict[str, str]:
    units = {metric: unit for metric, (_, _, unit) in PER_LAYER.items()}
    units.update(EXTRA_UNITS)
    return units
