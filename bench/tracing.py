"""Outside-in tracing of the ma-bench layers.

The tracer replaces public functions with wrappers, each under the name its
caller uses to reach it (``ma_bench.sim.make_device_set`` is the name
``run_trial`` looks up, ``ma_bench.coordinated.min_bandwidth_array`` the one
``fdma_kmax`` resolves at call time). A wrapper records a span (name, start,
end, parent) and the work it was handed as a count. Spans stay in memory
until the run ends; a span's self time is its duration minus the time its
child spans cover.

Spans are taken in the process that installed the tracer only: forked sweep
workers inherit the wrappers, which then call straight through.

Nothing is wrapped at import time; ``Tracer.install`` does it.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


def _size(args, result):
    return int(getattr(result, "size", 0))


def _length(args, result):
    return len(result)


def _admitted(args, result):
    return int(result.admitted)


def _count(args, result):
    return int(result)


def _outcomes(args, result):
    return len(args[0])


def _file_bytes(args, result):
    return os.path.getsize(args[1])


# (module, attribute, metric prefix, item stat, item counter). The module is
# the one the caller reaches the function through.
TARGETS = (
    ("ma_bench.sim", "trial_rng", "model.trial_rng", None, None),
    ("ma_bench.sim", "sample_arrivals", "model.sample_arrivals", None, None),
    ("ma_bench.sim", "make_device_set", "model.make_device_set", "devices", _length),
    ("ma_bench.sim", "sample_placement", "model.sample_placement", "devices", _size),
    ("ma_bench.sim", "channel_gain", "model.channel_gain", "devices", _size),
    ("ma_bench.coordinated", "min_bandwidth_array",
     "coordinated.min_bandwidth_array", "lanes", _size),
    ("ma_bench.coordinated", "fdma_kmax", "coordinated.fdma_kmax", "admitted", _admitted),
    ("ma_bench.coordinated", "tdma_kmax", "coordinated.tdma_kmax", "admitted", _admitted),
    ("ma_bench.coordinated", "noma_admitted_count",
     "coordinated.noma_admitted_count", "admitted", _count),
    ("ma_bench.uncoordinated", "optimize_design", "uncoordinated.optimize_design", None, None),
    ("ma_bench.uncoordinated", "noma_design", "uncoordinated.noma_design", None, None),
    ("ma_bench.uncoordinated", "uncoordinated_throughput",
     "uncoordinated.uncoordinated_throughput", None, None),
    ("ma_bench.sim", "run_trial", "sim.run_trial", None, None),
    ("ma_bench.sim", "resolve_design", "sim.resolve_design", None, None),
    ("ma_bench.sim", "aggregate", "sim.aggregate", "outcomes", _outcomes),
    ("ma_bench.sim", "run_sweep", "sim.run_sweep", None, None),
    ("ma_bench.sim", "analytic_rows", "sim.analytic_rows", None, None),
    ("ma_bench.cli", "main", "cli.main", None, None),
    ("ma_bench.cli", "parse_config", "cli.parse_config", None, None),
    ("ma_bench.cli", "emit_csv", "cli.emit_csv", "bytes", _file_bytes),
)

# Objective evaluations of the design solvers: calls to these made while the
# innermost open span is one of SOLVERS count as that solver's iterations.
OBJECTIVES = (("ma_bench.uncoordinated", "collision_probability"),
              ("ma_bench.uncoordinated", "noma_feasibility_probability"))
SOLVERS = ("uncoordinated.optimize_design", "uncoordinated.noma_design")


class Tracer:
    """Spans and counts for one traced pass, held in memory."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []          # [name, start, end, parent index or -1]
        self.open = []           # indices of spans not yet ended
        self.items = defaultdict(int)
        self.evals = defaultdict(int)   # span index -> objective calls inside it
        self.absent = []         # wrapped names the program no longer has

    def install(self):
        for module_name, attr, metric, stat, counter in TARGETS:
            self._wrap(module_name, attr, metric, stat, counter)
        for module_name, attr in OBJECTIVES:
            self._count_inside(module_name, attr)
        return self

    def _lookup(self, module_name, attr):
        try:
            module = importlib.import_module(module_name)
            return module, getattr(module, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}.{attr}")
            return None, None

    def _wrap(self, module_name, attr, metric, stat, counter):
        module, fn = self._lookup(module_name, attr)
        if fn is None:
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            span = [metric, time.perf_counter(), 0.0,
                    tracer.open[-1] if tracer.open else -1]
            tracer.open.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.open.pop()
            if stat is not None:
                try:
                    tracer.items[f"{metric}.{stat}"] += counter(args, result)
                except (AttributeError, IndexError, OSError, TypeError, ValueError):
                    pass   # a changed signature leaves the count at what it was
            return result

        setattr(module, attr, traced)

    def _count_inside(self, module_name, attr):
        module, fn = self._lookup(module_name, attr)
        if fn is None:
            return
        open_spans, evals = self.open, self.evals

        # Kept this lean: the solvers call it about 60,000 times per design.
        # Counts made in forked workers stay there and are dropped.
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if open_spans:
                evals[open_spans[-1]] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, counted)

    def layer_stats(self) -> dict:
        """``<metric>.calls``, ``<metric>.self_s`` and item counts."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(self.spans):
            stats[name + ".calls"] += 1
            stats[name + ".self_s"] += end - start - covered[index]
        for metric, count in self.items.items():
            stats[metric] += count
        for index, count in self.evals.items():
            name = self.spans[index][0]
            if name in SOLVERS:
                stats[name + ".objective_evals"] += count
        return dict(stats)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(stats: dict, served: float) -> dict:
    """Every per-layer metric of BENCHMARK.json from one pass's stats.

    ``served`` is the number of packets the pass's Monte Carlo rows report
    delivered, summed over trials.
    """
    metrics = {}
    for _module, attr, metric, stat, _counter in TARGETS:
        metrics[metric + ".calls"] = stats.get(metric + ".calls", 0)
        metrics[metric + ".self_s"] = stats.get(metric + ".self_s", 0.0)
        if stat is not None:
            metrics[f"{metric}.{stat}"] = stats.get(f"{metric}.{stat}", 0)
    for solver in SOLVERS:
        metrics[solver + ".objective_evals"] = stats.get(solver + ".objective_evals", 0)
    placed = metrics["model.make_device_set.devices"]
    admitted = sum(metrics[f"coordinated.{fn}.admitted"]
                   for fn in ("fdma_kmax", "tdma_kmax", "noma_admitted_count"))
    metrics["coordinated.fdma.admitted_per_lane"] = _ratio(
        metrics["coordinated.fdma_kmax.admitted"],
        metrics["coordinated.min_bandwidth_array.lanes"])
    metrics["coordinated.admitted_per_placed"] = _ratio(admitted, placed)
    metrics["sim.served_per_placed"] = _ratio(
        served, placed + metrics["model.sample_placement.devices"])
    return metrics


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith(("_per_lane", "_per_placed")):
        return "ratio"
    return "count"
