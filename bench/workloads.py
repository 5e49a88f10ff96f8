"""Workload definitions for the ma-bench benchmark.

A workload is a list of ``ma-bench sweep`` invocations. Each invocation is a
dict of config keys, the keys ``cli.parse_config`` accepts; the benchmark
turns it into command-line flags for ``cli.main`` and adds the workload seed
as ``master_seed`` and a fresh output path. Why each workload exists is in
WORKLOADS.md.

This module imports nothing from the program and no numpy, so the parent
benchmark process stays small and can check results even when the program
cannot be imported.
"""

from __future__ import annotations

from dataclasses import dataclass

SLOT_S = 1.0   # every workload keeps the default slot, so pps == per slot

DEFAULT_GRID = (1000.0, 20000.0, 8)
HIGHLOAD_GRID = (5000.0, 20000.0, 4)
DENSE_GRID = (1000.0, 20000.0, 16)
FINE_GRID = (1000.0, 20000.0, 3)
UNCOORDINATED = ("uncoordinated-fdma", "uncoordinated-tdma", "uncoordinated-noma")

# Parameter sets a call can run under; the reference records each digest.
VARIANTS = {"default": {}, "fine-minima": {"min_slot_s": 1e-4, "min_subchannel_hz": 100.0}}

# (full, --smoke) trials per call. One coordinated FDMA trial costs about as
# much as forty TDMA or NOMA trials; at 1:40 the FDMA subchannel solver and
# placement+sort take comparable shares of coordinated-highload.
COORDINATED_TRIALS = {"coordinated-fdma": (8, 1), "coordinated-tdma": (320, 4),
                      "coordinated-noma": (320, 4)}
RANDOM_ACCESS_TRIALS = (1000, 20)

# Workloads whose time goes to interpreter-bound code, and so is rescaled by
# the interpreter calibration kernel rather than the numpy one (worker.py).
INTERPRETER_BOUND = {"design-sweep"}

WORKLOADS = ("coordinated-highload", "random-access", "design-sweep", "random-access-2w")


@dataclass(frozen=True)
class Call:
    """One ``ma-bench sweep`` invocation of a workload."""

    name: str                 # output file stem, unique within the workload
    keys: dict                # config keys, without master_seed/output_path
    variant: str = "default"  # key into VARIANTS

    def config(self) -> dict:
        return {**self.keys, **VARIANTS[self.variant]}


def _grid_keys(grid: tuple, smoke: bool) -> dict:
    low, high, steps = grid
    return {"lambda_min": low, "lambda_max": high, "lambda_steps": 2 if smoke else steps}


def _per_scheme(trials: dict, grid: tuple, workers: int, smoke: bool) -> list[Call]:
    """One Monte Carlo call per scheme over the whole grid."""
    return [Call(scheme, {"schemes": scheme, "mode": "montecarlo",
                          **_grid_keys(grid, smoke), "trials": counts[smoke],
                          "workers": workers})
            for scheme, counts in trials.items()]


def _analytic(grid: tuple, variant: str, smoke: bool) -> list[Call]:
    """One analytic call per uncoordinated scheme over the whole grid.
    --smoke keeps one rate under fine minima, where a design costs ~0.5 s."""
    keys = _grid_keys(grid, smoke)
    if smoke and variant != "default":
        keys.update(lambda_max=keys["lambda_min"], lambda_steps=1)
    return [Call(f"{variant}-{scheme}", {"schemes": scheme, "mode": "analytic",
                                         **keys, "workers": 1}, variant)
            for scheme in UNCOORDINATED]


def calls(workload: str, smoke: bool = False) -> list[Call]:
    """The invocations of a workload in run order. --smoke keeps the ends of
    each grid and cuts trials."""
    random_access = {scheme: RANDOM_ACCESS_TRIALS for scheme in UNCOORDINATED}
    if workload == "coordinated-highload":
        return _per_scheme(COORDINATED_TRIALS, HIGHLOAD_GRID, 1, smoke)
    if workload == "random-access":
        return _per_scheme(random_access, DEFAULT_GRID, 1, smoke)
    if workload == "random-access-2w":
        return _per_scheme(random_access, DEFAULT_GRID, 2, smoke)
    if workload == "design-sweep":
        return (_analytic(DENSE_GRID, "default", smoke)
                + _analytic(FINE_GRID, "fine-minima", smoke))
    raise KeyError(f"unknown workload {workload!r}")


def flag_argv(keys: dict) -> list[str]:
    """``ma-bench`` command-line flags for a dict of config keys."""
    argv = []
    for key, value in keys.items():
        flag = "--output" if key == "output_path" else "--" + key.replace("_", "-")
        argv += [flag, repr(value) if isinstance(value, float) else str(value)]
    return argv


def lambda_grid(keys: dict) -> list[float]:
    """The rate grid a call sweeps (evenly spaced, both ends included)."""
    low, high, steps = keys["lambda_min"], keys["lambda_max"], keys["lambda_steps"]
    if steps == 1:
        return [low]
    return [low + (high - low) * i / (steps - 1) for i in range(steps)]


@dataclass(frozen=True)
class Point:
    """One (scheme, arrival rate) row a call must produce."""

    call: str
    tag: str          # CSV scheme column, e.g. uncoordinated-noma-analytic
    lam: float
    variant: str
    trials: int       # expected CSV trials column (1 for analytic rows)

    @property
    def analytic(self) -> bool:
        return self.tag.endswith("-analytic")


def expected_points(call: Call) -> list[Point]:
    keys = call.config()
    analytic = keys["mode"] == "analytic"
    points = []
    for scheme in keys["schemes"].split(","):
        for lam in lambda_grid(keys):
            if analytic:
                points.append(Point(call.name, scheme + "-analytic", lam, call.variant, 1))
            else:
                points.append(Point(call.name, scheme, lam, call.variant, keys["trials"]))
    return points
