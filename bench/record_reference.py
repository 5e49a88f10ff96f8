"""Record reference.json, the values the benchmark checks sweep CSVs against.

    python3 bench/record_reference.py

Run it on the commit whose outputs define correct behaviour. Analytic rows
are recorded as computed; Monte Carlo rows as the mean, per-trial standard
deviation and trial count of a run much larger than any workload's, on a
master seed of its own.
"""

from __future__ import annotations

import json
import math
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import workloads  # noqa: E402
from check import REFERENCE_PATH  # noqa: E402
from run import git_commit  # noqa: E402

from ma_bench import cli, sim  # noqa: E402
from ma_bench.model import SystemParams  # noqa: E402

REFERENCE_SEED = 1611055480
REFERENCE_TRIALS = {"coordinated-fdma": 400, "coordinated-tdma": 10000,
                    "coordinated-noma": 10000, "uncoordinated-fdma": 20000,
                    "uncoordinated-tdma": 20000, "uncoordinated-noma": 20000}


def main() -> int:
    # Every rate any workload sweeps, per (variant, scheme, mode). Rates are
    # keyed rounded, as grids computed two ways differ in the last bit.
    rates = {}
    for workload in workloads.WORKLOADS:
        for call in workloads.calls(workload):
            keys = call.config()
            for scheme in keys["schemes"].split(","):
                for lam in cli.parse_config("", keys).lambda_grid():
                    rates.setdefault((call.variant, scheme, keys["mode"]), {})[round(lam, 6)] = lam

    points = []
    for (variant, token, mode), grid in sorted(rates.items()):
        grid = sorted(grid.values())
        params = SystemParams(**workloads.VARIANTS[variant])
        family, _, scheme = token.partition("-")
        config = sim.SchemeConfig(family, scheme)
        if mode == "analytic":
            for row in sim.analytic_rows(config, params, grid, REFERENCE_SEED):
                points.append({"variant": variant, "tag": row.scheme,
                               "lambda": row.lam,
                               "value_pps": row.mean_throughput_pps})
            continue
        trials = REFERENCE_TRIALS[token]
        print(f"{variant} {token}: {trials} trials x {len(grid)} rates",
              file=sys.stderr)
        for row in sim.run_sweep(config, params, grid, trials, REFERENCE_SEED,
                                 workers=2):
            points.append({"variant": variant, "tag": row.scheme, "lambda": row.lam,
                           "mean_pps": row.mean_throughput_pps,
                           "std_pps": row.ci95_halfwidth * math.sqrt(trials) / 1.96,
                           "trials": trials})

    reference = {
        "recorded_at_commit": git_commit(),
        "master_seed": REFERENCE_SEED,
        "digests": {name: SystemParams(**keys).digest()
                    for name, keys in workloads.VARIANTS.items()},
        "points": points,
    }
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(points)} reference points to {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
