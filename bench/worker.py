"""One benchmark process: a set-up probe or one timed pass of a workload.

    worker.py probe --workload W
        Import ma_bench, parse the workload's run configs with
        ``cli.parse_config`` and report the monotonic clock reading at that
        moment. The parent subtracts the reading it took before launching
        this process, which gives the set-up time.

    worker.py pass --workload W --seed S --out DIR [--trace] [--smoke]
        Run every ``ma-bench sweep`` invocation of the workload through
        ``cli.main``, writing the CSVs into DIR, and report each
        invocation's wall time, exit status and any ``error:`` line, the run
        facts and (with --trace) the per-layer metrics. It also times
        ``calibrate``, a fixed kernel that uses no ma_bench code, before the
        first invocation and after each one; the parent uses these times to
        rescale wall times to a reference machine speed.

Both report their peak resident set, their own or that of any child they
waited for (sweep pool workers), and print their JSON as the last line of
standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (the benchmark's own module, beside this file)


def _interpreter_kernel() -> float:
    def collision(load, slots):
        return 1.0 - (1.0 - 1.0 / slots) ** max(load, 1.0)

    total, table = 0.0, {}
    for i in range(1, 25_000):
        total += collision(i * 0.001, 7) * (i ** 0.5)
        table[i & 255] = total
    return total


def _numpy_kernel() -> None:
    import numpy as np
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((1, 2))))
    for _ in range(300):
        gains = np.sort(np.sqrt(1.0 - rng.random(1500)) ** -4.0)[::-1]
        np.cumsum(np.log1p(gains)).searchsorted(3.0)


KERNELS = {"interpreter": _interpreter_kernel, "numpy": _numpy_kernel}


def calibrate(kernel: str) -> float:
    """Seconds taken by a fixed calibration kernel that calls no ma_bench code.

    The machine's speed changes within seconds, and it changes
    interpreter-bound code (the design solvers) far more than numpy-bound
    code (placement, admission, trials), so each workload is rescaled by the
    kernel of its own kind (workloads.INTERPRETER_BOUND). A change to the
    program never changes either kernel.
    """
    started = time.perf_counter()
    KERNELS[kernel]()
    return time.perf_counter() - started


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _probe(workload: str) -> dict:
    from ma_bench import cli
    for call in workloads.calls(workload):
        cli.parse_config("", call.config())
    return {"ready": time.monotonic(), "peak_rss_mb": _peak_rss_mb()}


def _served(paths: list[str]) -> float:
    """Packets delivered over all trials of the Monte Carlo rows written."""
    served = 0.0
    for path in paths:
        if not os.path.exists(path):
            continue
        with open(path) as handle:
            for line in handle.read().splitlines()[1:]:
                fields = line.split(",")
                if len(fields) != 7 or fields[0].endswith("-analytic"):
                    continue
                try:
                    served += float(fields[3]) * workloads.SLOT_S * int(fields[2])
                except ValueError:
                    pass   # check.py fails the point; the ratio skips the row
    return served


def _pass(args) -> dict:
    import numpy
    from ma_bench import cli
    import tracing

    tracer = tracing.Tracer().install() if args.trace else None
    calls, paths = [], []
    kernel = "interpreter" if args.workload in workloads.INTERPRETER_BOUND else "numpy"
    calibrate(kernel)   # the first run pays one-off costs
    calibration = [calibrate(kernel)]
    for call in workloads.calls(args.workload, args.smoke):
        path = os.path.join(args.out, call.name + ".csv")
        paths.append(path)
        argv = ["sweep"] + workloads.flag_argv(
            {**call.config(), "master_seed": args.seed, "output_path": path})
        stderr = io.StringIO()
        status = {"name": call.name, "rc": None, "error": None}
        started = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                status["rc"] = cli.main(argv)
        except Exception:   # a raising sweep fails its points, not the pass
            status["error"] = traceback.format_exc(limit=3).strip().splitlines()[-1]
        status["seconds"] = time.perf_counter() - started
        errors = [line for line in stderr.getvalue().splitlines()
                  if line.startswith("error:")]
        if errors and status["error"] is None:
            status["error"] = errors[0]
        calls.append(status)
        calibration.append(calibrate(kernel))

    result = {"calls": calls, "calibration": calibration,
              "facts": {"python": platform.python_version(),
                        "numpy": numpy.__version__}, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        result["layers"] = tracing.per_layer_metrics(tracer.layer_stats(),
                                                     _served(paths))
        result["absent"] = tracer.absent
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "pass"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    result = _probe(args.workload) if args.mode == "probe" else _pass(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
