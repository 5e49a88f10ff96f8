"""The ma-bench benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Runs from the root of a source checkout; the program is imported from
``src``. The workload seed is every sweep's master_seed.

With --trace 0 the run measures the end-to-end metrics:

* setup_s: launch of a fresh process to ma_bench imported and the run
  configs parsed, median of the set-up probes, which run between passes
  and take SETUP_SHARE of the run;
* sweep_s: first sweep call to the last CSV written, median over passes;
  each pass is a fresh process running the workload's ``ma-bench sweep``
  invocations through ``cli.main``, and passes repeat until --seconds pass;
* peak_rss_mb: largest resident set of any process the workload ran, sweep
  pool workers included;
* fail_share: failed (scheme, rate) points over points attempted, also given
  as ``failed`` and ``attempted`` in the result.

setup_s and sweep_s are rescaled to a reference machine speed (see
WORKLOADS.md): setup_s by the launch time of a bare interpreter, timed
around each probe; sweep_s by a fixed calibration kernel timed around each
sweep invocation (worker.calibrate). The raw wall-time medians are
printed beside them.

With --trace 1 untraced and traced passes alternate; the result holds the
per-layer metrics (medians over traced passes) and the tracing overhead.

Every pass's CSVs are checked against reference.json (see check.py), and a
pass's CSV rows must be byte-identical to the first pass's, since the seed
is the same. A sweep that returns non-zero, prints an ``error:`` line,
raises or overruns the pass limit fails its points; the other metrics are
still reported. The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

import check  # noqa: E402  (the benchmark's own modules, beside this file)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SHARE = 0.2          # of an untraced run's time, spent on set-up probes
PASS_LIMIT_S = 90.0        # a pass running longer fails all its points
RUN_BUDGET_S = 160.0       # no process is started once this is spent
# Nominal times of each worker.calibrate() kernel and of a bare interpreter
# launch; timings are rescaled to the machine speed at which they take this
# long (about the medians on a 2-vCPU Sapphire Rapids Xeon).
CAL_REF_S = 0.020
BARE_LAUNCH_REF_S = 0.080


def git_commit(root: str = ROOT) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def _launch(argv: list[str], limit: float) -> tuple[int | None, str, str]:
    """Run a worker in its own process group; kill the group if it overruns.

    Returns (exit code or None on overrun, stdout, stderr).
    """
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "worker.py")] + argv,
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(limit, 0.1))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code, out, err = None, "", f"killed after {limit:.1f} s"
    finally:
        if proc.returncode is None:
            _signal_group(proc.pid)
            proc.communicate()
    # Sweep pool processes are the worker's children, not ours: poll until
    # none of the group is left instead of waiting on them.
    for _ in range(500):
        if not _signal_group(proc.pid):
            break
        time.sleep(0.01)
    return code, out, err


def _signal_group(pgid: int) -> bool:
    """SIGKILL a process group; False if no process of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def _bare_launch_s() -> float:
    """Seconds to start and end an interpreter that runs no code."""
    started = time.monotonic()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT)
    return time.monotonic() - started


def _last_json(text: str) -> dict | None:
    lines = text.strip().splitlines()
    try:
        value = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return value if isinstance(value, dict) else None


class WorkloadRun:
    """Passes of one workload, their checks and their measurements."""

    def __init__(self, name: str, seed: int, smoke: bool, deadline: Deadline,
                 reference: check.Reference, out_dir: str):
        self.name, self.seed, self.smoke, self.deadline = name, seed, smoke, deadline
        self.reference, self.out_dir = reference, out_dir
        self.calls = workloads.calls(name, smoke)
        self.points = {call.name: workloads.expected_points(call) for call in self.calls}
        self.attempted = self.failed = 0
        self.first_rows: dict = {}
        self.reasons: dict = {}
        self.facts: dict = {}
        self.peak_rss_mb = 0.0
        self.passes = 0
        self.setup_walls: list[float] = []
        self.setup_ratios: list[float] = []   # to the bare launches around each probe

    def _note_peak(self, report: dict | None) -> dict | None:
        if report is not None:
            self.peak_rss_mb = max(self.peak_rss_mb, report.get("peak_rss_mb", 0.0))
        return report

    def probe_setup(self) -> None:
        """Time one set-up probe between two launches of a bare interpreter."""
        before = _bare_launch_s()
        started = time.monotonic()
        code, out, err = _launch(["probe", "--workload", self.name],
                                 min(30.0, self.deadline.left()))
        result = self._note_peak(_last_json(out) if code == 0 else None)
        if result is None:
            print(f"setup probe failed: {err.strip()[-300:]}", file=sys.stderr)
            wall = time.monotonic() - started
        else:
            wall = result["ready"] - started
        self.setup_walls.append(wall)
        self.setup_ratios.append(2 * wall / (before + _bare_launch_s()))

    def setup_seconds(self) -> dict:
        """Median wall and scaled set-up seconds over the probes.

        Each probe is rescaled by BARE_LAUNCH_REF_S over the mean of the bare
        launches around it: the host's speed drifts by tens of percent over
        seconds, and process launch and imports slow down with it far more
        than a short compute kernel shows.
        """
        return {"wall": statistics.median(self.setup_walls),
                "scaled": BARE_LAUNCH_REF_S * statistics.median(self.setup_ratios)}

    def run_pass(self, trace: bool) -> dict:
        """One pass: checks its CSVs and returns its timings and report."""
        self.passes += 1
        out = os.path.join(self.out_dir, f"{self.name}-{self.passes}")
        os.makedirs(out)
        argv = ["pass", "--workload", self.name, "--seed", str(self.seed), "--out", out]
        argv += ["--trace"] * trace + ["--smoke"] * self.smoke
        started = time.monotonic()
        code, stdout, stderr = _launch(argv, min(PASS_LIMIT_S, self.deadline.left()))
        elapsed = time.monotonic() - started
        report = self._note_peak(_last_json(stdout) if code == 0 else None)
        if report is None:
            print(f"pass {self.passes} failed (exit {code}): {stderr.strip()[-500:]}",
                  file=sys.stderr)
        else:
            self.facts.update(report.get("facts", {}))
        statuses = {c["name"]: c for c in (report or {}).get("calls", [])}
        for call in self.calls:
            points = self.points[call.name]
            status = statuses.get(call.name)
            if status is None or status["rc"] != 0 or status["error"]:
                why = (status or {}).get("error") or (
                    f"exit {status['rc']}" if status else "pass failed")
                failures = {point: why for point in points}
            else:
                failures, rows = check.check_csv(
                    _read(os.path.join(out, call.name + ".csv")), points,
                    self.reference, self.seed)
                for point, line in rows.items():
                    first = self.first_rows.setdefault(point, line)
                    if line != first and point not in failures:
                        failures[point] = "row differs from the first pass"
            self.attempted += len(points)
            self.failed += len(failures)
            for point, why in failures.items():
                self.reasons.setdefault(f"{call.name}: {point.tag} lambda={point.lam:g}", why)
        shutil.rmtree(out, ignore_errors=True)
        if report is None:
            return {"wall": elapsed, "scaled": elapsed, "report": None}
        return {**_pass_seconds(report), "report": report}

    def passes_until(self, seconds: float, trace_modes: tuple, probe: bool) -> dict:
        """Cycle through trace_modes until ``seconds`` are used (one cycle at
        least); a cycle starts only if it should end within half a cycle of
        the window, so a run overruns ``seconds`` by little. With ``probe``,
        set-up probes run before each pass until they have taken SETUP_SHARE
        of the time used (one at least), so they sample the whole run."""
        passes = {mode: [] for mode in trace_modes}
        started = time.monotonic()
        probing = 0.0
        cycles = 0
        while True:
            for mode in trace_modes:
                if self.deadline.left() < 1.0 and cycles:
                    return passes
                while probe and (not self.setup_walls or probing < SETUP_SHARE
                                 * (time.monotonic() - started)):
                    probe_started = time.monotonic()
                    self.probe_setup()
                    probing += time.monotonic() - probe_started
                passes[mode].append(self.run_pass(mode))
            cycles += 1
            used = time.monotonic() - started
            if used + 0.5 * used / cycles >= seconds:
                return passes


def _read(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return None


def _pass_seconds(report: dict) -> dict:
    """Wall and scaled seconds of a pass's sweep invocations.

    Each invocation's wall time is rescaled by CAL_REF_S over the mean time
    of the calibration kernel run just before and just after it, which
    cancels most of the speed changes a shared machine goes through.
    """
    cal, calls = report["calibration"], report["calls"]
    return {"wall": sum(call["seconds"] for call in calls),
            "scaled": sum(call["seconds"] * 2 * CAL_REF_S / (cal[i] + cal[i + 1])
                          for i, call in enumerate(calls))}


def _median(passes: list[dict], key: str) -> float:
    """Median over the processes that reported, or over all if none did."""
    done = [p[key] for p in passes if p.get("report") is not None]
    return statistics.median(done or [p[key] for p in passes])


def measure(run: WorkloadRun, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Metrics of one workload as {name: (value, unit)}, and wall times."""
    if not trace:
        passes = run.passes_until(seconds, (False,), probe=True)[False]
        setup = run.setup_seconds()
        metrics = {"setup_s": (setup["scaled"], "s"),
                   "sweep_s": (_median(passes, "scaled"), "s"),
                   "peak_rss_mb": (run.peak_rss_mb, "MB")}
        return metrics, {"setup_s": setup["wall"], "sweep_s": _median(passes, "wall")}
    passes = run.passes_until(seconds, (False, True), probe=False)
    traced = [p["report"] for p in passes[True] if p["report"] and "layers" in p["report"]]
    metrics = {}
    for name in (traced[0]["layers"] if traced else tracing.per_layer_metrics({}, 0.0)):
        values = [r["layers"][name] for r in traced] or [0.0]
        metrics[name] = (statistics.median(values), tracing.unit(name))
    traced_s = _median(passes[True], "scaled")
    metrics["trace.sweep_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - _median(passes[False], "scaled"), "s")
    absent = sorted({name for r in traced for name in r.get("absent", [])})
    metrics["trace.absent"] = (len(absent), "count")
    for name in absent:
        print(f"absent: {name} (no longer in the program; its metrics read 0)")
    return metrics, {"trace.sweep_s": _median(passes[True], "wall"),
                     "untraced sweep_s": _median(passes[False], "wall")}


def _print_summary(run: WorkloadRun, metrics: dict, wall: dict, trace: bool) -> None:
    share = run.failed / run.attempted if run.attempted else 1.0
    print(f"workload {run.name}  seed {run.seed}  passes {run.passes}")
    print("run facts: " + json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "python": run.facts.get("python", platform.python_version()),
        "numpy": run.facts.get("numpy", "unknown"), "cpu": _cpu_model(),
        "seed": run.seed, "commit": git_commit()}))
    if trace:
        sweep = wall["trace.sweep_s"]
        shares = sorted(((value, name[:-len(".self_s")]) for name, (value, _) in metrics.items()
                         if name.endswith(".self_s") and value > 0), reverse=True)
        print(f"self-time shares of traced sweep wall time {sweep:.4f} s:")
        for value, name in shares:
            print(f"  {name:<42} {value:10.4f} s  {100 * value / sweep:5.1f}%")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_share = {share:.6g} ratio ({run.failed}/{run.attempted} points)")
    for name, value in wall.items():
        print(f"  {name} wall time, not rescaled = {value:.6g} s")
    for point, why in sorted(run.reasons.items()):
        print(f"failed point {point}: {why}", file=sys.stderr)


def _result(runs: list, metrics: dict) -> dict:
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    return {"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
            "failed": failed if attempted else 1,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ma-bench benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the benchmark")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it is the sweep master_seed)")
    if not os.path.isfile(os.path.join(ROOT, "src", "ma_bench", "cli.py")):
        print(f"error: no ma_bench source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    reference = check.Reference()
    out_dir = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    deadline = Deadline(RUN_BUDGET_S * len(names))
    runs, metrics = [], {}
    try:
        for name in names:
            run = WorkloadRun(name, args.seed, args.smoke, deadline, reference, out_dir)
            measured, wall = measure(run, args.seconds, bool(args.trace))
            _print_summary(run, measured, wall, bool(args.trace))
            runs.append(run)
            prefix = "" if len(names) == 1 else name + "."
            metrics.update({prefix + key: value for key, value in measured.items()})
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass   # another run is using it
    print(json.dumps(_result(runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
