"""Smoke tests of the benchmark itself: every workload at a tiny size.

Each test runs bench/run.py in a subprocess with --smoke, so the tests
need no import path set up and leave the interpreter running pytest alone.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(root: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    return result


def units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def copy_checkout(tmp_path: Path, with_program: bool = True) -> Path:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_program:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units_and_nothing_fails(workload):
    proc = run_bench(ROOT, workload, 0)
    result = result_of(proc)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for metric in SPEC["end_to_end"]:
        assert f"  {metric['name']} = " in proc.stdout
    assert "  fail_share = 0 ratio" in proc.stdout
    assert '"commit": ' in proc.stdout and '"nproc": ' in proc.stdout


@pytest.mark.parametrize("workload, used, bypassed", [
    ("coordinated-highload", "coordinated.min_bandwidth_array",
     "uncoordinated.optimize_design"),
    ("design-sweep", "uncoordinated.optimize_design",
     "coordinated.min_bandwidth_array"),
])
def test_traced_run_reports_every_layer_metric(workload, used, bypassed):
    result = result_of(run_bench(ROOT, workload, 1))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["failed"] == 0
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics[used + ".calls"] > 0 and metrics[used + ".self_s"] > 0
    assert metrics[bypassed + ".calls"] == 0
    assert metrics["trace.absent"] == 0


def test_missing_program_exits_nonzero_without_result(tmp_path):
    proc = run_bench(copy_checkout(tmp_path, with_program=False), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_raising_sweep_fails_its_points_only(tmp_path):
    root = copy_checkout(tmp_path)
    with open(root / "src" / "ma_bench" / "uncoordinated.py", "a") as handle:
        handle.write("\n\ndef noma_design(*args, **kwargs):\n"
                     "    raise RuntimeError('injected fault')\n")
    result = result_of(run_bench(root, "random-access", 0))
    assert not result["correct"]
    assert result["failed"] == 2 and result["attempted"] == 6   # noma at 2 rates
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_hanging_sweep_is_killed_and_fails(tmp_path):
    root = copy_checkout(tmp_path)
    with open(root / "src" / "ma_bench" / "sim.py", "a") as handle:
        handle.write("\n\ndef run_trial(*args, **kwargs):\n"
                     "    import time\n    time.sleep(600)\n")
    run_py = root / "bench" / "run.py"
    text = run_py.read_text()
    assert "PASS_LIMIT_S = 90.0" in text
    run_py.write_text(text.replace("PASS_LIMIT_S = 90.0", "PASS_LIMIT_S = 5.0"))
    proc = run_bench(root, "coordinated-highload", 0)
    result = result_of(proc)
    assert result["failed"] == result["attempted"] > 0
    assert "killed after" in proc.stderr


def test_renamed_public_function_is_reported_absent(tmp_path):
    root = copy_checkout(tmp_path)
    for name in ("sim.py", "cli.py", "__init__.py"):
        path = root / "src" / "ma_bench" / name
        path.write_text(path.read_text().replace("aggregate", "summarize"))
    proc = run_bench(root, "random-access", 1)
    result = result_of(proc)
    assert result["failed"] == 0
    assert result["metrics"]["trace.absent"]["value"] == 1
    assert "absent: ma_bench.sim.aggregate" in proc.stdout
