"""The benchmark's own tests: reduced-size runs, metric names, output checks.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [workload["name"] for workload in SPEC["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_printed_with_its_unit(name, trace):
    done = bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--small")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0, metric["name"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(tmp_path, "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _corrupt_verdict(verdict: str) -> str:
    return "reject" if verdict == "accept" else "accept"


def test_sweep_check_fires_on_a_corrupted_row(tmp_path):
    workload = workloads.Sweep(5, True, tmp_path)
    result = workload.run_pass(1, tracing.OFF)
    assert workload.check(1, result) == []
    first = result.rows[0]  # task 0 is in the re-run sample
    first["verdict"] = _corrupt_verdict(first["verdict"])
    assert workload.check(1, result)


def test_montecarlo_check_fires_on_a_corrupted_row(tmp_path):
    workload = workloads.MonteCarlo(5, True, tmp_path)
    result = workload.run_pass(1, tracing.OFF)
    assert workload.check(1, result) == []
    result.rows[2][2][0] += 1  # steps of sampled row 0
    assert workload.check(1, result)


def test_trajectory_check_fires_on_a_corrupted_row(tmp_path):
    workload = workloads.Trajectory(5, True, tmp_path)
    result = workload.run_pass(1, tracing.OFF)
    assert workload.check(1, result) == []
    index = workload.recheck[0]
    result.rows[index][1] = _corrupt_verdict(result.rows[index][1])
    assert workload.check(1, result)


def test_exact_check_fires_on_a_corrupted_row(tmp_path):
    workload = workloads.Exact(5, True, tmp_path)
    assert workload.check(1, workload.run_pass(1, tracing.OFF)) == []
    result = workload.run_pass(2, tracing.OFF)
    assert workload.check(2, result) == []
    row = next(row for row in result.rows if row[0] == "threshold")
    row[2] = _corrupt_verdict(row[2])
    assert workload.check(2, result)


def test_known_wrong_answers_are_counted(tmp_path):
    exact = workloads.Exact(5, True, tmp_path)
    assert exact.run_pass(1, tracing.OFF).wrong >= 2  # 4-cycle a=1 b=3, pinned a=14 b=18
    montecarlo = workloads.MonteCarlo(5, True, tmp_path)
    assert montecarlo.run_pass(1, tracing.OFF).wrong > 0
