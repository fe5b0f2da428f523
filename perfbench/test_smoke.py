"""Smoke test of the benchmark: every workload at a tiny size, both trace modes.

    python3 -m pytest perfbench/test_smoke.py

Checks that the last line of output is the result object and that it names
every metric of BENCHMARK.json, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402


def run_benchmark(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = run_benchmark(args + ["--tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in wanted}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] != 0, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = run_benchmark(["--workload", "sim_study", "--seed", "1", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    assert compare.verdict(base, list(base), "lower", 0.1)[2] == "same"
    assert compare.verdict(base, [v * 0.5 for v in base], "lower", 0.1)[2] == "gain"
    assert compare.verdict(base, [v * 1.5 for v in base], "lower", 0.1)[2] == "REGRESSION"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1)[2] == "unresolved"
    assert compare.verdict(base, [v * 1.5 for v in base], "higher", None)[2] == "gain"
