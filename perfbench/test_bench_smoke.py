"""Smoke test of the benchmark at tiny sizes.

Every workload, plain and traced, must pass its own output checks and emit
exactly the metric names and units BENCHMARK.json lists; without the package
sources beside it the benchmark must fail without printing a result.

    python -m pytest perfbench/test_bench_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_listed_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_leaves_out_samples_and_weighs_gaps():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import hostspeed

    speed = hostspeed.HostSpeed("svd")
    speed.nominal_s = 1.0
    # samples of 1 s at [0, 1] and [3, 4], then of 2 s at [6, 8] and [10, 12]
    speed.starts, speed.ends = [0.0, 3.0, 6.0, 10.0], [1.0, 4.0, 8.0, 12.0]
    assert speed.busy(0.5, 11.0) == pytest.approx(2.0 + 2.0 + 2.0)
    assert speed.busy(1.5, 2.5) == pytest.approx(1.0)
    # the five-sample median smooths the kernel times to 1, 1.5, 1.5, 2
    assert speed.scaled(1.5, 2.5) == pytest.approx(1.0 / 1.25)
    assert speed.scaled(-1.0, 13.0) == pytest.approx(1.0 + 2.0 / 1.25 + 2.0 / 1.5 + 2.0 / 1.75 + 1.0 / 2.0)
