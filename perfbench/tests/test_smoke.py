"""Smoke tests of the benchmark: tiny inputs, every declared metric emitted.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DECLARED = {
    0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}


def _run(cwd, workload, trace, *extra):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == DECLARED[trace]
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    report = json.loads("\n".join(lines[:-1]))
    assert report["seed"] == 3
    assert report["report_only_metrics"]["error_rate"] == {"value": 0.0, "unit": "ratio"}
    assert "nproc" in report["environment"]
    if trace:
        assert report["counts_repeat"] is True
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        p90 = report["report_only_metrics"]["latency_p90_ms"]
        assert p90["samples"] == report["latency_samples"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
