"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def copy_checkout(tmp_path: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_golden_digest_counts_as_error(tmp_path):
    root = copy_checkout(tmp_path)
    golden_path = root / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    for entry in golden.values():
        entry["sha256"] = "0" * 64
    golden_path.write_text(json.dumps(golden))
    proc = run_bench(root, "structure", 0)
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert info["error_rate"] > 0


def test_missing_wrap_target_is_reported(monkeypatch):
    import aprings.cli  # noqa: F401

    hooks = layers.HOOKS + (layers.Hook("groups", "no_such_function", "structure"),)
    monkeypatch.setattr(layers, "HOOKS", hooks)
    restore, missing = layers.install(layers.Recorder())
    restore()
    assert missing == ["groups.no_such_function"]


def test_busy_time_counts_nested_calls_of_one_name_once():
    spans = [
        ("outer", 0.0, 10.0, -1),
        ("f", 1.0, 5.0, 0),
        ("f", 2.0, 4.0, 1),      # recursive call inside the first f
        ("g", 6.0, 7.0, 0),
    ]
    busy, self_time = layers._span_times(spans)
    assert busy == {"outer": 10.0, "f": 4.0, "g": 1.0}
    assert self_time == {"outer": 5.0, "f": 4.0, "g": 1.0}
