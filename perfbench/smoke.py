"""Smoke test of the benchmark: every workload at toy scale, through the
same command the full runs use.

    python3 -m pytest perfbench/smoke.py -q
    python3 perfbench/smoke.py

It checks that each run is correct, that ``--trace 0`` emits exactly
the end-to-end metrics and ``--trace 1`` exactly the per-layer ones,
that the exact I/O counts repeat across runs and seeds, that
``BENCHMARK.json`` matches the definitions in ``run.py``, and that the
command refuses to run without the program beside it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--toy", "--seconds", "3", "--seed", str(seed),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(result: dict, definitions) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: unit for name, unit, *_ in definitions}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]), name


def test_end_to_end_metrics_and_exact_counts():
    for workload in WORKLOADS:
        first = _bench(workload, trace=0)
        again = _bench(workload, trace=0, seed=4)
        _check(first, run.END_TO_END)
        _check(again, run.END_TO_END)
        name = "parallel_ios_per_request"
        assert first["metrics"][name] == again["metrics"][name], workload


def test_per_layer_metrics():
    for workload in WORKLOADS:
        _check(_bench(workload, trace=1), run.PER_LAYER)


def test_manifest_matches_benchmark_json():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == run.manifest()


def test_refuses_without_the_program():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cold-plan",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    for test in (test_manifest_matches_benchmark_json,
                 test_refuses_without_the_program,
                 test_end_to_end_metrics_and_exact_counts,
                 test_per_layer_metrics):
        test()
        print(f"ok {test.__name__}")
