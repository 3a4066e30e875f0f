"""The bench trajectory checker, ``tools/check_bench_trajectory.py``."""

import copy
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "benchmarks" / "results" / "BENCH_workloads.json"

_spec = importlib.util.spec_from_file_location(
    "check_bench_trajectory", ROOT / "tools" / "check_bench_trajectory.py"
)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def test_committed_workloads_trajectory_validates():
    assert checker.check_trajectory(str(WORKLOADS)) == []


def test_entry_without_retries_validates(tmp_path):
    """Entries recorded after ``retries`` left the summaries still
    validate; the entries before them keep the field."""
    doc = json.loads(WORKLOADS.read_text())
    entry = copy.deepcopy(doc["entries"][-1])
    for summary in entry["scenarios"].values():
        summary.pop("retries", None)
    doc["entries"].append(entry)
    path = tmp_path / "BENCH_workloads.json"
    path.write_text(json.dumps(doc))
    assert checker.check_trajectory(str(path)) == []

    # the appended entry is still checked: a required field missing fails
    del entry["scenarios"]["uniform"]["failed"]
    path.write_text(json.dumps(doc))
    (problem,) = checker.check_trajectory(str(path))
    assert "missing numeric field 'failed'" in problem
