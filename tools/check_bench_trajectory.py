"""Validate bench trajectory files (``BENCH_*.json`` with ``entries``).

A trajectory file accumulates one entry per bench run so CI can trend
scenario behavior across PRs.  This checker is the CI gate on the
format itself: schema identity, version, entry shape, and per-scenario
summary fields all have to hold for *every* entry -- an append that
silently changed shape would poison the whole trend line.

Usage::

    python tools/check_bench_trajectory.py benchmarks/results/BENCH_workloads.json [...]

Exits 0 when every file validates, 1 with one line per problem
otherwise.  No dependencies beyond the stdlib, so it runs anywhere CI
does.
"""

import json
import sys

SCHEMA = "repro-bench-trajectory"
VERSION = 1

#: Every scenario summary must carry these keys; numeric ones must
#: parse as real numbers (bool is not a number here).  Entries recorded
#: before the service lost its retry policy also carry ``retries``;
#: extra fields are not checked.
NUMERIC_FIELDS = (
    "events",
    "ok",
    "failed",
    "throughput_rps",
    "wall_seconds",
    "latency_p50_ms",
    "latency_p99_ms",
    "hit_rate",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "shed",
    "deadline_exceeded",
)
STRING_FIELDS = ("workload_digest",)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_scenario(where: str, summary) -> list[str]:
    if not isinstance(summary, dict):
        return [f"{where}: scenario summary must be an object"]
    problems = []
    for field in NUMERIC_FIELDS:
        if field not in summary:
            problems.append(f"{where}: missing numeric field {field!r}")
        elif not _is_number(summary[field]):
            problems.append(
                f"{where}: field {field!r} must be a number, "
                f"got {summary[field]!r}"
            )
    for field in STRING_FIELDS:
        if not isinstance(summary.get(field), str) or not summary.get(field):
            problems.append(f"{where}: field {field!r} must be a non-empty string")
    if not problems:
        if summary["ok"] + summary["failed"] > summary["events"]:
            problems.append(f"{where}: ok + failed exceeds events")
        if not 0.0 <= summary["hit_rate"] <= 1.0:
            problems.append(f"{where}: hit_rate {summary['hit_rate']} not in [0, 1]")
        for field in NUMERIC_FIELDS:
            if summary[field] < 0:
                problems.append(f"{where}: {field} is negative")
    return problems


def check_entry(where: str, entry) -> list[str]:
    if not isinstance(entry, dict):
        return [f"{where}: entry must be an object"]
    problems = []
    recorded = entry.get("recorded_at")
    if not isinstance(recorded, str) or not recorded:
        problems.append(f"{where}: missing/empty recorded_at")
    scenarios = entry.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        problems.append(f"{where}: entry needs a non-empty scenarios object")
        return problems
    for name, summary in sorted(scenarios.items()):
        problems.extend(check_scenario(f"{where}.scenarios[{name!r}]", summary))
    return problems


def check_trajectory(path: str) -> list[str]:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        return [f"{path}: cannot read: {exc}"]
    except json.JSONDecodeError as exc:
        return [f"{path}: not valid JSON: {exc}"]
    if not isinstance(doc, dict):
        return [f"{path}: top level must be an object"]
    problems = []
    if doc.get("schema") != SCHEMA:
        problems.append(
            f"{path}: schema is {doc.get('schema')!r}, expected {SCHEMA!r}"
        )
    if doc.get("version") != VERSION:
        problems.append(
            f"{path}: version is {doc.get('version')!r}, expected {VERSION}"
        )
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        problems.append(f"{path}: missing/empty bench name")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        problems.append(f"{path}: entries must be a non-empty list")
        return problems
    for i, entry in enumerate(entries):
        problems.extend(check_entry(f"{path}: entries[{i}]", entry))
    stamps = [
        e.get("recorded_at")
        for e in entries
        if isinstance(e, dict) and isinstance(e.get("recorded_at"), str)
    ]
    if stamps != sorted(stamps):
        problems.append(
            f"{path}: recorded_at stamps are not non-decreasing "
            "(entries must be appended, not reordered)"
        )
    return problems


def main(argv) -> int:
    if not argv:
        print(
            "usage: check_bench_trajectory.py TRAJECTORY.json [...]",
            file=sys.stderr,
        )
        return 2
    failed = False
    for path in argv:
        problems = check_trajectory(path)
        if problems:
            failed = True
            for problem in problems:
                print(problem, file=sys.stderr)
        else:
            entries = json.load(open(path))["entries"]
            print(f"{path}: ok ({len(entries)} entries)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
