"""WORKLOADS: golden-trace replay -- determinism oracle + scenarios.

Each committed golden trace (``benchmarks/workloads/*.jsonl``) is run
twice:

1. **Oracle pass** -- the trace replays twice through identically
   configured *fresh* services (ample cache, unbounded queue, no
   chaos, as fast as possible).  The two replays must agree to the
   byte: identical per-request digests, identical (method, passes,
   parallel I/Os) triples, identical service/cache counters, and an
   exactly reconciled in-process ``/metrics`` rendering.  This is the
   acceptance gate: replay IS the determinism oracle, and any drift
   fails the bench (and CI's ``workloads`` job).

2. **Scenario pass** -- the same trace replays through the scenario's
   *characteristic* configuration: ``zipf-hot-key`` through a cache
   far smaller than its key space (eviction policy under skew),
   ``bursty-overload`` through an undersized bounded queue (admission
   control), ``mixed-chaos`` under injected faults (each fails its
   request), ``duplicate-heavy`` through a coalescing service (single-flight:
   ``coalesced > 0``, digests byte-identical to the oracle's, and a
   >= 2x throughput floor over the same service with coalescing off).
   Shed sets and eviction victims depend on worker interleaving, so
   this pass asserts *invariants* (exact counter reconciliation,
   ``admitted + shed == submitted``, scenario-specific floors), not
   byte equality.

Per-scenario summaries (throughput, p50/p99 latency, hit rate,
shed/deadline counts, workload digest) append one entry per run to
``benchmarks/results/BENCH_workloads.json`` in the trajectory format
checked by ``tools/check_bench_trajectory.py``, so CI can trend
scenario behavior release over release.
"""

import json
import pathlib
import time

from repro.errors import InjectedFault
from repro.serve import (
    FaultPlan,
    PermutationService,
    ServiceMetrics,
    WorkloadTrace,
    reconcile_replay,
    replay_trace,
)

from benchmarks.conftest import RESULTS_DIR, SEED, write_result

WORKLOADS_DIR = pathlib.Path(__file__).parent / "workloads"

SCENARIOS = (
    "uniform", "zipf-hot-key", "bursty-overload", "mixed-chaos",
    "duplicate-heavy",
)

TRAJECTORY_SCHEMA = "repro-bench-trajectory"
TRAJECTORY_VERSION = 1

#: Oracle cache is sized past every scenario's key space, so the only
#: misses are first-touch compiles and evictions are impossible.
ORACLE_CACHE = 64


def _oracle_service(trace):
    return PermutationService(
        trace.geometry, workers=4, cache_maxsize=ORACLE_CACHE, num_shards=4
    )


def _scenario_service(name, trace):
    """The configuration each scenario is *about*."""
    g = trace.geometry
    if name == "zipf-hot-key":
        # cache far under the key space: the skew is what keeps the
        # hit rate up, which is the whole point of the scenario
        return PermutationService(g, workers=2, cache_maxsize=4, num_shards=1)
    if name == "bursty-overload":
        return PermutationService(
            g, workers=2, queue_capacity=8, queue_policy="reject"
        )
    if name == "mixed-chaos":
        return PermutationService(
            g,
            workers=2,
            faults=FaultPlan(
                seed=SEED, kernel_failures=0.1, slow_passes=0.25,
                slow_seconds=0.001,
            ),
        )
    if name == "duplicate-heavy":
        # few workers so the queue backs up and duplicates reliably
        # find their leader still queued or running
        return PermutationService(
            g, workers=2, cache_maxsize=ORACLE_CACHE, num_shards=4,
            coalesce=True,
        )
    return PermutationService(g, workers=4)


def _fingerprint(report):
    """Everything a deterministic replay must reproduce exactly."""
    io_triples = {
        r.index: (r.report.method, r.report.passes, r.report.io.parallel_ios)
        for r in report.results
        if r.ok
    }
    s, c = report.stats, report.cache
    return {
        "digests": report.digests,
        "workload_digest": report.workload_digest,
        "io": io_triples,
        "stats": (s.submitted, s.admitted, s.shed, s.completed, s.failed,
                  s.deadline_exceeded, s.cancelled),
        "cache": (c.hits, c.misses, c.evictions, c.size),
    }


def _oracle_pass(trace):
    """Replay twice through fresh services; any divergence is a bug."""
    fingerprints = []
    for _ in range(2):
        metrics = ServiceMetrics()
        with _oracle_service(trace) as service:
            report = replay_trace(service, trace, as_fast_as_possible=True)
            problems = reconcile_replay(service, metrics)
        assert not problems, f"{trace.name}: metrics drift: {problems}"
        assert report.failed == 0, (
            f"{trace.name}: {report.failed} failures under the oracle config"
        )
        assert report.cache.evictions == 0
        assert len(report.digests) == len(trace)
        fingerprints.append((report, _fingerprint(report)))
    (first, fp1), (second, fp2) = fingerprints
    for key in fp1:
        assert fp1[key] == fp2[key], (
            f"{trace.name}: replay is not deterministic -- {key} diverged:\n"
            f"  first:  {fp1[key]}\n  second: {fp2[key]}"
        )
    return first


def _scenario_pass(name, trace, oracle=None):
    metrics = ServiceMetrics()
    with _scenario_service(name, trace) as service:
        report = replay_trace(service, trace, as_fast_as_possible=True)
        problems = reconcile_replay(service, metrics)
    assert not problems, f"{name}: metrics drift: {problems}"
    s = report.stats
    assert s.submitted == len(trace)
    assert s.admitted + s.shed == s.submitted
    if name == "duplicate-heavy":
        _check_duplicate_heavy(trace, report, oracle)
    elif name == "zipf-hot-key":
        # the skewed head must keep a 4-entry cache useful; PYTHONHASHSEED
        # moves shard assignment, so the floor is deliberately loose
        assert report.cache.evictions > 0, "cache never filled"
        assert report.cache.hit_rate >= 0.2, (
            f"hot-key hit rate collapsed to {report.cache.hit_rate:.2f}"
        )
    elif name == "bursty-overload":
        assert s.shed > 0, "overload scenario failed to saturate the queue"
    elif name == "mixed-chaos":
        assert report.failed > 0, "chaos scenario injected no faults"
        for r in report.results:
            if not r.ok:
                assert isinstance(r.error, InjectedFault), (
                    f"request {r.index} failed with {type(r.error).__name__}"
                )
    else:
        assert report.failed == 0
    return report


def _check_duplicate_heavy(trace, report, oracle):
    """Single-flight under a duplicate-heavy trace: fewer executions,
    identical bytes, and a real throughput multiplier."""
    s = report.stats
    assert report.failed == 0, f"{report.failed} failures under coalescing"
    assert s.coalesced > 0, "duplicate-heavy trace produced no coalescing"
    assert s.coalesced_in_flight == 0, "followers still attached after drain"
    assert s.admitted == s.completed, "drain did not reconcile"
    # Coalesced or not, every digest must match the coalescing-off
    # oracle replay byte for byte -- followers share the leader's bytes.
    assert report.digests == oracle.digests, (
        "coalesced replay diverged from the sequential-reference digests"
    )
    executed = sum(1 for r in report.results if not r.coalesced)
    assert executed + s.coalesced == len(trace)
    # The multiplier the scenario exists for: the same trace through
    # the same service shape with coalescing off.
    with PermutationService(
        trace.geometry, workers=2, cache_maxsize=ORACLE_CACHE, num_shards=4,
    ) as baseline_service:
        baseline = replay_trace(
            baseline_service, trace, as_fast_as_possible=True
        )
    assert baseline.stats.coalesced == 0
    assert baseline.failed == 0
    speedup = (
        report.throughput_rps / baseline.throughput_rps
        if baseline.throughput_rps > 0
        else float("inf")
    )
    assert speedup >= 2.0, (
        f"coalescing gave only {speedup:.2f}x over coalescing-off "
        f"({report.throughput_rps:.1f} vs {baseline.throughput_rps:.1f} rps)"
    )
    report.extra_summary = {
        "executions": executed,
        "speedup_vs_no_coalesce": speedup,
        "baseline_throughput_rps": baseline.throughput_rps,
    }


def _append_trajectory(summaries):
    path = RESULTS_DIR / "BENCH_workloads.json"
    doc = None
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError:
            doc = None
        if not (
            isinstance(doc, dict)
            and doc.get("schema") == TRAJECTORY_SCHEMA
            and doc.get("version") == TRAJECTORY_VERSION
        ):
            doc = None
    if doc is None:
        doc = {
            "schema": TRAJECTORY_SCHEMA,
            "version": TRAJECTORY_VERSION,
            "bench": "workloads",
            "entries": [],
        }
    doc["entries"].append(
        {
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "seed": SEED,
            "scenarios": summaries,
        }
    )
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def test_workload_scenarios():
    summaries = {}
    rows = []
    for name in SCENARIOS:
        trace = WorkloadTrace.load(WORKLOADS_DIR / f"{name}.jsonl")
        assert trace.name == name
        oracle = _oracle_pass(trace)
        report = _scenario_pass(name, trace, oracle=oracle)
        summary = report.summary_dict()
        # the digest that must never drift is the oracle's: the scenario
        # pass sheds/fails requests, so its digest set varies by timing
        summary["oracle_digest"] = oracle.workload_digest
        summary.update(getattr(report, "extra_summary", {}))
        summaries[name] = summary
        rows.append(
            [
                name,
                summary["events"],
                f"{summary['throughput_rps']:.1f}",
                f"{summary['latency_p50_ms']:.1f}",
                f"{summary['latency_p99_ms']:.1f}",
                f"{summary['hit_rate']:.2f}",
                summary["shed"],
                summary["deadline_exceeded"],
                summary["failed"],
                summary["coalesced"],
            ]
        )

    text = write_result(
        "BENCH_workloads",
        "Golden workload traces: scenario replay characteristics",
        ["scenario", "events", "req/s", "p50 ms", "p99 ms", "hit rate",
         "shed", "deadline", "failed", "coalesced"],
        rows,
    )
    print()
    print(text)
    path = _append_trajectory(summaries)
    print(f"\ntrajectory appended to {path}")
