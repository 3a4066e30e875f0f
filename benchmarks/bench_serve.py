"""SERVE: concurrent warm-cache serving vs. the sequential runner.

The serving claim of the concurrency PR: a :class:`PermutationService`
with 8 workers and one shared :class:`ShardedPlanCache`, serving a
mixed MLD/MRC/BMMC/distribution workload warm, must sustain at least
``BENCH_SERVE_SPEEDUP_FLOOR``x (default 3x) the throughput of the
sequential runner executing the same mix request-by-request (each
request planning from scratch -- the pre-service deployment shape).

Two effects stack: warm cache hits skip classification, planning,
fusing, and validation entirely (PR 2 measured the hit ~11x cheaper
than the cold path), and the worker pool overlaps the numpy
gather/scatter work across requests.  The floor is set so either
effect regressing (a cache that stopped sharing, a pool that
serialized) fails the bench even on noisy shared runners.

Correctness is asserted alongside throughput: every served result's
final-portion digest must equal the sequential runner's for the same
request -- concurrency may not buy speed with wrong bytes.

An overload phase follows the throughput phase: the same mix is fired
at a deliberately undersized bounded queue with per-request deadlines
under injected pass latency and kernel faults, and the robustness
counters (shed, deadline_exceeded, failed) are recorded into
``BENCH_serve.json`` so CI trends how the admission/deadline
machinery behaves release over release.

Results: ``benchmarks/results/BENCH_serve.md`` + ``BENCH_serve.json``
(uploaded by CI's concurrency job).
"""

import json
import os
import time

from repro.errors import DeadlineExceeded, InjectedFault, RequestRejected
from repro.pdm.cache import ShardedPlanCache
from repro.pdm.geometry import DiskGeometry
from repro.serve import (
    FaultPlan,
    PermutationService,
    mix_trace,
    run_sequential,
)

from benchmarks.conftest import RESULTS_DIR, SEED, write_result

#: Serving geometry: large enough that planning visibly dominates a
#: warm execution, small enough that the cold sequential baseline (the
#: thing we must beat) keeps the bench quick.
GEOMETRY = DiskGeometry(N=2**14, B=2**3, D=2**2, M=2**9)

WORKERS = int(os.environ.get("BENCH_SERVE_WORKERS", "8"))
MIX_COUNT = int(os.environ.get("BENCH_SERVE_MIX", "48"))

#: Warm-cache 8-worker throughput must beat the sequential runner by
#: at least this factor (the acceptance floor; keep >= 3).
SPEEDUP_FLOOR = float(os.environ.get("BENCH_SERVE_SPEEDUP_FLOOR", "3.0"))

#: Queue capacity for the overload phase -- deliberately far below the
#: mix size so admission control has to shed.
OVERLOAD_CAPACITY = int(os.environ.get("BENCH_SERVE_OVERLOAD_CAPACITY", "8"))


def _overload_phase():
    """Saturate an undersized queue under injected latency + faults.

    Returns ``(stats, elapsed, requests)``.  Asserts only the
    robustness invariants (counter reconciliation, typed failures);
    the counters themselves are recorded, not floored -- they are a
    trend signal, not an acceptance gate.
    """
    from dataclasses import replace

    requests = mix_trace(MIX_COUNT, distinct_seeds=2, verify=False).requests()
    # the first request carries a timeout smaller than one injected
    # pass sleep: admitted for sure (empty queue), expires for sure
    requests[0] = replace(requests[0], timeout=0.001)
    faults = FaultPlan(
        seed=SEED, kernel_failures=0.15, slow_passes=1.0, slow_seconds=0.002
    )
    with PermutationService(
        GEOMETRY,
        workers=2,
        queue_capacity=OVERLOAD_CAPACITY,
        queue_policy="reject",
        faults=faults,
    ) as service:
        t0 = time.perf_counter()
        results = service.run(requests)
        elapsed = time.perf_counter() - t0
        stats = service.stats()

    assert stats.admitted + stats.shed == stats.submitted == len(requests)
    assert stats.completed == stats.admitted
    assert stats.shed > 0, "overload phase failed to saturate the queue"
    assert stats.deadline_exceeded >= 1
    for r in results:
        if not r.ok:
            assert isinstance(
                r.error, (RequestRejected, DeadlineExceeded, InjectedFault)
            ), f"unexpected failure class {type(r.error).__name__}"
    return stats, elapsed, results


def test_serve_warm_cache_throughput(benchmark):
    requests = mix_trace(
        MIX_COUNT, distinct_seeds=2, verify=False, capture_portion=True
    ).requests()

    # -- sequential runner: one request at a time, no cache, cold plans
    t0 = time.perf_counter()
    sequential = run_sequential(GEOMETRY, requests)
    seq_elapsed = time.perf_counter() - t0
    assert all(r.ok for r in sequential)

    # -- the service: 8 workers, one shared sharded cache
    cache = ShardedPlanCache(maxsize=64, num_shards=8)
    with PermutationService(GEOMETRY, workers=WORKERS, cache=cache) as service:
        t0 = time.perf_counter()
        cold = service.run(requests)
        cold_elapsed = time.perf_counter() - t0
        assert all(r.ok for r in cold)

        def warm_run():
            t0 = time.perf_counter()
            results = service.run(requests)
            return results, time.perf_counter() - t0

        (warm, warm_elapsed) = benchmark.pedantic(
            warm_run, rounds=1, iterations=1
        )
        info = cache.info()

    assert all(r.ok for r in warm)
    for got, want in zip(warm, sequential):
        assert got.digest == want.digest, (
            f"request {got.index} ({got.request.describe()}): served bytes "
            "diverged from the sequential runner"
        )

    # -- overload: bounded queue + deadlines under faults
    overload_stats, overload_elapsed, _ = _overload_phase()

    seq_tput = len(requests) / seq_elapsed
    cold_tput = len(requests) / cold_elapsed
    warm_tput = len(requests) / warm_elapsed
    speedup = warm_tput / seq_tput

    rows = [
        ["sequential runner (1 worker, no cache)", len(requests),
         f"{seq_elapsed:.3f}", f"{seq_tput:.1f}"],
        [f"service cold ({WORKERS} workers, shared cache)", len(requests),
         f"{cold_elapsed:.3f}", f"{cold_tput:.1f}"],
        [f"service warm ({WORKERS} workers, shared cache)", len(requests),
         f"{warm_elapsed:.3f}", f"{warm_tput:.1f}"],
        [f"overload (2 workers, capacity {OVERLOAD_CAPACITY}, chaos)",
         len(requests), f"{overload_elapsed:.3f}",
         f"{len(requests) / overload_elapsed:.1f}"],
    ]
    text = write_result(
        "BENCH_serve",
        "Concurrent serving: warm shared-cache throughput vs sequential",
        ["mode", "requests", "seconds", "req/s"],
        rows,
    )
    print()
    print(text)
    print(
        f"\nwarm speedup {speedup:.1f}x (floor {SPEEDUP_FLOOR}x); cache: "
        f"{info.hits} hits / {info.misses} misses / {info.evictions} evictions"
    )
    print(
        f"overload: {overload_stats.shed} shed / "
        f"{overload_stats.deadline_exceeded} deadline-exceeded / "
        f"{overload_stats.failed} failed over "
        f"{overload_stats.submitted} submitted"
    )
    (RESULTS_DIR / "BENCH_serve.json").write_text(
        json.dumps(
            dict(
                geometry=dict(
                    N=GEOMETRY.N, B=GEOMETRY.B, D=GEOMETRY.D, M=GEOMETRY.M
                ),
                seed=SEED,
                workers=WORKERS,
                requests=len(requests),
                sequential_s=seq_elapsed,
                service_cold_s=cold_elapsed,
                service_warm_s=warm_elapsed,
                warm_speedup=speedup,
                floor=SPEEDUP_FLOOR,
                cache=dict(
                    hits=info.hits,
                    misses=info.misses,
                    evictions=info.evictions,
                    size=info.size,
                ),
                overload=dict(
                    queue_capacity=OVERLOAD_CAPACITY,
                    elapsed_s=overload_elapsed,
                    submitted=overload_stats.submitted,
                    admitted=overload_stats.admitted,
                    shed=overload_stats.shed,
                    deadline_exceeded=overload_stats.deadline_exceeded,
                    failed=overload_stats.failed,
                ),
            ),
            indent=2,
        )
        + "\n"
    )

    # compile-once across the whole serving session: misses == the
    # distinct plan keys of the mix, counted on the cold pass only
    assert info.evictions == 0
    assert info.hits + info.misses == 2 * len(requests)
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm-cache service throughput only {speedup:.2f}x the sequential "
        f"runner at {WORKERS} workers; need {SPEEDUP_FLOOR}x"
    )
