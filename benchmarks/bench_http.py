"""HTTP: socket-level serving throughput with exact counter reconciliation.

The serving claim of the HTTP PR: the JSON frontend adds a network hop
but not a bookkeeping hole.  A burst of ``BENCH_HTTP_CLIENTS`` (>= 8)
concurrent socket clients is fired at a warm :class:`HttpFrontend`,
and after the burst drains the ``/metrics`` page must reconcile with
``/stats`` to the integer -- ``admitted + shed == submitted`` on both
documents, and every bridged counter pair equal.  The load generator
verifies all of that itself (``reconciled`` in its report); this bench
asserts it and records the throughput/latency numbers so CI trends the
socket path release over release.

A chaos phase follows: the same burst against an undersized queue with
injected pass latency, so the mix of 200s and 429s -- and the books
still balancing exactly underneath them -- is exercised over real
sockets, not just in-process.

Results: ``benchmarks/results/BENCH_http.md`` + ``BENCH_http.json``
(uploaded by CI's http job).
"""

import json
import os
from dataclasses import fields

from repro.pdm.geometry import DiskGeometry
from repro.serve import (
    FaultPlan,
    HttpFrontend,
    PermutationService,
    ServiceMetrics,
    ServiceStats,
    run_loadgen,
    synthetic_mix,
    warm_service,
)

from benchmarks.conftest import RESULTS_DIR, SEED, write_result

#: Same geometry as the serving bench: planning dominates a warm
#: execution, so the HTTP hop's overhead is visible but not drowned.
GEOMETRY = DiskGeometry(N=2**14, B=2**3, D=2**2, M=2**9)

#: Concurrent socket clients.  The acceptance floor is eight: the
#: loadgen holds every worker at a barrier inside its in-flight
#: tracker, so peak_concurrency must reach this exactly.
CLIENTS = int(os.environ.get("BENCH_HTTP_CLIENTS", "8"))
COUNT = int(os.environ.get("BENCH_HTTP_COUNT", "64"))
WORKERS = int(os.environ.get("BENCH_HTTP_WORKERS", "8"))

#: Queue capacity for the chaos phase -- far below COUNT so admission
#: control has to shed over the socket (429s in the status mix).
CHAOS_CAPACITY = int(os.environ.get("BENCH_HTTP_CHAOS_CAPACITY", "4"))


def _serve(workers=WORKERS, **kwargs):
    service = PermutationService(
        GEOMETRY, workers=workers, metrics=ServiceMetrics(), **kwargs
    )
    return HttpFrontend(service, own_service=True)


def _assert_reconciled(report):
    assert report["reconciled"] is True, report["reconcile_problems"]
    stats = report["stats"]
    snapshot = ServiceStats(**{f.name: stats[f.name] for f in fields(ServiceStats)})
    assert snapshot.check() == []


def test_http_loadgen_reconciles():
    # -- warm burst: every request a cache hit, all 200s
    with _serve() as fe:
        warm_service(fe.service, synthetic_mix(COUNT, distinct_seeds=2))
        warm = run_loadgen(
            fe.url, count=COUNT, concurrency=CLIENTS, mode="sync",
            distinct_seeds=2,
        )
    assert warm["peak_concurrency"] >= 8, (
        f"only {warm['peak_concurrency']} clients were concurrently in "
        f"flight (need >= 8)"
    )
    assert warm["statuses"] == {"200": COUNT}
    _assert_reconciled(warm)

    # -- async burst: submit-then-poll over the same socket path
    with _serve() as fe:
        polled = run_loadgen(
            fe.url, count=COUNT, concurrency=CLIENTS, mode="async",
            distinct_seeds=2,
        )
    assert polled["statuses"] == {"200": COUNT}
    _assert_reconciled(polled)

    # -- chaos burst: undersized queue + injected latency; 429s appear
    #    in the status mix but the books still balance exactly
    faults = FaultPlan(seed=SEED, slow_passes=1.0, slow_seconds=0.02)
    with _serve(
        workers=2, queue_capacity=CHAOS_CAPACITY, queue_policy="reject",
        faults=faults,
    ) as fe:
        chaos = run_loadgen(
            fe.url, count=COUNT, concurrency=CLIENTS, mode="sync",
            distinct_seeds=2,
        )
    assert sum(chaos["statuses"].values()) == COUNT
    _assert_reconciled(chaos)
    chaos_stats = chaos["stats"]
    assert chaos_stats["shed"] > 0, "chaos phase failed to saturate the queue"

    rows = [
        [f"warm sync ({CLIENTS} clients)", COUNT,
         f"{warm['wall_seconds']:.3f}", f"{warm['throughput_rps']:.1f}",
         f"{warm['latency']['p50'] * 1e3:.1f}",
         f"{warm['latency']['p95'] * 1e3:.1f}",
         warm["statuses"].get("429", 0)],
        [f"async submit+poll ({CLIENTS} clients)", COUNT,
         f"{polled['wall_seconds']:.3f}", f"{polled['throughput_rps']:.1f}",
         f"{polled['latency']['p50'] * 1e3:.1f}",
         f"{polled['latency']['p95'] * 1e3:.1f}",
         polled["statuses"].get("429", 0)],
        [f"chaos (2 workers, capacity {CHAOS_CAPACITY}, slow passes)", COUNT,
         f"{chaos['wall_seconds']:.3f}", f"{chaos['throughput_rps']:.1f}",
         f"{chaos['latency']['p50'] * 1e3:.1f}",
         f"{chaos['latency']['p95'] * 1e3:.1f}",
         chaos["statuses"].get("429", 0)],
    ]
    text = write_result(
        "BENCH_http",
        "HTTP frontend: socket-level bursts with exact /metrics reconciliation",
        ["phase", "requests", "seconds", "req/s", "p50 ms", "p95 ms", "429s"],
        rows,
    )
    print()
    print(text)
    print(
        f"\npeak concurrency {warm['peak_concurrency']} (floor 8); all "
        f"three phases reconcile /metrics against /stats exactly"
    )
    (RESULTS_DIR / "BENCH_http.json").write_text(
        json.dumps(
            dict(
                geometry=dict(
                    N=GEOMETRY.N, B=GEOMETRY.B, D=GEOMETRY.D, M=GEOMETRY.M
                ),
                seed=SEED,
                clients=CLIENTS,
                workers=WORKERS,
                requests=COUNT,
                peak_concurrency=warm["peak_concurrency"],
                warm=warm,
                polled=polled,
                chaos=chaos,
            ),
            indent=2,
            default=str,
        )
        + "\n"
    )
