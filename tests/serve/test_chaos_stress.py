"""16-thread stress under deterministic fault injection.

The chaos contract: with a seeded :class:`FaultPlan` live in every
worker, concurrency plus injected failures may reorder completions and
fail individual requests, but

* every successful result is byte-identical to the single-threaded
  strict-free reference (``run_sequential``),
* every failure is an injected fault (no collateral damage), and
* the admission counters reconcile exactly.

The fault seed is pinned via ``REPRO_CHAOS_SEED`` in CI so a failing
matrix cell replays bit-for-bit locally.
"""

import os

from repro.errors import InjectedFault
from repro.pdm.geometry import DiskGeometry
from repro.serve import (
    FaultPlan,
    PermutationService,
    chaos_plan,
    run_sequential,
    synthetic_mix,
)

GEOMETRY = DiskGeometry(N=2**10, B=2**3, D=2**2, M=2**7)

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def _reconcile(stats, results):
    assert stats.check() == []
    assert stats.completed == stats.admitted
    assert stats.queue_depth == 0 and stats.running == 0
    assert stats.failed == sum(1 for r in results if not r.ok)


class TestChaosStress:
    def test_sixteen_workers_under_injected_faults(self):
        requests = synthetic_mix(48, seed=CHAOS_SEED, capture_portion=True)
        faults = chaos_plan(seed=CHAOS_SEED, intensity=0.05)
        with PermutationService(
            GEOMETRY, workers=16, faults=faults
        ) as service:
            results = service.run(requests)
            stats = service.stats()

        reference = run_sequential(GEOMETRY, requests)
        for res, ref in zip(results, reference):
            if res.ok:
                assert res.digest == ref.digest, f"request {res.index} diverged"
            else:
                assert isinstance(res.error, InjectedFault)
        _reconcile(stats, results)

    def test_chaos_run_is_deterministic(self):
        """Same seed, same requests: identical per-request outcomes and
        attempt counts across two fresh services (threads may reorder
        completion, never content).

        Kernel faults only: they fire on every execution, so each
        request's draw stream depends only on its own plan.  Planner
        faults fire inside the compile thunk, and compile-once latching
        makes *which* request compiles a scheduling race -- those are
        deterministic per (seed, index) but not per run.
        """
        requests = synthetic_mix(24, seed=CHAOS_SEED)
        faults = FaultPlan(seed=CHAOS_SEED, kernel_failures=0.15)

        def _outcomes():
            with PermutationService(
                GEOMETRY, workers=16, faults=faults
            ) as service:
                results = service.run(requests)
            return [
                (r.index, r.ok, r.attempts, type(r.error).__name__ if r.error else None)
                for r in results
            ]

        assert _outcomes() == _outcomes()

    def test_heavy_faults_still_reconcile(self):
        """Aggressive fault rates: many requests fail, yet counters
        balance and the pool drains clean."""
        requests = synthetic_mix(32, seed=CHAOS_SEED, verify=False)
        faults = FaultPlan(
            seed=CHAOS_SEED,
            planner_failures=0.3,
            kernel_failures=0.3,
            slow_passes=0.2,
            slow_seconds=0.001,
        )
        with PermutationService(
            GEOMETRY, workers=16, faults=faults
        ) as service:
            results = service.run(requests)
            stats = service.stats()

        for r in results:
            if not r.ok:
                assert isinstance(r.error, InjectedFault)
                assert r.attempts == 1  # a failed request executed once
        _reconcile(stats, results)
