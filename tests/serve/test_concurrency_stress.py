"""Concurrency stress: 16 threads hammering one shared plan cache.

The serving contract under test:

* **byte identity** -- every request's final portion must be
  byte-identical to the sequential *strict* reference run of the same
  request (concurrency may reorder completion, never content);
* **exact counters** -- the shared cache's hit/miss/eviction/size
  counters must reconcile deterministically against a sequential run of
  the same workload: compile-once latches mean N concurrent cold misses
  for one key count one miss and one compile, never two;
* **seed isolation** -- concurrent randomized distribution sorts with
  different seeds must not cross-contaminate placement maps (their
  per-request I/O schedules are seed-deterministic).

``REPRO_STRESS_ITERS`` scales the iteration count (CI's concurrency job
runs 50; the default keeps the tier-1 run quick).
"""

import os
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.pdm.cache import PlanCache
from repro.pdm.geometry import DiskGeometry
from repro.serve import (
    PermutationRequest,
    PermutationService,
    run_sequential,
    synthetic_mix,
)

GEOMETRY = DiskGeometry(N=2**10, B=2**3, D=2**2, M=2**7)
THREADS = 16
ITERATIONS = int(os.environ.get("REPRO_STRESS_ITERS", "3"))


def _workload(repeats: int = 4, capture: bool = True) -> list[PermutationRequest]:
    """A mixed MLD/MRC/BMMC/distribution workload with repeated keys,
    deterministically interleaved so cold and warm requests for the same
    key race each other across the pool."""
    base = synthetic_mix(
        12, seed=0, distinct_seeds=2, capture_portion=capture, verify=False
    )
    requests = base * repeats
    random.Random(0xC0FFEE).shuffle(requests)
    return requests


def _strict_reference(requests) -> list:
    """Sequential, uncached, strict-engine runs: the ground truth."""
    strict = [replace(r, engine="strict") for r in requests]
    return run_sequential(GEOMETRY, strict, cache=None)


@pytest.fixture(scope="module")
def reference():
    requests = _workload()
    return requests, _strict_reference(requests)


class TestSharedCacheStress:
    def test_16_threads_byte_identical_and_exact_counters(self, reference):
        requests, expected = reference
        # The deterministic counter oracle: the same workload served
        # sequentially through a cache of the same capacity.
        oracle = PlanCache(maxsize=256)
        run_sequential(GEOMETRY, requests, cache=oracle)

        for iteration in range(ITERATIONS):
            # every worker on the cache's one lock
            cache = PlanCache(maxsize=256)
            where = f"iteration {iteration}"
            with PermutationService(GEOMETRY, workers=THREADS, cache=cache) as svc:
                results = svc.run(requests)

            for got, want in zip(results, expected):
                assert got.ok, f"{where}: {got.summary()}"
                assert got.digest == want.digest, (
                    f"{where}, request {got.index} "
                    f"({got.request.describe()}): portion bytes diverged "
                    "from the sequential strict reference"
                )
                assert got.report.io == want.report.io
                assert got.report.passes == want.report.passes

            info = cache.info()
            ref = oracle.info()
            # compile-once: misses == distinct keys == sequential
            # misses; a torn or double compile would add a miss.
            assert info.misses == ref.misses, where
            assert info.hits == ref.hits, where
            assert info.size == ref.size, where
            assert info.evictions == 0
            assert info.hits + info.misses == len(
                [r for r in requests if r.method != "general"]
            )

    def test_16_threads_evicting_cache_reconciles(self, reference):
        """Under eviction pressure the counters still reconcile exactly:
        every miss stores exactly once, so size + evictions == misses."""
        requests, expected = reference
        for iteration in range(ITERATIONS):
            cache = PlanCache(maxsize=4)
            with PermutationService(GEOMETRY, workers=THREADS, cache=cache) as svc:
                results = svc.run(requests)
            for got, want in zip(results, expected):
                assert got.ok, f"iteration {iteration}: {got.summary()}"
                assert got.digest == want.digest
                assert got.report.io == want.report.io
            info = cache.info()
            assert info.hits + info.misses == len(requests)
            assert info.size + info.evictions == info.misses
            assert info.size <= info.maxsize

    def test_concurrent_cold_misses_compile_once_per_key(self):
        """All 16 threads request the *same* cold key simultaneously:
        the in-flight latch must collapse them to one compile/one miss."""
        hot = PermutationRequest(
            perm="bit-reversal", method="bmmc", capture_portion=True, verify=False
        )
        (want,) = _strict_reference([hot])
        for _ in range(ITERATIONS):
            cache = PlanCache(maxsize=16)
            with PermutationService(GEOMETRY, workers=THREADS, cache=cache) as svc:
                results = svc.run([hot] * THREADS)
            assert all(r.ok and r.digest == want.digest for r in results)
            info = cache.info()
            assert info.misses == 1, "double compile under concurrent cold start"
            assert info.hits == THREADS - 1
            assert info.size == 1


class TestDistributionSeedIsolation:
    """Two concurrent distribution sorts with different seeds must never
    cross-contaminate placement maps (regression for the per-request RNG
    audit): each request's I/O schedule -- whose read batching depends on
    the seed's randomized placement -- must equal its own sequential run."""

    SEEDS = [1, 2, 3, 4]

    def _requests(self):
        return [
            PermutationRequest(
                perm="transpose",
                method="distribution",
                seed=seed,
                capture_portion=True,
                verify=True,
            )
            for seed in self.SEEDS
        ]

    def test_concurrent_seeds_match_sequential(self):
        requests = self._requests()
        reference = run_sequential(GEOMETRY, requests, cache=None)
        # interleave the seeds so different-seed requests race
        concurrent = requests * 3
        cache = PlanCache(maxsize=32)
        with PermutationService(GEOMETRY, workers=8, cache=cache) as svc:
            results = svc.run(concurrent)
        by_seed = {ref.request.seed: ref for ref in reference}
        for got in results:
            want = by_seed[got.request.seed]
            assert got.ok and got.report.verified
            assert got.digest == want.digest
            assert got.report.io == want.report.io
        # one plan per seed, compiled exactly once
        assert cache.info().misses == len(self.SEEDS)

    @staticmethod
    def _placement_write_ids(seed):
        """Plan the distribution sort of the canonical source for
        ``seed`` and collect every write step's physical block ids --
        the placement map, as the plan engine will see it."""
        from repro.core.distribution import plan_distribution_sort
        from repro.serve import make_permutation

        perm = make_permutation("transpose", GEOMETRY)
        plan = plan_distribution_sort(
            GEOMETRY, perm, np.arange(GEOMETRY.N), 0, 1, seed=seed
        ).io_plan
        return [
            tuple(int(b) for b in step.block_ids)
            for p in plan.passes
            for step in p.steps
            if step.kind == "write"
        ]

    def test_concurrent_materializations_isolated(self):
        """Interleaved materializations for different seeds, racing on 8
        threads: each seed's placement map must equal its own sequential
        materialization (and the seeds must actually differ, or the
        check would be vacuous)."""
        from concurrent.futures import ThreadPoolExecutor

        sequential = {s: self._placement_write_ids(s) for s in self.SEEDS}
        assert len({tuple(v) for v in sequential.values()}) == len(self.SEEDS), (
            "seed variation produced identical placement maps; "
            "the isolation check below would be vacuous"
        )
        interleaved = self.SEEDS * 4
        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = list(pool.map(self._placement_write_ids, interleaved))
        for seed, got in zip(interleaved, concurrent):
            assert got == sequential[seed], (
                f"seed {seed}: concurrent materialization diverged -- "
                "placement RNG state leaked between requests"
            )
