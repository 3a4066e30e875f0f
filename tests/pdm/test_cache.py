"""Tests for the compiled-plan cache (:mod:`repro.pdm.cache`)."""

import numpy as np
import pytest

from repro.bits.random import random_mld_matrix
from repro.core.bmmc_algorithm import perform_bmmc, plan_bmmc_passes
from repro.core.mld_algorithm import perform_mld_pass, plan_mld_pass
from repro.core.runner import perform_permutation
from repro.pdm.cache import PlanCache, cached_execute, compile_plan, plan_key
from repro.pdm.engine import execute_plan
from repro.pdm.geometry import DiskGeometry
from repro.pdm.system import ParallelDiskSystem
from repro.perms.bmmc import BMMCPermutation
from repro.perms.library import bit_reversal


@pytest.fixture
def geometry() -> DiskGeometry:
    return DiskGeometry(N=2**12, B=2**3, D=2**2, M=2**7)


def fresh(g, **kwargs):
    s = ParallelDiskSystem(g, **kwargs)
    s.fill_identity(0)
    return s


def mld_perm(g, seed=0):
    return BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, np.random.default_rng(seed)))


class TestPlanCache:
    def test_miss_then_hit(self, geometry):
        g = geometry
        cache = PlanCache()
        perm = mld_perm(g)
        key = plan_key("mld", g, perm.matrix, perm.complement, 0, 1)
        builds = []

        def build():
            builds.append(1)
            return plan_mld_pass(g, perm), None

        _, _, hit1 = cached_execute(fresh(g), cache, key, build)
        _, _, hit2 = cached_execute(fresh(g), cache, key, build)
        assert (hit1, hit2) == (False, True)
        assert len(builds) == 1
        info = cache.info()
        assert info.hits == 1 and info.misses == 1 and info.size == 1

    def test_distinct_matrices_distinct_entries(self, geometry):
        g = geometry
        cache = PlanCache()
        for seed in range(3):
            perm = mld_perm(g, seed)
            key = plan_key("mld", g, perm.matrix, perm.complement, 0, 1)
            cached_execute(
                fresh(g), cache, key, lambda p=perm: (plan_mld_pass(g, p), None)
            )
        assert len(cache) == 3
        assert cache.info().hits == 0

    def test_lru_eviction(self, geometry):
        g = geometry
        cache = PlanCache(maxsize=2)
        keys = []
        for seed in range(3):
            perm = mld_perm(g, seed)
            key = plan_key("mld", g, perm.matrix, perm.complement, 0, 1)
            keys.append(key)
            cached_execute(
                fresh(g), cache, key, lambda p=perm: (plan_mld_pass(g, p), None)
            )
        assert len(cache) == 2
        assert cache.info().evictions == 1
        assert keys[0] not in cache and keys[1] in cache and keys[2] in cache

    @pytest.mark.parametrize("maxsize", [1, 4, 10, 64])
    def test_maxsize_is_the_capacity(self, geometry, maxsize):
        """The service's cache holds exactly ``cache_maxsize`` plans, and
        one more key evicts the least recently used one, whatever the
        keys hash to."""
        from repro.pdm.schedule import PlanBuilder
        from repro.serve import PermutationService

        builder = PlanBuilder(geometry)
        builder.begin_pass("p")
        builder.write(1, [0], builder.read(0, [0]))
        compiled = compile_plan(geometry, builder.build())
        with PermutationService(
            geometry, workers=1, cache_maxsize=maxsize
        ) as service:
            cache = service.cache
        keys = [("k", i) for i in range(maxsize + 1)]
        for key in keys[:-1]:
            cache.get_or_compile(key, lambda: compiled)
        info = cache.info()
        assert (info.evictions, info.size, info.maxsize) == (0, maxsize, maxsize)

        # touch the oldest key, so the second oldest becomes the LRU one
        _, hit = cache.get_or_compile(keys[0], lambda: compiled)
        assert hit
        cache.get_or_compile(keys[-1], lambda: compiled)
        lru = keys[1] if maxsize > 1 else keys[0]
        info = cache.info()
        assert (info.evictions, info.size) == (1, maxsize)
        assert lru not in cache
        assert all(key in cache for key in keys if key != lru)

    def test_cached_execution_equivalent_to_strict(self, geometry):
        g = geometry
        perm = mld_perm(g)
        strict = fresh(g)
        execute_plan(strict, plan_mld_pass(g, perm), engine="strict")

        cache = PlanCache()
        for _ in range(2):  # second run is the cache hit
            s = fresh(g)
            perform_mld_pass(s, perm, engine="fast", cache=cache)
            assert (s.portion_values(1) == strict.portion_values(1)).all()
            assert s.stats.snapshot() == strict.stats.snapshot()
            assert [p for p in s.stats.passes] == [p for p in strict.stats.passes]
            assert s.memory.peak == strict.memory.peak

    def test_compile_plan_prevalidates(self, geometry):
        g = geometry
        perm = mld_perm(g)
        compiled = compile_plan(g, plan_mld_pass(g, perm))
        assert compiled.check.parallel_ios == g.one_pass_ios
        # the optimized form waits for its first fast-engine execution
        assert compiled.optimized is None
        optimized = compiled.ensure_optimized()
        assert optimized is not None
        assert compiled.ensure_optimized() is optimized
        # fused metadata is warm: every pass carries its fused cache
        assert all("fused" in p._fused for p in compiled.plan.passes)


class TestCachedAlgorithms:
    def test_perform_bmmc_cache_round_trip(self, geometry):
        g = geometry
        rev = bit_reversal(g.n)
        cache = PlanCache()
        reference = fresh(g)
        ref_result = perform_bmmc(reference, rev, engine="strict")

        results = []
        for _ in range(2):
            s = fresh(g)
            results.append(perform_bmmc(s, rev, engine="fast", cache=cache))
            assert (
                s.portion_values(ref_result.final_portion)
                == reference.portion_values(ref_result.final_portion)
            ).all()
            assert s.stats.snapshot() == reference.stats.snapshot()
        assert cache.info().hits == 1
        for r in results:
            assert r.final_portion == ref_result.final_portion
            assert r.parallel_ios == ref_result.parallel_ios
            assert [st.name for st in r.steps] == [st.name for st in ref_result.steps]

    def test_explicit_plan_bypasses_the_cache(self, geometry):
        """Explicit ``plan=`` steps are not part of the key: the run must
        neither read nor fill the cache, yet match the keyed run."""
        g = geometry
        rev = bit_reversal(g.n)
        keyed = fresh(g)
        want = perform_bmmc(keyed, rev, engine="fast", cache=PlanCache())

        cache = PlanCache()
        s = fresh(g)
        steps = plan_bmmc_passes(rev, g)
        got = perform_bmmc(s, rev, plan=steps, engine="fast", cache=cache)
        info = cache.info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)
        assert got.steps is steps
        assert got.final_portion == want.final_portion
        assert got.parallel_ios == want.parallel_ios
        assert s.stats.snapshot() == keyed.stats.snapshot()
        for portion in range(s.num_portions):
            assert (s.portion_values(portion) == keyed.portion_values(portion)).all()

    def test_runner_cache_and_optimize(self, geometry):
        g = geometry
        rev = bit_reversal(g.n)
        cache = PlanCache()
        reference = fresh(g)
        ref = perform_permutation(reference, rev, engine="strict")

        for _ in range(2):
            s = fresh(g)
            rep = perform_permutation(s, rev, engine="fast", cache=cache)
            assert rep.verified
            assert rep.method == ref.method
            assert rep.passes == ref.passes
            assert rep.io == ref.io
            assert s.stats.snapshot() == reference.stats.snapshot()
        assert cache.info().hits >= 1

    def test_one_entry_serves_both_engines(self, geometry):
        """A cache entry stored by a fast-engine caller must serve a
        later strict caller (and vice versa): the engine selects the
        executed form per call, it is not baked into the entry."""
        g = geometry
        rev = bit_reversal(g.n)
        reference = fresh(g)
        ref = perform_bmmc(reference, rev, engine="strict")
        cache = PlanCache()
        for engine in ("fast", "strict", "fast"):
            s = fresh(g)
            perform_bmmc(s, rev, engine=engine, cache=cache)
            assert (
                s.portion_values(ref.final_portion)
                == reference.portion_values(ref.final_portion)
            ).all()
            assert s.stats.snapshot() == reference.stats.snapshot()
        assert cache.info().misses == 1 and cache.info().hits == 2

    def test_strict_engine_through_cache(self, geometry):
        """A cached plan replayed strictly still matches reference strict."""
        g = geometry
        perm = mld_perm(g)
        strict = fresh(g)
        execute_plan(strict, plan_mld_pass(g, perm), engine="strict")
        cache = PlanCache()
        for _ in range(2):
            s = fresh(g)
            perform_mld_pass(s, perm, engine="strict", cache=cache)
            assert (s.portion_values(1) == strict.portion_values(1)).all()
            assert s.stats.snapshot() == strict.stats.snapshot()


class TestRandomizedPlannerKeys:
    """Randomized planners must key their compiled plans by RNG seed."""

    @pytest.fixture
    def dist_geometry(self) -> DiskGeometry:
        return DiskGeometry(N=2**12, B=2**3, D=2**2, M=2**8)

    def test_different_seed_is_a_miss_not_a_stale_replay(self, dist_geometry):
        """A warm cache hit with a *different* seed would replay the other
        seed's placement map; it must be a fresh miss instead."""
        from repro.core.distribution import perform_distribution_sort
        from repro.perms.base import ExplicitPermutation

        g = dist_geometry
        perm = ExplicitPermutation(np.random.default_rng(1).permutation(g.N))
        cache = PlanCache()

        s1 = fresh(g)
        perform_distribution_sort(s1, perm, seed=1, engine="fast", cache=cache)
        assert cache.info() == cache.info().__class__(
            hits=0, misses=1, evictions=0, size=1, maxsize=cache.maxsize
        )

        s2 = fresh(g)
        perform_distribution_sort(s2, perm, seed=2, engine="fast", cache=cache)
        info = cache.info()
        assert info.misses == 2 and info.hits == 0 and info.size == 2

        # seed 2's intermediate placements differ from seed 1's, so the
        # runs are distinguishable -- a stale replay would be detectable
        # (and wrong); the final sorted output of course agrees
        assert (s1.portion_values(0) == s2.portion_values(0)).all()

        # and a same-seed repeat is a genuine warm hit with identical state
        s3 = fresh(g)
        perform_distribution_sort(s3, perm, seed=1, engine="fast", cache=cache)
        assert cache.info().hits == 1
        assert (s3.portion_values(0) == s1.portion_values(0)).all()
        assert (s3.portion_values(1) == s1.portion_values(1)).all()
        assert s3.stats.snapshot() == s1.stats.snapshot()

    def test_seed_traces_differ_so_sharing_would_be_wrong(self, dist_geometry):
        """Justifies the key split: different seeds produce different
        write placements, so one compiled plan cannot serve both."""
        from repro.core.distribution import plan_distribution_sort
        from repro.pdm.stage import identity_portions, materialize_staged
        from repro.perms.base import ExplicitPermutation

        g = dist_geometry
        perm = ExplicitPermutation(np.random.default_rng(1).permutation(g.N))
        plans = [
            materialize_staged(
                plan_distribution_sort(g, perm, seed=seed), identity_portions(g)
            )
            for seed in (1, 2)
        ]
        first_digit = [p.passes[0]._ensure_columns() for p in plans]
        assert (
            first_digit[0].write_ids.tobytes() != first_digit[1].write_ids.tobytes()
        )


class TestShardObservability:
    """The cache's counters must be readable, and its entries served,
    while a compile is in flight; latch waits must be counted and
    attributed to the waiting request's ambient trace."""

    @pytest.fixture
    def plan_cache(self):
        return PlanCache(maxsize=16)

    def _compiled(self, geometry):
        from repro.pdm.schedule import PlanBuilder

        builder = PlanBuilder(geometry)
        builder.begin_pass("p")
        slots = builder.read(0, [0])
        builder.write(1, [0], slots)
        return compile_plan(geometry, builder.build())

    def test_info_and_hits_while_compile_in_flight(self, geometry, plan_cache):
        """A scrape and a hit must not block behind (or deadlock with) a
        compile: compiles run outside the cache's one lock, so info()
        and a hit on another key answer while one is in flight."""
        import threading

        compiled = self._compiled(geometry)
        plan_cache.get_or_compile(("warm",), lambda: compiled)
        started, release = threading.Event(), threading.Event()

        def slow_compile():
            started.set()
            assert release.wait(5.0)
            return compiled

        builder = threading.Thread(
            target=plan_cache.get_or_compile, args=(("slow",), slow_compile)
        )
        builder.start()
        assert started.wait(5.0)
        answers = {}

        def scrape_and_hit():
            answers["info"] = plan_cache.info()
            answers["hit"] = plan_cache.get_or_compile(("warm",), lambda: 1 / 0)

        try:
            reader = threading.Thread(target=scrape_and_hit)
            reader.start()
            reader.join(5.0)
            assert not reader.is_alive(), "info() or a hit waited on a compile"
        finally:
            release.set()
            builder.join(5.0)
        assert not builder.is_alive()
        assert answers["info"].misses == 2 and answers["info"].size == 1
        assert answers["hit"] == (compiled, True)
        info = plan_cache.info()
        assert (info.hits, info.misses, info.size) == (1, 2, 2)

    def test_latch_wait_counted_and_traced(self, geometry):
        import threading
        import time

        from repro.pdm.cancel import run_scope

        cache = PlanCache(maxsize=4)
        compiled = self._compiled(geometry)
        started, release = threading.Event(), threading.Event()

        def slow_compile():
            started.set()
            assert release.wait(5.0)
            return compiled

        class Trace:
            def __init__(self):
                self.timings = {}

            def record(self, stage, seconds):
                self.timings[stage] = self.timings.get(stage, 0.0) + seconds

        trace = Trace()

        def waiter():
            with run_scope(trace=trace):
                cache.get_or_compile(("k",), lambda: compiled)

        builder = threading.Thread(
            target=cache.get_or_compile, args=(("k",), slow_compile)
        )
        builder.start()
        assert started.wait(5.0)
        waiting = threading.Thread(target=waiter)
        waiting.start()
        # the waiter registers on the latch before the compile finishes
        deadline = time.monotonic() + 5.0
        while cache.info().latch_waits == 0 and time.monotonic() < deadline:
            time.sleep(0.002)
        release.set()
        builder.join(5.0)
        waiting.join(5.0)

        info = cache.info()
        assert info.latch_waits == 1
        assert info.hits == 1 and info.misses == 1
        assert trace.timings["latch_wait"] > 0.0

    def test_single_thread_never_latch_waits(self, geometry, plan_cache):
        compiled = self._compiled(geometry)
        for _ in range(3):
            plan_cache.get_or_compile(("k",), lambda: compiled)
        assert plan_cache.info().latch_waits == 0


class TestMaxsizeValidation:
    """Regression: ``maxsize=0`` (or negative) used to be accepted and
    produced a cache that instantly evicted every store -- every request
    compiled, every compile evicted, hit rate pinned at zero with no
    error anywhere.  A capacity that can never hold an entry is a
    configuration bug and must say so at construction time."""

    from repro.errors import ValidationError as _ValidationError

    @pytest.mark.parametrize("bad", [0, -1, -64])
    def test_plan_cache_rejects_unholdable_maxsize(self, bad):
        with pytest.raises(self._ValidationError, match="maxsize") as err:
            PlanCache(maxsize=bad)
        assert str(bad) in str(err.value)

    @pytest.mark.parametrize("bad", [0, -1, -64])
    def test_sharded_cache_rejects_unholdable_maxsize(self, bad):
        # perfbench/layers.py times the cache under this name, so it
        # must stay the class the service builds.
        from repro.pdm.cache import ShardedPlanCache

        assert ShardedPlanCache is PlanCache
        with pytest.raises(self._ValidationError, match="maxsize"):
            ShardedPlanCache(maxsize=bad)

    def test_maxsize_one_holds_exactly_one_entry(self, geometry):
        # the smallest legal cache must actually cache
        g = geometry
        cache = PlanCache(maxsize=1)
        perm = mld_perm(g)
        key = plan_key("mld", g, perm.matrix, perm.complement, 0, 1)

        def build():
            return plan_mld_pass(g, perm), None

        _, _, hit1 = cached_execute(fresh(g), cache, key, build)
        _, _, hit2 = cached_execute(fresh(g), cache, key, build)
        assert (hit1, hit2) == (False, True)
        assert cache.info().evictions == 0

    def test_service_surfaces_the_validation_error(self, geometry):
        from repro.serve import PermutationService

        with pytest.raises(self._ValidationError, match="maxsize"):
            PermutationService(geometry, workers=2, cache_maxsize=0)
