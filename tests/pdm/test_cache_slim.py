"""Slim cache entries: after its first fast gather a cached plan keeps
only its units' pulls, and every other execution re-plans.

Each execution of a slim entry must match an uncached strict run byte
for byte: portions, ``IOStats``, pass tables and memory peak.
"""

import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.bits.random import random_mld_matrix
from repro.core import mld_algorithm
from repro.core.bmmc_algorithm import perform_bmmc
from repro.core.mld_algorithm import perform_mld_pass
from repro.errors import PlanError
from repro.pdm.cache import PlanCache, cached_execute, plan_key
from repro.pdm.engine import execute_plan
from repro.pdm import schedule
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import PlanBuilder
from repro.pdm.system import ParallelDiskSystem
from repro.pdm.trace import IOTrace
from repro.perms.bmmc import BMMCPermutation
from repro.perms.library import bit_reversal


@pytest.fixture
def geometry() -> DiskGeometry:
    return DiskGeometry(N=2**12, B=2**3, D=2**2, M=2**7)


def fresh(g):
    s = ParallelDiskSystem(g)
    s.fill_identity(0)
    return s


def mld_perm(g, seed=0):
    rng = np.random.default_rng(seed)
    return BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, rng))


def state(s):
    """Everything an execution leaves that strict replay defines."""
    return (
        [s.portion_values(p).tobytes() for p in range(s.num_portions)],
        s.stats.snapshot(),
        list(s.stats.passes),
        s.memory.peak,
    )


def the_entry(cache):
    (entry,) = cache._entries.values()
    return entry


def is_slim(entry) -> bool:
    return entry.plan is None and entry.optimized is not None


# The two planner families: one pass (MLD), and a chain of passes that
# the optimizer fuses into one unit (bit-reversal through BMMC).
def run_mld(g, s, **kwargs):
    perform_mld_pass(s, mld_perm(g), **kwargs)


def run_bmmc(g, s, **kwargs):
    perform_bmmc(s, bit_reversal(g.n), **kwargs)


RUNS = pytest.mark.parametrize("run", [run_mld, run_bmmc], ids=["mld", "bmmc"])


def reference(g, run):
    s = fresh(g)
    run(g, s, engine="strict")
    return state(s)


def slim_cache(g, run):
    """A cache whose one entry went slim on its first fast execution."""
    cache = PlanCache()
    s = fresh(g)
    run(g, s, engine="fast", cache=cache)
    assert is_slim(the_entry(cache))
    return cache


class TestSlimEntries:
    @RUNS
    def test_first_fast_execution_makes_the_entry_slim(self, geometry, run):
        g = geometry
        cache = PlanCache()
        s = fresh(g)
        run(g, s, engine="fast", cache=cache)
        assert state(s) == reference(g, run)
        entry = the_entry(cache)
        assert is_slim(entry)
        optimized = entry.optimized
        assert all(grp.pull is not None for grp in optimized.groups)
        for f in optimized._fused:
            for name in ("write_source", "read_ids", "write_ids", "step_sizes"):
                assert not hasattr(f, name)

    @RUNS
    def test_strict_execution_of_a_slim_entry(self, geometry, run):
        g = geometry
        cache = slim_cache(g, run)
        s = fresh(g)
        run(g, s, engine="strict", cache=cache)
        assert state(s) == reference(g, run)
        assert cache.info().hits == 1 and cache.info().misses == 1
        assert is_slim(the_entry(cache))

    @RUNS
    def test_observed_execution_of_a_slim_entry(self, geometry, run):
        g = geometry
        want = fresh(g)
        want_trace = IOTrace(want)
        run(g, want, engine="strict")

        cache = slim_cache(g, run)
        s = fresh(g)
        trace = IOTrace(s)
        run(g, s, engine="fast", cache=cache)
        assert state(s) == state(want)
        assert trace.summary() == want_trace.summary()
        assert len(trace.records) == len(want_trace.records) > 0
        assert is_slim(the_entry(cache))

    @RUNS
    def test_execution_under_a_stream_budget_below_n(self, geometry, run):
        g = geometry
        cache = slim_cache(g, run)
        s = fresh(g)
        run(g, s, engine="fast", cache=cache, stream_records=g.M)
        assert state(s) == reference(g, run)
        assert cache.info().hits == 1
        assert is_slim(the_entry(cache))

    @RUNS
    def test_fast_strict_fast(self, geometry, run):
        g = geometry
        want = reference(g, run)
        cache = PlanCache()
        for engine in ("fast", "strict", "fast"):
            s = fresh(g)
            run(g, s, engine=engine, cache=cache)
            assert state(s) == want
            assert is_slim(the_entry(cache))
        info = cache.info()
        assert (info.misses, info.hits) == (1, 2)

    def test_warm_executions_never_plan(self, geometry, monkeypatch):
        g = geometry
        calls = []
        planner = mld_algorithm.plan_mld_pass

        def counting_planner(*args, **kwargs):
            calls.append(1)
            return planner(*args, **kwargs)

        monkeypatch.setattr(mld_algorithm, "plan_mld_pass", counting_planner)
        want = reference(g, run_mld)
        assert len(calls) == 1
        cache = PlanCache()
        for _ in range(5):
            s = fresh(g)
            run_mld(g, s, engine="fast", cache=cache)
            assert state(s) == want
        assert len(calls) == 2  # the reference run and the one cold miss
        run_mld(g, fresh(g), engine="strict", cache=cache)
        assert len(calls) == 3  # a slim entry re-plans for the strict engine
        run_mld(g, fresh(g), engine="fast", cache=cache)
        assert len(calls) == 3

    def test_a_replan_records_a_plan_stage(self, geometry):
        from repro.pdm.cancel import run_scope

        class Trace:
            def __init__(self):
                self.timings = {}

            def record(self, stage, seconds):
                self.timings[stage] = self.timings.get(stage, 0.0) + seconds

        g = geometry
        cache = slim_cache(g, run_mld)
        warm, replanned = Trace(), Trace()
        with run_scope(trace=warm):
            run_mld(g, fresh(g), engine="fast", cache=cache)
        with run_scope(trace=replanned):
            run_mld(g, fresh(g), engine="strict", cache=cache)
        assert set(warm.timings) == {"execute"}
        assert set(replanned.timings) == {"plan", "execute"}

    def test_racing_first_executions_miss_once_and_go_slim(self, geometry):
        g = geometry
        want = reference(g, run_bmmc)
        cache = PlanCache()
        systems = [fresh(g) for _ in range(8)]
        barrier = threading.Barrier(len(systems))
        errors = []

        def worker(s):
            try:
                barrier.wait(5.0)
                run_bmmc(g, s, engine="fast", cache=cache)
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in systems]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert all(state(s) == want for s in systems)
        info = cache.info()
        assert (info.misses, info.hits, info.size) == (1, 7, 1)
        assert is_slim(the_entry(cache))

    def test_a_streamed_first_execution_keeps_the_plan(self, geometry):
        """An execution that streams composes no pull, so the entry keeps
        everything, as every entry above the auto-streaming threshold
        does; a later in-budget execution makes it slim."""
        g = geometry
        want = reference(g, run_mld)
        cache = PlanCache()
        s = fresh(g)
        run_mld(g, s, engine="fast", cache=cache, stream_records=g.M)
        assert state(s) == want
        entry = the_entry(cache)
        assert entry.plan is not None
        assert all(grp.pull is None for grp in entry.optimized.groups)
        s = fresh(g)
        run_mld(g, s, engine="fast", cache=cache)
        assert state(s) == want
        assert is_slim(entry)

    def test_a_plan_with_a_pass_by_pass_group_keeps_the_plan(self, geometry):
        """A pass that moves one block is no whole-portion unit."""
        g = geometry
        builder = PlanBuilder(g)
        builder.begin_pass("one block")
        builder.write(1, [0], builder.read(0, [0]))
        plan = builder.build()
        key = plan_key("one-block", g)
        cache = PlanCache()
        for _ in range(2):
            s = fresh(g)
            cached_execute(s, cache, key, lambda: (plan, None))
            want = fresh(g)
            execute_plan(want, plan, engine="strict")
            assert state(s) == state(want)
        entry = the_entry(cache)
        assert entry.plan is plan and entry.optimized.plan is plan

    def test_a_strict_run_holding_the_plan_finishes_on_it(self, geometry):
        """The swap only replaces the entry's references: a plan taken
        before it is untouched and still runs."""
        g = geometry
        cache = PlanCache()
        run_bmmc(g, fresh(g), engine="strict", cache=cache)
        entry = the_entry(cache)
        plan = entry.plan
        full = entry.ensure_optimized()
        run_bmmc(g, fresh(g), engine="fast", cache=cache)
        assert is_slim(entry) and entry.optimized is not full
        assert full.plan is plan and full._fused[0].write_source.size == g.N
        s = fresh(g)
        execute_plan(s, plan, engine="strict")
        assert state(s) == reference(g, run_bmmc)


class TestSlimPlanRefuses:
    """A slim optimized plan asked for a path it cannot run says so."""

    @pytest.fixture
    def slim(self, geometry):
        return the_entry(slim_cache(geometry, run_bmmc)).optimized

    def test_runs_a_warm_fast_execution(self, geometry, slim):
        s = fresh(geometry)
        report = execute_plan(s, slim, engine="fast")
        assert report.optimized
        assert state(s) == reference(geometry, run_bmmc)

    @pytest.mark.parametrize(
        "kwargs, why",
        [
            ({"engine": "strict"}, "strict engine"),
            ({"engine": "fast", "capture": True}, "capturing"),
            ({"engine": "fast", "stream_records": 2**7}, "stream budget"),
        ],
    )
    def test_refuses_what_needs_the_plan(self, geometry, slim, kwargs, why):
        s = fresh(geometry)
        with pytest.raises(PlanError, match=why):
            execute_plan(s, slim, **kwargs)
        assert (s.portion_values(0) == np.arange(geometry.N)).all()

    def test_refuses_an_observed_execution(self, geometry, slim):
        s = fresh(geometry)
        IOTrace(s)
        with pytest.raises(PlanError, match="observer"):
            execute_plan(s, slim, engine="fast")

    def test_refuses_a_system_of_another_shape(self, geometry, slim):
        s = ParallelDiskSystem(geometry, portions=3)
        s.fill_identity(0)
        with pytest.raises(PlanError, match="another shape"):
            execute_plan(s, slim, engine="fast")

    def test_refuses_to_verify(self, slim):
        with pytest.raises(PlanError, match="slim"):
            slim.verify()


def test_a_slim_mld_entry_keeps_only_its_pull(monkeypatch):
    """Memory guard: after one fast execution a cached MLD entry at
    N=2^14 retains its pull (8 bytes per record) and little else; its
    per-step and per-block columns are gone, and so is the memory map
    that held its write sources (another 8 bytes per record, outside
    the heap ``tracemalloc`` sees)."""
    g = DiskGeometry(N=2**14, B=2**3, D=2**2, M=2**7)
    perm = mld_perm(g)
    s = fresh(g)
    cache = PlanCache()
    maps = []
    mapped_empty = schedule._mapped_empty

    def recording_mapped_empty(size):
        column = mapped_empty(size)
        maps.append(weakref.ref(column.base.obj))
        return column

    monkeypatch.setattr(schedule, "_mapped_empty", recording_mapped_empty)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        perform_mld_pass(s, perm, engine="fast", cache=cache)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert is_slim(the_entry(cache))
    assert len(maps) == 1 and maps[0]() is None, "the write sources stay mapped"
    pull = 8 * g.N
    assert pull <= retained <= pull + 16 * 1024, retained
