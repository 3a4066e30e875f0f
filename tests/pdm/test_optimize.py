"""Tests for the plan-level optimizer (:mod:`repro.pdm.optimize`)."""

import re
import sys
import threading
import time

import numpy as np
import pytest

from repro.bits.random import random_mld_matrix
from repro.core.bmmc_algorithm import plan_bmmc_io, plan_bmmc_passes
from repro.core.general import plan_general_sort
from repro.core.mld_algorithm import plan_mld_pass
from repro.errors import BlockStateError, MemoryCapacityError, PlanError
from repro.pdm.cancel import run_scope
from repro.pdm.engine import execute_plan
from repro.pdm.geometry import DiskGeometry
from repro.pdm import optimize
from repro.pdm.optimize import optimize_plan
from repro.pdm.schedule import PlanBuilder
from repro.pdm.system import EMPTY, ParallelDiskSystem
from repro.perms.base import ExplicitPermutation
from repro.perms.bmmc import BMMCPermutation
from repro.perms.library import bit_reversal

#: Bit reversal plans 2 passes here (portion 0 -> 1 -> 0), against 3
#: (0 -> 1 -> 0 -> 1) on the ``geometry`` fixture.
SMALL = DiskGeometry(N=2**10, B=2**3, D=2**2, M=2**7)


@pytest.fixture
def geometry() -> DiskGeometry:
    return DiskGeometry(N=2**12, B=2**3, D=2**2, M=2**7)


def fresh(g, **kwargs):
    s = ParallelDiskSystem(g, **kwargs)
    s.fill_identity(0)
    return s


def multi_pass_plan(g):
    steps = plan_bmmc_passes(bit_reversal(g.n), g)
    plan, final = plan_bmmc_io(g, steps)
    assert plan.num_passes >= 2, "need a ping-pong chain to exercise fusion"
    return plan, final


def mld_plan(g):
    perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, np.random.default_rng(0)))
    return plan_mld_pass(g, perm)


def unit_plans(g):
    """``(geometry, plan)`` for each whole-portion unit shape: a 3-pass
    chain into the other portion, one MLD pass, and a 2-pass chain back
    into its input portion.  Each unit's first member writes portion 1."""
    return [
        (g, multi_pass_plan(g)[0]),
        (g, mld_plan(g)),
        (SMALL, multi_pass_plan(SMALL)[0]),
    ]


def named_blocks(err) -> list[int]:
    """Block ids a :class:`BlockStateError` message lists, whether numpy
    prints them as ``5`` or ``np.int64(5)``."""
    return [int(x) for x in re.findall(r"\b\d+\b", str(err))]


def overlap_plan(g):
    """Pass "a" writes stripe 0 of portion 1; pass "b" re-reads that
    stripe *plus* stripe 1 of portion 0 (untouched by "a"), so the passes
    overlap on half of "b"'s reads and full-chain fusion refuses them."""
    b = PlanBuilder(g)
    b.begin_pass("a")
    sa = b.read_stripe(0, 0)
    b.write_stripe(1, 0, sa[::-1])
    b.begin_pass("b")
    s1 = b.read_stripe(1, 0)
    s2 = b.read_stripe(0, 1)
    b.write_stripe(0, 0, s2)
    b.write_stripe(1, 1, s1)
    return b.build()


def assert_equivalent(a: ParallelDiskSystem, b: ParallelDiskSystem):
    for portion in range(a.num_portions):
        assert (a.portion_values(portion) == b.portion_values(portion)).all()
    assert a.stats.snapshot() == b.stats.snapshot()
    assert [p for p in a.stats.passes] == [p for p in b.stats.passes]
    assert a.memory.peak == b.memory.peak
    assert a.memory.in_use == b.memory.in_use


class TestFusion:
    def test_ping_pong_chain_fuses_to_one_physical_pass(self, geometry):
        plan, _ = multi_pass_plan(geometry)
        op = optimize_plan(plan)
        assert op.report.passes == plan.num_passes
        assert op.report.physical_passes == 1
        assert op.report.fused_groups == 1
        assert op.report.fused_links == plan.num_passes - 1

    def test_fused_execution_matches_strict(self, geometry):
        # 3 passes ending in the other portion; 2 passes ending in the
        # portion they started from (the unit's p_in == p_out case)
        for g, passes, final_portion in ((geometry, 3, 1), (SMALL, 2, 0)):
            plan, final = multi_pass_plan(g)
            assert (plan.num_passes, final) == (passes, final_portion)
            strict = fresh(g)
            execute_plan(strict, plan, engine="strict")
            fast = fresh(g)
            report = optimize_plan(plan).execute(fast)
            assert report.optimized
            assert_equivalent(strict, fast)
            assert fast.verify_permutation(bit_reversal(g.n), np.arange(g.N), final)

    def test_host_peak_is_one_stream_not_per_pass(self, geometry):
        g = geometry
        plan, _ = multi_pass_plan(g)
        report = optimize_plan(plan).execute(fresh(g))
        # one gather for the whole chain: peak equals one pass's stream
        assert report.host_peak_records == g.N

    def test_single_pass_plan_passes_through(self, geometry):
        g = geometry
        plan = mld_plan(g)
        op = optimize_plan(plan)
        assert op.report.fused_groups == 0
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g)
        op.execute(fast)
        assert_equivalent(strict, fast)

    def test_general_sort_chain_fuses(self, geometry):
        g = geometry
        perm = ExplicitPermutation(np.random.default_rng(3).permutation(g.N))
        strict = fresh(g)
        gplan = plan_general_sort(g, perm, strict.peek(0, 0, g.N))
        op = optimize_plan(gplan.io_plan)
        assert op.report.fused_groups == 1
        assert op.report.physical_passes == 1
        execute_plan(strict, gplan.io_plan, engine="strict")
        fast = fresh(g)
        op.execute(fast)
        assert_equivalent(strict, fast)

    def test_non_consuming_reads_block_fusion(self, geometry):
        """A chain whose second pass peeks (consume=False) must not fuse."""
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("a")
        slots = b.read_memoryload(0, 0)
        b.write_memoryload(1, 0, slots)
        b.begin_pass("b")
        b.read_memoryload(1, 0, consume=False)
        plan = b.build()
        op = optimize_plan(plan, simple_io=False)
        assert op.report.fused_groups == 0

    def test_simple_io_fault_preserved(self, geometry):
        """A unit writing to occupied blocks must still fault, naming
        exactly the occupied block, as the per-pass fast path (which a
        stream budget below N selects) does."""
        planted = 5
        for g, plan in unit_plans(geometry):
            # occupy one record of the first member's target (portion 1)
            for stream in (None, g.M):
                s = fresh(g)
                s._data[1, planted * g.B + 1] = 42
                with pytest.raises(BlockStateError) as err:
                    execute_plan(s, plan, engine="fast", stream_records=stream)
                assert named_blocks(err.value) == [planted], stream
            strict = fresh(g)
            strict._data[1, planted * g.B + 1] = 42
            with pytest.raises(BlockStateError):
                execute_plan(strict, plan, engine="strict")

    def test_reading_empty_block_faults(self, geometry):
        g = geometry
        plan, _ = multi_pass_plan(g)
        s = ParallelDiskSystem(g)  # portion 0 empty
        with pytest.raises(BlockStateError):
            optimize_plan(plan).execute(s)
        # one empty record: the unit names exactly its block, as strict
        # replay does
        planted = 5
        for g, plan in unit_plans(geometry):
            op = optimize_plan(plan)
            for engine in ("fast", "strict"):
                s = fresh(g)
                s._data[0, planted * g.B + 1] = EMPTY
                with pytest.raises(BlockStateError) as err:
                    op.execute(s, engine=engine)
                assert named_blocks(err.value) == [planted], engine

    def test_partial_portion_chain_runs_pass_by_pass(self, geometry):
        """A chain that moves one memoryload, not a whole portion, is no
        whole-portion unit: it runs member by member, like strict."""
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("a")
        slots = b.read_memoryload(0, 0)
        b.write_memoryload(1, 0, slots[::-1])
        b.begin_pass("b")
        slots = b.read_memoryload(1, 0)
        b.write_memoryload(0, 0, np.roll(slots, 3))
        plan = b.build()
        op = optimize_plan(plan)
        assert op.report.fused_groups == 0
        assert op.report.physical_passes == 2
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g)
        assert op.execute(fast).optimized
        assert_equivalent(strict, fast)


class TestDeadWriteElimination:
    """Plans with dead writes -- a write overwritten before any read,
    legal only outside simple I/O -- are no whole-portion units: the
    optimized plan runs them pass by pass, every write included, and
    must match strict replay."""

    def overwrite_plan(self, g):
        """Pass 1 writes memoryload 0 of portion 1; pass 2 overwrites it
        from a different source without reading it -- the first write is
        dead."""
        b = PlanBuilder(g)
        b.begin_pass("first")
        slots = b.read_memoryload(0, 0, consume=False)
        b.write_memoryload(1, 0, slots)
        b.begin_pass("second")
        slots = b.read_memoryload(0, 1, consume=False)
        b.write_memoryload(1, 0, slots)
        return b.build()

    def test_dead_write_detected_and_skipped(self, geometry):
        g = geometry
        plan = self.overwrite_plan(g)
        op = optimize_plan(plan, simple_io=False)
        strict = fresh(g, simple_io=False)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g, simple_io=False)
        report = op.execute(fast)
        assert report.optimized
        assert_equivalent(strict, fast)

    def test_dead_write_skipping_streams_under_budget(self, geometry):
        """Dead-write passes go through the streaming path too: the
        budget bounds the host buffer and the result still matches."""
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("first")
        for ml in (0, 1):
            slots = b.read_memoryload(0, ml, consume=False)
            b.write_memoryload(1, ml, slots)
        b.begin_pass("second")
        for ml in (0, 1):
            slots = b.read_memoryload(0, ml + 2, consume=False)
            b.write_memoryload(1, ml, slots)
        plan = b.build()
        op = optimize_plan(plan, simple_io=False)
        strict = fresh(g, simple_io=False)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g, simple_io=False)
        report = op.execute(fast, stream_records=g.M)
        assert report.host_peak_records <= g.M
        assert report.streamed_passes == 2
        assert_equivalent(strict, fast)

    def test_intervening_read_keeps_write(self, geometry):
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("first")
        slots = b.read_memoryload(0, 0, consume=False)
        b.write_memoryload(1, 0, slots)
        b.begin_pass("reader")
        for stripe in g.memoryload_stripes(0):
            b.read_stripe(1, stripe, consume=False, discard=True)
        b.begin_pass("second")
        slots = b.read_memoryload(0, 1, consume=False)
        b.write_memoryload(1, 0, slots)
        plan = b.build()
        strict = fresh(g, simple_io=False)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g, simple_io=False)
        assert optimize_plan(plan, simple_io=False).execute(fast).optimized
        assert_equivalent(strict, fast)


class _Stop(Exception):
    pass


class _Recorder:
    """A fault hook that records every checkpoint and raises
    :class:`_Stop` at the ``stop_at``-th ``pass`` checkpoint."""

    def __init__(self, stop_at=None):
        self.fired = []
        self.passes = 0
        self.stop_at = stop_at

    def fire(self, point, label):
        self.fired.append((point, label))
        if point == "pass":
            self.passes += 1
            if self.passes == self.stop_at:
                raise _Stop(label)


class TestCheckpoints:
    """A fused unit fires one ``pass`` checkpoint per member, all before
    its one gather, so deadlines and faults land between plan passes on
    every engine."""

    def test_fused_chain_fires_one_pass_checkpoint_per_plan_pass(self, geometry):
        g = geometry
        plan, _ = multi_pass_plan(g)
        op = optimize_plan(plan)
        assert (plan.num_passes, op.report.physical_passes) == (3, 1)
        want = [("pass", p.label) for p in plan.passes]
        runs = {
            "strict": lambda s: execute_plan(s, plan, engine="strict"),
            "fast": lambda s: execute_plan(s, plan, engine="fast"),
            "compiled": op.execute,
        }
        for name, run in runs.items():
            recorder = _Recorder()
            with run_scope(faults=recorder):
                run(fresh(g))
            assert recorder.fired == want, name

    def test_stop_at_second_member_leaves_the_unit_unmoved(self, geometry):
        g = geometry
        plan, _ = multi_pass_plan(g)
        op = optimize_plan(plan)
        for run in (lambda s: execute_plan(s, plan, engine="fast"), op.execute):
            s = fresh(g)
            with run_scope(faults=_Recorder(stop_at=2)):
                with pytest.raises(_Stop, match=re.escape(plan.passes[1].label)):
                    run(s)
            assert (s.portion_values(0) == np.arange(g.N)).all()  # source intact
            assert s._is_empty(s.portion_values(1)).all()  # target empty
            assert s.stats.passes == []
            assert s.memory.in_use == 0


class TestArtifact:
    def test_verify_certificate(self, geometry):
        plan, _ = multi_pass_plan(geometry)
        op = optimize_plan(plan)
        cert = op.verify()
        assert cert["passes"] == plan.num_passes
        assert cert["physical_passes"] == 1
        assert cert["stats_identical_by_construction"]

    def test_verify_catches_corruption(self, geometry):
        plan, _ = multi_pass_plan(geometry)
        op = optimize_plan(plan)
        op.verify()  # composes every unit's pull index
        group = next(grp for grp in op.groups if grp.pull is not None)
        pull = group.pull
        group.pull = pull[:-1]  # corrupt
        with pytest.raises(PlanError):
            op.verify()
        group.pull = pull.copy()
        group.pull[0] = geometry.N  # escapes the portion
        with pytest.raises(PlanError):
            op.verify()

    def test_racing_first_gathers_compose_the_pull_index_once(self, geometry, monkeypatch):
        """Compiled plans are shared between workers: eight threads that
        race to a unit's first gather compose its pull index once, and
        every execution matches strict."""
        g = geometry
        plan, _ = multi_pass_plan(g)
        op = optimize_plan(plan)
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")

        composed = []
        check = optimize._check_pull

        def counting_check(grp, pull, N):  # runs once per composition
            composed.append(pull)
            time.sleep(0.01)  # let racing threads reach the unit meanwhile
            check(grp, pull, N)

        monkeypatch.setattr(optimize, "_check_pull", counting_check)
        systems = [fresh(g) for _ in range(8)]
        barrier = threading.Barrier(len(systems))
        errors = []

        def worker(s):
            try:
                barrier.wait(timeout=10)
                op.execute(s)
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in systems]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(composed) == 1
        for s in systems:
            assert_equivalent(strict, s)

    def test_capacity_checked_on_every_execution(self, geometry):
        """Each execution checks memory from the records resident at its
        start: every over-capacity execution raises, a fitting one after
        them still matches strict, and a pre-loaded system that fits
        reports the strict engine's peak."""
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("copy")
        slots = b.read(0, [0], consume=False)
        b.write(1, [1], slots)
        copy = b.build()
        peaks = set()
        for run in (
            lambda s: execute_plan(s, copy, engine="strict"),
            lambda s: execute_plan(s, copy, engine="fast"),
            lambda s: optimize_plan(copy, simple_io=False).execute(s),
        ):
            s = fresh(g, simple_io=False)
            s.memory.allocate(g.M - 2 * g.B)
            run(s)
            peaks.add((s.memory.peak, s.memory.in_use))
        assert peaks == {(g.M - g.B, g.M - 2 * g.B)}

        plan, _ = multi_pass_plan(g)
        op = optimize_plan(plan)
        op.execute(fresh(g))
        for _ in range(3):
            s = fresh(g)
            s.memory.allocate(g.M - g.B)  # pre-loaded near M
            with pytest.raises(MemoryCapacityError):
                op.execute(s)
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g)
        op.execute(fast)
        assert_equivalent(strict, fast)

    def test_system_shape_mismatch_falls_back(self, geometry):
        """Compiled for simple I/O, run without it: plain fast fallback."""
        g = geometry
        plan, _ = multi_pass_plan(g)
        op = optimize_plan(plan, simple_io=True)
        s = fresh(g, simple_io=False)
        report = op.execute(s)
        assert not report.optimized
        assert report.fell_back == "system-shape-mismatch"
        strict = fresh(g, simple_io=False)
        execute_plan(strict, plan, engine="strict")
        assert_equivalent(strict, s)

    def test_strict_engine_falls_back_to_replay(self, geometry):
        g = geometry
        plan, _ = multi_pass_plan(g)
        op = optimize_plan(plan)
        s = fresh(g)
        report = op.execute(s, engine="strict")
        assert report.engine == "strict"
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")
        assert_equivalent(strict, s)

    def test_observers_force_strict_events(self, geometry):
        g = geometry
        plan, _ = multi_pass_plan(g)
        op = optimize_plan(plan)
        s = fresh(g)
        events = []
        s.add_observer(events.append)
        report = op.execute(s, engine="fast")
        assert report.fell_back == "observers"
        assert len(events) == plan.parallel_ios

    def test_stream_budget_overrides_fusion(self, geometry):
        """A fused chain that would bust the stream budget runs unfused
        and streamed: the budget bounds the host buffer either way."""
        g = geometry
        plan, final = multi_pass_plan(g)
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g)
        report = optimize_plan(plan).execute(fast, stream_records=g.M)
        assert report.host_peak_records <= g.M  # not one whole N-record stream
        assert report.streamed_passes == plan.num_passes
        assert_equivalent(strict, fast)
        assert fast.verify_permutation(bit_reversal(g.n), np.arange(g.N), final)

    def test_execute_plan_fast_runs_the_optimizer(self, geometry):
        g = geometry
        for plan in (multi_pass_plan(g)[0], overlap_plan(g)):
            strict = fresh(g)
            execute_plan(strict, plan, engine="strict")
            fast = fresh(g)
            report = execute_plan(fast, plan, engine="fast")
            assert report.optimized
            assert_equivalent(strict, fast)

