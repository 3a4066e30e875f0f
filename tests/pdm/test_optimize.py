"""Tests for the plan-level optimizer (:mod:`repro.pdm.optimize`)."""

import numpy as np
import pytest

from repro.core.bmmc_algorithm import plan_bmmc_io, plan_bmmc_passes
from repro.core.general import plan_general_sort
from repro.core.mld_algorithm import plan_mld_pass
from repro.errors import BlockStateError, PlanError
from repro.pdm.engine import execute_plan
from repro.pdm.geometry import DiskGeometry
from repro.pdm.optimize import optimize_plan
from repro.pdm.schedule import PlanBuilder
from repro.pdm.system import ParallelDiskSystem
from repro.perms.base import ExplicitPermutation
from repro.perms.library import bit_reversal


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
        g = geometry
        plan, final = multi_pass_plan(g)
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
        from repro.bits.random import random_mld_matrix
        from repro.perms.bmmc import BMMCPermutation

        perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, np.random.default_rng(0)))
        plan = plan_mld_pass(g, perm)
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
        """A fused link writing to occupied blocks must still fault."""
        g = geometry
        plan, _ = multi_pass_plan(g)
        s = fresh(g)
        # occupy one of the first link's target blocks (portion 1)
        s._data[1, 0] = 42
        op = optimize_plan(plan)
        with pytest.raises(BlockStateError):
            op.execute(s)
        strict = fresh(g)
        strict._data[1, 0] = 42
        with pytest.raises(BlockStateError):
            execute_plan(strict, plan, engine="strict")

    def test_reading_empty_block_faults(self, geometry):
        g = geometry
        plan, _ = multi_pass_plan(g)
        s = ParallelDiskSystem(g)  # portion 0 empty
        with pytest.raises(BlockStateError):
            optimize_plan(plan).execute(s)


class TestDeadWriteElimination:
    def overwrite_plan(self, g):
        """Pass 1 writes memoryload 0 of portion 1; pass 2 overwrites it
        from a different source without reading it -- the first write is
        dead (legal only outside simple I/O)."""
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
        assert op.report.eliminated_write_records == g.M
        strict = fresh(g, simple_io=False)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g, simple_io=False)
        report = op.execute(fast)
        assert report.optimized
        assert_equivalent(strict, fast)

    def test_dead_write_skipping_streams_under_budget(self, geometry):
        """Masked passes go through the streaming path too: the budget
        bounds the host buffer and the mask survives segmentation."""
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
        assert op.report.eliminated_write_records == 2 * g.M
        strict = fresh(g, simple_io=False)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g, simple_io=False)
        report = op.execute(fast, stream_records=g.M)
        assert report.host_peak_records <= g.M
        assert report.streamed_passes == 2
        assert_equivalent(strict, fast)

    def test_not_applied_under_simple_io(self, geometry):
        g = geometry
        plan = self.overwrite_plan(g)
        op = optimize_plan(plan, simple_io=True)
        assert op.report.eliminated_write_records == 0

    def test_intervening_read_keeps_write(self, geometry):
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("first")
        slots = b.read_memoryload(0, 0, consume=False)
        b.write_memoryload(1, 0, slots)
        b.begin_pass("reader")
        b.read_memoryload(1, 0, consume=False)
        b.begin_pass("second")
        slots = b.read_memoryload(0, 1, consume=False)
        b.write_memoryload(1, 0, slots)
        op = optimize_plan(b.build(), simple_io=False)
        assert op.report.eliminated_write_records == 0


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
        group = next(grp for grp in op.groups if grp.source_map is not None)
        group.source_map = group.source_map[:-1]  # corrupt
        with pytest.raises(PlanError):
            op.verify()

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

    def test_execute_plan_optimize_knob(self, geometry):
        g = geometry
        for plan in (multi_pass_plan(g)[0], overlap_plan(g)):
            strict = fresh(g)
            execute_plan(strict, plan, engine="strict")
            fast = fresh(g)
            report = execute_plan(fast, plan, engine="fast", optimize=True)
            assert report.optimized
            assert_equivalent(strict, fast)

