"""Tests for the plan execution engines (:mod:`repro.pdm.engine`)."""

import numpy as np
import pytest

from repro.errors import (
    BlockStateError,
    DiskConflictError,
    MemoryCapacityError,
    PlanError,
    ValidationError,
)
from repro.pdm.engine import ENGINES, execute_plan, validate_plan
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import IOPlan, IOStep, PlanBuilder, PlanPass
from repro.pdm.system import ParallelDiskSystem


@pytest.fixture
def geometry() -> DiskGeometry:
    return DiskGeometry(N=2**10, B=2**3, D=2**2, M=2**7)


def fresh(g, **kwargs):
    s = ParallelDiskSystem(g, **kwargs)
    s.fill_identity(0)
    return s


def reverse_plan(g):
    """Vector reversal via memoryload slots: a nontrivial one-pass plan."""
    b = PlanBuilder(g)
    b.begin_pass("reverse")
    for ml in range(g.num_memoryloads):
        slots = b.read_memoryload(0, ml)
        b.write_memoryload(1, g.num_memoryloads - 1 - ml, slots[::-1])
    return b.build()


def run_both(g, plan, **kwargs):
    systems = []
    for engine in ENGINES:
        s = fresh(g, **kwargs)
        execute_plan(s, plan, engine=engine)
        systems.append(s)
    return systems


class TestEquivalence:
    def test_portions_stats_memory_identical(self, geometry):
        strict, fast = run_both(geometry, reverse_plan(geometry))
        assert (strict.portion_values(0) == fast.portion_values(0)).all()
        assert (strict.portion_values(1) == fast.portion_values(1)).all()
        assert strict.stats.snapshot() == fast.stats.snapshot()
        assert strict.memory.peak == fast.memory.peak
        assert strict.memory.in_use == fast.memory.in_use

    def test_pass_tables_identical(self, geometry):
        strict, fast = run_both(geometry, reverse_plan(geometry))
        assert len(strict.stats.passes) == len(fast.stats.passes)
        for ps, pf in zip(strict.stats.passes, fast.stats.passes):
            assert ps == pf

    def test_consume_false_leaves_source(self, geometry):
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("peek")
        b.read(0, [0, 1], consume=False)
        plan = b.build()
        strict, fast = run_both(g, plan, simple_io=False)
        assert (strict.portion_values(0) == fast.portion_values(0)).all()
        assert (strict.portion_values(0)[: 2 * g.B] == np.arange(2 * g.B)).all()
        # unbalanced plan: records stay resident in both engines
        assert strict.memory.in_use == fast.memory.in_use == 2 * g.B

    def test_duplicate_nonconsuming_reads_fusable(self, geometry):
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("peek-twice")
        b.read(0, [0], consume=False)
        b.read(0, [0], consume=False)
        plan = b.build()
        strict, fast = run_both(g, plan, simple_io=False)
        assert strict.stats.snapshot() == fast.stats.snapshot()


class TestValidatePlan:
    def test_check_matches_execution(self, geometry):
        plan = reverse_plan(geometry)
        s = fresh(geometry)
        check = validate_plan(s, plan)
        execute_plan(s, plan, engine="fast")
        snap = s.stats.snapshot()
        assert check.parallel_ios == snap.parallel_ios
        assert check.striped_reads == snap.striped_reads
        assert check.striped_writes == snap.striped_writes
        assert check.blocks_read == snap.blocks_read
        assert check.blocks_written == snap.blocks_written
        assert check.peak_memory_records == s.memory.peak
        assert check.net_memory_records == 0

    def test_geometry_mismatch(self, geometry):
        other = DiskGeometry(N=2**11, B=2**3, D=2**2, M=2**7)
        with pytest.raises(ValidationError):
            validate_plan(fresh(other), reverse_plan(geometry))

    def test_disk_conflict_detected(self, geometry):
        g = geometry
        plan = IOPlan(g, [PlanPass("bad", [IOStep("read", 0, [0, g.D])])])
        with pytest.raises(DiskConflictError):
            validate_plan(fresh(g), plan)

    def test_oversized_step_detected(self, geometry):
        g = geometry
        plan = IOPlan(g, [PlanPass("bad", [IOStep("read", 0, np.arange(g.D + 1))])])
        with pytest.raises(DiskConflictError):
            validate_plan(fresh(g), plan)

    def test_block_out_of_range(self, geometry):
        g = geometry
        plan = IOPlan(g, [PlanPass("bad", [IOStep("read", 0, [g.num_blocks])])])
        with pytest.raises(ValidationError):
            validate_plan(fresh(g), plan)

    def test_empty_step_rejected(self, geometry):
        g = geometry
        plan = IOPlan(g, [PlanPass("bad", [IOStep("read", 0, [])])])
        with pytest.raises(ValidationError):
            validate_plan(fresh(g), plan)

    def test_memory_overflow_detected(self, geometry):
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("hoard")
        for stripe in range(g.num_stripes):  # N > M records without a write
            b.read_stripe(0, stripe)
        with pytest.raises(MemoryCapacityError):
            validate_plan(fresh(g), b.build())

    def test_unread_slots_detected(self, geometry):
        g = geometry
        steps = [
            IOStep("write", 1, [0], np.arange(g.B)),  # writes before any read
            IOStep("read", 0, [0]),
        ]
        plan = IOPlan(g, [PlanPass("bad", steps)])
        with pytest.raises(PlanError):
            validate_plan(fresh(g), plan)


class TestFusability:
    def test_double_write_rejected_for_fast(self, geometry):
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("dup")
        slots = b.read(0, [0, 1], consume=False)
        b.write(1, [0], slots[: b.geometry.B])
        b.write(1, [0], slots[b.geometry.B :])
        plan = b.build()
        with pytest.raises(PlanError):
            execute_plan(fresh(g, simple_io=False), plan, engine="fast")
        # strict happily replays it (model rules permit overwrites
        # outside simple I/O)
        s = fresh(g, simple_io=False)
        execute_plan(s, plan, engine="strict")
        assert s.stats.parallel_writes == 2

    def test_read_write_overlap_rejected_for_fast(self, geometry):
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("overlap")
        slots = b.read(0, [0], consume=False)
        b.write(0, [0], slots)  # same portion, same block
        with pytest.raises(PlanError):
            execute_plan(fresh(g, simple_io=False), b.build(), engine="fast")

    def test_reread_of_consumed_block_rejected_for_fast(self, geometry):
        g = geometry
        steps = [
            IOStep("read", 0, [0], consume=True),
            IOStep("read", 0, [0], consume=False),
        ]
        plan = IOPlan(g, [PlanPass("bad", steps)])
        with pytest.raises(PlanError):
            execute_plan(fresh(g, simple_io=False), plan, engine="fast")


class TestSimpleIOParity:
    def test_reading_empty_block_raises_in_both(self, geometry):
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("bad-read")
        b.read(1, [0])  # portion 1 is empty
        plan = b.build()
        for engine in ENGINES:
            with pytest.raises(BlockStateError):
                execute_plan(fresh(g), plan, engine=engine)

    def test_writing_occupied_block_raises_in_both(self, geometry):
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("bad-write")
        slots = b.read(0, [0])
        b.write(0, [g.D], slots)  # portion 0 block D still holds records
        plan = b.build()
        for engine in ENGINES:
            with pytest.raises(BlockStateError):
                execute_plan(fresh(g), plan, engine=engine)

    def test_fast_raises_before_mutation(self, geometry):
        """Fast-mode structural validation fires before any state change."""
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("ok")
        slots = b.read_memoryload(0, 0)
        b.write_memoryload(1, 0, slots)
        b.begin_pass("conflict")
        plan = b.build()
        plan.passes[1].steps.append(IOStep("read", 0, [0, g.D]))  # same disk
        s = fresh(g)
        before = s.portion_values(0)
        with pytest.raises(DiskConflictError):
            execute_plan(s, plan, engine="fast")
        assert (s.portion_values(0) == before).all()
        assert s.stats.parallel_ios == 0


class TestDispatch:
    def test_unknown_engine(self, geometry):
        with pytest.raises(ValidationError):
            execute_plan(fresh(geometry), reverse_plan(geometry), engine="warp")

    def test_geometry_mismatch(self, geometry):
        other = DiskGeometry(N=2**11, B=2**3, D=2**2, M=2**7)
        with pytest.raises(ValidationError):
            execute_plan(fresh(other), reverse_plan(geometry))

    def test_fast_with_observers_still_delivers_events(self, geometry):
        g = geometry
        plan = reverse_plan(g)
        s = fresh(g)
        events = []
        s.add_observer(events.append)
        execute_plan(s, plan, engine="fast")  # falls back to strict
        assert len(events) == plan.parallel_ios
        reference = fresh(g)
        execute_plan(reference, plan, engine="strict")
        assert (s.portion_values(1) == reference.portion_values(1)).all()

