"""Tests for declarative I/O plans (:mod:`repro.pdm.schedule`)."""

import mmap

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import IOPlan, IOStep, PlanBuilder, PlanPass


@pytest.fixture
def geometry() -> DiskGeometry:
    return DiskGeometry(N=2**10, B=2**3, D=2**2, M=2**7)


class TestIOStep:
    def test_kind_validated(self):
        with pytest.raises(ValidationError):
            IOStep("move", 0, [0])

    def test_block_ids_coerced(self):
        step = IOStep("read", 0, [3, 1])
        assert step.block_ids.dtype == np.int64
        assert step.num_blocks == 2


class TestPlanBuilder:
    def test_read_returns_consecutive_slots(self, geometry):
        b = PlanBuilder(geometry)
        b.begin_pass("p")
        s1 = b.read(0, [0, 1])
        s2 = b.read(0, [4])
        assert list(s1) == list(range(2 * geometry.B))
        assert list(s2) == list(range(2 * geometry.B, 3 * geometry.B))

    def test_slots_reset_per_pass(self, geometry):
        b = PlanBuilder(geometry)
        b.begin_pass("p1")
        b.read(0, [0])
        b.begin_pass("p2")
        slots = b.read(0, [1])
        assert slots[0] == 0

    def test_step_before_pass_rejected(self, geometry):
        b = PlanBuilder(geometry)
        with pytest.raises(ValidationError):
            b.read(0, [0])

    def test_write_shape_checked(self, geometry):
        b = PlanBuilder(geometry)
        b.begin_pass("p")
        slots = b.read(0, [0, 1])
        with pytest.raises(ValidationError):
            b.write(1, [0, 1], slots[: geometry.B])  # half the records

    def test_write_of_unread_slots_rejected(self, geometry):
        b = PlanBuilder(geometry)
        b.begin_pass("p")
        b.read(0, [0])
        with pytest.raises(ValidationError):
            b.write(1, [0], np.arange(geometry.B) + geometry.B)  # beyond cursor

    def test_memoryload_sugar_round_trip(self, geometry):
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("p")
        slots = b.read_memoryload(0, 0)
        assert slots.shape == (g.M,)
        b.write_memoryload(1, 0, slots)
        plan = b.build()
        # M/BD striped reads + M/BD striped writes
        assert plan.parallel_ios == 2 * g.stripes_per_memoryload

    def test_memoryload_write_shape_checked(self, geometry):
        b = PlanBuilder(geometry)
        b.begin_pass("p")
        slots = b.read_memoryload(0, 0)
        with pytest.raises(ValidationError):
            b.write_memoryload(1, 0, slots[:-1])

    def test_memoryload_rounds_match_per_round_calls(self, geometry):
        """One ``memoryload_rounds`` call builds the same columns as
        per-round ``read_memoryload`` (or, given read ids, ``read``)
        then ``write`` calls, after an earlier read in the same pass
        too."""
        g = geometry
        rng = np.random.default_rng(7)
        rounds, k = g.num_memoryloads, g.stripes_per_memoryload
        for independent in (False, True):
            ids = rng.integers(0, g.num_blocks, size=(rounds, k, g.D))
            sources = np.stack(
                [rng.permutation(g.M).reshape(k, g.D * g.B) for _ in range(rounds)]
            )
            reads = (
                rng.integers(0, g.num_blocks, size=(rounds, k, g.D))
                if independent
                else None
            )
            looped, bulk = PlanBuilder(g), PlanBuilder(g)
            for b in (looped, bulk):
                b.begin_pass("p")
                b.read(2, [5])
            for ml in range(rounds):
                if independent:
                    first = looped.read(0, reads[ml, 0])[0]
                    for i in range(1, k):
                        looped.read(0, reads[ml, i])
                else:
                    first = looped.read_memoryload(0, ml)[0]
                for i in range(k):
                    looped.write(1, ids[ml, i], first + sources[ml, i])
            bulk.memoryload_rounds(0, 1, ids, sources, read_ids=reads)
            a = looped.build().passes[0].columns_if_fresh()
            c = bulk.build().passes[0].columns_if_fresh()
            for name in a.__slots__:
                x, y = getattr(a, name), getattr(c, name)
                assert np.array_equal(x, y), (independent, name)
                assert np.asarray(x).dtype == np.asarray(y).dtype, (independent, name)

    def test_memoryload_rounds_keep_no_caller_array(self, geometry):
        """The pass owns its block-id columns: changing the arrays handed
        to ``memoryload_rounds`` afterwards changes nothing built."""
        g = geometry
        rounds, k = g.num_memoryloads, g.stripes_per_memoryload
        ids = np.zeros((rounds, k, g.D), dtype=np.int64)
        reads = np.zeros((rounds, k, g.D), dtype=np.int64)
        sources = np.zeros((rounds, k, g.D * g.B), dtype=np.int64)
        b = PlanBuilder(g)
        b.begin_pass("p")
        b.memoryload_rounds(0, 1, ids, sources, read_ids=reads)
        c = b.build().passes[0].columns_if_fresh()
        ids += 1
        reads += 1
        assert not c.write_ids.any() and not c.read_ids.any()

    def test_write_source_column_has_its_own_mapping(self, geometry):
        """The write-source column ``memoryload_rounds`` builds lives in
        a memory map of its own, outside the malloc heap, so dropping
        the plan unmaps it."""
        g = geometry
        rounds, k = g.num_memoryloads, g.stripes_per_memoryload
        b = PlanBuilder(g)
        b.begin_pass("bulk")
        b.memoryload_rounds(
            0, 1,
            np.zeros((rounds, k, g.D), dtype=np.int64),
            np.zeros((rounds, k, g.D * g.B), dtype=np.int64),
        )
        column = b.build().passes[0].columns_if_fresh().write_source
        assert isinstance(column.base.obj, mmap.mmap)

    def test_memoryload_rounds_shapes_checked(self, geometry):
        g = geometry
        rounds, k = g.num_memoryloads, g.stripes_per_memoryload
        ids = np.zeros((rounds, k, g.D), dtype=np.int64)
        sources = np.zeros((rounds, k, g.D * g.B), dtype=np.int64)
        b = PlanBuilder(g)
        b.begin_pass("p")
        for bad_ids, bad_sources in (
            (ids[1:], sources[1:]),  # one round short
            (ids, sources[:, :, 1:]),  # a record short per write
            (ids, sources + g.M),  # slots past the round's reads
            (ids, sources - 1),  # negative slots
        ):
            with pytest.raises(ValidationError):
                b.memoryload_rounds(0, 1, bad_ids, bad_sources)
        for bad_reads in (
            ids[1:],  # one round short
            ids[:, 1:],  # one read short per round
            ids[:, :, 1:],  # a block short per read
            ids.reshape(rounds, -1),  # not one row per read
        ):
            with pytest.raises(ValidationError):
                b.memoryload_rounds(0, 1, ids, sources, read_ids=bad_reads)
        assert b.build().passes[0].num_steps == 0  # nothing was added


class TestIOPlan:
    def _one_pass_plan(self, g, label="p"):
        b = PlanBuilder(g)
        b.begin_pass(label)
        slots = b.read_memoryload(0, 0)
        b.write_memoryload(1, 0, slots)
        return b.build()

    def test_counts(self, geometry):
        g = geometry
        plan = self._one_pass_plan(g)
        assert plan.num_passes == 1
        assert plan.parallel_ios == plan.num_steps == 2 * g.stripes_per_memoryload
        assert plan.blocks_moved == 2 * g.blocks_per_memoryload

    def test_concatenate(self, geometry):
        p1 = self._one_pass_plan(geometry, "a")
        p2 = self._one_pass_plan(geometry, "b")
        combined = IOPlan.concatenate([p1, p2])
        assert combined.num_passes == 2
        assert [p.label for p in combined.passes] == ["a", "b"]

    def test_concatenate_empty_rejected(self):
        with pytest.raises(ValidationError):
            IOPlan.concatenate([])

    def test_extend_geometry_mismatch(self, geometry):
        other = DiskGeometry(N=2**11, B=2**3, D=2**2, M=2**7)
        p1 = self._one_pass_plan(geometry)
        p2 = self._one_pass_plan(other)
        with pytest.raises(ValidationError):
            p1.extend(p2)

    def test_describe_mentions_passes(self, geometry):
        plan = self._one_pass_plan(geometry, "my-pass")
        text = plan.describe()
        assert "my-pass" in text and "passes" in text

    def test_pass_block_counts(self, geometry):
        g = geometry
        plan = self._one_pass_plan(g)
        pas = plan.passes[0]
        assert isinstance(pas, PlanPass)
        assert pas.num_read_blocks == g.blocks_per_memoryload
        assert pas.num_write_blocks == g.blocks_per_memoryload


class TestComposeMerge:
    """Adjacent compatible passes merge on extend/concatenate; unmergeable
    label collisions are disambiguated instead of silently duplicated."""

    def _half_plan(self, g, ml, label="mld-half"):
        b = PlanBuilder(g)
        b.begin_pass(label)
        slots = b.read_memoryload(0, ml)
        b.write_memoryload(1, ml, slots)
        return b.build()

    def test_disjoint_same_label_passes_merge(self, geometry):
        g = geometry
        combined = self._half_plan(g, 0).extend(self._half_plan(g, 1))
        assert combined.num_passes == 1
        pas = combined.passes[0]
        assert pas.label == "mld-half"
        assert pas.num_read_blocks == 2 * g.blocks_per_memoryload
        assert combined.parallel_ios == 4 * g.stripes_per_memoryload

    def test_merged_plan_executes_like_unmerged(self, geometry):
        from repro.pdm.engine import ENGINES, execute_plan
        from repro.pdm.system import ParallelDiskSystem

        g = geometry
        merged = self._half_plan(g, 0).extend(self._half_plan(g, 1))
        unmerged = IOPlan(
            g, [self._half_plan(g, 0).passes[0], self._half_plan(g, 1).passes[0]]
        )
        assert unmerged.num_passes == 2
        outputs = []
        for plan in (merged, unmerged):
            for engine in ENGINES:
                s = ParallelDiskSystem(g)
                s.fill_identity(0)
                execute_plan(s, plan, engine=engine)
                outputs.append(s.portion_values(1))
                assert s.stats.parallel_ios == plan.parallel_ios
        for out in outputs[1:]:
            assert (out == outputs[0]).all()

    def test_ping_pong_passes_never_merge(self, geometry):
        """A pass re-reading what the previous one wrote must stay separate."""
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("p")
        slots = b.read_memoryload(0, 0)
        b.write_memoryload(1, 0, slots)
        first = b.build()
        b2 = PlanBuilder(g)
        b2.begin_pass("p")
        slots = b2.read_memoryload(1, 0)
        b2.write_memoryload(0, 0, slots)
        combined = first.extend(b2.build())
        assert combined.num_passes == 2

    def test_unmergeable_label_collision_disambiguated(self, geometry):
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("p")
        slots = b.read_memoryload(1, 0)
        b.write_memoryload(0, 0, slots)
        first_builder = PlanBuilder(g)
        first_builder.begin_pass("p")
        slots = first_builder.read_memoryload(0, 0)
        first_builder.write_memoryload(1, 0, slots)
        combined = first_builder.build().extend(b.build())
        assert [p.label for p in combined.passes] == ["p", "p@2"]

    def test_different_labels_unchanged(self, geometry):
        g = geometry
        combined = self._half_plan(g, 0, "a").extend(self._half_plan(g, 1, "b"))
        assert [p.label for p in combined.passes] == ["a", "b"]


class TestApplyTo:
    """``IOPlan.apply_to``: the plan's data movement on a bare portions
    array, which the distribution sort's planner simulates forward on."""

    @staticmethod
    def _canonical_portions(g):
        from repro.pdm.system import EMPTY

        portions = np.full((2, g.N), EMPTY, dtype=np.int64)
        portions[0] = np.arange(g.N)
        return portions

    def test_matches_engine_execution(self, geometry):
        from repro.pdm.engine import execute_plan
        from repro.pdm.system import ParallelDiskSystem

        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("flip")
        for stripe in range(g.num_stripes):
            slots = b.read_stripe(0, stripe)
            b.write_stripe(1, stripe, slots[::-1].copy())
        plan = b.build()
        system = ParallelDiskSystem(g)
        system.fill_identity(0)
        execute_plan(system, plan, engine="strict")
        portions = self._canonical_portions(g)
        plan.apply_to(portions)
        assert (portions[0] == system.portion_values(0)).all()
        assert (portions[1] == system.portion_values(1)).all()

    def test_consume_respects_simple_io_flag(self, geometry):
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("peek")
        b.read_stripe(0, 0, consume=False)
        plan = b.build()
        portions = self._canonical_portions(g)
        plan.apply_to(portions, simple_io=False)
        assert (portions[0] == np.arange(g.N)).all()  # nothing consumed
