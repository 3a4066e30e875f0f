"""Unit tests for the ParallelDiskSystem simulator: I/O rules and accounting."""

import numpy as np
import pytest

from repro.errors import (
    BlockStateError,
    DiskConflictError,
    MemoryCapacityError,
    ValidationError,
)
from repro.pdm.geometry import DiskGeometry
from repro.pdm.system import EMPTY, ParallelDiskSystem


@pytest.fixture
def system():
    g = DiskGeometry(N=1024, B=8, D=4, M=128)
    s = ParallelDiskSystem(g, portions=2)
    s.fill_identity(0)
    return s


class TestFill:
    def test_identity(self, system):
        assert (system.portion_values(0) == np.arange(1024)).all()
        # a numeric payload system: the addresses cast to its dtype
        c = ParallelDiskSystem(system.geometry, dtype=np.complex128, empty=np.nan)
        c.fill_identity(0)
        values = c.portion_values(0)
        assert values.dtype == np.complex128
        assert (values == np.arange(1024)).all()
        assert np.isnan(c.portion_values(1)).all()

    def test_other_portion_empty(self, system):
        assert (system.portion_values(1) == EMPTY).all()

    def test_fill_values(self, system):
        system.fill(1, np.arange(1024)[::-1])
        assert system.portion_values(1)[0] == 1023

    def test_fill_wrong_size_rejected(self, system):
        with pytest.raises(ValidationError):
            system.fill(0, np.arange(100))

    def test_clear(self, system):
        system.clear(0)
        assert (system.portion_values(0) == EMPTY).all()


class TestReadBlocks:
    def test_contents_in_request_order(self, system):
        vals = system.read_blocks(0, [5, 2])
        assert (vals[0] == np.arange(40, 48)).all()
        assert (vals[1] == np.arange(16, 24)).all()

    def test_consumes_under_simple_io(self, system):
        system.read_blocks(0, [0])
        assert (system.block_values(0, 0) == EMPTY).all()

    def test_memory_allocated(self, system):
        system.read_blocks(0, [0, 1])
        assert system.memory.in_use == 16

    def test_reread_consumed_block_raises(self, system):
        system.read_blocks(0, [0])
        with pytest.raises(BlockStateError):
            system.read_blocks(0, [0])

    def test_non_consuming_read(self, system):
        system.read_blocks(0, [0], consume=False)
        system.memory.release(8)
        vals = system.read_blocks(0, [0], consume=False)
        assert (vals[0] == np.arange(8)).all()

    def test_same_disk_conflict(self, system):
        # blocks 0 and 4 both live on disk 0 (D=4)
        with pytest.raises(DiskConflictError):
            system.read_blocks(0, [0, 4])

    def test_too_many_blocks(self, system):
        with pytest.raises(DiskConflictError):
            system.read_blocks(0, [0, 1, 2, 3, 5])

    def test_empty_request_rejected(self, system):
        with pytest.raises(ValidationError):
            system.read_blocks(0, [])

    def test_out_of_range_block(self, system):
        with pytest.raises(ValidationError):
            system.read_blocks(0, [128])

    def test_bad_portion(self, system):
        with pytest.raises(ValidationError):
            system.read_blocks(7, [0])

    def test_memory_capacity_enforced(self):
        g = DiskGeometry(N=1024, B=8, D=4, M=64)
        s = ParallelDiskSystem(g)
        s.fill_identity(0)
        s.read_stripe(0, 0)
        s.read_stripe(0, 1)
        with pytest.raises(MemoryCapacityError):
            s.read_stripe(0, 2)


class TestWriteBlocks:
    def test_write_then_peek(self, system):
        vals = system.read_blocks(0, [0, 1])
        system.write_blocks(1, [0, 1], vals)
        assert (system.block_values(1, 0) == np.arange(8)).all()

    def test_memory_released(self, system):
        vals = system.read_blocks(0, [0])
        system.write_blocks(1, [0], vals)
        assert system.memory.in_use == 0

    def test_write_occupied_raises_under_simple_io(self, system):
        vals = system.read_blocks(0, [0, 1])
        system.write_blocks(1, [0], vals[:1])
        with pytest.raises(BlockStateError):
            system.write_blocks(1, [0], vals[1:])

    def test_write_shape_validated(self, system):
        system.read_blocks(0, [0])
        with pytest.raises(ValidationError):
            system.write_blocks(1, [0], np.zeros((1, 4)))

    def test_write_same_disk_conflict(self, system):
        vals = system.read_blocks(0, [0, 1])
        with pytest.raises(DiskConflictError):
            system.write_blocks(1, [0, 4], vals)

    def test_write_without_reading_underflows_memory(self, system):
        with pytest.raises(MemoryCapacityError):
            system.write_blocks(1, [0], np.zeros((1, 8)))


class TestFloatSentinels:
    """The empty test follows the sentinel, not the dtype: a NaN
    sentinel is found by isnan, any other by equality."""

    @pytest.mark.parametrize("empty", [np.nan, -1.0], ids=["nan", "minus-one"])
    def test_empty_blocks_are_empty(self, empty):
        g = DiskGeometry(N=1024, B=8, D=4, M=128)
        s = ParallelDiskSystem(g, dtype=np.float64, empty=empty)
        with pytest.raises(BlockStateError):
            s.read_blocks(0, [0])  # never filled
        s.fill_identity(0)
        vals = s.read_blocks(0, [0, 1])
        s.write_blocks(1, [0, 1], vals)  # portion 1 was built empty
        assert (s.block_values(1, 1) == np.arange(8, 16)).all()
        with pytest.raises(BlockStateError):
            s.read_blocks(0, [0])  # consumed by the first read
        with pytest.raises(BlockStateError):
            s.write_blocks(1, [0], vals[:1])  # written above


class TestStripedOps:
    def test_read_stripe_shape_and_order(self, system):
        vals = system.read_stripe(0, 1)
        assert vals.shape == (4, 8)
        assert (vals.reshape(-1) == np.arange(32, 64)).all()

    def test_stripe_classified_striped(self, system):
        system.read_stripe(0, 0)
        assert system.stats.striped_reads == 1
        assert system.stats.independent_reads == 0

    def test_partial_op_classified_independent(self, system):
        system.read_blocks(0, [0, 1])  # two blocks of stripe 0: not full-D
        assert system.stats.independent_reads == 1

    def test_cross_stripe_classified_independent(self, system):
        system.read_blocks(0, [0, 5, 10, 15])  # distinct disks, distinct stripes
        assert system.stats.independent_reads == 1

    def test_write_stripe(self, system):
        vals = system.read_stripe(0, 0)
        system.write_stripe(1, 3, vals)
        assert system.stats.striped_writes == 1
        assert (system.portion_values(1)[96:128] == np.arange(32)).all()

    def test_read_memoryload(self, system):
        vals = system.read_memoryload(0, 1)
        assert vals.shape == (128,)
        assert (vals == np.arange(128, 256)).all()
        assert system.stats.parallel_reads == 4  # M/BD striped reads

    def test_write_memoryload(self, system):
        vals = system.read_memoryload(0, 0)
        system.write_memoryload(1, 2, vals)
        assert (system.portion_values(1)[256:384] == np.arange(128)).all()
        assert system.memory.in_use == 0

    def test_write_memoryload_shape_checked(self, system):
        with pytest.raises(ValidationError):
            system.write_memoryload(1, 0, np.zeros(64))


class TestVerifyAndPeek:
    def test_verify_permutation(self, system):
        from repro.perms.library import vector_reversal

        g = system.geometry
        perm = vector_reversal(g.n)
        # manually place reversed data in portion 1
        placed = np.arange(g.N)[::-1].copy()
        system.fill(1, placed)
        assert system.verify_permutation(perm, np.arange(g.N), 1)
        # the same result with two records swapped must not verify
        i, j = g.N // 3, g.N // 3 + 1
        placed[[i, j]] = placed[[j, i]]
        system.fill(1, placed)
        assert not system.verify_permutation(perm, np.arange(g.N), 1)

    def test_verify_detects_wrong_result(self, system):
        from repro.perms.library import vector_reversal

        g = system.geometry
        system.fill(1, np.arange(g.N))  # identity layout is NOT the reversal
        assert not system.verify_permutation(vector_reversal(g.n), np.arange(g.N), 1)

    def test_peek_does_not_count_io(self, system):
        before = system.stats.parallel_ios
        system.peek(0, 0, 64)
        assert system.stats.parallel_ios == before

    def test_observer_events(self, system):
        events = []
        system.add_observer(events.append)
        vals = system.read_stripe(0, 0)
        system.write_stripe(1, 0, vals)
        assert [e.kind for e in events] == ["read", "write"]
        system.remove_observer(events.append)
