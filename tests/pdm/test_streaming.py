"""Streaming fast execution, discard reads, and ExecReport plumbing."""

import tracemalloc

import numpy as np
import pytest

from repro.bits.random import random_mld_matrix
from repro.core.bmmc_algorithm import plan_bmmc_io, plan_bmmc_passes
from repro.core.mld_algorithm import plan_mld_pass
from repro.errors import PlanError
from repro.pdm.engine import execute_plan, validate_plan
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import PlanBuilder
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


def assert_equivalent(a, b):
    for portion in range(a.num_portions):
        assert (a.portion_values(portion) == b.portion_values(portion)).all()
    assert a.stats.snapshot() == b.stats.snapshot()
    assert [p for p in a.stats.passes] == [p for p in b.stats.passes]
    assert a.memory.peak == b.memory.peak
    assert a.memory.in_use == b.memory.in_use


class TestStreaming:
    def test_streamed_mld_equals_strict(self, geometry):
        g = geometry
        perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, np.random.default_rng(0)))
        plan = plan_mld_pass(g, perm)
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g)
        report = execute_plan(fast, plan, engine="fast", stream_records=g.M)
        assert report.streamed_passes == 1
        assert report.host_peak_records <= g.M
        assert_equivalent(strict, fast)
        assert fast.verify_permutation(perm, np.arange(g.N), 1)

    def test_streamed_multi_pass_bmmc(self, geometry):
        g = geometry
        rev = bit_reversal(g.n)
        plan, final = plan_bmmc_io(g, plan_bmmc_passes(rev, g))
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g)
        report = execute_plan(fast, plan, engine="fast", stream_records=g.M)
        assert report.streamed_passes == plan.num_passes
        assert report.host_peak_records < g.N  # below one full read stream
        assert_equivalent(strict, fast)
        assert fast.verify_permutation(rev, np.arange(g.N), final)

    def test_streamed_unit_composes_no_pull_index(self):
        """A budget below N streams a whole-portion unit member by member,
        so the unit's N-entry pull index is never composed: the traced
        peak of a streamed execution is at most half an unstreamed one's,
        which composes that index on its gather."""
        g = DiskGeometry(N=2**14, B=2**3, D=2**2, M=2**7)
        perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, np.random.default_rng(0)))
        plan = plan_mld_pass(g, perm)
        peaks = {}
        for budget in (g.M, 0):
            # A first execution builds the plan's fused metadata.
            execute_plan(fresh(g), plan, engine="fast", stream_records=budget)
            s = fresh(g)
            tracemalloc.start()
            try:
                execute_plan(s, plan, engine="fast", stream_records=budget)
                peaks[budget] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert s.verify_permutation(perm, np.arange(g.N), 1)
        assert peaks[g.M] <= peaks[0] / 2, peaks

    def test_first_streamed_execution_keeps_no_n_entry_array(self):
        """A fresh plan's first streamed execution fuses its pass, and a
        fused pass keeps block ids, not record addresses.  So it may
        trace at most 12 bytes per record of N (one more N-entry int64
        array breaks that) on top of the 40 bytes per budget record a
        streamed execution holds.  A first plan runs untraced, so
        first-use allocations are not counted."""
        g = DiskGeometry(N=2**16, B=2**3, D=2**2, M=2**7)
        budget = 2**12
        rng = np.random.default_rng(0)
        perms = [
            BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, rng)) for _ in range(2)
        ]
        warm = plan_mld_pass(g, perms[0])
        execute_plan(fresh(g), warm, engine="fast", stream_records=budget)
        plan = plan_mld_pass(g, perms[1])
        s = fresh(g)
        tracemalloc.start()
        try:
            report = execute_plan(s, plan, engine="fast", stream_records=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.streamed_passes == 1
        assert report.host_peak_records <= budget
        assert s.verify_permutation(perms[1], np.arange(g.N), 1)
        assert peak <= 12 * g.N + 40 * budget, f"{peak / g.N:.1f} bytes per record"

    def test_budget_sweep_all_equivalent(self, geometry):
        g = geometry
        perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, np.random.default_rng(1)))
        plan = plan_mld_pass(g, perm)
        reference = fresh(g)
        execute_plan(reference, plan, engine="strict")
        for budget in (g.records_per_stripe, g.M, 3 * g.M // 2, g.N, 0):
            s = fresh(g)
            execute_plan(s, plan, engine="fast", stream_records=budget)
            assert_equivalent(reference, s)

    def test_liveness_floor_beats_tiny_budget(self, geometry):
        """A budget below the live set still executes (chunks at liveness)."""
        g = geometry
        perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, np.random.default_rng(2)))
        plan = plan_mld_pass(g, perm)
        reference = fresh(g)
        execute_plan(reference, plan, engine="strict")
        s = fresh(g)
        report = execute_plan(s, plan, engine="fast", stream_records=1)
        # MLD retires a memoryload at a time: the floor is M records
        assert report.host_peak_records == g.M
        assert_equivalent(reference, s)

    def test_zero_disables_streaming(self, geometry):
        g = geometry
        perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, np.random.default_rng(3)))
        plan = plan_mld_pass(g, perm)
        s = fresh(g)
        report = execute_plan(s, plan, engine="fast", stream_records=0)
        assert report.streamed_passes == 0
        assert report.host_peak_records == g.N


class TestStrictStreaming:
    """Strict replay recycles its host buffer at liveness boundaries."""

    def test_strict_streamed_equals_unstreamed(self, geometry):
        g = geometry
        perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, np.random.default_rng(6)))
        plan = plan_mld_pass(g, perm)
        whole = fresh(g)
        execute_plan(whole, plan, engine="strict", stream_records=0)
        streamed = fresh(g)
        report = execute_plan(streamed, plan, engine="strict", stream_records=g.M)
        assert report.engine == "strict"
        assert report.streamed_passes == 1
        assert report.host_peak_records <= g.M  # not O(N)
        assert_equivalent(whole, streamed)
        assert streamed.verify_permutation(perm, np.arange(g.N), 1)

    def test_strict_and_fast_streamed_agree(self, geometry):
        g = geometry
        rev = bit_reversal(g.n)
        plan, final = plan_bmmc_io(g, plan_bmmc_passes(rev, g))
        strict = fresh(g)
        rs = execute_plan(strict, plan, engine="strict", stream_records=g.M)
        fast = fresh(g)
        rf = execute_plan(fast, plan, engine="fast", stream_records=g.M)
        assert rs.streamed_passes == rf.streamed_passes == plan.num_passes
        assert rs.host_peak_records == rf.host_peak_records
        assert_equivalent(strict, fast)
        assert strict.verify_permutation(rev, np.arange(g.N), final)

    def test_strict_streaming_keeps_observer_events(self, geometry):
        """Streaming only changes host buffering, not the I/O sequence."""
        g = geometry
        perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, np.random.default_rng(7)))
        plan = plan_mld_pass(g, perm)
        traces = []
        for budget in (0, g.M):
            s = fresh(g)
            events = []
            s.add_observer(
                lambda e, events=events: events.append(
                    (e.kind, e.portion, tuple(e.block_ids))
                )
            )
            execute_plan(s, plan, engine="strict", stream_records=budget)
            traces.append(events)
        assert traces[0] == traces[1]

    def test_strict_liveness_floor(self, geometry):
        """A sub-live-set budget chunks at liveness, like fast mode."""
        g = geometry
        perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, np.random.default_rng(8)))
        plan = plan_mld_pass(g, perm)
        reference = fresh(g)
        execute_plan(reference, plan, engine="strict", stream_records=0)
        s = fresh(g)
        report = execute_plan(s, plan, engine="strict", stream_records=1)
        assert report.host_peak_records == g.M  # MLD retires per memoryload
        assert_equivalent(reference, s)

    def test_strict_zero_disables_streaming(self, geometry):
        g = geometry
        perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, np.random.default_rng(9)))
        plan = plan_mld_pass(g, perm)
        report = execute_plan(fresh(g), plan, engine="strict", stream_records=0)
        assert report.streamed_passes == 0
        assert report.host_peak_records == g.N


class TestCapture:
    def test_capture_returns_pass_streams(self, geometry):
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("peek")
        b.read_stripe(0, 0, consume=False)
        b.read_stripe(0, 1, consume=False)
        plan = b.build()
        for engine in ("strict", "fast"):
            s = fresh(g, simple_io=False)
            report = execute_plan(s, plan, engine=engine, capture=True)
            assert len(report.streams) == 1
            assert (
                report.streams[0] == np.arange(2 * g.records_per_stripe)
            ).all()

    def test_capture_one_stream_per_pass(self, geometry):
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("one")
        b.read_stripe(0, 0, consume=False)
        b.begin_pass("two")
        b.read_stripe(0, 1, consume=False)
        s = fresh(g, simple_io=False)
        report = execute_plan(s, b.build(), engine="fast", capture=True)
        assert len(report.streams) == 2
        assert report.streams[1][0] == g.records_per_stripe


class TestDiscardReads:
    def scan_plan(self, g, stripes=None):
        b = PlanBuilder(g)
        b.begin_pass("scan")
        for stripe in range(stripes if stripes is not None else g.num_stripes):
            b.read_stripe(0, stripe, consume=False, discard=True)
        return b.build()

    def test_whole_portion_scan_fits_memory(self, geometry):
        """N > M records scanned with discarding reads: no capacity error."""
        g = geometry
        plan = self.scan_plan(g)
        check = validate_plan(fresh(g, simple_io=False), plan)
        assert check.peak_memory_records == g.records_per_stripe
        for engine in ("strict", "fast"):
            s = fresh(g, simple_io=False)
            execute_plan(s, plan, engine=engine)
            assert s.memory.in_use == 0
            assert s.memory.peak == g.records_per_stripe
            assert s.stats.parallel_reads == g.num_stripes

    def test_strict_and_fast_agree(self, geometry):
        g = geometry
        plan = self.scan_plan(g, stripes=4)
        strict = fresh(g, simple_io=False)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g, simple_io=False)
        execute_plan(fast, plan, engine="fast")
        assert_equivalent(strict, fast)

    def test_write_sourcing_discarded_slots_rejected(self, geometry):
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("bad")
        slots = b.read_stripe(0, 0, consume=False, discard=True)
        b.write_stripe(1, 0, slots)
        with pytest.raises(PlanError):
            validate_plan(fresh(g, simple_io=False), b.build())


class TestExecReport:
    def test_strict_reports_full_stream_peak(self, geometry):
        g = geometry
        perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, np.random.default_rng(4)))
        plan = plan_mld_pass(g, perm)
        report = execute_plan(fresh(g), plan, engine="strict")
        assert report.engine == "strict"
        assert report.host_peak_records == g.N

    def test_observer_fallback_flagged(self, geometry):
        g = geometry
        perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, np.random.default_rng(5)))
        plan = plan_mld_pass(g, perm)
        s = fresh(g)
        s.add_observer(lambda event: None)
        report = execute_plan(s, plan, engine="fast")
        assert report.engine == "strict"
        assert report.fell_back == "observers"
