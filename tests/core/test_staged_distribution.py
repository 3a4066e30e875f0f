"""The distribution sort's planner vs the hand-written performer,
property-tested.

The planner must be a *perfect* port: for any permutation, seed, and
geometry, executing its one static plan reproduces the pre-port direct
implementation (kept verbatim in ``tests/core/reference_distribution``)
record for record -- portions, pass count ``T + 1``, I/O counters and
pass tables, memory peaks, and the per-operation I/O trace (which pins
the randomized placement map: identical block ids written in identical
order means identical placements).  Seeds are part of the contract:
same seed means the same schedule, different seeds may differ.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import (
    perform_distribution_sort,
    plan_distribution_sort,
)
from repro.errors import ValidationError
from repro.pdm.geometry import DiskGeometry
from repro.pdm.system import ParallelDiskSystem
from repro.perms.base import ExplicitPermutation

from tests.core.reference_distribution import reference_distribution_sort


def dist_geometry_strategy():
    """Small geometries the distribution sort can tune itself to."""

    def build(b, d, extra_m, extra_n):
        m = max(b + 1, b + d, 4) + extra_m
        n = m + extra_n
        return DiskGeometry(N=2**n, B=2**b, D=2**d, M=2**m)

    def tunable(g):
        from repro.core.distribution import tune_parameters

        try:
            tune_parameters(g)
        except ValidationError:
            return False
        return True

    return st.builds(
        build,
        st.integers(0, 3),  # b
        st.integers(0, 2),  # d
        st.integers(0, 2),  # extra memory headroom
        st.integers(1, 3),  # n - m
    ).filter(tunable)


def fresh(g):
    s = ParallelDiskSystem(g)
    s.fill_identity(0)
    return s


def record_trace(system, into):
    system.add_observer(
        lambda e: into.append((e.kind, e.portion, tuple(int(b) for b in e.block_ids)))
    )


@given(dist_geometry_strategy(), st.integers(0, 2**31), st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_staged_equals_direct_simulator_execution(geometry, perm_seed, seed):
    """Random permutations + seeds: planned execution == direct execution.

    Portions, pass count ``T + 1``, stats, memory peaks, and the full
    I/O trace must coincide; the trace equality also proves the
    planner consumed the RNG identically, i.e. produced the same
    randomized placement map.
    """
    g = geometry
    perm = ExplicitPermutation(np.random.default_rng(perm_seed).permutation(g.N))

    direct, direct_trace = fresh(g), []
    record_trace(direct, direct_trace)
    ref = reference_distribution_sort(direct, perm, seed=seed)

    staged, staged_trace = fresh(g), []
    record_trace(staged, staged_trace)
    res = perform_distribution_sort(staged, perm, seed=seed, engine="strict")

    expected_passes = -(-(g.n - g.b) // ref.digit_bits) + 1
    assert res.passes == ref.passes == expected_passes  # T + 1
    assert res.__dict__ == ref.__dict__
    for portion in range(2):
        assert (direct.portion_values(portion) == staged.portion_values(portion)).all()
    assert direct.stats.snapshot() == staged.stats.snapshot()
    assert direct.stats.passes == staged.stats.passes
    assert direct.memory.peak == staged.memory.peak
    assert direct.memory.in_use == staged.memory.in_use == 0
    assert staged_trace == direct_trace
    assert staged.verify_permutation(perm, np.arange(g.N), res.final_portion)


@given(dist_geometry_strategy(), st.integers(0, 2**31), st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_staged_fast_engine_equals_direct(geometry, perm_seed, seed):
    """The same oracle holds when the plan executes fused."""
    g = geometry
    perm = ExplicitPermutation(np.random.default_rng(perm_seed).permutation(g.N))
    direct = fresh(g)
    ref = reference_distribution_sort(direct, perm, seed=seed)
    staged = fresh(g)
    res = perform_distribution_sort(staged, perm, seed=seed, engine="fast")
    assert res.__dict__ == ref.__dict__
    for portion in range(2):
        assert (direct.portion_values(portion) == staged.portion_values(portion)).all()
    assert direct.stats.snapshot() == staged.stats.snapshot()
    assert direct.memory.peak == staged.memory.peak


class TestSeedDeterminism:
    """Same seed => identical placement map and I/O trace."""

    @pytest.fixture
    def geometry(self):
        return DiskGeometry(N=2**12, B=2**3, D=2**2, M=2**8)

    def materialized_schedule(self, g, perm, seed):
        plan = plan_distribution_sort(g, perm, np.arange(g.N), seed=seed).io_plan
        schedule = []
        for pas in plan.passes:
            c = pas._ensure_columns(g.B)
            schedule.append(
                (
                    pas.label,
                    c.read_ids.tobytes(),
                    c.write_ids.tobytes(),
                    c.write_source.tobytes(),
                )
            )
        return schedule

    def test_same_seed_same_schedule(self, geometry):
        g = geometry
        perm = ExplicitPermutation(np.random.default_rng(5).permutation(g.N))
        assert self.materialized_schedule(g, perm, 42) == self.materialized_schedule(
            g, perm, 42
        )

    def test_different_seed_different_placements(self, geometry):
        g = geometry
        perm = ExplicitPermutation(np.random.default_rng(5).permutation(g.N))
        a = self.materialized_schedule(g, perm, 1)
        b = self.materialized_schedule(g, perm, 2)
        # placements are randomized per seed: the written block ids of
        # the first digit pass almost surely differ
        assert a != b

    def test_same_seed_identical_io_trace(self, geometry):
        g = geometry
        perm = ExplicitPermutation(np.random.default_rng(6).permutation(g.N))
        traces = []
        for _ in range(2):
            s, trace = fresh(g), []
            record_trace(s, trace)
            perform_distribution_sort(s, perm, seed=9, engine="strict")
            traces.append(trace)
        assert traces[0] == traces[1]

    def test_materialized_plan_equals_staged_execution(self, geometry):
        """Cached path (planned from the canonical source, compiled, run
        cold then warm) == uncached path (planned from the system's
        source), under both engines."""
        from repro.pdm.cache import PlanCache

        g = geometry
        perm = ExplicitPermutation(np.random.default_rng(7).permutation(g.N))
        for engine in ("strict", "fast"):
            uncached = fresh(g)
            want = perform_distribution_sort(uncached, perm, seed=3, engine=engine)
            cache = PlanCache()
            for expected_hits in (0, 1):
                cached = fresh(g)
                got = perform_distribution_sort(
                    cached, perm, seed=3, engine=engine, cache=cache
                )
                assert cache.info().hits == expected_hits
                assert got == want
                for portion in range(2):
                    assert (
                        uncached.portion_values(portion)
                        == cached.portion_values(portion)
                    ).all()
                assert uncached.stats.snapshot() == cached.stats.snapshot()
                assert uncached.stats.passes == cached.stats.passes
                assert uncached.memory.peak == cached.memory.peak
