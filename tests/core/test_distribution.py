"""Tests for the randomized-placement distribution sort baseline."""

import numpy as np
import pytest

from repro.bits.random import random_nonsingular
from repro.core.distribution import (
    DistributionSortResult,
    perform_distribution_sort,
    tune_parameters,
)
from repro.errors import ValidationError
from repro.pdm.geometry import DiskGeometry
from repro.pdm.system import ParallelDiskSystem
from repro.perms.base import ExplicitPermutation
from repro.perms.bmmc import BMMCPermutation
from repro.perms.library import bit_reversal, vector_reversal


@pytest.fixture
def geometry():
    return DiskGeometry(N=2**12, B=2**3, D=2**2, M=2**8)


def run(geometry, perm, **kwargs):
    s = ParallelDiskSystem(geometry)
    s.fill_identity(0)
    res = perform_distribution_sort(s, perm, **kwargs)
    ok = s.verify_permutation(perm, np.arange(geometry.N), res.final_portion)
    return s, res, ok


class TestTuning:
    def test_parameters_fit_memory(self, geometry):
        w, window = tune_parameters(geometry)
        g = geometry
        assert (1 << w) * g.B + window * g.B + (g.B + g.D) * g.B <= g.M
        assert w >= 1 and window >= 1

    def test_tight_memory_rejected(self):
        # B = 32, M = 64: pending cap alone exceeds M
        g = DiskGeometry(N=2**12, B=2**5, D=2**0, M=2**6)
        with pytest.raises(ValidationError):
            tune_parameters(g)

    def test_explicit_bad_params_rejected(self, geometry):
        s = ParallelDiskSystem(geometry)
        s.fill_identity(0)
        with pytest.raises(ValidationError):
            perform_distribution_sort(s, vector_reversal(geometry.n), digit_bits=0)


class TestCorrectness:
    def test_random_permutation(self, geometry):
        tv = np.random.default_rng(0).permutation(geometry.N)
        _, res, ok = run(geometry, ExplicitPermutation(tv))
        assert ok

    def test_bmmc(self, geometry):
        perm = BMMCPermutation(random_nonsingular(geometry.n, np.random.default_rng(1)))
        _, res, ok = run(geometry, perm)
        assert ok

    def test_identity(self, geometry):
        _, res, ok = run(geometry, ExplicitPermutation(np.arange(geometry.N)))
        assert ok

    def test_bit_reversal(self, geometry):
        _, res, ok = run(geometry, bit_reversal(geometry.n))
        assert ok

    def test_adversarial_stride(self, geometry):
        g = geometry
        tv = (np.arange(g.N) * 2049) % g.N
        _, res, ok = run(g, ExplicitPermutation(tv))
        assert ok

    def test_different_seeds_same_result(self, geometry):
        tv = np.random.default_rng(2).permutation(geometry.N)
        perm = ExplicitPermutation(tv)
        s1, r1, ok1 = run(geometry, perm, seed=1)
        s2, r2, ok2 = run(geometry, perm, seed=2)
        assert ok1 and ok2
        assert (
            s1.portion_values(r1.final_portion) == s2.portion_values(r2.final_portion)
        ).all()

    def test_agrees_with_merge_sort(self, geometry):
        from repro.core.general import perform_general_sort

        tv = np.random.default_rng(3).permutation(geometry.N)
        perm = ExplicitPermutation(tv)
        s1, r1, ok1 = run(geometry, perm)
        s2 = ParallelDiskSystem(geometry)
        s2.fill_identity(0)
        r2 = perform_general_sort(s2, perm)
        assert ok1
        assert (
            s1.portion_values(r1.final_portion) == s2.portion_values(r2.final_portion)
        ).all()


class TestIOBehaviour:
    def test_pass_count_formula(self, geometry):
        g = geometry
        tv = np.random.default_rng(4).permutation(g.N)
        _, res, ok = run(g, ExplicitPermutation(tv))
        expected = -(-(g.n - g.b) // res.digit_bits) + 1
        assert res.passes == expected

    def test_writes_perfectly_batched(self, geometry):
        """Write batching is deterministic: every flush moves D blocks
        except stragglers at pass end."""
        g = geometry
        tv = np.random.default_rng(5).permutation(g.N)
        s, res, ok = run(g, ExplicitPermutation(tv))
        blocks_written = s.stats.blocks_written
        # perfect batching would be blocks/D ops; allow pass-end stragglers
        assert res.write_ops <= blocks_written // g.D + res.passes * g.D

    def test_read_parallelism_reasonable(self, geometry):
        """Randomized placement keeps read batching well above 1 block/op."""
        g = geometry
        tv = np.random.default_rng(6).permutation(g.N)
        s, res, ok = run(g, ExplicitPermutation(tv))
        parallelism = res.blocks_per_pass_read / res.read_ops
        assert parallelism >= 0.6 * g.D

    def test_memory_respected(self, geometry):
        g = geometry
        tv = np.random.default_rng(7).permutation(g.N)
        s, res, ok = run(g, ExplicitPermutation(tv))
        assert s.memory.peak <= g.M
        s.memory.require_empty()

    def test_total_ios_close_to_ideal(self, geometry):
        """Total I/Os within 1.5x of the ideal passes * 2N/BD."""
        g = geometry
        tv = np.random.default_rng(8).permutation(g.N)
        _, res, ok = run(g, ExplicitPermutation(tv))
        ideal = res.passes * g.one_pass_ios
        assert res.parallel_ios <= 1.5 * ideal

    def test_single_disk_degenerate(self):
        """D = 1: no batching possible, but everything still works."""
        g = DiskGeometry(N=2**10, B=2**2, D=1, M=2**6)
        tv = np.random.default_rng(9).permutation(g.N)
        _, res, ok = run(g, ExplicitPermutation(tv))
        assert ok

    def test_wide_array(self):
        g = DiskGeometry(N=2**12, B=2**2, D=2**3, M=2**9)
        tv = np.random.default_rng(10).permutation(g.N)
        _, res, ok = run(g, ExplicitPermutation(tv))
        assert ok


class TestExplicitParameters:
    def test_explicit_digit_bits(self, geometry):
        tv = np.random.default_rng(11).permutation(geometry.N)
        _, res, ok = run(geometry, ExplicitPermutation(tv), digit_bits=2)
        assert ok and res.digit_bits == 2
        assert res.passes == -(-(geometry.n - geometry.b) // 2) + 1

    def test_minimal_prefetch_window(self, geometry):
        """window=1 degrades read batching to one block per op but stays
        correct -- the worst-case schedule."""
        tv = np.random.default_rng(12).permutation(geometry.N)
        s, res, ok = run(geometry, ExplicitPermutation(tv), prefetch_window=1)
        assert ok
        # every read moves exactly one block
        assert res.blocks_per_pass_read == res.read_ops


class TestStagedPort:
    """The plan/engine port: knobs, meta, and the no-direct-I/O guarantee."""

    def test_module_performs_no_direct_io(self):
        """Acceptance guard: `core/distribution.py` never calls the
        simulator's I/O methods -- all data movement flows through
        the IOPlan executed by the engines."""
        import inspect

        import repro.core.distribution as module

        source = inspect.getsource(module)
        for forbidden in (
            "system.read_blocks", "system.write_blocks",
            "system.read_stripe", "system.write_stripe",
            "system.read_memoryload", "system.write_memoryload",
            ".memory.allocate", ".memory.release",
            "stats.begin_pass", "stats.end_pass",
        ):
            assert forbidden not in source, forbidden

    def test_plan_distribution_sort_meta(self, geometry):
        from repro.core.distribution import plan_distribution_sort

        g = geometry
        plan = plan_distribution_sort(
            g, vector_reversal(g.n), np.arange(g.N), digit_bits=2
        )
        expected_passes = -(-(g.n - g.b) // 2) + 1
        assert plan.passes == plan.io_plan.num_passes == expected_passes
        assert plan.digit_bits == 2
        assert plan.final_portion in (0, 1)

    def test_engine_parity(self, geometry):
        tv = np.random.default_rng(20).permutation(geometry.N)
        perm = ExplicitPermutation(tv)
        s1, r1, ok1 = run(geometry, perm, seed=4, engine="strict")
        s2, r2, ok2 = run(geometry, perm, seed=4, engine="fast")
        assert ok1 and ok2
        assert s1.stats.snapshot() == s2.stats.snapshot()
        assert (s1.portion_values(0) == s2.portion_values(0)).all()
        assert (s1.portion_values(1) == s2.portion_values(1)).all()
        assert s1.memory.peak == s2.memory.peak

    def test_optimized_cached_run_verifies(self, geometry):
        from repro.pdm.cache import PlanCache

        tv = np.random.default_rng(21).permutation(geometry.N)
        perm = ExplicitPermutation(tv)
        cache = PlanCache()
        for expected_hits in (0, 1):
            s, res, ok = run(geometry, perm, seed=4, engine="fast", cache=cache)
            assert ok
            assert cache.info().hits == expected_hits

    def test_runner_threads_knobs_to_distribution(self, geometry):
        from repro.core.runner import perform_permutation
        from repro.pdm.cache import PlanCache

        g = geometry
        tv = np.random.default_rng(22).permutation(g.N)
        perm = ExplicitPermutation(tv)
        cache = PlanCache()
        reports = []
        for _ in range(2):
            s = ParallelDiskSystem(g)
            s.fill_identity(0)
            reports.append(
                perform_permutation(
                    s, perm, method="distribution", engine="fast", cache=cache
                )
            )
        assert all(r.verified for r in reports)
        assert reports[0].io == reports[1].io
        assert cache.info().hits == 1
