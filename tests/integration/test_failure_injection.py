"""Failure injection: the simulator and algorithms must fail loudly.

Every hard rule of the model (one block per disk, M-record memory,
simple-I/O block states) and every class precondition must raise a
specific library exception rather than corrupting data.
"""

import numpy as np
import pytest

from repro.bits.matrix import BitMatrix
from repro.bits.random import random_nonsingular
from repro.errors import (
    BlockStateError,
    DiskConflictError,
    MemoryCapacityError,
    NotInClassError,
    SingularMatrixError,
    ValidationError,
)
from repro.pdm.geometry import DiskGeometry
from repro.pdm.system import ParallelDiskSystem
from repro.perms.bmmc import BMMCPermutation


@pytest.fixture
def geometry():
    return DiskGeometry(N=2**10, B=2**3, D=2**2, M=2**6)


@pytest.fixture
def system(geometry):
    s = ParallelDiskSystem(geometry)
    s.fill_identity(0)
    return s


class TestModelRuleViolations:
    def test_two_blocks_one_disk(self, system):
        with pytest.raises(DiskConflictError):
            system.read_blocks(0, [0, 4])

    def test_write_conflict(self, system):
        vals = system.read_blocks(0, [0, 1])
        with pytest.raises(DiskConflictError):
            system.write_blocks(1, [1, 5], vals)

    def test_memory_overflow_on_read(self, geometry):
        s = ParallelDiskSystem(geometry)
        s.fill_identity(0)
        # M = 64, stripe = 32 records: third stripe read must fail
        s.read_stripe(0, 0)
        s.read_stripe(0, 1)
        with pytest.raises(MemoryCapacityError):
            s.read_stripe(0, 2)

    def test_double_read_consumed_block(self, system):
        system.read_blocks(0, [0])
        with pytest.raises(BlockStateError):
            system.read_blocks(0, [0])

    def test_double_write_same_block(self, system):
        vals = system.read_blocks(0, [0, 1])
        system.write_blocks(1, [0], vals[:1])
        with pytest.raises(BlockStateError):
            system.write_blocks(1, [0], vals[1:])

    def test_reading_empty_portion(self, system):
        with pytest.raises(BlockStateError):
            system.read_blocks(1, [0])

    def test_memory_underflow_on_unmatched_write(self, system):
        with pytest.raises(MemoryCapacityError):
            system.write_blocks(1, [0], np.zeros((1, system.geometry.B)))


class TestAlgorithmPreconditions:
    def test_singular_matrix_rejected_at_construction(self):
        singular = BitMatrix.from_rows([[1, 1], [1, 1]])
        with pytest.raises(SingularMatrixError):
            BMMCPermutation(singular)

    def test_mrc_performer_rejects_non_mrc(self, system, geometry):
        g = geometry
        from repro.core.mrc_algorithm import perform_mrc_pass
        from repro.perms.mrc import is_mrc

        rng = np.random.default_rng(0)
        for _ in range(100):
            a = random_nonsingular(g.n, rng)
            if not is_mrc(a, g.m):
                break
        with pytest.raises(NotInClassError):
            perform_mrc_pass(system, BMMCPermutation(a), 0, 1)

    def test_mld_performer_rejects_non_mld(self, system, geometry):
        g = geometry
        from repro.core.mld_algorithm import perform_mld_pass
        from repro.perms.mld import is_mld

        rng = np.random.default_rng(1)
        for _ in range(200):
            a = random_nonsingular(g.n, rng)
            if not is_mld(a, g.b, g.m):
                break
        with pytest.raises(NotInClassError):
            perform_mld_pass(system, BMMCPermutation(a), 0, 1)

    def test_factoring_rejects_degenerate_sections(self, geometry):
        from repro.core.factoring import factor_bmmc

        a = random_nonsingular(8, np.random.default_rng(2))
        with pytest.raises(ValidationError):
            factor_bmmc(a, 5, 5)  # m == b

    def test_plan_rejects_wrong_size(self, geometry):
        from repro.core.bmmc_algorithm import plan_bmmc_passes

        perm = BMMCPermutation(random_nonsingular(geometry.n + 2, np.random.default_rng(3)))
        with pytest.raises(ValidationError):
            plan_bmmc_passes(perm, geometry)

    def test_general_sort_memory_precondition(self):
        from repro.core.general import perform_general_sort
        from repro.perms.library import vector_reversal

        g = DiskGeometry(N=2**10, B=2**3, D=2**3, M=2**7)  # M = 2BD: too tight
        s = ParallelDiskSystem(g)
        s.fill_identity(0)
        with pytest.raises(ValidationError):
            perform_general_sort(s, vector_reversal(g.n))


class TestStateAfterFailure:
    def test_failed_read_leaves_memory_consistent(self, system):
        in_use = system.memory.in_use
        with pytest.raises(DiskConflictError):
            system.read_blocks(0, [0, 4])
        assert system.memory.in_use == in_use

    def test_failed_class_check_before_any_io(self, system, geometry):
        """Class preconditions are checked before I/O begins: no I/Os are
        charged for a rejected run."""
        g = geometry
        from repro.core.mrc_algorithm import perform_mrc_pass
        from repro.perms.mrc import is_mrc

        rng = np.random.default_rng(4)
        for _ in range(100):
            a = random_nonsingular(g.n, rng)
            if not is_mrc(a, g.m):
                break
        before = system.stats.parallel_ios
        with pytest.raises(NotInClassError):
            perform_mrc_pass(system, BMMCPermutation(a), 0, 1)
        assert system.stats.parallel_ios == before

    def test_data_intact_after_rejected_op(self, system):
        with pytest.raises(DiskConflictError):
            system.read_blocks(0, [0, 4])
        assert (system.portion_values(0) == np.arange(system.geometry.N)).all()


@pytest.fixture
def serve_geometry():
    # roomier memory than the module fixture: the synthetic mix includes
    # a distribution sort, whose bucket/window/pending budget needs it
    return DiskGeometry(N=2**10, B=2**3, D=2**2, M=2**7)


class TestServiceFaultInjection:
    """A faulting request must fail *alone*: the worker pool survives,
    the shared cache is uncorrupted, and an identical-key request after
    the failure compiles cleanly."""

    def _service(self, geometry, **kwargs):
        from repro.serve import PermutationService

        kwargs.setdefault("workers", 4)
        return PermutationService(geometry, **kwargs)

    def _non_mrc_perm(self, geometry):
        from repro.perms.mrc import is_mrc

        rng = np.random.default_rng(11)
        for _ in range(200):
            a = random_nonsingular(geometry.n, rng)
            if not is_mrc(a, geometry.m):
                return BMMCPermutation(a)
        raise AssertionError("could not find a non-MRC matrix")

    def test_planner_exception_fails_alone(self, serve_geometry):
        from repro.serve import PermutationRequest, synthetic_mix

        bad = PermutationRequest(perm=self._non_mrc_perm(serve_geometry), method="mrc")
        good = synthetic_mix(8, capture_portion=True)
        mix = good[:4] + [bad] + good[4:]
        with self._service(serve_geometry) as service:
            results = service.run(mix)
            failed = [r for r in results if not r.ok]
            assert len(failed) == 1
            assert isinstance(failed[0].error, NotInClassError)
            assert failed[0].request is bad
            for r in results:
                if r.ok:
                    assert r.report.verified
            # the pool survives: the same service keeps serving
            again = service.run(good)
        assert all(r.ok for r in again)

    def test_bad_geometry_distribution_fails_alone(self, serve_geometry):
        """tune_parameters cannot fit this geometry's memory budget; the
        ValidationError is captured on the result, not raised."""
        from repro.serve import PermutationRequest

        tight = DiskGeometry(N=2**11, B=2**3, D=2**3, M=2**6)  # BD == M
        bad = PermutationRequest(
            perm="transpose", method="distribution", geometry=tight
        )
        good = PermutationRequest(perm="gray", capture_portion=True)
        with self._service(serve_geometry) as service:
            results = service.run([good, bad, good])
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert isinstance(results[1].error, ValidationError)
        assert results[0].digest == results[2].digest

    def test_cache_uncorrupted_after_failed_compile(self, serve_geometry):
        """A compile that raises mid-flight must leave no entry and no
        latch; waiters and later requesters recompile cleanly."""
        import threading

        from repro.pdm.cache import PlanCache
        from repro.pdm.schedule import PlanBuilder
        from repro.pdm.cache import compile_plan

        cache = PlanCache(maxsize=8)
        key = ("poisoned",)
        start = threading.Barrier(4)
        errors, successes = [], []

        def build_bad():
            raise ValidationError("singular matrix")

        def hammer():
            start.wait()
            try:
                cache.get_or_compile(key, build_bad)
            except ValidationError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # every requester saw the failure (waiters retried as builders),
        # none was wedged, and nothing was stored
        assert len(errors) == 4
        assert len(cache) == 0
        assert not cache._inflight, "failed compile leaked a latch"

        # the identical key now compiles cleanly and is served as a hit
        def build_good():
            builder = PlanBuilder(serve_geometry)
            builder.begin_pass("recovered")
            slots = builder.read(0, [0])
            builder.write(1, [0], slots)
            successes.append(1)
            return compile_plan(serve_geometry, builder.build())

        compiled, hit = cache.get_or_compile(key, build_good)
        _, hit2 = cache.get_or_compile(key, build_good)
        assert (hit, hit2) == (False, True)
        assert len(successes) == 1 and compiled is not None

    def test_failed_request_then_identical_key_recompiles(self, serve_geometry):
        """End-to-end: poison one worker's request mid-mix; afterwards a
        fresh identical-key request misses once, compiles, then hits."""
        from repro.pdm.cache import PlanCache
        from repro.serve import PermutationRequest

        cache = PlanCache(maxsize=32)
        bad = PermutationRequest(perm=self._non_mrc_perm(serve_geometry), method="mrc")
        key_req = PermutationRequest(perm="bit-reversal", method="bmmc")
        with self._service(serve_geometry, cache=cache) as service:
            (failed,) = service.run([bad])
            assert not failed.ok
            first, second = service.run([key_req, key_req])
        assert first.ok and second.ok
        info = cache.info()
        # two misses: the poisoned request's failed compile (counted,
        # never stored) and the clean key's one compile; the repeat hits
        assert info.misses == 2 and info.hits == 1 and info.size == 1
