"""Admission control: bounded queues, shedding policies, counter laws.

The overload acceptance criterion lives here: with queue capacity Q and
a saturating burst, exactly ``admitted + shed == submitted``, no
deadlock, and a post-burst request completes normally.  Slow faults
(deterministic injected pass latency) stand in for heavy workloads so
the queue actually backs up on a 1-2 worker pool.
"""

import threading
import time

import pytest

from repro.errors import RequestRejected, ServiceClosedError, ValidationError
from repro.pdm.geometry import DiskGeometry
from repro.serve import FaultPlan, PermutationRequest, PermutationService, synthetic_mix
from tests.serve.test_coalesce import _await

GEOMETRY = DiskGeometry(N=2**10, B=2**3, D=2**2, M=2**7)

#: Every request sleeps a little at each pass boundary, so a small pool
#: saturates under a burst without needing big geometries.
SLOW = FaultPlan(seed=7, slow_passes=1.0, slow_seconds=0.02)


def _request(seed=0):
    return PermutationRequest(perm="random-mrc", method="mrc", seed=seed)


class TestRejectPolicy:
    def test_overload_counters_reconcile_exactly(self):
        capacity = 3
        burst = 24
        with PermutationService(
            GEOMETRY, workers=2, queue_capacity=capacity, queue_policy="reject",
            faults=SLOW,
        ) as service:
            futures = [service.submit(_request(i)) for i in range(burst)]
            results = [f.result() for f in futures]
            stats = service.stats()

            assert stats.submitted == burst
            assert stats.admitted + stats.shed == stats.submitted
            assert stats.shed > 0  # the burst genuinely overflowed
            rejected = [r for r in results if isinstance(r.error, RequestRejected)]
            assert len(rejected) == stats.shed
            # shed requests never executed and resolve immediately
            assert all(r.attempts == 0 for r in rejected)
            assert all(r.report is None for r in rejected)
            # everything admitted completed fine
            assert sum(r.ok for r in results) == stats.admitted

            # post-burst: the service is healthy, a new request completes
            late = service.submit(_request(99)).result()
            assert late.ok
            stats = service.stats()
            assert stats.admitted + stats.shed == stats.submitted == burst + 1

    def test_unbounded_queue_never_sheds(self):
        with PermutationService(GEOMETRY, workers=2, faults=SLOW) as service:
            results = service.run([_request(i) for i in range(16)])
            stats = service.stats()
        assert all(r.ok for r in results)
        assert stats.shed == 0
        assert stats.admitted == stats.submitted == 16

    def test_results_keep_submission_indices(self):
        with PermutationService(
            GEOMETRY, workers=1, queue_capacity=2, queue_policy="reject",
            faults=SLOW,
        ) as service:
            futures = [service.submit(_request(i)) for i in range(8)]
            results = [f.result() for f in futures]
        assert [r.index for r in results] == list(range(8))


class TestShedOldest:
    def test_oldest_queued_is_evicted_for_newest(self):
        with PermutationService(
            GEOMETRY, workers=1, queue_capacity=2, queue_policy="shed-oldest",
            faults=SLOW,
        ) as service:
            futures = [service.submit(_request(i)) for i in range(10)]
            results = [f.result() for f in futures]
            stats = service.stats()

        shed = [r for r in results if isinstance(r.error, RequestRejected)]
        ok = [r for r in results if r.ok]
        assert stats.admitted + stats.shed == stats.submitted == 10
        assert len(shed) == stats.shed > 0
        assert len(ok) == stats.admitted
        # the *newest* submissions survive under shed-oldest: the last
        # request is never the one evicted
        assert results[-1].ok
        # evicted requests are strictly older than the survivors that
        # were queued behind them
        max_shed = max(r.index for r in shed)
        assert any(r.index > max_shed for r in ok)


class TestBlockPolicy:
    def test_blocking_submit_waits_for_space_no_deadlock(self):
        capacity = 2
        burst = 10
        done = threading.Event()
        results = []

        def _producer(service):
            futures = [service.submit(_request(i)) for i in range(burst)]
            results.extend(f.result() for f in futures)
            done.set()

        with PermutationService(
            GEOMETRY, workers=2, queue_capacity=capacity, queue_policy="block",
            faults=SLOW,
        ) as service:
            producer = threading.Thread(target=_producer, args=(service,))
            producer.start()
            assert done.wait(30.0), "blocking submits deadlocked"
            producer.join()
            stats = service.stats()

        # block never sheds: every submission is eventually admitted
        assert stats.shed == 0
        assert stats.admitted == stats.submitted == burst
        assert all(r.ok for r in results)

    def test_blocked_submit_unblocks_on_close(self):
        errors = []
        submitted = threading.Event()

        def _producer(service):
            try:
                for i in range(20):
                    service.submit(_request(i))
                    submitted.set()
            except ServiceClosedError as exc:
                errors.append(exc)
            finally:
                submitted.set()

        service = PermutationService(
            GEOMETRY, workers=1, queue_capacity=1, queue_policy="block",
            faults=FaultPlan(seed=7, slow_passes=1.0, slow_seconds=0.1),
        )
        producer = threading.Thread(target=_producer, args=(service,))
        producer.start()
        assert submitted.wait(10.0)
        service.close(drain_timeout=0.0)
        producer.join(timeout=10.0)
        assert not producer.is_alive(), "blocked submit never unblocked on close"
        assert errors, "blocked submit should raise ServiceClosedError on close"


class TestValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError, match="queue policy"):
            PermutationService(GEOMETRY, workers=1, queue_policy="drop-newest")

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValidationError, match="capacity"):
            PermutationService(GEOMETRY, workers=1, queue_capacity=0)


class TestCloseSemantics:
    def test_close_is_idempotent(self):
        service = PermutationService(GEOMETRY, workers=2)
        service.run(synthetic_mix(4))
        service.close()
        service.close()  # must not raise or hang
        assert service.stats().closed

    def test_submit_after_close_raises_typed_error(self):
        service = PermutationService(GEOMETRY, workers=1)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(_request())
        # back-compat: ServiceClosedError is a ValidationError
        with pytest.raises(ValidationError):
            service.submit(_request())

    def test_graceful_close_drains_queue(self):
        service = PermutationService(GEOMETRY, workers=1, faults=SLOW)
        futures = [service.submit(_request(i)) for i in range(6)]
        service.close()  # graceful: everything queued still executes
        results = [f.result(timeout=1.0) for f in futures]
        assert all(r.ok for r in results)
        stats = service.stats()
        assert stats.completed == stats.admitted == 6

    def test_hard_close_flushes_queue_and_cancels_running(self):
        slow = FaultPlan(seed=7, slow_passes=1.0, slow_seconds=0.2)
        service = PermutationService(GEOMETRY, workers=1, faults=slow)
        futures = [service.submit(_request(i)) for i in range(6)]
        _await(lambda: service.stats().running == 1)
        t0 = time.perf_counter()
        service.close(drain_timeout=0.0)
        elapsed = time.perf_counter() - t0
        results = [f.result(timeout=1.0) for f in futures]
        # no future is left dangling, and the close didn't wait out the
        # whole queue (6 requests x multiple 0.2s sleeps each)
        assert elapsed < 3.0
        flushed = [r for r in results if isinstance(r.error, ServiceClosedError)]
        assert flushed, "hard close should flush still-queued requests"
        assert all(r.attempts == 0 for r in flushed)
        stats = service.stats()
        assert stats.completed == stats.admitted
        assert stats.queue_depth == 0 and stats.running == 0
