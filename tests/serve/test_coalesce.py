"""Single-flight request coalescing: one execution, many answers.

The contract under test (opt-in via ``coalesce=True``):

* **one execution per key** -- concurrent requests with an identical
  :func:`~repro.serve.execution_key` attach to the in-flight leader as
  followers; the leader executes exactly once and every follower
  resolves with the leader's report/digest on its *own* result (own
  index, request_id, queue_wait; ``coalesced=True``, ``attempts=0``);
* **byte identity** -- coalesced answers are byte-identical to the
  sequential strict reference, exactly like executed ones;
* **exact counters** -- ``coalesced``/``coalesced_in_flight`` reconcile
  at every instant: ``admitted == completed + queue_depth + running +
  coalesced_in_flight``, and at rest ``coalesced_in_flight == 0``;
* **per-request deadlines** -- an expired follower detaches with
  ``DeadlineExceeded`` without cancelling the leader;
* **failure propagation** -- a leader failure reaches every follower
  (the leader's one execution is theirs);
* **off by default** -- duplicate traffic changes cache/execution
  counts, so callers opt in.

Leaders are parked deterministically with a gate cache (compiles block
on an event the test releases), so "followers attach while the leader
is in flight" is a certainty here, not a race the test hopes to win.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.errors import (
    DeadlineExceeded,
    RequestRejected,
    ServiceClosedError,
    TransientError,
)
from repro.pdm.cache import PlanCache
from repro.pdm.geometry import DiskGeometry
from repro.serve import (
    PermutationRequest,
    PermutationService,
    execution_key,
    run_sequential,
)

GEOMETRY = DiskGeometry(N=2**10, B=2**3, D=2**2, M=2**7)

#: The canonical coalescible request: plan-cacheable, digest-bearing.
HOT = PermutationRequest(
    perm="bit-reversal", method="bmmc", capture_portion=True, verify=False
)


def _strict_digest(request=HOT):
    (ref,) = run_sequential(
        GEOMETRY, [replace(request, engine="strict")], cache=None
    )
    assert ref.ok
    return ref.digest


class _GateCache:
    """A plan cache whose compiles park on an event until released.

    Delegates storage to a real :class:`PlanCache`; ``compiles``
    counts executions that actually reached a compile, which is the
    single-flight acceptance number.
    """

    def __init__(self, maxsize=32):
        self.inner = PlanCache(maxsize=maxsize)
        self.gate = threading.Event()
        self.compiles = 0
        self._lock = threading.Lock()

    def get_or_compile(self, key, compile_fn):
        def gated():
            with self._lock:
                self.compiles += 1
            assert self.gate.wait(10), "test gate never released"
            return compile_fn()

        return self.inner.get_or_compile(key, gated)

    def info(self):
        return self.inner.info()


def _await(predicate, timeout=5.0, message="condition never became true"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, message
        time.sleep(0.001)


def _assert_reconciled_at_rest(stats, submitted):
    assert stats.submitted == submitted
    assert stats.admitted + stats.shed == stats.submitted
    assert stats.admitted == stats.completed
    assert stats.queue_depth == 0
    assert stats.running == 0
    assert stats.coalesced_in_flight == 0


class TestExecutionKey:
    def test_identical_requests_share_a_key(self):
        assert execution_key(HOT, GEOMETRY) == execution_key(
            replace(HOT), GEOMETRY
        )

    @pytest.mark.parametrize(
        "variant",
        [
            dict(perm="transpose"),
            dict(method="general"),
            dict(seed=7),
            dict(engine="strict"),
            dict(rank_gamma=1),
            dict(verify=True),
            dict(capture_portion=False),
        ],
    )
    def test_execution_changing_fields_change_the_key(self, variant):
        assert execution_key(HOT, GEOMETRY) != execution_key(
            replace(HOT, **variant), GEOMETRY
        )

    def test_timeout_is_not_part_of_the_key(self):
        # Deadlines are per-request promises, not execution inputs: an
        # impatient duplicate still rides the same execution.
        assert execution_key(HOT, GEOMETRY) == execution_key(
            replace(HOT, timeout=0.5), GEOMETRY
        )

    def test_non_str_perm_is_not_coalescible(self):
        perm = list(range(GEOMETRY.N))
        assert execution_key(replace(HOT, perm=perm), GEOMETRY) is None

    def test_no_geometry_anywhere_is_not_coalescible(self):
        assert execution_key(HOT, None) is None


class TestSingleFlight:
    N = 8

    def test_coalescing_is_off_by_default(self):
        with PermutationService(GEOMETRY, workers=4) as svc:
            assert svc.coalesce is False
            results = svc.run([HOT] * self.N)
            stats = svc.stats()
        assert all(r.ok and not r.coalesced for r in results)
        assert stats.coalesced == 0
        assert stats.coalesced_in_flight == 0

    def test_identical_concurrent_requests_execute_once(self):
        want = _strict_digest()
        cache = _GateCache()
        with PermutationService(
            GEOMETRY, workers=2, cache=cache, coalesce=True
        ) as svc:
            futures = [svc.submit(HOT) for _ in range(self.N)]
            # The leader parks in the gate; every duplicate must have
            # attached as a follower before anything resolves.
            _await(lambda: svc.stats().coalesced_in_flight == self.N - 1)
            # Mid-flight, the invariant holds exactly: admitted ==
            # completed + queue_depth + running + coalesced_in_flight.
            s = svc.stats()
            assert s.admitted == (
                s.completed + s.queue_depth + s.running + s.coalesced_in_flight
            )
            assert s.completed == 0
            cache.gate.set()
            results = [f.result(timeout=10) for f in futures]
            stats = svc.stats()

        assert cache.compiles == 1, "duplicates re-executed behind the leader"
        assert all(r.ok for r in results)
        assert all(r.digest == want for r in results)
        leaders = [r for r in results if not r.coalesced]
        followers = [r for r in results if r.coalesced]
        assert len(leaders) == 1
        assert len(followers) == self.N - 1
        assert leaders[0].attempts == 1
        assert all(f.attempts == 0 for f in followers)
        # Every answer is individually addressable: own id, own trace.
        ids = {r.request_id for r in results}
        assert len(ids) == self.N
        assert all(r.trace.request_id == r.request_id for r in results)
        assert all("queue_wait" in f.trace.timings for f in followers)
        _assert_reconciled_at_rest(stats, submitted=self.N)
        assert stats.coalesced == self.N - 1

    def test_different_keys_do_not_coalesce(self):
        cold = replace(HOT, perm="transpose")
        cache = _GateCache()
        with PermutationService(
            GEOMETRY, workers=2, cache=cache, coalesce=True
        ) as svc:
            futures = [svc.submit(HOT), svc.submit(cold)]
            _await(lambda: cache.compiles == 2, message="second key coalesced")
            cache.gate.set()
            results = [f.result(timeout=10) for f in futures]
            stats = svc.stats()
        assert all(r.ok and not r.coalesced for r in results)
        assert stats.coalesced == 0

    def test_16_submitters_duplicate_heavy_reconciles(self):
        """Duplicates of 4 distinct keys submitted from 16 threads: with
        every leader parked, exactly 4 executions happen, every answer
        matches its key's strict reference, and the counters reconcile."""
        perms = ["bit-reversal", "transpose", "shuffle", "vector-reversal"]
        distinct = [replace(HOT, perm=p) for p in perms]
        want = {p: _strict_digest(r) for p, r in zip(perms, distinct)}
        repeats = 16
        workload = distinct * repeats

        cache = _GateCache()
        with PermutationService(
            GEOMETRY, workers=len(distinct), cache=cache, coalesce=True
        ) as svc:
            with ThreadPoolExecutor(max_workers=16) as pool:
                futures = list(pool.map(svc.submit, workload))
            _await(
                lambda: svc.stats().coalesced_in_flight
                == len(workload) - len(distinct)
            )
            cache.gate.set()
            results = [f.result(timeout=10) for f in futures]
            stats = svc.stats()

        assert cache.compiles == len(distinct)
        assert all(r.ok for r in results)
        for r in results:
            assert r.digest == want[r.request.perm]
        assert stats.coalesced == len(workload) - len(distinct)
        assert sum(1 for r in results if not r.coalesced) == len(distinct)
        _assert_reconciled_at_rest(stats, submitted=len(workload))
        # request ids stay unique across the coalesced fleet
        assert len({r.request_id for r in results}) == len(workload)


class TestFollowerDeadlines:
    def test_expired_follower_detaches_without_cancelling_leader(self):
        cache = _GateCache()
        with PermutationService(
            GEOMETRY, workers=1, cache=cache, coalesce=True
        ) as svc:
            leader_future = svc.submit(HOT)
            _await(lambda: cache.compiles == 1)
            follower_future = svc.submit(replace(HOT, timeout=0.05))
            # attached, or already expired: either way it coalesced
            _await(
                lambda: (lambda s: s.coalesced_in_flight + s.coalesced)(
                    svc.stats()
                )
                == 1
            )

            # The follower's own deadline fires while the leader is
            # still parked: it must resolve alone.
            follower = follower_future.result(timeout=10)
            assert isinstance(follower.error, DeadlineExceeded)
            assert follower.coalesced and follower.attempts == 0
            assert not leader_future.done(), "follower expiry cancelled the leader"
            mid = svc.stats()
            assert mid.coalesced == 1
            assert mid.coalesced_in_flight == 0
            assert mid.deadline_exceeded == 1

            cache.gate.set()
            leader = leader_future.result(timeout=10)
            stats = svc.stats()

        assert leader.ok and not leader.coalesced
        _assert_reconciled_at_rest(stats, submitted=2)
        assert stats.failed == 1 and stats.deadline_exceeded == 1
        assert stats.coalesced == 1

    def test_leader_resolution_beats_a_generous_deadline(self):
        """A follower whose deadline never fires resolves through the
        leader and cancels its timer (no late double resolution)."""
        cache = _GateCache()
        with PermutationService(
            GEOMETRY, workers=1, cache=cache, coalesce=True
        ) as svc:
            leader_future = svc.submit(HOT)
            _await(lambda: cache.compiles == 1)
            follower_future = svc.submit(replace(HOT, timeout=30.0))
            _await(lambda: svc.stats().coalesced_in_flight == 1)
            cache.gate.set()
            leader = leader_future.result(timeout=10)
            follower = follower_future.result(timeout=10)
            stats = svc.stats()
        assert leader.ok and follower.ok
        assert follower.coalesced and follower.digest == leader.digest
        assert stats.deadline_exceeded == 0
        assert stats.coalesced == 1


class _ExplodingGateCache(_GateCache):
    """Parks like the gate cache, then fails the compile."""

    def get_or_compile(self, key, compile_fn):
        with self._lock:
            self.compiles += 1
        assert self.gate.wait(10), "test gate never released"
        raise TransientError("compile exploded")


class TestFailurePropagation:
    def test_leader_failure_reaches_followers(self):
        cache = _ExplodingGateCache()
        with PermutationService(
            GEOMETRY, workers=1, cache=cache, coalesce=True
        ) as svc:
            leader_future = svc.submit(HOT)
            _await(lambda: cache.compiles == 1)
            follower_future = svc.submit(HOT)
            _await(lambda: svc.stats().coalesced_in_flight == 1)
            cache.gate.set()
            leader = leader_future.result(timeout=10)
            follower = follower_future.result(timeout=10)
            stats = svc.stats()

        # The leader executed once and failed; the follower shares it.
        assert isinstance(leader.error, TransientError)
        assert leader.attempts == 1
        assert cache.compiles == 1
        assert isinstance(follower.error, TransientError)
        assert follower.error is leader.error
        assert follower.coalesced and follower.attempts == 0
        assert stats.failed == 2
        assert stats.coalesced == 1
        _assert_reconciled_at_rest(stats, submitted=2)

    def test_shed_leader_sheds_its_followers(self):
        """shed-oldest evicting a queued leader resolves its followers
        with the same rejection -- nobody waits on a dead leader."""
        blocker = replace(HOT, perm="transpose")
        cache = _GateCache()
        with PermutationService(
            GEOMETRY,
            workers=1,
            cache=cache,
            queue_capacity=1,
            queue_policy="shed-oldest",
            coalesce=True,
        ) as svc:
            blocker_future = svc.submit(blocker)
            _await(lambda: cache.compiles == 1)  # blocker holds the worker
            leader_future = svc.submit(HOT)      # queued, registered leader
            follower_future = svc.submit(HOT)    # attaches to the queued leader
            _await(lambda: svc.stats().coalesced_in_flight == 1)
            # a third distinct key (the blocker is still in flight, so
            # its key would coalesce) -- this one hits admission control
            newcomer_future = svc.submit(replace(HOT, perm="shuffle"))
            leader = leader_future.result(timeout=10)
            follower = follower_future.result(timeout=10)
            cache.gate.set()
            blocker_result = blocker_future.result(timeout=10)
            newcomer = newcomer_future.result(timeout=10)
            stats = svc.stats()

        assert isinstance(leader.error, RequestRejected)
        assert isinstance(follower.error, RequestRejected)
        assert follower.coalesced and follower.attempts == 0
        assert blocker_result.ok and newcomer.ok
        assert stats.shed == 1
        assert stats.coalesced == 1
        assert stats.submitted == 4
        assert stats.admitted == 3  # blocker, follower, newcomer
        assert stats.admitted == stats.completed
        assert stats.coalesced_in_flight == 0

    def test_hard_close_flushes_followers(self):
        """A hard close resolves a still-queued leader *and* its
        followers with ServiceClosedError -- no orphaned futures."""
        blocker = replace(HOT, perm="transpose")
        cache = _GateCache()
        svc = PermutationService(GEOMETRY, workers=1, cache=cache, coalesce=True)
        try:
            blocker_future = svc.submit(blocker)
            _await(lambda: cache.compiles == 1)
            leader_future = svc.submit(HOT)
            follower_future = svc.submit(HOT)
            _await(lambda: svc.stats().coalesced_in_flight == 1)

            closer = threading.Thread(
                target=svc.close, kwargs={"drain_timeout": 0.05}, daemon=True
            )
            closer.start()
            leader = leader_future.result(timeout=10)
            follower = follower_future.result(timeout=10)
            cache.gate.set()  # free the blocker so close() can join
            closer.join(timeout=10)
            assert not closer.is_alive()
            stats = svc.stats()
        finally:
            cache.gate.set()
            svc.close()

        assert isinstance(leader.error, ServiceClosedError)
        assert isinstance(follower.error, ServiceClosedError)
        assert follower.coalesced
        # the running blocker was hard-cancelled or finished -- either
        # way its future must have resolved, never hang
        assert blocker_future.done()
        assert stats.coalesced == 1
        assert stats.coalesced_in_flight == 0
        assert stats.cancelled >= 2  # leader + follower at minimum
        assert stats.admitted == stats.completed


class TestObserveReentrancy:
    """Regression: resolving a future while holding the service lock
    deadlocked any done-callback / metrics hook that re-entered the
    service (the rejected-submit path did exactly that)."""

    class _ReentrantMetrics:
        def __init__(self, service_ref):
            self.service_ref = service_ref
            self.snapshots = []

        def observe_result(self, result):
            # stats() takes the service lock: this deadlocks if the
            # service observes results while still holding it.
            self.snapshots.append(self.service_ref[0].stats())

    def test_rejected_submit_may_reenter_the_service(self):
        ref = []
        metrics = self._ReentrantMetrics(ref)
        cache = _GateCache()
        with PermutationService(
            GEOMETRY,
            workers=1,
            cache=cache,
            queue_capacity=1,
            queue_policy="reject",
            metrics=metrics,
            coalesce=False,
        ) as svc:
            ref.append(svc)
            blocker_future = svc.submit(HOT)
            _await(lambda: cache.compiles == 1)
            queued_future = svc.submit(replace(HOT, perm="transpose"))

            done = threading.Event()
            rejected_box = []

            def submit_rejected():
                rejected_box.append(svc.submit(replace(HOT, perm="perfect-shuffle")))
                done.set()

            t = threading.Thread(target=submit_rejected, daemon=True)
            t.start()
            assert done.wait(5), (
                "rejected submit deadlocked in its observe hook"
            )
            rejected = rejected_box[0].result(timeout=10)
            assert isinstance(rejected.error, RequestRejected)
            cache.gate.set()
            assert blocker_future.result(timeout=10).ok
            assert queued_future.result(timeout=10).ok
        assert len(metrics.snapshots) == 3
        final = svc.stats()
        assert final.shed == 1
        assert final.admitted + final.shed == final.submitted

    def test_follower_resolution_may_reenter_the_service(self):
        ref = []
        metrics = self._ReentrantMetrics(ref)
        cache = _GateCache()
        with PermutationService(
            GEOMETRY, workers=1, cache=cache, metrics=metrics, coalesce=True
        ) as svc:
            ref.append(svc)
            leader_future = svc.submit(HOT)
            _await(lambda: cache.compiles == 1)
            follower_future = svc.submit(HOT)
            _await(lambda: svc.stats().coalesced_in_flight == 1)
            cache.gate.set()
            assert leader_future.result(timeout=10).ok
            assert follower_future.result(timeout=10).ok
        assert len(metrics.snapshots) == 2
