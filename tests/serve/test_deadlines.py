"""Deadlines + cooperative cancellation through the execution stack.

The acceptance criterion: an expired request frees its worker within
one pass boundary and surfaces ``DeadlineExceeded`` on its result;
non-cancelled requests stay byte-identical to the sequential strict
reference.  Expiry is forced deterministically -- injected pass latency
(a seeded ``FaultPlan``) plus a timeout smaller than one sleep -- and
asserted under both engines and during a cold-compile latch wait.
"""

import threading
import time

import pytest

from repro.errors import DeadlineExceeded, RequestCancelled
from repro.pdm.cache import ShardedPlanCache, compile_plan
from repro.pdm.cancel import CancellationToken, checkpoint, current_token, run_scope
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import PlanBuilder
from repro.serve import (
    FaultPlan,
    PermutationRequest,
    PermutationService,
    run_sequential,
)
from tests.serve.test_coalesce import _await

GEOMETRY = DiskGeometry(N=2**10, B=2**3, D=2**2, M=2**7)

#: One injected sleep per pass boundary, longer than the timeout below,
#: so any multi-pass request expires at its second boundary.
SLOW = FaultPlan(seed=11, slow_passes=1.0, slow_seconds=0.05)
TIMEOUT = 0.02

#: Multi-pass workload: BMMC factoring of bit-reversal needs several
#: passes, so there are boundaries for cancellation to fire at.  The
#: fast engine runs the chain as one fused gather, but still fires one
#: pass checkpoint per plan pass before it.
_PATHS = [
    pytest.param("strict", id="strict"),
    pytest.param("fast", id="fast-numpy"),
]


def _expiring_request(engine):
    return PermutationRequest(
        perm="bit-reversal",
        method="bmmc",
        engine=engine,
        timeout=TIMEOUT,
        verify=False,
    )


class TestTokenPrimitives:
    def test_timeout_becomes_monotonic_deadline(self):
        token = CancellationToken(timeout=60.0)
        assert not token.expired()
        assert 59.0 < token.remaining() <= 60.0
        token.check()  # live: no raise

    def test_expired_token_raises_deadline_exceeded(self):
        token = CancellationToken(timeout=0.0)
        time.sleep(0.001)
        with pytest.raises(DeadlineExceeded):
            token.check()

    def test_manual_cancel_raises_request_cancelled(self):
        token = CancellationToken()
        token.cancel("test says stop")
        with pytest.raises(RequestCancelled, match="test says stop"):
            token.check()

    def test_scope_is_thread_local_and_restored(self):
        token = CancellationToken()
        assert current_token() is None
        with run_scope(token):
            assert current_token() is token
            seen = []
            t = threading.Thread(target=lambda: seen.append(current_token()))
            t.start()
            t.join()
            assert seen == [None]  # scopes don't leak across threads
        assert current_token() is None

    def test_checkpoint_without_scope_is_noop(self):
        checkpoint("pass", "anything")  # must not raise


class TestDeadlineExpiry:
    @pytest.mark.parametrize("engine", _PATHS)
    def test_expires_mid_request_and_frees_worker(self, engine):
        with PermutationService(GEOMETRY, workers=1, faults=SLOW) as service:
            expired = service.submit(_expiring_request(engine)).result()
            # the single worker is free again: an undeadlined request runs
            healthy = service.submit(
                PermutationRequest(perm="bit-reversal", method="bmmc", engine=engine)
            ).result()
            stats = service.stats()

        assert isinstance(expired.error, DeadlineExceeded)
        assert expired.attempts == 1  # executed once
        # freed within one pass boundary: it did not run out the full
        # plan (3+ passes x 0.05s sleep each, plus the work)
        assert expired.elapsed < 0.15
        assert healthy.ok
        assert stats.deadline_exceeded == 1
        assert stats.failed == 1
        assert stats.completed == stats.admitted == 2

    def test_expired_while_queued_never_executes(self):
        # one worker pinned by a slow request; the queued request's
        # deadline lapses before a worker ever picks it up
        slow = FaultPlan(seed=11, slow_passes=1.0, slow_seconds=0.08)
        with PermutationService(GEOMETRY, workers=1, faults=slow) as service:
            pin = service.submit(
                PermutationRequest(perm="bit-reversal", method="bmmc", engine="strict")
            )
            doomed = service.submit(_expiring_request("strict"))
            assert isinstance(doomed.result().error, DeadlineExceeded)
            assert doomed.result().attempts == 0  # expired in the queue
            assert pin.result().ok

    def test_default_timeout_applies_to_requests_without_one(self):
        with PermutationService(
            GEOMETRY, workers=1, faults=SLOW, default_timeout=TIMEOUT
        ) as service:
            result = service.submit(
                PermutationRequest(
                    perm="bit-reversal", method="bmmc", engine="strict"
                )
            ).result()
        assert isinstance(result.error, DeadlineExceeded)

    def test_non_cancelled_results_byte_identical_to_sequential(self):
        # a mix of doomed and healthy requests: the healthy ones must be
        # byte-identical to the sequential strict reference, deadline
        # churn on neighboring workers notwithstanding
        healthy = [
            PermutationRequest(
                perm="bit-reversal", method="bmmc", seed=s,
                engine="fast", capture_portion=True,
            )
            for s in range(4)
        ]
        doomed = [_expiring_request("strict") for _ in range(4)]
        interleaved = [r for pair in zip(healthy, doomed) for r in pair]
        with PermutationService(GEOMETRY, workers=4, faults=SLOW) as service:
            results = service.run(interleaved)
            stats = service.stats()

        reference = run_sequential(
            GEOMETRY,
            [r for r in interleaved if r.timeout is None],
        )
        got = [r.digest for r in results if r.ok]
        want = [r.digest for r in reference]
        assert len(got) == len(healthy)
        assert got == want
        assert stats.deadline_exceeded == len(doomed)
        assert stats.completed == stats.admitted == len(interleaved)


class TestLatchWaitCancellation:
    def test_waiter_deadline_expires_during_cold_compile(self):
        """A waiter queued on another thread's in-flight compile latch
        honors its own deadline; the builder lands the entry anyway."""
        cache = ShardedPlanCache(maxsize=8, num_shards=1)
        geometry = GEOMETRY
        key = ("latch-test", 0)
        builder_started = threading.Event()
        release_builder = threading.Event()
        outcomes = {}

        def _compiled():
            builder = PlanBuilder(geometry)
            builder.begin_pass("p")
            slots = builder.read(0, [0])
            builder.write(1, [0], slots)
            return compile_plan(geometry, builder.build())

        def _slow_compile():
            builder_started.set()
            assert release_builder.wait(10.0)
            return _compiled()

        def _builder():
            outcomes["builder"] = cache.get_or_compile(key, _slow_compile)

        def _waiter():
            token = CancellationToken(timeout=0.05)
            try:
                with run_scope(token):
                    cache.get_or_compile(key, _compiled)
                outcomes["waiter"] = "completed"
            except DeadlineExceeded:
                outcomes["waiter"] = "deadline"

        threads = [threading.Thread(target=_builder)]
        threads[0].start()
        assert builder_started.wait(10.0)
        threads.append(threading.Thread(target=_waiter))
        threads[1].start()
        threads[1].join(timeout=10.0)
        assert not threads[1].is_alive(), "waiter never unwound from the latch"
        assert outcomes["waiter"] == "deadline"

        release_builder.set()
        threads[0].join(timeout=10.0)
        compiled, hit = outcomes["builder"]
        assert hit is False

        # the cache survived: no latch leak, exact counters, and the
        # next request for the key is a clean hit
        info = cache.info()
        assert info.misses == 1 and info.size == 1
        again, hit = cache.get_or_compile(key, _compiled)
        assert hit is True and again is compiled
        assert all(not s.inflight for s in cache._shards)

    def test_service_survives_latch_wait_expiry(self):
        """End to end: two cold requests for one key, the builder stalls
        past the waiter's deadline; the waiter expires, the builder's
        request completes, and the worker pool stays healthy."""
        faults = FaultPlan(seed=11, latch_stalls=1.0, stall_seconds=0.2)
        request = PermutationRequest(perm="bit-reversal", method="bmmc")
        with PermutationService(GEOMETRY, workers=2, faults=faults) as service:
            builder_fut = service.submit(request)
            # the builder holds the key's latch through its stalled compile
            _await(lambda: any(s.inflight for s in service.cache._shards))
            waiter_fut = service.submit(
                PermutationRequest(
                    perm="bit-reversal", method="bmmc", timeout=0.05
                )
            )
            builder_res = builder_fut.result()
            waiter_res = waiter_fut.result()
            post = service.submit(request).result()
            stats = service.stats()

        assert builder_res.ok
        assert isinstance(waiter_res.error, DeadlineExceeded)
        assert post.ok  # warm hit, pool healthy
        assert stats.deadline_exceeded == 1
        assert stats.completed == stats.admitted == 3
