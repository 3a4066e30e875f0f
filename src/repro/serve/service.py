"""The concurrent permutation service: admission, deadlines, faults.

:class:`PermutationService` executes a stream of
:class:`~repro.serve.requests.PermutationRequest`\\ s on a pool of
service-owned worker threads, and all executions share one
:class:`~repro.pdm.cache.PlanCache`.

**Slots** -- the service owns ``workers`` execution slots, named
``perm-worker-0`` and up.  A request takes a free slot under the
service lock when it starts executing and gives it back when it
finishes; ``running`` counts the slots taken, so at most ``workers``
executions run at once, and ``ServiceResult.worker`` names the slot.
Each slot keeps a :class:`~repro.pdm.system.ParallelDiskSystem` per
geometry (reset before every execution, so record state, stats, traces
and memory accounting are strictly per-request).  A worker thread takes
a slot when it dequeues, and waits while none is free.  A caller that
passes ``submit(request, run_here=True)`` -- the HTTP frontend's sync
``POST`` without a key does -- executes its own request on its own
thread when the queue is empty and a slot is free, and pays no handoff
to a worker and back; otherwise the request queues as any other.  A
queued request is never overtaken: nothing runs ahead of a non-empty
queue.

On top of the PR-4 execution core this adds the robustness layer:

* **Admission control** -- ``queue_capacity`` bounds the submission
  queue; ``queue_policy`` picks what happens at capacity (``reject``
  the newcomer, ``block`` the submitter, or ``shed-oldest`` -- evict
  the stalest queued request in favor of the newcomer).  Shed requests
  resolve immediately with :class:`~repro.errors.RequestRejected`
  captured on their result; ``stats()`` reconciles exactly:
  ``admitted + shed == submitted`` always.

* **Deadlines + cooperative cancellation** -- every admitted request
  gets a :class:`~repro.pdm.cancel.CancellationToken` (from its
  ``timeout``/``deadline``, or the service ``default_timeout``),
  installed as the worker's ambient scope for the execution.  The
  engines, the optimizer and the plan cache's latch waits all call
  :func:`~repro.pdm.cancel.checkpoint`, so an expired request frees its
  worker at the next pass or streamed-segment boundary with
  :class:`~repro.errors.DeadlineExceeded` on its result -- it never
  occupies the pool to completion.

* **Fault injection** -- ``faults`` (a
  :class:`~repro.serve.faults.FaultPlan`) gives each admitted request
  a deterministic, seeded fault session that fires through the same
  checkpoints, so overload and failure behavior is testable to exact
  counters.  An injected fault fails its request: every request
  executes at most once.

* **Single-flight coalescing** -- with ``coalesce=True``, a submitted
  request whose :func:`~repro.serve.requests.execution_key` matches one
  already queued or running attaches to that *leader* as a *follower*
  instead of occupying a queue slot: the leader executes once and every
  follower resolves with the leader's ``report``/``digest`` on its own
  :class:`~repro.serve.requests.ServiceResult` (own index, request_id,
  queue_wait; ``coalesced=True``, ``attempts=0``).  A leader failure
  propagates to its followers.  Deadlines stay per-request: an expired
  follower detaches with :class:`~repro.errors.DeadlineExceeded`
  without cancelling the leader.  Off by default: coalescing changes
  cache/execution counts for duplicate traffic, so callers opt in.

Failures of any kind are isolated: the exception is captured on that
request's :class:`~repro.serve.requests.ServiceResult`, the worker and
its pooled system survive, and the shared cache stays uncorrupted.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass

from repro.errors import (
    DeadlineExceeded,
    RequestCancelled,
    RequestRejected,
    ServiceClosedError,
    ValidationError,
)
from repro.pdm.cache import PlanCache
from repro.pdm.cancel import CancellationToken, run_scope
from repro.pdm.geometry import DiskGeometry
from repro.pdm.system import ParallelDiskSystem
from repro.serve.requests import (
    PermutationRequest,
    RequestTrace,
    ServiceResult,
    _execute_request,
    execution_key,
)

__all__ = ["QUEUE_POLICIES", "PermutationService", "ServiceStats"]

#: Admission-control behaviors when the bounded queue is full.
QUEUE_POLICIES = ("reject", "block", "shed-oldest")


@dataclass(frozen=True)
class ServiceStats:
    """A consistent counter snapshot (taken under the service lock).

    Invariants (hold at every instant, not just at rest):

    * ``admitted + shed == submitted``
    * ``admitted == completed + queue_depth + running + coalesced_in_flight``
    * ``failed <= completed``; ``deadline_exceeded + cancelled <= failed``
    * ``coalesced <= completed``

    :meth:`check` names the ones a snapshot violates.

    ``coalesced`` counts follower requests resolved without an
    execution of their own (single-flight coalescing; includes
    followers whose deadline expired while attached), and
    ``coalesced_in_flight`` is the gauge of followers currently
    attached to a queued-or-running leader.  Followers are *admitted*
    but never occupy a queue slot or a worker, hence the extended
    ``admitted`` reconciliation above.
    """

    submitted: int
    admitted: int
    shed: int
    completed: int
    failed: int
    deadline_exceeded: int
    cancelled: int
    queue_depth: int
    running: int
    workers: int
    closed: bool
    coalesced: int = 0
    coalesced_in_flight: int = 0

    def check(self) -> list[str]:
        """The invariants above that this snapshot violates, one line
        each; empty when the books balance."""
        in_flight = (
            self.completed + self.queue_depth + self.running
            + self.coalesced_in_flight
        )
        checks = [
            (self.admitted + self.shed == self.submitted,
             f"admitted {self.admitted} + shed {self.shed} != "
             f"submitted {self.submitted}"),
            (self.admitted == in_flight,
             f"admitted {self.admitted} != completed + queue_depth + "
             f"running + coalesced_in_flight = {in_flight}"),
            (self.failed <= self.completed
             and self.deadline_exceeded + self.cancelled <= self.failed,
             f"failed {self.failed} > completed {self.completed}, or "
             f"deadline_exceeded {self.deadline_exceeded} + cancelled "
             f"{self.cancelled} > failed"),
            (self.coalesced <= self.completed,
             f"coalesced {self.coalesced} > completed {self.completed}"),
        ]
        return [problem for ok, problem in checks if not ok]


class _Slot:
    """One execution slot: the name results carry as their ``worker``,
    and the slot's pooled systems, one per geometry.  Held by one
    thread at a time, so its systems need no lock."""

    __slots__ = ("name", "systems")

    def __init__(self, name: str) -> None:
        self.name = name
        self.systems: dict[tuple, ParallelDiskSystem] = {}

    def system(self, geometry: DiskGeometry) -> ParallelDiskSystem:
        key = (geometry.N, geometry.B, geometry.D, geometry.M)
        system = self.systems.get(key)
        if system is None:
            system = self.systems[key] = ParallelDiskSystem(geometry)
        else:
            system.reset()
        return system


class _Item:
    """One admitted request waiting in (or popped from) the queue.

    When coalescing is on, an item may be the *leader* for its
    execution key: ``key`` is the registered
    :func:`~repro.serve.requests.execution_key` (``None`` when the
    request is not coalescible or coalescing is off) and ``followers``
    holds the :class:`_Follower` records attached to it.
    """

    __slots__ = (
        "index", "request", "future", "token", "faults", "trace",
        "enqueued_at", "key", "followers",
    )

    def __init__(self, index, request, future, token, faults, trace,
                 key=None) -> None:
        self.index = index
        self.request = request
        self.future = future
        self.token = token
        self.faults = faults
        self.trace = trace
        self.enqueued_at = time.monotonic()
        self.key = key
        self.followers: list[_Follower] = []


class _Follower:
    """A coalesced request riding on a leader's execution.

    ``resolved`` is the single-winner latch between the leader's
    resolution and the follower's own deadline timer -- whichever
    flips it under the service lock delivers the result; the loser
    does nothing.
    """

    __slots__ = (
        "index", "request", "future", "trace", "enqueued_at", "resolved",
        "timer",
    )

    def __init__(self, index, request, future, trace) -> None:
        self.index = index
        self.request = request
        self.future = future
        self.trace = trace
        self.enqueued_at = time.monotonic()
        self.resolved = False
        self.timer: threading.Timer | None = None


class PermutationService:
    """A worker pool serving permutation requests off a shared plan cache.

    See the module docstring for the robustness semantics.  Defaults
    (unbounded queue, no deadlines, no faults) reproduce the PR-4
    service exactly.

    ``cache=None`` (the default) builds a
    :class:`~repro.pdm.cache.PlanCache` of ``cache_maxsize`` entries;
    pass ``cache=False`` to serve uncached, or a *thread-safe* cache
    object implementing ``get_or_compile`` and ``info`` (a shared
    :class:`~repro.pdm.cache.PlanCache`, or a wrapper around one).
    """

    def __init__(
        self,
        geometry: DiskGeometry,
        workers: int = 4,
        cache=None,
        cache_maxsize: int = 64,
        queue_capacity: int | None = None,
        queue_policy: str = "reject",
        default_timeout: float | None = None,
        faults=None,
        metrics=None,
        recorder=None,
        coalesce: bool = False,
    ) -> None:
        self.geometry = geometry
        self.workers = max(1, int(workers))
        if queue_policy not in QUEUE_POLICIES:
            raise ValidationError(
                f"unknown queue policy {queue_policy!r}; "
                f"choose from {QUEUE_POLICIES}"
            )
        if queue_capacity is not None and int(queue_capacity) < 1:
            raise ValidationError(
                f"queue capacity must be >= 1, got {queue_capacity}"
            )
        self.queue_capacity = None if queue_capacity is None else int(queue_capacity)
        self.queue_policy = queue_policy
        self.default_timeout = default_timeout
        self.faults = faults
        if cache is None:
            cache = PlanCache(maxsize=cache_maxsize)
        elif cache is False:
            cache = None
        self.cache = cache
        # ``metrics`` is any object with observe_result(result) -- the
        # HTTP layer passes a ServiceMetrics.  Counters are NOT counted
        # here event-by-event: /metrics bridges stats() snapshots, so
        # the two always reconcile exactly.  This hook only feeds the
        # latency / stage / pass-count histograms.
        self.metrics = metrics
        # ``recorder`` is any object with record(request) -- a
        # :class:`~repro.serve.workload.TraceRecorder`.  Every submit is
        # recorded *before* admission control, so a recorded trace is
        # the offered load (shed requests included) and replaying it
        # re-offers the same traffic.
        self.recorder = recorder
        self.coalesce = bool(coalesce)

        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)   # an item and a slot may be free
        self._space = threading.Condition(self._lock)  # queue freed a slot
        self._done = threading.Condition(self._lock)   # a request finished
        self._queue: deque[_Item] = deque()
        # Free slots; the last one freed is taken first.
        self._free = [
            _Slot(f"perm-worker-{i}") for i in reversed(range(self.workers))
        ]
        self._active: dict[int, CancellationToken] = {}
        self._leaders: dict[tuple, _Item] = {}
        self._closed = False
        # Set by a hard close: past this instant no worker dequeues.
        self._hard_deadline: float | None = None
        self._submitted = 0
        self._admitted = 0
        self._shed = 0
        self._completed = 0
        self._failed = 0
        self._deadline_exceeded = 0
        self._cancelled = 0
        self._running = 0
        self._coalesced = 0
        self._coalesced_in_flight = 0
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"perm-worker-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------ worker side
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not (self._queue and self._free):
                    if self._closed and not self._queue:
                        # Closed and drained.  A worker that waited for
                        # a slot while the last item went to another
                        # gets no other wakeup, so wake them all.
                        self._work.notify_all()
                        return
                    self._work.wait()
                if (
                    self._hard_deadline is not None
                    and time.monotonic() >= self._hard_deadline
                ):
                    return  # hard-closed: close() flushes the queue
                item = self._queue.popleft()
                slot = self._start_locked(item)
                self._space.notify()
            self._execute(item, slot)

    def _start_locked(self, item: _Item) -> _Slot:
        """Take a free slot for ``item``, which starts executing now."""
        slot = self._free.pop()
        self._running += 1
        self._active[item.index] = item.token
        return slot

    def _execute(self, item: _Item, slot: _Slot) -> None:
        """Run a started request, give its slot back and resolve it and
        its followers.  Worker threads and ``run_here`` submitters
        both finish a request here."""
        item.trace.record("queue_wait", time.monotonic() - item.enqueued_at)
        result = self._serve_item(item, slot)
        with self._lock:
            self._free.append(slot)
            self._running -= 1
            self._active.pop(item.index, None)
            if item.key is not None:
                self._leaders.pop(item.key, None)
            self._record_locked(result)
            settled = self._settle_followers_locked(item, result)
            if self._queue:
                self._work.notify()  # a worker may be waiting for this slot
            self._done.notify_all()
        self._observe(result)
        item.future.set_result(result)
        self._resolve_followers(settled)

    def _settle_followers_locked(
        self, item: _Item, result: ServiceResult
    ) -> list[tuple[_Follower, ServiceResult]]:
        """Build follower results off the leader's, under the lock.

        The leader must already be out of ``_leaders`` (no new
        followers can attach) and ``result`` fully settled.  Each
        unresolved follower gets its own :class:`ServiceResult` sharing
        the leader's report/digest/error, and the counters move
        ``coalesced_in_flight`` ->
        ``coalesced``/``completed`` atomically with the snapshot, so
        ``stats()`` reconciles at every instant.  Futures resolve
        outside the lock (:meth:`_resolve_followers`).
        """
        settled = []
        for follower in item.followers:
            if follower.resolved:
                continue
            follower.resolved = True
            self._coalesced_in_flight -= 1
            self._coalesced += 1
            fresult = ServiceResult(
                index=follower.index,
                request=follower.request,
                report=result.report,
                error=result.error,
                digest=result.digest,
                worker=result.worker,
                elapsed=result.elapsed,
                attempts=0,
                request_id=follower.trace.request_id,
                trace=follower.trace,
                coalesced=True,
            )
            self._record_locked(fresult)
            settled.append((follower, fresult))
        return settled

    def _resolve_followers(self, settled) -> None:
        """Deliver follower results built by
        :meth:`_settle_followers_locked` -- outside the lock, so done
        callbacks may re-enter the service freely."""
        for follower, fresult in settled:
            if follower.timer is not None:
                follower.timer.cancel()
            follower.trace.record(
                "queue_wait", time.monotonic() - follower.enqueued_at
            )
            self._observe(fresult)
            follower.future.set_result(fresult)

    def _observe(self, result: ServiceResult) -> None:
        """Feed one resolved result to the metrics hook (histograms)."""
        if self.metrics is not None:
            self.metrics.observe_result(result)

    def _record_locked(self, result: ServiceResult) -> None:
        self._completed += 1
        if result.error is None:
            return
        self._failed += 1
        if isinstance(result.error, DeadlineExceeded):
            self._deadline_exceeded += 1
        elif isinstance(result.error, (RequestCancelled, ServiceClosedError)):
            self._cancelled += 1

    def _serve_item(self, item: _Item, slot: _Slot) -> ServiceResult:
        """Run one admitted request once, on ``slot``'s system.

        Never raises: failures are captured on the result.
        """
        request = item.request
        result = ServiceResult(
            index=item.index,
            request=request,
            worker=slot.name,
            attempts=0,
            request_id=item.trace.request_id,
            trace=item.trace,
        )
        t0 = time.perf_counter()
        try:
            # Expired while queued: unwind before paying for a system fill.
            item.token.check()
            result.attempts = 1
            system = slot.system(request.geometry or self.geometry)
            with run_scope(item.token, item.faults, item.trace):
                result.report, result.digest = _execute_request(
                    system, request, self.cache
                )
        except Exception as exc:  # isolate: the pool and cache must survive
            result.error = exc
        result.elapsed = time.perf_counter() - t0
        return result

    # ------------------------------------------------------------ client side
    @staticmethod
    def _request_id(index: int) -> str:
        return f"r{index:06d}"

    def _shed_result(
        self, index: int, request, reason: str, trace=None
    ) -> ServiceResult:
        return ServiceResult(
            index=index,
            request=request,
            error=RequestRejected(reason),
            worker="admission",
            attempts=0,
            request_id=self._request_id(index),
            trace=trace,
        )

    def _make_token(self, request: PermutationRequest) -> CancellationToken:
        if request.timeout is None and request.deadline is None:
            return CancellationToken(timeout=self.default_timeout)
        return CancellationToken(
            deadline=request.deadline, timeout=request.timeout
        )

    def submit(self, request: PermutationRequest, run_here: bool = False) -> Future:
        """Enqueue one request; the future resolves to a
        :class:`~repro.serve.requests.ServiceResult` (failures --
        including admission rejections -- are captured, never raised).

        With ``run_here=True``, the calling thread executes the request
        itself, and ``submit`` returns its resolved future, when the
        queue is empty and a slot is free at admission; otherwise the
        request queues as without it.  Either way it is admitted,
        coalesced, timed out and counted the same.

        Only submitting to a closed service raises
        (:class:`~repro.errors.ServiceClosedError`): that is a caller
        bug, not a traffic condition.

        The returned future carries the service-assigned ``request_id``
        as an attribute, available immediately -- the HTTP frontend's
        submit-then-poll protocol needs the handle before the result
        exists.
        """
        future: Future = Future()
        evicted: _Item | None = None
        evicted_shed: ServiceResult | None = None
        evicted_settled: list = []
        rejected: ServiceResult | None = None
        follower: _Follower | None = None
        follower_remaining: float | None = None
        slot: _Slot | None = None
        if self.recorder is not None:
            self.recorder.record(request)
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            key = execution_key(request, self.geometry) if self.coalesce else None
            if key is not None:
                leader = self._leaders.get(key)
                if leader is not None:
                    # Single-flight: attach to the in-flight leader.
                    # Followers are admitted but occupy no queue slot,
                    # so coalescing happens *before* admission control
                    # -- duplicates never contend for capacity.
                    index = self._submitted
                    self._submitted += 1
                    self._admitted += 1
                    self._coalesced_in_flight += 1
                    trace = RequestTrace(self._request_id(index))
                    future.request_id = trace.request_id
                    follower = _Follower(index, request, future, trace)
                    leader.followers.append(follower)
                    follower_remaining = self._make_token(request).remaining()
            if follower is None:
                capacity = self.queue_capacity
                if capacity is not None and len(self._queue) >= capacity:
                    if self.queue_policy == "reject":
                        index = self._submitted
                        self._submitted += 1
                        self._shed += 1
                        rejected = self._shed_result(
                            index, request,
                            f"queue at capacity ({capacity}); request rejected",
                        )
                    elif self.queue_policy == "shed-oldest":
                        evicted = self._queue.popleft()
                        if evicted.key is not None:
                            self._leaders.pop(evicted.key, None)
                        self._admitted -= 1
                        self._shed += 1
                        evicted_shed = self._shed_result(
                            evicted.index, evicted.request,
                            "shed from a full queue in favor of a newer "
                            "request",
                            trace=evicted.trace,
                        )
                        evicted_settled = self._settle_followers_locked(
                            evicted, evicted_shed
                        )
                    else:  # block
                        while len(self._queue) >= capacity and not self._closed:
                            self._space.wait()
                        if self._closed:
                            raise ServiceClosedError(
                                "service closed while submit was blocked on a "
                                "full queue"
                            )
                if rejected is None:
                    index = self._submitted
                    self._submitted += 1
                    self._admitted += 1
                    faults = (
                        self.faults.session(index)
                        if self.faults is not None and self.faults.active
                        else None
                    )
                    trace = RequestTrace(self._request_id(index))
                    future.request_id = trace.request_id
                    item = _Item(
                        index, request, future, self._make_token(request),
                        faults, trace, key=key,
                    )
                    if key is not None:
                        self._leaders[key] = item
                    if run_here and not self._queue and self._free:
                        slot = self._start_locked(item)
                    else:
                        self._queue.append(item)
                        self._work.notify()
        # Every future resolves *outside* the lock: an inline done
        # callback may re-enter the service (stats(), submit(), the
        # HTTP frontend's tracking) and the lock is not reentrant.
        if rejected is not None:
            future.request_id = rejected.request_id
            future.set_result(rejected)
            self._observe(rejected)
            return future
        if follower is not None:
            if follower_remaining is not None:
                # Per-request deadline: the timer detaches this
                # follower without touching the leader.  Resolution
                # cancels it; a late firing finds ``resolved`` set.
                timer = threading.Timer(
                    max(0.0, follower_remaining),
                    self._expire_follower, args=(follower,),
                )
                timer.daemon = True
                follower.timer = timer
                timer.start()
            return future
        if evicted is not None:
            evicted.future.set_result(evicted_shed)
            self._observe(evicted_shed)
            self._resolve_followers(evicted_settled)
        if slot is not None:
            self._execute(item, slot)
        return future

    def _expire_follower(self, follower: _Follower) -> None:
        """Deadline-timer callback: detach one expired follower.

        The follower resolves with :class:`~repro.errors.DeadlineExceeded`
        on its own result; the leader and its other followers are
        untouched -- deadlines are per-request promises, and one
        impatient client must not cancel the shared execution.
        """
        fresult = ServiceResult(
            index=follower.index,
            request=follower.request,
            error=DeadlineExceeded(
                "deadline expired while coalesced behind an identical "
                "in-flight request"
            ),
            worker="coalesce",
            attempts=0,
            request_id=follower.trace.request_id,
            trace=follower.trace,
            coalesced=True,
        )
        with self._lock:
            if follower.resolved:
                return
            follower.resolved = True
            self._coalesced_in_flight -= 1
            self._coalesced += 1
            self._record_locked(fresult)
            self._done.notify_all()
        follower.trace.record(
            "queue_wait", time.monotonic() - follower.enqueued_at
        )
        self._observe(fresult)
        follower.future.set_result(fresult)

    def run(self, requests) -> list[ServiceResult]:
        """Submit a batch and gather results in request order."""
        futures = [self.submit(r) for r in requests]
        return [f.result() for f in futures]

    def map_unordered(self, requests):
        """Yield results as they complete (completion order)."""
        from concurrent.futures import as_completed

        futures = [self.submit(r) for r in requests]
        for f in as_completed(futures):
            yield f.result()

    def cache_info(self):
        return self.cache.info() if self.cache is not None else None

    def stats(self) -> ServiceStats:
        with self._lock:
            return ServiceStats(
                submitted=self._submitted,
                admitted=self._admitted,
                shed=self._shed,
                completed=self._completed,
                failed=self._failed,
                deadline_exceeded=self._deadline_exceeded,
                cancelled=self._cancelled,
                queue_depth=len(self._queue),
                running=self._running,
                workers=self.workers,
                closed=self._closed,
                coalesced=self._coalesced,
                coalesced_in_flight=self._coalesced_in_flight,
            )

    def close(self, wait: bool = True, drain_timeout: float | None = None) -> None:
        """Stop accepting work and shut the pool down.  Idempotent.

        With ``drain_timeout=None`` (the default) the close is fully
        graceful: already-queued requests still execute, and the call
        blocks until the pool drains (``wait=False`` skips the block).
        With a ``drain_timeout``, queued-and-running work gets that many
        seconds to finish; whatever remains is then hard-cancelled --
        queued requests resolve with
        :class:`~repro.errors.ServiceClosedError`, running requests'
        tokens are cancelled so they unwind at their next checkpoint --
        and the call still joins every worker before returning.  The
        deadline is fixed in the same lock hold that closes the service,
        and no worker dequeues past it, so a worker that finishes while
        the queue is being flushed cannot start a queued request.
        Executions on ``run_here`` submitters' threads are waited for
        (and hard-cancelled) like the workers' own: the call returns
        only once no request is executing.
        """
        with self._lock:
            self._closed = True
            if wait and drain_timeout is not None:
                deadline = self._hard_deadline = time.monotonic() + drain_timeout
            self._work.notify_all()
            self._space.notify_all()
        if not wait:
            return
        flushed: list[tuple[_Item, ServiceResult, list]] = []
        if drain_timeout is not None:
            with self._lock:
                while self._queue or self._running:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._done.wait(remaining):
                        break
                while self._queue:
                    item = self._queue.popleft()
                    if item.key is not None:
                        self._leaders.pop(item.key, None)
                    self._completed += 1
                    self._failed += 1
                    self._cancelled += 1
                    result = ServiceResult(
                        index=item.index,
                        request=item.request,
                        error=ServiceClosedError(
                            "request was still queued when the service "
                            "hard-closed"
                        ),
                        worker="close",
                        attempts=0,
                        request_id=item.trace.request_id,
                        trace=item.trace,
                    )
                    settled = self._settle_followers_locked(item, result)
                    flushed.append((item, result, settled))
                for token in self._active.values():
                    token.cancel("service closed")
                self._work.notify_all()
            for item, result, settled in flushed:
                item.future.set_result(result)
                self._observe(result)
                self._resolve_followers(settled)
        for t in self._threads:
            t.join()
        with self._lock:
            while self._running:
                self._done.wait()

    def __enter__(self) -> "PermutationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PermutationService(workers={self.workers}, "
            f"submitted={self._submitted}, cache={self.cache!r})"
        )
