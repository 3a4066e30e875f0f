"""Execution slots: the service's bound on concurrent executions.

The contract under test:

* **at most ``workers`` executions** -- a request takes one of the
  service's ``workers`` slots when it starts executing, whether a
  worker thread dequeued it or its submitter runs it
  (``submit(run_here=True)``, the HTTP sync path); the rest queue and
  show in ``queue_depth``;
* **no overtaking** -- a submitter runs its own request only when the
  queue is empty;
* **one book** -- the counters reconcile at every instant
  (:meth:`ServiceStats.check`, sampled while executions are held);
* **close waits for every execution** -- graceful and hard
  :meth:`PermutationService.close` return with ``running == 0``, and a
  hard close cancels a submitter's execution as it would a worker's.

Executions are held at an event by patching the service's
``_execute_request``; the patch polls the cancellation checkpoint, as
the engines do, so a hard close can unwind it.
"""

import http.client
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.errors import RequestCancelled
from repro.pdm.cancel import checkpoint
from repro.pdm.geometry import DiskGeometry
from repro.serve import (
    HttpFrontend,
    PermutationRequest,
    PermutationService,
    ServiceMetrics,
    ServiceStats,
)
from repro.serve import service as service_module
from tests.serve.test_coalesce import HOT, _await

GEOMETRY = DiskGeometry(N=2**10, B=2**3, D=2**2, M=2**7)
SLOT_NAMES = {"perm-worker-0", "perm-worker-1"}


class _Hold:
    """Patches ``_execute_request`` to wait for :attr:`gate` (or for the
    request's own gate in :attr:`gates`, keyed by ``perm``), recording
    which threads executed, in what order, and the peak concurrency."""

    def __init__(self, monkeypatch) -> None:
        self.gate = threading.Event()
        self.gates: dict[str, threading.Event] = {}
        self.lock = threading.Lock()
        self.inflight = 0
        self.peak = 0
        self.started: list[tuple[str, threading.Thread]] = []
        real = service_module._execute_request

        def held(system, request, cache):
            with self.lock:
                self.inflight += 1
                self.peak = max(self.peak, self.inflight)
                self.started.append((request.perm, threading.current_thread()))
            gate = self.gates.get(request.perm, self.gate)
            try:
                while not gate.wait(0.005):
                    checkpoint("pass")
                return real(system, request, cache)
            finally:
                with self.lock:
                    self.inflight -= 1

        monkeypatch.setattr(service_module, "_execute_request", held)


class _Sampler:
    """Samples ``stats().check()`` from its own thread until stopped."""

    def __init__(self, service) -> None:
        self.service = service
        self.problems: list[list[str]] = []
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            problems = self.service.stats().check()
            self.samples += 1
            if problems:
                self.problems.append(problems)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def _post(fe, payload):
    conn = http.client.HTTPConnection(fe.host, fe.port, timeout=30)
    try:
        conn.request(
            "POST", "/permutations", body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _run_here(service, request):
    """Submit with ``run_here`` on a new thread; returns the thread and
    a dict that receives the resolved future."""
    out = {}

    def submit():
        out["future"] = service.submit(request, run_here=True)

    thread = threading.Thread(target=submit)
    thread.start()
    return thread, out


class TestSlots:
    def test_two_slots_serve_four_sync_posts(self, monkeypatch):
        hold = _Hold(monkeypatch)
        service = PermutationService(GEOMETRY, workers=2)
        perms = ["transpose", "gray", "bit-reversal", "shuffle"]
        with HttpFrontend(service, metrics=ServiceMetrics(), own_service=True) as fe:
            sampler = _Sampler(service)
            try:
                with ThreadPoolExecutor(4) as pool:
                    answers = [
                        pool.submit(_post, fe, {"perm": perm}) for perm in perms
                    ]
                    _await(
                        lambda: service.stats().running == 2
                        and service.stats().queue_depth == 2,
                        message="two executions and two queued never showed",
                    )
                    _await(lambda: sampler.samples >= 50)
                    assert hold.inflight == 2
                    hold.gate.set()
                    results = [answer.result(timeout=30) for answer in answers]
            finally:
                sampler.stop()
        assert hold.peak == 2
        assert sampler.problems == []
        assert all(status == 200 for status, _ in results)
        assert {body["worker"] for _, body in results} <= SLOT_NAMES
        # The first two ran on the handler threads that read them.
        runners = {thread.name for _, thread in hold.started[:2]}
        assert all(name.startswith("http-handler-") for name in runners)
        stats = service.stats()
        assert stats.check() == []
        assert (stats.completed, stats.running, stats.queue_depth) == (4, 0, 0)

    def test_sync_post_with_wait_timeout_still_degrades_to_202(self, monkeypatch):
        hold = _Hold(monkeypatch)
        service = PermutationService(GEOMETRY, workers=2)
        with HttpFrontend(service, metrics=ServiceMetrics(), own_service=True) as fe:
            status, body = _post(
                fe, {"request": {"perm": "transpose"}, "wait_timeout": 0.05}
            )
            assert status == 202
            assert body["status"] == "pending"
            _await(lambda: hold.inflight == 1)
            (_, thread), = hold.started
            assert thread.name.startswith("perm-worker-")
            hold.gate.set()
            _await(lambda: service.stats().completed == 1)
            conn = http.client.HTTPConnection(fe.host, fe.port, timeout=10)
            try:
                conn.request("GET", f"/permutations/{body['request_id']}")
                response = conn.getresponse()
                polled = json.loads(response.read())
            finally:
                conn.close()
        assert response.status == 200
        assert polled["worker"] in SLOT_NAMES

    def test_a_queued_request_is_never_overtaken(self, monkeypatch):
        hold = _Hold(monkeypatch)
        with PermutationService(GEOMETRY, workers=1) as service:
            runner, out = _run_here(service, PermutationRequest(perm="transpose"))
            _await(lambda: hold.inflight == 1)
            # No slot is free: both queue, although they ask to run here.
            first = service.submit(PermutationRequest(perm="gray"), run_here=True)
            second = service.submit(
                PermutationRequest(perm="shuffle"), run_here=True
            )
            assert service.stats().queue_depth == 2
            assert not first.done() and not second.done()
            hold.gate.set()
            runner.join(timeout=10)
            results = [f.result(timeout=10) for f in (out["future"], first, second)]
        assert [perm for perm, _ in hold.started] == ["transpose", "gray", "shuffle"]
        assert hold.started[0][1] is runner
        assert all(t.name == "perm-worker-0" for _, t in hold.started[1:])
        assert all(r.ok and r.worker == "perm-worker-0" for r in results)

    def test_graceful_close_waits_for_a_submitters_execution(self, monkeypatch):
        hold = _Hold(monkeypatch)
        service = PermutationService(GEOMETRY, workers=1)
        runner, out = _run_here(service, PermutationRequest(perm="transpose"))
        _await(lambda: hold.inflight == 1)
        assert hold.started[0][1] is runner
        closer = threading.Thread(target=service.close)
        closer.start()
        closer.join(timeout=0.2)
        assert closer.is_alive(), "close() returned while a request executed"
        hold.gate.set()
        closer.join(timeout=10)
        runner.join(timeout=10)
        assert not closer.is_alive()
        result = out["future"].result(timeout=0)
        assert result.ok and result.worker == "perm-worker-0"
        stats = service.stats()
        assert stats.running == 0 and stats.completed == 1
        assert stats.check() == []

    def test_graceful_close_wakes_a_worker_left_waiting_for_a_slot(
        self, monkeypatch
    ):
        # Both slots run submitters' requests and a third queues, so
        # both workers wait for a slot.  The first slot freed goes to
        # one worker with the queued request; the second is freed with
        # the queue empty, and the other worker must still be woken to
        # see the service closed and drained.
        hold = _Hold(monkeypatch)
        hold.gates = {
            perm: threading.Event() for perm in ("transpose", "gray", "shuffle")
        }
        service = PermutationService(GEOMETRY, workers=2)
        runners = [
            _run_here(service, PermutationRequest(perm=perm))
            for perm in ("transpose", "gray")
        ]
        _await(lambda: hold.inflight == 2)
        queued = service.submit(PermutationRequest(perm="shuffle"))
        closer = threading.Thread(target=service.close, daemon=True)
        closer.start()
        try:
            _await(lambda: service.stats().closed)
            hold.gates["transpose"].set()
            _await(lambda: len(hold.started) == 3)
            assert hold.started[2][1].name.startswith("perm-worker-")
            hold.gates["gray"].set()
            for runner, _ in runners:
                runner.join(timeout=10)
            hold.gates["shuffle"].set()
            closer.join(timeout=10)
            assert not closer.is_alive(), "close() hung on a worker never woken"
        finally:
            for gate in hold.gates.values():
                gate.set()
        results = [out["future"].result(timeout=0) for _, out in runners]
        results.append(queued.result(timeout=0))
        assert all(r.ok and r.worker in SLOT_NAMES for r in results)
        stats = service.stats()
        assert (stats.completed, stats.running, stats.queue_depth) == (3, 0, 0)
        assert stats.check() == []

    def test_hard_close_cancels_a_submitters_execution(self, monkeypatch):
        hold = _Hold(monkeypatch)
        service = PermutationService(GEOMETRY, workers=1)
        runner, out = _run_here(service, PermutationRequest(perm="transpose"))
        _await(lambda: hold.inflight == 1)
        queued = service.submit(PermutationRequest(perm="gray"))
        service.close(drain_timeout=0.0)  # never releases the gate
        runner.join(timeout=10)
        stats = service.stats()
        assert stats.running == 0
        result = out["future"].result(timeout=0)
        assert isinstance(result.error, RequestCancelled)
        assert result.worker == "perm-worker-0"
        assert queued.result(timeout=0).worker == "close"
        assert (stats.completed, stats.failed, stats.cancelled) == (2, 2, 2)
        assert stats.check() == []

    def test_an_async_repeat_answers_at_once_while_its_key_runs(
        self, monkeypatch
    ):
        # A keyed sync POST queues, even with a slot free: a repeat must
        # find its request_id while it runs, not after.
        hold = _Hold(monkeypatch)
        service = PermutationService(GEOMETRY, workers=2)
        keyed = {"request": {"perm": "transpose"}, "idempotency_key": "k"}
        with HttpFrontend(service, metrics=ServiceMetrics(), own_service=True) as fe:
            with ThreadPoolExecutor(2) as pool:
                try:
                    first = pool.submit(_post, fe, keyed)
                    _await(lambda: hold.inflight == 1)
                    repeat = pool.submit(_post, fe, {**keyed, "mode": "async"})
                    status, body = repeat.result(timeout=5)
                    assert hold.inflight == 1, "the repeat waited for the run"
                finally:
                    hold.gate.set()
                first_status, first_body = first.result(timeout=30)
        assert status == 202 and body["status"] == "pending"
        assert first_status == 200
        assert body["request_id"] == first_body["request_id"]
        (_, thread), = hold.started
        assert thread.name.startswith("perm-worker-")
        assert service.stats().completed == 1

    def test_a_duplicate_coalesces_onto_a_submitters_execution(self, monkeypatch):
        hold = _Hold(monkeypatch)
        with PermutationService(GEOMETRY, workers=2, coalesce=True) as service:
            runner, out = _run_here(service, HOT)
            _await(lambda: hold.inflight == 1)
            follower = service.submit(replace(HOT), run_here=True)
            stats = service.stats()
            assert (stats.running, stats.coalesced_in_flight) == (1, 1)
            assert stats.check() == []
            hold.gate.set()
            runner.join(timeout=10)
            leader = out["future"].result(timeout=0)
            coalesced = follower.result(timeout=10)
        assert len(hold.started) == 1
        assert leader.ok and not leader.coalesced
        assert coalesced.ok and coalesced.coalesced
        assert coalesced.digest == leader.digest
        assert coalesced.worker == leader.worker == "perm-worker-0"
        assert service.stats().coalesced == 1


# --------------------------------------------------------------------------
# the counter invariants
# --------------------------------------------------------------------------

BALANCED = ServiceStats(
    submitted=10, admitted=9, shed=1, completed=6, failed=3,
    deadline_exceeded=1, cancelled=1, queue_depth=1, running=1, workers=2,
    closed=False, coalesced=2, coalesced_in_flight=1,
)


class TestStatsCheck:
    def test_a_balanced_snapshot_passes(self):
        assert BALANCED.check() == []

    @pytest.mark.parametrize(
        "change, names",
        [
            (dict(shed=2), ["admitted 9 + shed 2 != submitted 10"]),
            (dict(running=2), ["admitted 9 != completed + queue_depth + running "
                               "+ coalesced_in_flight = 10"]),
            (dict(queue_depth=0), ["admitted 9 != completed + queue_depth + "
                                   "running + coalesced_in_flight = 8"]),
            (dict(failed=7), ["failed 7 > completed 6"]),
            (dict(cancelled=2, deadline_exceeded=2), ["cancelled 2 > failed"]),
            (dict(coalesced=7), ["coalesced 7 > completed 6"]),
        ],
        ids=["shed", "running", "queue_depth", "failed", "cancelled", "coalesced"],
    )
    def test_an_off_by_one_snapshot_is_reported(self, change, names):
        problems = replace(BALANCED, **change).check()
        assert len(problems) == len(names)
        for problem, name in zip(problems, names):
            assert name in problem

    def test_every_invariant_is_named_once(self):
        broken = replace(
            BALANCED, submitted=11, completed=5, failed=6, coalesced=6,
        )
        assert len(broken.check()) == 4
