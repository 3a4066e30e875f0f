"""Socket-level tests for the HTTP/JSON frontend.

Every test here talks to a real listening socket (ephemeral port) --
nothing reaches into the handler layer -- because the contract under
test is the wire contract: each typed service error maps to its status
code with a structured JSON error body, sync and async submission both
work, and shutdown drains without connection resets.
"""

import gc
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
import weakref
from concurrent.futures import Future
from dataclasses import asdict

import pytest

from repro.pdm.geometry import DiskGeometry
from repro.serve import (
    FaultPlan,
    HttpFrontend,
    PermutationService,
    ServiceMetrics,
    parse_prometheus_text,
)
from repro.serve.http import result_to_dict
from repro.serve.loadgen import http_json, http_text, reconcile
from tests.serve.test_coalesce import _await, _GateCache

GEOMETRY = dict(N=2**10, B=2**3, D=2**2, M=2**7)

#: A fault plan that makes every pass sleep: requests become slow enough
#: to observe queued/running states deterministically via /stats polling.
SLOW = FaultPlan(seed=0, slow_passes=1.0, slow_seconds=0.05)

#: Slower still, for tests that queue requests behind a running one: the
#: running request must outlast the test's HTTP round trips and the
#: listener shutdown (up to one 50 ms accept-loop poll), which SLOW's one
#: fused-pass sleep does not under full-suite load.
HOLD = FaultPlan(seed=0, slow_passes=1.0, slow_seconds=0.5)

TRANSPOSE = {"perm": "transpose", "method": "auto"}


@pytest.fixture
def geometry():
    return DiskGeometry(**GEOMETRY)


def make_frontend(geometry, **service_kwargs):
    service = PermutationService(geometry, **service_kwargs)
    return HttpFrontend(service, metrics=ServiceMetrics(), own_service=True)


def wait_stats(url, predicate, timeout=5.0):
    """Poll /stats until ``predicate(stats)`` holds (or fail the test)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, stats = http_json("GET", url, "/stats")
        if predicate(stats):
            return stats
        time.sleep(0.005)
    pytest.fail("timed out waiting for /stats condition")


def poll_result(url, request_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = http_json("GET", url, f"/permutations/{request_id}")
        if status != 202:
            return status, body
        time.sleep(0.005)
    pytest.fail(f"request {request_id} never resolved")


def stored_answer(fe, request_id):
    """A resolved request's backlog entry, which must be its encoded
    answer: returns ``(status, decoded body)``."""
    entry = fe.lookup(request_id)
    assert not isinstance(entry, Future)
    assert isinstance(entry.body, bytes)
    return entry.status, json.loads(entry.body)


# --------------------------------------------------------------------------
# happy paths
# --------------------------------------------------------------------------

class TestSubmission:
    def test_sync_success(self, geometry):
        with make_frontend(geometry, workers=2) as fe:
            status, body = http_json(
                "POST", fe.url, "/permutations", dict(TRANSPOSE)
            )
        assert status == 200
        assert body["ok"] is True
        assert body["request_id"] == "r000000"
        assert body["report"]["verified"] is True
        assert body["report"]["passes"] >= 1
        assert body["report"]["parallel_ios"] > 0
        # the wire form omits default-valued fields ("method": "auto")
        assert body["request"] == {"perm": "transpose"}
        assert "queue_wait" in body["timings"]
        assert "execute" in body["timings"]

    def test_sync_wrapped_body(self, geometry):
        with make_frontend(geometry, workers=2) as fe:
            status, body = http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "mode": "sync"},
            )
        assert status == 200 and body["ok"] is True

    def test_async_submit_then_poll(self, geometry):
        with make_frontend(geometry, workers=2) as fe:
            status, body = http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "mode": "async"},
            )
            assert status == 202
            rid = body["request_id"]
            assert body["href"] == f"/permutations/{rid}"
            status, result = poll_result(fe.url, rid)
        assert status == 200
        assert result["request_id"] == rid
        assert result["ok"] is True

    def test_async_poll_while_pending(self, geometry):
        with make_frontend(geometry, workers=1, faults=SLOW) as fe:
            _, body = http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "mode": "async"},
            )
            rid = body["request_id"]
            status, pending = http_json("GET", fe.url, f"/permutations/{rid}")
            if status == 202:
                assert pending["status"] == "pending"
            status, _ = poll_result(fe.url, rid)
            assert status == 200

    def test_sync_wait_timeout_degrades_to_polling(self, geometry):
        with make_frontend(geometry, workers=1, faults=SLOW) as fe:
            status, body = http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "wait_timeout": 0.001},
            )
            assert status == 202
            status, result = poll_result(fe.url, body["request_id"])
            assert status == 200 and result["ok"] is True

    def test_digest_capture_over_the_wire(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            status, body = http_json(
                "POST", fe.url, "/permutations",
                {**TRANSPOSE, "capture_portion": True},
            )
        assert status == 200
        assert len(body["digest"]) == 64


class TestIntrospection:
    def test_healthz(self, geometry):
        with make_frontend(geometry, workers=2) as fe:
            status, body = http_json("GET", fe.url, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["workers"] == 2

    def test_stats_counts_requests(self, geometry):
        with make_frontend(geometry, workers=2) as fe:
            http_json("POST", fe.url, "/permutations", dict(TRANSPOSE))
            status, stats = http_json("GET", fe.url, "/stats")
        assert status == 200
        assert stats["submitted"] == 1
        assert stats["admitted"] + stats["shed"] == stats["submitted"]
        assert stats["cache"]["misses"] >= 1

    def test_cache_info_is_served_by_stats_alone(self, geometry):
        with make_frontend(geometry, workers=2) as fe:
            http_json("POST", fe.url, "/permutations", dict(TRANSPOSE))
            status, body = http_json("GET", fe.url, "/cache")
            _, stats = http_json("GET", fe.url, "/stats")
            info = fe.service.cache.info()
        assert status == 404
        assert stats["cache"] == asdict(info)
        assert info.misses == 1

    def test_config_reports_knobs(self, geometry):
        with make_frontend(
            geometry,
            workers=3,
            queue_capacity=7,
            queue_policy="shed-oldest",
        ) as fe:
            status, config = http_json("GET", fe.url, "/config")
        assert status == 200
        assert config["workers"] == 3
        assert config["queue_capacity"] == 7
        assert config["queue_policy"] == "shed-oldest"
        assert config["geometry"] == GEOMETRY
        assert "/permutations" in config["routes"]

    def test_metrics_page_parses_and_reconciles(self, geometry):
        with make_frontend(geometry, workers=2) as fe:
            for _ in range(3):
                http_json("POST", fe.url, "/permutations", dict(TRANSPOSE))
            _, stats = http_json("GET", fe.url, "/stats")
            status, page = http_text(fe.url, "/metrics")
        assert status == 200
        assert "# TYPE repro_requests_submitted_total counter" in page
        assert reconcile(stats, page) == []

    def test_http_traffic_is_itself_metered(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            http_json("POST", fe.url, "/permutations", dict(TRANSPOSE))
            http_json("GET", fe.url, "/healthz")
            _, page = http_text(fe.url, "/metrics")
        assert (
            'repro_http_requests_total{method="POST",path="/permutations",status="200"} 1'
            in page
        )
        assert (
            'repro_http_requests_total{method="GET",path="/healthz",status="200"} 1'
            in page
        )


# --------------------------------------------------------------------------
# the error taxonomy, over the wire
# --------------------------------------------------------------------------

class TestErrorTaxonomy:
    def test_validation_error_is_400(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            for field, value in (
                ("no_such_field", 1), ("backend", "numpy"), ("stream_records", 0),
                ("optimize", True),
            ):
                status, body = http_json(
                    "POST", fe.url, "/permutations", {field: value}
                )
                assert status == 400
                assert body["error"]["type"] == "ValidationError"
                assert field in body["error"]["message"]
                assert body["error"]["status"] == 400

    def test_unknown_perm_name_is_400(self, geometry):
        # the name is only resolved on a worker, so this arrives as a
        # failed *result*, not a submit-time rejection -- the status
        # mapping must treat it as the client error it is
        with make_frontend(geometry, workers=1) as fe:
            status, body = http_json(
                "POST", fe.url, "/permutations", {"perm": "nope"}
            )
        assert status == 400
        assert body["error"]["type"] == "ValidationError"
        assert "nope" in body["error"]["message"]

    def test_malformed_json_is_400(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            request = urllib.request.Request(
                fe.url + "/permutations",
                data=b"{not json",
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 400
            body = json.loads(err.value.read())
            assert body["error"]["type"] == "ValidationError"

    def test_non_object_body_is_400(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            request = urllib.request.Request(
                fe.url + "/permutations",
                data=b"[1, 2]",
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 400

    def test_bad_mode_is_400(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            status, body = http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "mode": "fire-and-forget"},
            )
        assert status == 400

    def test_queue_full_reject_is_429(self, geometry):
        with make_frontend(
            geometry,
            workers=1,
            queue_capacity=1,
            queue_policy="reject",
            faults=SLOW,
        ) as fe:
            # Occupy the worker, then the single queue slot, then overflow.
            http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "mode": "async"},
            )
            wait_stats(fe.url, lambda s: s["running"] == 1)
            http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "mode": "async"},
            )
            wait_stats(fe.url, lambda s: s["queue_depth"] == 1)
            status, body = http_json(
                "POST", fe.url, "/permutations", dict(TRANSPOSE)
            )
            assert status == 429
            assert body["error"]["type"] == "RequestRejected"
            assert "capacity" in body["error"]["message"]

    def test_shed_oldest_evicts_queued_request_as_429(self, geometry):
        with make_frontend(
            geometry,
            workers=1,
            queue_capacity=1,
            queue_policy="shed-oldest",
            faults=HOLD,
        ) as fe:
            http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "mode": "async"},
            )
            wait_stats(fe.url, lambda s: s["running"] == 1)
            _, queued = http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "mode": "async"},
            )
            wait_stats(fe.url, lambda s: s["queue_depth"] == 1)
            _, newer = http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "mode": "async"},
            )
            # The older queued request was evicted in favor of the newcomer.
            status, body = poll_result(fe.url, queued["request_id"])
            assert status == 429
            assert body["error"]["type"] == "RequestRejected"
            assert "shed" in body["error"]["message"]
            status, _ = poll_result(fe.url, newer["request_id"])
            assert status == 200

    def test_deadline_exceeded_is_504(self, geometry):
        # Multi-pass plan + slow passes: the deadline expires between
        # passes, where the cooperative checkpoint catches it (the fast
        # engine fires one per plan pass, also inside a fused chain).
        with make_frontend(geometry, workers=1, faults=SLOW) as fe:
            status, body = http_json(
                "POST", fe.url, "/permutations",
                {
                    "perm": "bit-reversal",
                    "method": "bmmc",
                    "verify": False,
                    "timeout": 0.02,
                },
            )
        assert status == 504
        assert body["error"]["type"] == "DeadlineExceeded"
        assert body["error"]["status"] == 504

    def test_injected_fault_is_500_and_transient(self, geometry):
        with make_frontend(
            geometry,
            workers=1,
            faults=FaultPlan(seed=0, planner_failures=1.0),
        ) as fe:
            status, body = http_json(
                "POST", fe.url, "/permutations", dict(TRANSPOSE)
            )
        assert status == 500
        assert body["error"]["type"] == "InjectedFault"
        assert body["error"]["transient"] is True

    def test_submit_after_service_close_is_503(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            fe.service.close(wait=False)
            status, body = http_json(
                "POST", fe.url, "/permutations", dict(TRANSPOSE)
            )
            assert status == 503
            assert body["error"]["type"] == "ServiceClosedError"

    def test_unknown_path_is_404(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            status, body = http_json("GET", fe.url, "/no/such/route")
        assert status == 404
        assert body["error"]["type"] == "NotFound"

    def test_unknown_request_id_is_404(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            status, body = http_json("GET", fe.url, "/permutations/r999999")
        assert status == 404

    def test_wrong_method_is_405(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            status, body = http_json("POST", fe.url, "/stats", {})
            assert status == 405
            status, _ = http_json("GET", fe.url, "/permutations")
            assert status == 405

    def test_error_statuses_are_metered(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            http_json("POST", fe.url, "/permutations", {"no_such_field": 1})
            _, page = http_text(fe.url, "/metrics")
        assert (
            'repro_http_requests_total{method="POST",path="/permutations",status="400"} 1'
            in page
        )


# --------------------------------------------------------------------------
# shutdown semantics (satellite: graceful drain over HTTP)
# --------------------------------------------------------------------------

class TestShutdown:
    def test_close_is_idempotent(self, geometry):
        fe = make_frontend(geometry, workers=1).start()
        fe.close()
        fe.close()

    def test_inflight_sync_request_completes_during_close(self, geometry):
        fe = make_frontend(geometry, workers=1, faults=SLOW).start()
        outcome = {}

        def client():
            outcome["status"], outcome["body"] = http_json(
                "POST", fe.url, "/permutations", dict(TRANSPOSE)
            )

        thread = threading.Thread(target=client)
        thread.start()
        wait_stats(fe.url, lambda s: s["running"] == 1)
        fe.close()  # graceful: drains the running request first
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert outcome["status"] == 200
        assert outcome["body"]["ok"] is True

    def test_listener_refuses_new_connections_after_close(self, geometry):
        fe = make_frontend(geometry, workers=1).start()
        url = fe.url
        fe.close()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/healthz", timeout=2)

    def test_drain_timeout_hard_cancels_queued_work(self, geometry):
        fe = make_frontend(geometry, workers=1, faults=HOLD).start()
        http_json(
            "POST", fe.url, "/permutations",
            {"request": dict(TRANSPOSE), "mode": "async"},
        )
        wait_stats(fe.url, lambda s: s["running"] == 1)
        _, queued = http_json(
            "POST", fe.url, "/permutations",
            {"request": dict(TRANSPOSE), "mode": "async"},
        )
        rid = queued["request_id"]
        fe.close(drain_timeout=0.0)
        # The listener is gone; the stranded request resolved typed.
        status, body = stored_answer(fe, rid)
        assert status == 503
        assert body["error"]["type"] == "ServiceClosedError"
        assert body["request_id"] == rid
        stats = fe.service.stats()
        assert stats.cancelled >= 1
        assert stats.admitted + stats.shed == stats.submitted

    def test_hard_close_never_starts_queued_work(self, geometry, monkeypatch):
        """A worker that finishes its request while close() is between
        its two lock holds must not start a queued one.

        The patched clock releases the held request the first time
        close() reads the time.  If close() holds no lock at that moment
        (it is between its lock holds), the clock also waits until the
        worker has had the chance to take the queued request.
        """
        from repro.serve import service as service_module

        cache = _GateCache()
        fe = make_frontend(geometry, workers=1, cache=cache).start()
        http_json(
            "POST", fe.url, "/permutations",
            {"request": dict(TRANSPOSE), "mode": "async"},
        )
        _await(lambda: cache.compiles == 1)
        _, queued = http_json(
            "POST", fe.url, "/permutations",
            {"request": {"perm": "gray", "method": "auto"}, "mode": "async"},
        )
        real_time = service_module.time
        closer = threading.current_thread()

        class Clock:
            def __getattr__(self, name):
                return getattr(real_time, name)

            def monotonic(self):
                if threading.current_thread() is closer and not cache.gate.is_set():
                    cache.gate.set()
                    if not fe.service._lock.locked():
                        _await(lambda: cache.compiles == 2)
                return real_time.monotonic()

        monkeypatch.setattr(service_module, "time", Clock())
        fe.close(drain_timeout=0.0)
        assert cache.compiles == 1, "a queued request started after close()"
        status, body = stored_answer(fe, queued["request_id"])
        assert status == 503
        assert body["error"]["type"] == "ServiceClosedError"
        assert body["request_id"] == queued["request_id"]

    def test_stats_reconcile_after_hard_close(self, geometry):
        metrics = ServiceMetrics()
        service = PermutationService(geometry, workers=1, faults=SLOW)
        fe = HttpFrontend(service, metrics=metrics, own_service=True).start()
        for _ in range(3):
            http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "mode": "async"},
            )
        fe.close(drain_timeout=0.0)
        from repro.serve import parse_prometheus_text

        parsed = parse_prometheus_text(metrics.render(service=service))
        stats = service.stats()
        assert parsed["repro_requests_submitted_total"] == stats.submitted == 3
        assert parsed["repro_requests_cancelled_total"] == stats.cancelled
        assert parsed["repro_requests_completed_total"] == stats.completed
        assert parsed["repro_service_up"] == 0.0


# --------------------------------------------------------------------------
# header validation, at the socket (urllib normalizes Content-Length,
# so malformed headers need a hand-written exchange)
# --------------------------------------------------------------------------

def _raw_exchange(url, request_bytes):
    """One hand-rolled HTTP exchange; returns (status, parsed_body)."""
    import socket

    host, port = url[len("http://"):].split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(request_bytes)
        sock.settimeout(10)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    try:
        parsed = json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError):
        parsed = {}
    return status, parsed


class TestHeaderValidation:
    """Regression: junk client headers used to escape as 500s.

    A non-integer Content-Length crashed ``int()`` in the body reader
    and a non-numeric wait_timeout crashed ``future.result()`` -- both
    unhandled ``ValueError``/``TypeError``, both squarely the client's
    mistake.  They must surface as typed 400 ValidationErrors.
    """

    def test_malformed_content_length_is_400(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            status, body = _raw_exchange(
                fe.url,
                b"POST /permutations HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: banana\r\n"
                b"Connection: close\r\n\r\n",
            )
        assert status == 400
        assert body["error"]["type"] == "ValidationError"
        assert "Content-Length" in body["error"]["message"]
        assert "banana" in body["error"]["message"]

    def test_negative_content_length_is_400(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            status, body = _raw_exchange(
                fe.url,
                b"POST /permutations HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: -7\r\n"
                b"Connection: close\r\n\r\n",
            )
        assert status == 400
        assert body["error"]["type"] == "ValidationError"

    def test_server_survives_the_malformed_header(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            _raw_exchange(
                fe.url,
                b"POST /permutations HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: banana\r\n"
                b"Connection: close\r\n\r\n",
            )
            status, body = http_json(
                "POST", fe.url, "/permutations", dict(TRANSPOSE)
            )
        assert status == 200 and body["ok"] is True

    @pytest.mark.parametrize("junk", ["soon", True, [1], {"s": 1}])
    def test_non_numeric_wait_timeout_is_400(self, geometry, junk):
        with make_frontend(geometry, workers=1) as fe:
            status, body = http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "wait_timeout": junk},
            )
        assert status == 400
        assert body["error"]["type"] == "ValidationError"
        assert "wait_timeout" in body["error"]["message"]

    def test_negative_wait_timeout_is_400(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            status, body = http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "wait_timeout": -1},
            )
        assert status == 400
        assert "wait_timeout" in body["error"]["message"]


# --------------------------------------------------------------------------
# idempotency keys
# --------------------------------------------------------------------------

class TestIdempotencyKeys:
    def test_repeat_posts_map_to_one_submission(self, geometry):
        with make_frontend(geometry, workers=2) as fe:
            answers = [
                http_json(
                    "POST", fe.url, "/permutations", dict(TRANSPOSE),
                    headers={"Idempotency-Key": "k1"},
                )
                for _ in range(3)
            ]
            _, stats = http_json("GET", fe.url, "/stats")
        assert all(status == 200 and body["ok"] for status, body in answers)
        ids = {body["request_id"] for _, body in answers}
        assert len(ids) == 1, "keyed repeats re-executed"
        # one submission, not three: repeats never reach the service
        assert stats["submitted"] == 1
        assert stats["completed"] == 1

    def test_body_field_spellings(self, geometry):
        with make_frontend(geometry, workers=2) as fe:
            _, first = http_json(
                "POST", fe.url, "/permutations",
                {**TRANSPOSE, "idempotency_key": "k2"},
            )
            _, wrapped = http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "idempotency_key": "k2"},
            )
            _, header = http_json(
                "POST", fe.url, "/permutations", dict(TRANSPOSE),
                headers={"Idempotency-Key": "k2"},
            )
            _, stats = http_json("GET", fe.url, "/stats")
        assert first["request_id"] == wrapped["request_id"] == header["request_id"]
        assert stats["submitted"] == 1

    def test_async_repeat_returns_the_same_handle(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            wrapped = {"request": dict(TRANSPOSE), "mode": "async"}
            _, a = http_json(
                "POST", fe.url, "/permutations", wrapped,
                headers={"Idempotency-Key": "k3"},
            )
            _, b = http_json(
                "POST", fe.url, "/permutations", wrapped,
                headers={"Idempotency-Key": "k3"},
            )
            assert a["request_id"] == b["request_id"]
            status, result = poll_result(fe.url, a["request_id"])
        assert status == 200 and result["ok"] is True

    def test_key_reuse_for_a_different_request_is_400(self, geometry):
        with make_frontend(geometry, workers=2) as fe:
            status, _ = http_json(
                "POST", fe.url, "/permutations", dict(TRANSPOSE),
                headers={"Idempotency-Key": "k4"},
            )
            assert status == 200
            status, body = http_json(
                "POST", fe.url, "/permutations", {"perm": "bit-reversal"},
                headers={"Idempotency-Key": "k4"},
            )
        assert status == 400
        assert body["error"]["type"] == "ValidationError"
        assert "k4" in body["error"]["message"]

    def test_header_body_disagreement_is_400(self, geometry):
        with make_frontend(geometry, workers=2) as fe:
            status, body = http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "idempotency_key": "a"},
                headers={"Idempotency-Key": "b"},
            )
        assert status == 400
        assert body["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("junk", [7, True, [1], ""])
    def test_junk_key_is_400(self, geometry, junk):
        with make_frontend(geometry, workers=2) as fe:
            status, body = http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "idempotency_key": junk},
            )
        assert status == 400
        assert body["error"]["type"] == "ValidationError"

    def test_oversized_key_is_400(self, geometry):
        with make_frontend(geometry, workers=2) as fe:
            status, _ = http_json(
                "POST", fe.url, "/permutations",
                {"request": dict(TRANSPOSE), "idempotency_key": "x" * 257},
            )
        assert status == 400

    def test_keys_are_pruned_with_the_result_backlog(self, geometry):
        with make_frontend(geometry, workers=2) as fe:
            fe.RESULT_BACKLOG = 2
            _, first = http_json(
                "POST", fe.url, "/permutations", dict(TRANSPOSE),
                headers={"Idempotency-Key": "old"},
            )
            for n in range(3):
                http_json(
                    "POST", fe.url, "/permutations",
                    {**TRANSPOSE, "seed": n + 1},
                    headers={"Idempotency-Key": f"fill-{n}"},
                )
            # the oldest key aged out with its tracked result: a repeat
            # is a *fresh* submission now, not a replayed answer
            _, again = http_json(
                "POST", fe.url, "/permutations", dict(TRANSPOSE),
                headers={"Idempotency-Key": "old"},
            )
        assert again["request_id"] != first["request_id"]
        assert len(fe._idempotency) <= 2
        assert len(fe._idem_by_rid) <= 2

    def test_config_reports_coalesce(self, geometry):
        service = PermutationService(geometry, workers=1, coalesce=True)
        with HttpFrontend(service, metrics=ServiceMetrics(), own_service=True) as fe:
            _, config = http_json("GET", fe.url, "/config")
        assert config["coalesce"] is True

    def test_coalesced_counters_reach_stats_and_metrics(self, geometry):
        """Duplicate async submissions through a slow coalescing pool:
        /stats and /metrics agree on the coalesced counters exactly."""
        service = PermutationService(
            geometry, workers=1, faults=SLOW, coalesce=True
        )
        with HttpFrontend(service, metrics=ServiceMetrics(), own_service=True) as fe:
            wrapped = {"request": dict(TRANSPOSE), "mode": "async"}
            rids = []
            for _ in range(4):
                _, body = http_json("POST", fe.url, "/permutations", wrapped)
                rids.append(body["request_id"])
            assert len(set(rids)) == 4  # no idempotency key: distinct handles
            for rid in rids:
                poll_result(fe.url, rid)
            stats = wait_stats(
                fe.url, lambda s: s["completed"] == 4
            )
            _, page = http_text(fe.url, "/metrics")
        assert stats["coalesced"] >= 1
        assert stats["coalesced_in_flight"] == 0
        problems = reconcile(stats, page)
        assert not problems, problems


# --------------------------------------------------------------------------
# keep-alive transport and the result backlog
# --------------------------------------------------------------------------

def _exchange(conn, method, path, payload=None, headers=None):
    """One request on an open keep-alive connection: (status, raw body)."""
    body = None if payload is None else json.dumps(payload).encode()
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    return response.status, response.read()


class TestTransport:
    def test_accepted_socket_sets_tcp_nodelay(self, geometry):
        seen = []
        healthz = HttpFrontend.ROUTES["/healthz"]["GET"]

        def probe(handler):
            seen.append(
                handler.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            )
            healthz(handler)

        with make_frontend(geometry, workers=1) as fe:
            fe.ROUTES = {**HttpFrontend.ROUTES, "/healthz": {"GET": probe}}
            status, _ = http_json("GET", fe.url, "/healthz")
        assert status == 200
        assert len(seen) == 1 and seen[0] != 0

    def test_one_connection_serves_posts_and_scrapes(self, geometry):
        perms = ["gray", "bit-reversal", "transpose", "shuffle"]
        with make_frontend(geometry, workers=2) as fe:
            conn = http.client.HTTPConnection(fe.host, fe.port, timeout=10)
            try:
                answers, sockets = [], []
                for i in range(22):
                    if i in (10, 21):
                        answers.append(_exchange(conn, "GET", "/metrics"))
                    else:
                        answers.append(_exchange(
                            conn, "POST", "/permutations",
                            {"perm": perms[i % len(perms)]},
                        ))
                    sockets.append(conn.sock)
            finally:
                conn.close()
        assert all(sock is sockets[0] for sock in sockets), "connection reopened"
        assert all(status == 200 for status, _ in answers)
        posts = [json.loads(raw) for i, (_, raw) in enumerate(answers)
                 if i not in (10, 21)]
        assert len(posts) == 20
        assert all(body["ok"] and body["report"]["verified"] for body in posts)
        for i in (10, 21):
            samples = parse_prometheus_text(answers[i][1].decode())
            assert "repro_requests_submitted_total" in samples

    def test_bodies_are_compact_json(self, geometry):
        with make_frontend(geometry, workers=1) as fe:
            conn = http.client.HTTPConnection(fe.host, fe.port, timeout=10)
            try:
                for method, path, payload in (
                    ("POST", "/permutations", dict(TRANSPOSE)),
                    ("GET", "/stats", None),
                    ("GET", "/no/such/route", None),
                ):
                    _, raw = _exchange(conn, method, path, payload)
                    parsed = json.loads(raw)
                    assert raw == json.dumps(
                        parsed, separators=(",", ":"), sort_keys=True
                    ).encode() + b"\n"
            finally:
                conn.close()


class TestResultBacklog:
    def test_sync_poll_and_repeat_send_the_same_bytes(self, geometry, monkeypatch):
        with make_frontend(geometry, workers=1) as fe:
            futures = []
            submit = fe.service.submit

            def capture(request):
                futures.append(submit(request))
                return futures[-1]

            monkeypatch.setattr(fe.service, "submit", capture)
            conn = http.client.HTTPConnection(fe.host, fe.port, timeout=10)
            key = {"Idempotency-Key": "same-bytes"}
            try:
                status, sync = _exchange(
                    conn, "POST", "/permutations", dict(TRANSPOSE), key
                )
                rid = json.loads(sync)["request_id"]
                polled = _exchange(conn, "GET", f"/permutations/{rid}")
                repeat = _exchange(
                    conn, "POST", "/permutations", dict(TRANSPOSE), key
                )
            finally:
                conn.close()
        assert status == 200
        assert polled == repeat == (200, sync)
        (future,) = futures  # the repeat never reached the service
        assert json.loads(sync) == result_to_dict(future.result())

    @pytest.mark.parametrize("key", [None, "slim"], ids=["plain", "keyed"])
    def test_resolved_entry_keeps_only_encoded_bytes(
        self, geometry, monkeypatch, key
    ):
        refs = []
        with make_frontend(geometry, workers=1) as fe:
            submit = fe.service.submit

            def capture(request):
                future = submit(request)
                refs.append(weakref.ref(future))
                future.add_done_callback(
                    lambda f: refs.append(weakref.ref(f.result()))
                )
                return future

            monkeypatch.setattr(fe.service, "submit", capture)
            headers = {} if key is None else {"Idempotency-Key": key}
            _, body = http_json(
                "POST", fe.url, "/permutations", dict(TRANSPOSE),
                headers=headers,
            )
            rid = body["request_id"]
            assert stored_answer(fe, rid) == (200, body)
            if key is not None:
                entry = fe._idempotency[key]
                assert entry.request_id == rid
                assert not any(
                    isinstance(getattr(entry, name), Future)
                    for name in entry.__slots__
                )
        # With the pool joined, nothing but the frontend could still
        # hold the request's future or result, and it holds neither.
        gc.collect()
        assert len(refs) == 2
        assert all(ref() is None for ref in refs)
        assert stored_answer(fe, rid) == (200, body)
