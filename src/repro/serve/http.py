"""The HTTP/JSON frontend: a network face for :class:`PermutationService`.

Everything here is standard library -- :class:`ThreadingHTTPServer`
plus ``json`` -- so the repo stays dependency-free while still serving
real sockets.  The frontend is deliberately thin: admission control,
deadlines, and fault injection all live in the service; this layer
translates HTTP to requests and typed errors to status codes.

Routes
======

``POST /permutations``
    Body is a request dict (the :func:`~repro.serve.request_from_dict`
    shape), optionally wrapped as ``{"request": {...}, "mode":
    "sync"|"async", "wait_timeout": seconds, "idempotency_key": str}``.
    ``sync`` (default) blocks until the result and answers with its
    outcome status; ``async`` answers ``202`` immediately with the
    service-assigned ``request_id`` for polling.  A ``sync`` call whose
    ``wait_timeout`` elapses degrades to the async answer -- the work
    is not cancelled, the client just polls for it.  A ``sync`` call
    with neither a ``wait_timeout`` nor an idempotency key runs on the
    handler thread that read it when the service's queue is empty and
    one of its ``workers`` slots is free (``submit(run_here=True)``), so
    it pays no handoff to a worker thread and back; otherwise it queues
    like any request.

    An ``idempotency_key`` (body field, or the ``Idempotency-Key``
    header; both present must agree) makes the POST safely retryable:
    the first submission with a key executes and is remembered in a
    keyed resolved-backlog, and every repeat maps to the *same*
    ``request_id`` -- it neither re-executes nor double-counts in
    ``/stats``.  Reusing a key with a *different* request body is a
    400: a key names one request, not a slot.

``GET /permutations/{id}``
    Poll one request: ``202`` while pending, the outcome status with
    the full result once resolved, ``404`` for an unknown id.

``GET /healthz`` ``/stats`` ``/config``
    Liveness + introspection, all JSON.  ``/stats`` is the exact
    :class:`~repro.serve.ServiceStats` snapshot (plus the plan cache's
    :class:`~repro.pdm.cache.CacheInfo` under ``cache``) the load
    generator reconciles ``/metrics`` against.

``GET /metrics``
    Prometheus text format 0.0.4
    (:meth:`~repro.serve.metrics.ServiceMetrics.render` with the
    snapshot bridge refreshed), ready for a real scraper.

Error mapping (:func:`status_for`): the service's typed failures become
meaningful statuses -- ``RequestRejected`` 429, ``DeadlineExceeded``
504, ``ServiceClosedError`` 503, ``ValidationError`` 400, cooperative
``RequestCancelled`` 499, anything else 500.  Subclass order matters
twice: ``ServiceClosedError`` *is a* ``ValidationError`` but means
"stop sending traffic here", and ``DeadlineExceeded`` *is a*
``RequestCancelled`` but deserves 504.

Transport: every connection is HTTP/1.1 keep-alive with ``TCP_NODELAY``
set on the accepted socket.  The request head is read by
``_Handler.parse_request``: the stdlib's request-line checks and
statuses, with the header fields read by a small reader
(``_read_fields``) instead of ``email.feedparser``.  Each answer's
status line, ``Server``, ``Date``, ``Content-Type`` and
``Content-Length`` fields and body go out in one write (error pages
from ``send_error`` keep the stdlib's two).  Every answer is counted
in ``repro_http_requests_total`` before it is written; one that
``send_error`` writes before dispatch (a refused request line, an
over-long line, too many fields, an unknown method) is counted under
``method="*invalid*"`` and ``path="*unrouted*"``.  A request line
refused before its version is read -- a bad version, HTTP/2 or later,
one word, an HTTP/0.9 request other than GET -- gets an HTTP/1.1
status line and the stdlib's error page, then a close; the stdlib
sends these the page alone, as HTTP/0.9.  ``TCP_NODELAY`` stays:
with Nagle's algorithm on, a send that follows another unacknowledged
one waits for the client's delayed ACK (about 40 ms), and one write
alone did not stop a 14.6 KB ``/metrics`` scrape from waiting.  Every
JSON body is encoded by one function, ``_encode_json``: compact
separators and sorted keys, so the C encoder does the work
(``indent`` forces the pure-Python one).

The result backlog: each submitted request's future is tracked under
its ``request_id``.  When it resolves, a done-callback replaces the
future with the request's encoded answer (status plus body bytes),
built once; the sync answer, every poll and every idempotent repeat
send those same bytes.  Nothing else of a resolved request -- its
result, report, request, trace or future -- stays in the frontend.
The backlog keeps the last :attr:`HttpFrontend.RESULT_BACKLOG`
resolved answers; the oldest resolved entry is evicted first (pending
entries never are), and an idempotency key dies with its entry.

Shutdown (the graceful-drain contract): :meth:`HttpFrontend.close`
first stops the accept loop and closes the listener socket -- new
connections are refused cleanly, none are accepted-then-reset -- then
drains the service (``drain_timeout`` bounds it; queued work past the
timeout is hard-cancelled and resolves as 503), and finally joins the
in-flight handler threads, whose blocked ``future.result()`` calls were
released by the drain.  SIGTERM/SIGINT wiring lives in the CLI.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import asdict
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple

from repro.errors import (
    DeadlineExceeded,
    ReproError,
    RequestCancelled,
    RequestRejected,
    ServiceClosedError,
    TransientError,
    ValidationError,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.requests import request_from_dict, request_to_dict

__all__ = [
    "HttpFrontend",
    "status_for",
    "error_to_dict",
    "result_to_dict",
]

#: nginx's "client closed request" -- the request was cancelled, not failed.
_CLIENT_CLOSED_REQUEST = 499


def status_for(error: BaseException | None) -> int:
    """Map a service failure to its HTTP status (200 for success).

    Checked in subclass-precedence order; see the module docstring for
    the two places ordering is load-bearing.
    """
    if error is None:
        return 200
    if isinstance(error, RequestRejected):
        return 429
    if isinstance(error, DeadlineExceeded):
        return 504
    if isinstance(error, ServiceClosedError):
        return 503
    if isinstance(error, RequestCancelled):
        return _CLIENT_CLOSED_REQUEST
    if isinstance(error, ValidationError):
        return 400
    return 500


def error_to_dict(error: BaseException) -> dict:
    return {
        "type": type(error).__name__,
        "message": str(error),
        "status": status_for(error),
        "transient": isinstance(error, TransientError),
    }


def result_to_dict(result) -> dict:
    """JSON-encode one :class:`~repro.serve.ServiceResult`."""
    payload = {
        "request_id": result.request_id,
        "index": result.index,
        "ok": result.ok,
        "status": status_for(result.error),
        "worker": result.worker,
        "attempts": result.attempts,
        "elapsed": result.elapsed,
        "timings": dict(result.timings),
    }
    try:
        payload["request"] = request_to_dict(result.request)
    except ValidationError:
        payload["request"] = {"describe": result.request.describe()}
    if result.digest is not None:
        payload["digest"] = result.digest
    if result.error is not None:
        payload["error"] = error_to_dict(result.error)
    if result.report is not None:
        report = result.report
        payload["report"] = {
            "method": report.method,
            "classes": sorted(c.value for c in report.classes),
            "passes": report.passes,
            "parallel_ios": report.io.parallel_ios,
            "parallel_reads": report.io.parallel_reads,
            "parallel_writes": report.io.parallel_writes,
            "blocks_read": report.io.blocks_read,
            "blocks_written": report.io.blocks_written,
            "final_portion": report.final_portion,
            "verified": report.verified,
            "bounds": dict(report.bounds),
        }
    return payload


def _encode_json(payload: dict) -> bytes:
    """The wire form of every JSON response body."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode() + b"\n"


class _Answer(NamedTuple):
    """A resolved request's answer as the backlog keeps it."""

    status: int
    body: bytes


def _encode_result(result) -> _Answer:
    payload = result_to_dict(result)
    return _Answer(payload["status"], _encode_json(payload))


def _resolved(entry) -> bool:
    """Whether a backlog entry (a future or an :class:`_Answer`) is done."""
    return isinstance(entry, _Answer) or entry.done()


#: ``http.client``'s limits on a request head, which the stdlib server
#: applies: the longest line, and the most lines, blank line included.
_MAX_LINE = 65536
_MAX_FIELDS = 100


class _HeadTooLarge(Exception):
    """A request head over a limit; the args are ``send_error``'s
    message and explanation."""


class _Fields(dict):
    """A request's header fields, keyed by lower-cased name.  The first
    occurrence of a name wins, and ``get`` matches names in any case,
    as ``email.message.Message.get`` does."""

    __slots__ = ()

    def get(self, name, default=None):
        return dict.get(self, name.lower(), default)


def _read_fields(rfile) -> _Fields:
    """Read the header fields up to the blank line, in place of the
    stdlib's ``email.feedparser``.

    As in ``email.feedparser``: a value loses its leading blanks and
    its line end; a line that starts with a blank continues the field
    before it; an mbox ``From `` line and a field with no name are
    skipped, and so are the continuation lines after them; and any
    other line that is not a field ends the fields (the rest is read
    and dropped).  Unlike ``email.feedparser``, a bare CR does not end
    a line: it stays in the value, which a conforming client never
    sends, and which a number such as ``Content-Length`` then refuses.
    """
    lines = []
    while True:
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _HeadTooLarge(
                "Line too long",
                f"got more than {_MAX_LINE} bytes when reading header line",
            )
        lines.append(line)
        if len(lines) > _MAX_FIELDS:
            raise _HeadTooLarge(
                "Too many headers", f"got more than {_MAX_FIELDS} headers"
            )
        if line in (b"\r\n", b"\n", b""):
            break
    pairs: list[list[str]] = []
    field = None  # the field a continuation line extends
    for line in lines[:-1]:
        text = line.decode("iso-8859-1")
        if text[0] in " \t":
            if field is not None:
                field[1] += text
            continue
        field = None
        if text.startswith("From "):
            continue
        name, colon, value = text.partition(":")
        if not (colon and name.isascii() and name.isprintable()) or " " in name:
            break
        if name:
            field = [name.lower(), value.lstrip(" \t")]
            pairs.append(field)
    fields = _Fields()
    for name, value in pairs:
        fields.setdefault(name, value.rstrip("\r\n"))
    return fields


def _version_number(version: str) -> tuple[int, int] | None:
    """``HTTP/x.y`` as ``(x, y)``; ``None`` where the stdlib answers 400."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(
        part.isascii() and part.isdigit() and len(part) <= 10 for part in parts
    ):
        return None
    return int(parts[0]), int(parts[1])


class _Handler(BaseHTTPRequestHandler):
    """One HTTP exchange.  All routing happens in :meth:`_dispatch`;
    the do_* methods only name the verb."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    #: ``StreamRequestHandler.setup`` sets ``TCP_NODELAY`` on the socket:
    #: no send may wait for the peer's ACK of the one before.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------ plumbing
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the metrics registry is the access log

    def parse_request(self) -> bool:
        """Read the request line and the header fields.

        The stdlib's checks, statuses and connection handling, with the
        fields read by :func:`_read_fields` instead of
        ``email.feedparser``.  Returns False when the request is not to
        be served; an error, if there is one, is answered first.  A
        request refused before its version is read is answered with an
        HTTP/1.1 status line (:meth:`_refuse`), where the stdlib sends
        the error page alone.
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _version_number(version)
            if number is None:
                return self._refuse(400, f"Bad request version ({version!r})")
            if number >= (2, 0):
                return self._refuse(505, f"Invalid HTTP version ({version[5:]})")
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            return self._refuse(400, f"Bad request syntax ({requestline!r})")
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                return self._refuse(
                    400, f"Bad HTTP/0.9 request type ({command!r})"
                )
        self.command = command
        # As the stdlib does: '//host/x' must not read as a network path.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = _read_fields(self.rfile)
        except _HeadTooLarge as exc:
            self.send_error(431, *exc.args)
            return False
        connection = self.headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            self.headers.get("Expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def send_error(self, code, message=None, explain=None) -> None:
        """Count an answer written before dispatch, then send the
        stdlib's error page.

        Only heads that never reach :meth:`_dispatch` are answered here:
        the stdlib's 414 and 501, :meth:`_refuse`'s 400 and 505, and the
        431 of :func:`_read_fields`.  They are counted before any byte
        goes out, as :meth:`_account` counts a routed answer, under
        ``path="*unrouted*"`` and a fixed method label: the method word
        of a refused head is whatever the client sent, and a label per
        word would let clients grow the series without bound.
        """
        self.frontend.metrics.http_requests.inc(
            method="*invalid*", path="*unrouted*", status=str(int(code))
        )
        super().send_error(code, message, explain)

    def _refuse(self, code: int, message: str) -> bool:
        """Answer a refused request line with the stdlib's error page,
        fields and ``Connection: close`` under an HTTP/1.1 status line,
        then close.  ``send_error`` writes no status line or field while
        ``request_version`` is still the default ``HTTP/0.9``, so the
        version is set to the one this server answers in first."""
        self.request_version = self.protocol_version
        self.close_connection = True
        self.send_error(code, message)
        return False

    @property
    def frontend(self) -> "HttpFrontend":
        return self.server.frontend

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        """Answer with the stdlib's status line and ``Server`` and
        ``Date`` fields, then ``Content-Type`` and ``Content-Length``:
        head and body in one write."""
        self._status = status
        self._account(status)
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)  # HTTP/0.9 has no head
            return
        reason = self.responses.get(status, ("",))[0]
        head = (
            f"{self.protocol_version} {status} {reason}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(status, _encode_json(payload), "application/json")

    def _send_answer(self, answer: _Answer) -> None:
        self._send(answer.status, answer.body, "application/json")

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send(status, text.encode(), content_type)

    def _send_error_json(self, error: BaseException, status=None) -> None:
        status = status_for(error) if status is None else status
        self._send_json(status, {"error": error_to_dict(error)})

    def _read_body(self) -> dict:
        raw_length = self.headers.get("Content-Length")
        try:
            length = int(raw_length) if raw_length else 0
        except ValueError:
            # A malformed header is the client's bug, not a 500: there
            # is no body length to trust, so refuse before reading.
            raise ValidationError(
                f"Content-Length must be an integer, got {raw_length!r}"
            ) from None
        if length < 0:
            raise ValidationError(
                f"Content-Length must be >= 0, got {length}"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValidationError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        return payload

    # ------------------------------------------------------------ dispatch
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        self._dispatch("POST")

    def _account(self, status: int) -> None:
        """Record this exchange's counter + latency samples.

        Called from the _send helpers *before* any response byte goes
        out, so a client that has read its reply is guaranteed to see
        the request on a subsequent /metrics scrape (counting in a
        ``finally`` after the write loses that race).  Idempotent; the
        dispatch ``finally`` is only a net for exchanges that died
        before sending anything.
        """
        if self._accounted:
            return
        self._accounted = True
        metrics = self.frontend.metrics
        metrics.http_requests.inc(
            method=self._method, path=self._route_label, status=str(status)
        )
        metrics.http_latency.observe(
            time.perf_counter() - self._started, path=self._route_label
        )

    def _dispatch(self, method: str) -> None:
        fe = self.frontend
        metrics = fe.metrics
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        route, handler = self._route(method, path)
        self._status = 500
        self._method = method
        self._route_label = route
        self._accounted = False
        metrics.http_inflight.inc()
        self._started = time.perf_counter()
        try:
            if handler is None:
                known = path in fe.ROUTES
                self._route_label = path if known else "*unrouted*"
                self._send_json(
                    405 if known else 404,
                    {
                        "error": {
                            "type": "MethodNotAllowed" if known else "NotFound",
                            "message": (
                                f"{method} {path} is not routed; see /config"
                            ),
                            "status": 405 if known else 404,
                        }
                    },
                )
            else:
                handler(self)
        except ReproError as exc:
            # Typed library failures surfacing on the submit path
            # (closed service, malformed request, ...).
            try:
                self._send_error_json(exc)
            except OSError:
                pass  # client went away mid-answer
        except OSError:
            pass  # broken pipe / reset while writing
        except Exception as exc:  # pragma: no cover - handler bug guard
            try:
                self._send_error_json(exc, status=500)
            except OSError:
                pass
        finally:
            metrics.http_inflight.dec()
            self._account(self._status)

    def _route(self, method: str, path: str):
        fe = self.frontend
        handler = fe.ROUTES.get(path, {}).get(method)
        if handler is not None:
            return path, handler
        if path.startswith("/permutations/") and method == "GET":
            return "/permutations/{id}", _Handler._get_poll
        return path, None

    # ------------------------------------------------------------- routes
    def _get_healthz(self) -> None:
        fe = self.frontend
        stats = fe.service.stats()
        status = 200 if not stats.closed else 503
        self._send_json(
            status,
            {
                "status": "ok" if not stats.closed else "closed",
                "workers": stats.workers,
                "queue_depth": stats.queue_depth,
                "running": stats.running,
                "uptime": time.monotonic() - fe.started_at,
            },
        )

    def _get_stats(self) -> None:
        fe = self.frontend
        payload = asdict(fe.service.stats())
        cache = fe.service.cache
        if cache is not None:
            payload["cache"] = asdict(cache.info())
        self._send_json(200, payload)

    def _get_config(self) -> None:
        self._send_json(200, self.frontend.describe_config())

    def _get_metrics(self) -> None:
        fe = self.frontend
        text = fe.metrics.render(service=fe.service)
        self._send_text(
            200, text, "text/plain; version=0.0.4; charset=utf-8"
        )

    @staticmethod
    def _coerce_wait_timeout(value):
        """Validate a client-supplied wait_timeout (400 on junk).

        ``future.result()`` would raise ``TypeError`` on a non-numeric
        timeout -- a 500 for what is squarely the client's mistake.
        """
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(
                f"wait_timeout must be a number of seconds, got {value!r}"
            )
        if value < 0:
            raise ValidationError(f"wait_timeout must be >= 0, got {value}")
        return float(value)

    @staticmethod
    def _coerce_idempotency_key(body_key, header_key):
        """Reconcile the body field and the Idempotency-Key header."""
        if body_key is not None and not isinstance(body_key, str):
            raise ValidationError(
                f"idempotency_key must be a string, got {body_key!r}"
            )
        if (
            body_key is not None
            and header_key is not None
            and body_key != header_key
        ):
            raise ValidationError(
                "idempotency_key body field and Idempotency-Key header "
                f"disagree: {body_key!r} != {header_key!r}"
            )
        key = body_key if body_key is not None else header_key
        if key is None:
            return None
        if not key or len(key) > 256:
            raise ValidationError(
                "idempotency key must be 1..256 characters, "
                f"got {len(key)}"
            )
        return key

    def _post_permutations(self) -> None:
        fe = self.frontend
        body = self._read_body()
        header_key = self.headers.get("Idempotency-Key")
        if "request" in body:
            mode = body.get("mode", "sync")
            wait_timeout = body.get("wait_timeout")
            body_key = body.get("idempotency_key")
            spec = body["request"]
            if not isinstance(spec, dict):
                raise ValidationError('"request" must be a JSON object')
        else:
            mode = body.pop("mode", "sync")
            wait_timeout = body.pop("wait_timeout", None)
            body_key = body.pop("idempotency_key", None)
            spec = body
        if mode not in ("sync", "async"):
            raise ValidationError(f'mode must be "sync" or "async", got {mode!r}')
        wait_timeout = self._coerce_wait_timeout(wait_timeout)
        idem_key = self._coerce_idempotency_key(body_key, header_key)
        request = request_from_dict(spec)
        if idem_key is not None:
            request_id, entry = fe.submit_idempotent(idem_key, request)
        else:
            # A sync request that may not degrade to polling runs on
            # this thread when a slot is free: no handoff to a worker
            # and back.  (A keyed one queues: its repeats must find its
            # request_id while it runs.)  May raise ServiceClosedError.
            run_here = mode == "sync" and wait_timeout is None
            entry = fe.service.submit(request, run_here=run_here)
            request_id = entry.request_id
            fe.track(request_id, entry)
        if mode == "async":
            self._send_json(202, fe.pending_payload(request_id))
            return
        if not isinstance(entry, _Answer):
            try:
                entry.result(timeout=wait_timeout)
            except (_FutureTimeout, TimeoutError):
                # Degrade to polling; the request keeps its place in line.
                self._send_json(202, fe.pending_payload(request_id))
                return
        self._send_answer(fe.answer(request_id, entry))

    def _get_poll(self) -> None:
        fe = self.frontend
        request_id = self.path.split("?", 1)[0].rstrip("/").rsplit("/", 1)[-1]
        entry = fe.lookup(request_id)
        if entry is None:
            self._send_json(
                404,
                {
                    "error": {
                        "type": "NotFound",
                        "message": f"unknown request id {request_id!r}",
                        "status": 404,
                    }
                },
            )
            return
        if not _resolved(entry):
            self._send_json(202, fe.pending_payload(request_id))
            return
        self._send_answer(fe.answer(request_id, entry))


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer that tracks its handler threads itself.

    ``block_on_close=False`` because the stdlib's close-time join would
    deadlock our drain: handler threads block on service futures, and
    those futures only resolve once :meth:`HttpFrontend.close` drains
    the service *after* closing the listener.  The frontend joins the
    tracked threads at the correct point in the sequence instead.
    """

    daemon_threads = True
    block_on_close = False

    def __init__(self, address, frontend: "HttpFrontend") -> None:
        self.frontend = frontend
        self._handlers_lock = threading.Lock()
        self._handlers: list[threading.Thread] = []
        super().__init__(address, _Handler)

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self._handle_one,
            args=(request, client_address),
            name=f"http-handler-{client_address[1]}",
            daemon=True,
        )
        with self._handlers_lock:
            self._handlers = [t for t in self._handlers if t.is_alive()]
            self._handlers.append(thread)
        thread.start()

    def _handle_one(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def join_handlers(self, timeout: float) -> int:
        """Join live handler threads, bounded; returns how many remain."""
        deadline = time.monotonic() + timeout
        with self._handlers_lock:
            threads = list(self._handlers)
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        return sum(1 for t in threads if t.is_alive())


class _IdemEntry:
    """One idempotency-key reservation.

    ``canonical`` is the normalized request identity the key is bound
    to.  The first submit settles the entry: ``request_id`` on success,
    ``error`` on a submit-time failure, which also releases the key so
    a later retry can try again.  Repeats wait on
    :attr:`HttpFrontend._settled` and find the answer by ``request_id``.
    """

    __slots__ = ("canonical", "request_id", "error")

    def __init__(self, canonical: str) -> None:
        self.canonical = canonical
        self.request_id: str | None = None
        self.error: BaseException | None = None


class HttpFrontend:
    """Own one listening socket serving one :class:`PermutationService`.

    ``port=0`` binds an ephemeral port (the tests' pattern); the bound
    address is available as :attr:`address`/:attr:`url` after
    :meth:`start`.  The frontend does NOT own the service -- callers
    that want the frontend to close it pass ``own_service=True`` (the
    CLI does).
    """

    #: Resolved answers kept for polling and idempotent repeats before
    #: the oldest are dropped.
    RESULT_BACKLOG = 4096

    ROUTES = {
        "/healthz": {"GET": _Handler._get_healthz},
        "/stats": {"GET": _Handler._get_stats},
        "/config": {"GET": _Handler._get_config},
        "/metrics": {"GET": _Handler._get_metrics},
        "/permutations": {"POST": _Handler._post_permutations},
    }

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: ServiceMetrics | None = None,
        drain_timeout: float | None = None,
        own_service: bool = False,
    ) -> None:
        self.service = service
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        if service.metrics is None:
            service.metrics = self.metrics
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        self.own_service = own_service
        self.started_at = time.monotonic()
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        #: Notified whenever an idempotency entry settles.
        self._settled = threading.Condition(self._lock)
        #: request_id -> its future while pending, its _Answer once resolved.
        self._backlog: OrderedDict[str, object] = OrderedDict()
        self._idempotency: dict[str, _IdemEntry] = {}
        self._idem_by_rid: dict[str, str] = {}
        self._closed = False

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "HttpFrontend":
        if self._server is not None:
            return self
        self._server = _Server((self.host, self.port), self)
        self.host, self.port = self._server.server_address[:2]
        self.started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="http-accept",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self, drain_timeout: float | None = None) -> None:
        """Graceful shutdown, in the order that avoids reset flakes:
        stop accepting, close the listener, drain the service (which
        releases handler threads blocked on futures), join handlers.
        Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if drain_timeout is None:
            drain_timeout = self.drain_timeout
        server, thread = self._server, self._thread
        if server is not None:
            server.shutdown()  # stop the accept loop...
            server.server_close()  # ...and close the listener socket
        if thread is not None:
            thread.join(timeout=5.0)
        if self.own_service:
            self.service.close(drain_timeout=drain_timeout)
        elif drain_timeout is not None:
            self.service.close(drain_timeout=drain_timeout)
        else:
            self.service.close()
        if server is not None:
            server.join_handlers(timeout=5.0)

    def __enter__(self) -> "HttpFrontend":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------- request registry
    def track(self, request_id: str, future, idem_key: str | None = None) -> None:
        """Put a submitted request in the result backlog (and bind
        ``idem_key``, already reserved, to it).  The future's done-callback
        replaces it with its encoded answer."""
        with self._lock:
            if idem_key is not None:
                self._idempotency[idem_key].request_id = request_id
                self._idem_by_rid[request_id] = idem_key
                self._settled.notify_all()
            self._backlog[request_id] = future
            while len(self._backlog) > self.RESULT_BACKLOG:
                # Evict the oldest *resolved* entry; never forget live
                # work.  An idempotency key lives exactly as long as
                # its tracked result: once the resolved entry ages out
                # of the backlog, the key is forgotten with it.
                for rid, entry in self._backlog.items():
                    if _resolved(entry):
                        del self._backlog[rid]
                        evicted_key = self._idem_by_rid.pop(rid, None)
                        if evicted_key is not None:
                            self._idempotency.pop(evicted_key, None)
                        break
                else:
                    break
        future.add_done_callback(partial(self.answer, request_id))

    def submit_idempotent(self, key: str, request) -> tuple[str, object]:
        """Submit under an idempotency key: first caller executes,
        repeats map to the same ``request_id``.

        Returns ``(request_id, entry)``, where ``entry`` is the request's
        backlog entry: its future while pending, its stored answer once
        resolved.  The key is bound to the request's canonical
        serialized form, so a retry with the *same* request (however
        spelled) coalesces onto the original submission while reuse
        with a *different* request is a
        :class:`~repro.errors.ValidationError` (400).  A submit-time
        failure (e.g. closed service) releases the key -- the retry
        that follows a 503 must be able to try again.
        """
        canonical = json.dumps(request_to_dict(request), sort_keys=True)
        with self._lock:
            while True:
                entry = self._idempotency.get(key)
                if entry is None:
                    entry = self._idempotency[key] = _IdemEntry(canonical)
                    break
                if entry.canonical != canonical:
                    raise ValidationError(
                        f"idempotency key {key!r} was already used for a "
                        "different request"
                    )
                settled = self._settled.wait_for(
                    lambda: entry.request_id is not None or entry.error is not None,
                    timeout=30.0,
                )
                if not settled:  # pragma: no cover - submit hung
                    raise TransientError(
                        f"idempotent submission for key {key!r} is still "
                        "settling; retry"
                    )
                if entry.error is not None:
                    raise entry.error
                found = self._backlog.get(entry.request_id)
                if found is not None:
                    return entry.request_id, found
                # The key aged out with its answer while this repeat
                # waited: the repeat is a fresh submission now.
        try:
            future = self.service.submit(request)
        except BaseException as exc:
            with self._lock:
                entry.error = exc
                if self._idempotency.get(key) is entry:
                    del self._idempotency[key]
                self._settled.notify_all()
            raise
        self.track(future.request_id, future, idem_key=key)
        return future.request_id, future

    def lookup(self, request_id: str):
        """The backlog entry of ``request_id``: its future while pending,
        its stored answer once resolved, ``None`` when unknown."""
        with self._lock:
            return self._backlog.get(request_id)

    def answer(self, request_id: str, entry) -> _Answer:
        """The encoded answer of a resolved backlog ``entry``.

        A resolved future is encoded once and its answer stored in its
        place; this runs as the future's done-callback, and a handler
        that finds the future resolved before its callback ran does the
        same.  A future already evicted is still encoded for the caller
        that holds it.
        """
        if isinstance(entry, _Answer):
            return entry
        with self._lock:
            stored = self._backlog.get(request_id)
        if isinstance(stored, _Answer):
            return stored
        answer = _encode_result(entry.result())
        with self._lock:
            if self._backlog.get(request_id) is entry:
                self._backlog[request_id] = answer
        return answer

    def pending_payload(self, request_id: str) -> dict:
        entry = self.lookup(request_id)
        return {
            "request_id": request_id,
            "status": "done" if entry is not None and _resolved(entry) else "pending",
            "href": f"/permutations/{request_id}",
        }

    # ---------------------------------------------------------- introspection
    def describe_config(self) -> dict:
        service = self.service
        g = service.geometry
        return {
            "geometry": {"N": g.N, "B": g.B, "D": g.D, "M": g.M},
            "workers": service.workers,
            "queue_capacity": service.queue_capacity,
            "queue_policy": service.queue_policy,
            "coalesce": getattr(service, "coalesce", False),
            "default_timeout": service.default_timeout,
            "drain_timeout": self.drain_timeout,
            "cache": type(service.cache).__name__ if service.cache else None,
            "faults_active": bool(service.faults and service.faults.active),
            "recording": service.recorder is not None,
            "routes": {
                path: sorted(methods)
                for path, methods in sorted(self.ROUTES.items())
            },
        }
