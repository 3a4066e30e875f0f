"""Raw-socket tests for how the HTTP frontend reads a request head.

Each test writes the request bytes itself, so nothing normalizes them
on the way: the request line, the version, the header fields up to the
blank line, and the connection handling that follows from them.  The
statuses and reason phrases are the ones ``http.server`` gives, and
the frontend's own head reader must keep every one of them.
"""

import io
import json
import socket
import types
from http.server import BaseHTTPRequestHandler

import pytest

from repro.pdm.geometry import DiskGeometry
from repro.serve import HttpFrontend, PermutationService, ServiceMetrics
from repro.serve.http import _Handler

GEOMETRY = DiskGeometry(N=2**10, B=2**3, D=2**2, M=2**7)

TRANSPOSE = json.dumps({"perm": "transpose"}).encode()


@pytest.fixture
def fe():
    service = PermutationService(GEOMETRY, workers=1)
    frontend = HttpFrontend(service, metrics=ServiceMetrics(), own_service=True)
    with frontend:
        yield frontend


class _Conn:
    """One hand-driven client connection."""

    def __init__(self, fe) -> None:
        self.sock = socket.create_connection((fe.host, fe.port), timeout=10)
        self.reader = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def read_head(self) -> tuple[bytes, list[tuple[str, str]]]:
        """One response head: its status line and its fields, in order."""
        status = self.reader.readline().rstrip(b"\r\n")
        fields = []
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b""):
                return status, fields
            name, _, value = line.decode("latin-1").partition(":")
            fields.append((name, value.strip()))

    def read_answer(self) -> tuple[bytes, list[tuple[str, str]], bytes]:
        status, fields = self.read_head()
        length = int(dict(fields)["Content-Length"])
        return status, fields, self.reader.read(length)

    def at_eof(self) -> bool:
        return self.reader.read() == b""

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _post(body: bytes, *fields: str, version: str = "HTTP/1.1") -> bytes:
    lines = [f"POST /permutations {version}", "Host: test", *fields]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _exchange(fe, data: bytes):
    """Send ``data`` on a fresh connection and read one answer; the
    connection must close after it."""
    conn = _Conn(fe)
    try:
        conn.send(data)
        status, fields, body = conn.read_answer()
        assert conn.at_eof(), "the connection stayed open"
    finally:
        conn.close()
    return status, fields, body


def _status_code(status_line: bytes) -> int:
    return int(status_line.split(b" ", 2)[1])


def _refused(fe, data: bytes, code: int, message: str) -> None:
    """A request refused before its version was read is answered with
    an HTTP/1.1 status line, the stdlib's error page and its fields,
    ``Connection: close`` among them, then a close."""
    status, fields, body = _exchange(fe, data)
    assert status == f"HTTP/1.1 {code} {message}".encode("latin-1")
    assert [name for name, _ in fields] == [
        "Server", "Date", "Connection", "Content-Type", "Content-Length",
    ]
    assert ("Connection", "close") in fields
    assert ("Content-Type", "text/html;charset=utf-8") in fields
    assert f"<p>Error code: {code}</p>".encode() in body
    assert f"<p>Message: {message}.</p>".encode() in body


# --------------------------------------------------------------------------
# the request line
# --------------------------------------------------------------------------

class TestRequestLine:
    def test_request_line_over_65536_bytes_is_414(self, fe):
        # Exactly 65537 bytes and no line end: the server reads all of
        # it, so its close cannot reset the connection before we read.
        line = b"GET /" + b"a" * (65537 - 5)
        status, fields, _ = _exchange(fe, line)
        assert status == b"HTTP/1.1 414 Request-URI Too Long"
        assert ("Connection", "close") in fields

    @pytest.mark.parametrize(
        "version",
        ["HTTP/1.x", "HTTPS/1.1", "HTTP/1", "HTTP/1.1.1", "HTTP/01234567890.1",
         "HTTP/\u00b2.1"],
    )
    def test_bad_version_is_400(self, fe, version):
        _refused(
            fe, f"GET /healthz {version}\r\n\r\n".encode("latin-1"), 400,
            f"Bad request version ({version!r})",
        )

    @pytest.mark.parametrize("version", ["HTTP/2.0", "HTTP/3.0"])
    def test_http2_or_later_is_505(self, fe, version):
        _refused(
            fe, f"GET /healthz {version}\r\n\r\n".encode(), 505,
            f"Invalid HTTP version ({version[5:]})",
        )

    def test_bad_request_line_syntax_is_400(self, fe):
        status, _, _ = _exchange(fe, b"GET /healthz extra HTTP/1.1\r\n\r\n")
        assert status == (
            b"HTTP/1.1 400 Bad request syntax ('GET /healthz extra HTTP/1.1')"
        )

    def test_a_one_word_request_line_is_400(self, fe):
        _refused(fe, b"GET\r\n\r\n", 400, "Bad request syntax ('GET')")

    def test_http09_non_get_is_400(self, fe):
        _refused(
            fe, b"POST /permutations\r\n", 400,
            "Bad HTTP/0.9 request type ('POST')",
        )

    def test_http09_get_answers_the_bare_body_then_closes(self, fe):
        conn = _Conn(fe)
        try:
            # The server still reads header fields up to a blank line.
            conn.send(b"GET /healthz\r\n\r\n")
            raw = conn.reader.read()
        finally:
            conn.close()
        assert not raw.startswith(b"HTTP/")
        assert json.loads(raw)["status"] == "ok"

    @pytest.mark.parametrize("method", ["BREW", "PUT", "HEAD"])
    def test_unknown_method_is_501(self, fe, method):
        status, _, _ = _exchange(fe, f"{method} /healthz HTTP/1.1\r\n\r\n".encode())
        assert status == (
            f"HTTP/1.1 501 Unsupported method ('{method}')".encode()
        )

    def test_leading_slashes_collapse_to_one(self, fe):
        conn = _Conn(fe)
        try:
            conn.send(b"GET ///healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            status, _, body = conn.read_answer()
        finally:
            conn.close()
        assert status == b"HTTP/1.1 200 OK"
        assert json.loads(body)["status"] == "ok"

    def test_an_empty_request_line_closes_without_an_answer(self, fe):
        conn = _Conn(fe)
        try:
            conn.send(b"\r\n")
            assert conn.at_eof()
        finally:
            conn.close()


class TestCounting:
    def test_every_answer_before_dispatch_is_counted_once(self, fe):
        """A refused request line (400, 505), an over-long request line
        (414) or field line (431) and an unknown method (501) are each
        counted once, under fixed labels, beside a routed GET."""
        heads = [
            b"GET / HTTP/1.x\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET /" + b"a" * (65537 - 5),
            b"GET /healthz HTTP/1.1\r\n" + b"X" * 65537,
            b"BREW /healthz HTTP/1.1\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        ]
        for head in heads:
            _exchange(fe, head)
        _, _, body = _exchange(
            fe, b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        samples = [
            line for line in body.decode().splitlines()
            if line.startswith("repro_http_requests_total{")
        ]
        unrouted = 'repro_http_requests_total{method="*invalid*",path="*unrouted*"'
        assert sorted(samples) == sorted(
            [f'{unrouted},status="{code}"}} 1' for code in (400, 414, 431, 501, 505)]
            + ['repro_http_requests_total{method="GET",path="/healthz",status="200"} 1']
        )


# --------------------------------------------------------------------------
# the header fields
# --------------------------------------------------------------------------

class TestHeaderFields:
    def test_header_line_over_65536_bytes_is_431(self, fe):
        # As for the request line: exactly what the server reads.
        data = b"GET /healthz HTTP/1.1\r\n" + b"X" * 65537
        status, fields, body = _exchange(fe, data)
        assert status == b"HTTP/1.1 431 Line too long"
        assert ("Connection", "close") in fields
        assert b"header line" in body

    def test_more_than_100_header_lines_is_431(self, fe):
        fields = [f"X-Field-{i}: {i}" for i in range(101)]
        data = ("\r\n".join(["GET /healthz HTTP/1.1", *fields]) + "\r\n\r\n")
        status, _, body = _exchange(fe, data.encode())
        assert status == b"HTTP/1.1 431 Too many headers"
        assert b"got more than 100 headers" in body

    def test_the_blank_line_counts_against_the_limit(self, fe):
        # http.client counts the terminating blank line as a header
        # line: 100 fields are refused, 99 are read.
        for count, expected in ((100, 431), (99, 200)):
            fields = [f"X-Field-{i}: {i}" for i in range(count - 1)]
            data = "\r\n".join(
                ["GET /healthz HTTP/1.1", *fields, "Connection: close"]
            )
            status, _, _ = _exchange(fe, (data + "\r\n\r\n").encode())
            assert _status_code(status) == expected, count

    def test_lower_case_content_length(self, fe):
        status, _, body = _exchange(fe, _post(
            TRANSPOSE,
            "content-type: application/json",
            f"content-length: {len(TRANSPOSE)}",
            "connection: close",
        ))
        assert status == b"HTTP/1.1 200 OK"
        assert json.loads(body)["ok"] is True

    def test_field_values_lose_leading_blanks(self, fe):
        status, _, body = _exchange(fe, _post(
            TRANSPOSE, f"Content-Length: \t  {len(TRANSPOSE)}",
            "Connection:close",
        ))
        assert _status_code(status) == 200
        assert json.loads(body)["ok"] is True

    def test_duplicate_idempotency_key_first_wins(self, fe):
        def post(body_key):
            body = json.dumps(
                {"perm": "transpose", "idempotency_key": body_key}
            ).encode()
            return _exchange(fe, _post(
                body,
                "Idempotency-Key: first",
                "IDEMPOTENCY-KEY: second",
                f"Content-Length: {len(body)}",
                "Connection: close",
            ))

        status, _, body = post("first")
        assert status == b"HTTP/1.1 200 OK"
        status, _, body = post("second")
        assert _status_code(status) == 400
        assert "'second' != 'first'" in json.loads(body)["error"]["message"]

    def test_expect_100_continue_gets_an_interim_answer(self, fe):
        conn = _Conn(fe)
        try:
            conn.send(_post(
                b"",
                "Content-Type: application/json",
                f"Content-Length: {len(TRANSPOSE)}",
                "Expect: 100-continue",
            ))
            interim, fields = conn.read_head()
            assert (interim, fields) == (b"HTTP/1.1 100 Continue", [])
            conn.send(TRANSPOSE)
            status, _, body = conn.read_answer()
        finally:
            conn.close()
        assert status == b"HTTP/1.1 200 OK"
        assert json.loads(body)["ok"] is True

    def test_answer_head_fields_and_their_order(self, fe):
        status, fields, body = _exchange(fe, _post(
            TRANSPOSE, f"Content-Length: {len(TRANSPOSE)}", "Connection: close",
        ))
        assert status == b"HTTP/1.1 200 OK"
        assert [name for name, _ in fields] == [
            "Server", "Date", "Content-Type", "Content-Length",
        ]
        values = dict(fields)
        assert values["Server"].startswith("repro-serve/1.0 Python/")
        assert values["Date"].endswith(" GMT")
        assert values["Content-Type"] == "application/json"
        assert int(values["Content-Length"]) == len(body)


# --------------------------------------------------------------------------
# connection handling
# --------------------------------------------------------------------------

class TestConnection:
    def test_connection_close_closes_after_the_answer(self, fe):
        status, _, body = _exchange(
            fe, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert status == b"HTTP/1.1 200 OK"
        assert json.loads(body)["status"] == "ok"

    def test_http10_answers_then_closes(self, fe):
        status, _, body = _exchange(fe, _post(
            TRANSPOSE, f"Content-Length: {len(TRANSPOSE)}", version="HTTP/1.0",
        ))
        assert status == b"HTTP/1.1 200 OK"
        assert json.loads(body)["ok"] is True

    def test_http10_keep_alive_stays_open(self, fe):
        conn = _Conn(fe)
        try:
            for _ in range(2):
                conn.send(
                    b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
                )
                status, _, _ = conn.read_answer()
                assert status == b"HTTP/1.1 200 OK"
        finally:
            conn.close()

    def test_http11_keeps_alive_by_default(self, fe):
        conn = _Conn(fe)
        try:
            for _ in range(3):
                conn.send(_post(TRANSPOSE, f"Content-Length: {len(TRANSPOSE)}"))
                status, _, body = conn.read_answer()
                assert status == b"HTTP/1.1 200 OK"
                assert json.loads(body)["ok"] is True
            conn.send(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            status, _, _ = conn.read_answer()
            assert status == b"HTTP/1.1 200 OK"
            assert conn.at_eof()
        finally:
            conn.close()


# --------------------------------------------------------------------------
# the frontend's head reader against the stdlib's, head by head
# --------------------------------------------------------------------------

def _numbered_fields(count: int) -> bytes:
    return b"".join(b"X-%d: %d\r\n" % (i, i) for i in range(count))


HEADS = [
    b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
    b"POST /permutations HTTP/1.1\r\ncontent-length: 5\r\n\r\n",
    b"POST /p HTTP/1.1\r\nIdempotency-Key: a\r\nidempotency-key: b\r\n\r\n",
    b"POST /p HTTP/1.1\r\nIdempotency-Key: a\r\n  b\r\n\tc\r\n\r\n",
    b"POST /p HTTP/1.1\r\n folded: first\r\nContent-Length: 3\r\n\r\n",
    b"POST /p HTTP/1.1\r\nX-Bad Name: 1\r\nContent-Length: 5\r\n\r\n",
    b"POST /p HTTP/1.1\r\nno colon\r\nContent-Length: 5\r\n\r\n",
    b"POST /p HTTP/1.1\r\n\xe9t\xe9: 1\r\nContent-Length: 5\r\n\r\n",
    b"POST /p HTTP/1.1\r\n: empty name\r\nContent-Length: 5\r\n\r\n",
    b"POST /p HTTP/1.1\r\nFrom someone\r\nContent-Length: 5\r\n\r\n",
    b"POST /p HTTP/1.1\r\nContent-Length: 5\r\n: x\r\n 9\r\n\r\n",
    b"POST /p HTTP/1.1\r\nContent-Length: 5\r\nFrom x\r\n 9\r\n\r\n",
    b"POST /p HTTP/1.1\r\nContent-Length:\t  7  \r\nHost:x\r\n\r\n",
    b"POST /p HTTP/1.1\r\nIdempotency-Key: caf\xe9\r\n\r\n",
    b"POST /p HTTP/1.1\nContent-Length: 3\nConnection: close\n\n",
    b"POST /p HTTP/1.1\r\nContent-Length: 3\r\n",
    b"GET / HTTP/1.0\r\n\r\n",
    b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
    b"GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n",
    b"GET / HTTP/1.1\r\nConnection: upgrade\r\n\r\n",
    b"POST /p HTTP/1.1\r\nExpect: 100-Continue\r\n\r\n",
    b"POST /p HTTP/1.0\r\nExpect: 100-continue\r\n\r\n",
    b"GET //a//b HTTP/1.1\r\n\r\n",
    b"GET /\r\n\r\n",
    b"GET\r\n\r\n",
    b"\r\n",
    b"  \t \r\n",
    b"GET / HTTP/1.x\r\n\r\n",
    b"GET / HTTP/1\r\n\r\n",
    b"GET / HTTP/\xb2.1\r\n\r\n",
    b"GET / HTTP/2.0\r\n\r\n",
    b"GET / HTTP/12.3\r\n\r\n",
    b"GET / HTTP/0.9\r\n\r\n",
    b"GET / x HTTP/1.1\r\n\r\n",
    b"POST /p\r\n\r\n",
    b"GET / HTTP/1.1\r\n" + _numbered_fields(99) + b"\r\n",
    b"GET / HTTP/1.1\r\n" + _numbered_fields(100) + b"\r\n",
    b"GET / HTTP/1.1\r\nX: " + b"a" * 65531 + b"\r\n\r\n",
    b"GET / HTTP/1.1\r\nX: " + b"a" * 65532 + b"\r\n\r\n",
]

#: The intended differences, by request line and status: the stdlib
#: answers these as HTTP/0.9, with the error page alone, where this
#: server writes an HTTP/1.1 status line and the page's fields first.
REFUSED = {
    b"GET\r\n\r\n": 400,
    b"GET / HTTP/1.x\r\n\r\n": 400,
    b"GET / HTTP/1\r\n\r\n": 400,
    b"GET / HTTP/\xb2.1\r\n\r\n": 400,
    b"GET / HTTP/2.0\r\n\r\n": 505,
    b"GET / HTTP/12.3\r\n\r\n": 505,
    b"POST /p\r\n\r\n": 400,
}

FIELD_NAMES = [
    "Content-Length", "Idempotency-Key", "Connection", "Expect", "Host",
    "X-0", "X-98", "", "folded", "From",
]


def _parsed(parse, head: bytes):
    """Run one ``parse_request`` on a socketless handler."""
    handler = _Handler.__new__(_Handler)
    # send_error counts its answer on the frontend's metrics
    handler.server = types.SimpleNamespace(
        frontend=types.SimpleNamespace(metrics=ServiceMetrics())
    )
    line, _, rest = head.partition(b"\n")
    handler.raw_requestline = line + b"\n"
    handler.rfile = io.BytesIO(rest)
    handler.wfile = io.BytesIO()
    handler.date_time_string = lambda: "DATE"
    ok = parse(handler)
    fields = getattr(handler, "headers", None)
    return {
        "ok": ok,
        "command": handler.command,
        "path": getattr(handler, "path", None),
        "version": handler.request_version,
        "close": handler.close_connection,
        "consumed": handler.rfile.tell(),
        "written": handler.wfile.getvalue(),
        "fields": None if fields is None else [fields.get(n) for n in FIELD_NAMES],
    }


def _as_http09(ours: dict, code: int) -> None:
    """Check that a refused head's answer is an HTTP/1.1 status line,
    fields with ``Connection: close``, a blank line and the page, then
    drop all but the page, as the stdlib answers."""
    assert ours["version"] == "HTTP/1.1" and ours["close"]
    head, _, page = ours["written"].partition(b"\r\n\r\n")
    status, *fields = head.split(b"\r\n")
    assert status.startswith(b"HTTP/1.1 %d " % code)
    assert b"Connection: close" in fields
    assert page.startswith(b"<!DOCTYPE HTML>")
    ours["version"], ours["written"] = "HTTP/0.9", page


class TestAgainstTheStdlib:
    @pytest.mark.parametrize("head", HEADS, ids=range(len(HEADS)))
    def test_same_outcome_as_the_stdlib(self, head):
        ours = _parsed(_Handler.parse_request, head)
        stdlib = _parsed(BaseHTTPRequestHandler.parse_request, head)
        if head in REFUSED:
            _as_http09(ours, REFUSED[head])
        assert ours == stdlib

    def test_every_refused_head_is_among_the_heads(self):
        assert set(REFUSED) <= set(HEADS)

    def test_a_bare_cr_stays_in_the_value(self):
        # email.feedparser ends a line at a bare CR; this reader keeps
        # it in the value, where the number it spoils is refused.
        head = b"POST /p HTTP/1.1\r\nContent-Length: 5\rX-0: 1\r\n\r\n"
        ours = _parsed(_Handler.parse_request, head)
        stdlib = _parsed(BaseHTTPRequestHandler.parse_request, head)
        assert stdlib["fields"][:1] == ["5"]
        assert ours["fields"][:1] == ["5\rX-0: 1"]
