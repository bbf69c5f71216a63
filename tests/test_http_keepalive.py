"""Keep-alive hygiene regression tests for the HTTP front end.

Every test sends raw bytes — pipelined requests, half-closed bodies,
protocol variants urllib cannot produce — and asserts the exact response
stream: the right answers, ``Connection: close`` where the server cannot
keep the connection in sync, then EOF.  The rule under test is that a
request body the server does not consume closes the connection; left
open, its bytes would be parsed as the next request line and a pipelined
client would see phantom responses on a desynchronized stream.

1. 413/400 answered *without consuming the request body* (oversized,
   unparseable ``Content-Length``) close the connection.
2. a half-closed body is named: 400 ``"truncated request body"`` +
   close, not a confusing JSON-parse error.
3. a request with no deadline is bounded by ``request_timeout``: a
   wedged worker maps to a clean 504 + close instead of a hang.
4. bodies the server never reads — a body on a GET, any
   ``Transfer-Encoding`` (411) — close instead of desyncing, and an
   HTTP/1.0 request closes unless it asks for keep-alive.

A stub service stands behind the server, so only the HTTP layer runs.
"""

from __future__ import annotations

import json
import socket
from concurrent.futures import Future

import pytest

from repro.service.asyncio_frontend import AsyncServiceServer
from repro.service.http import MAX_BODY_BYTES


class StubService:
    """The minimal surface the HTTP front end touches."""

    def __init__(self):
        self.submitted = []
        self.resolve_with = {"ok": True}
        self.never_resolve = False

    def submit(self, request):
        self.submitted.append(request)
        future = Future()
        if not self.never_resolve:
            future.set_result(self.resolve_with)
        return future

    def coalesce_key(self, request):
        return None  # nothing coalesces: every join reaches submit()

    def health(self):
        return {"status": "ok"}

    def close(self, wait=True):
        pass


@pytest.fixture()
def stub_server():
    service = StubService()
    server = AsyncServiceServer(
        service, request_timeout=1.0, executor_workers=4
    ).start()
    try:
        yield service, server
    finally:
        server.shutdown()


def _connect(server) -> socket.socket:
    sock = socket.create_connection(server.server_address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def _read_until_eof(sock: socket.socket, limit: float = 10.0) -> bytes:
    sock.settimeout(limit)
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except (TimeoutError, socket.timeout):
            pytest.fail(
                "server neither answered further nor closed the connection"
            )
        except ConnectionResetError:
            # The server tore the connection down with unread bytes in
            # its receive buffer — equivalent to EOF for these tests.
            return b"".join(chunks)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _parse_responses(raw: bytes):
    """Split a byte stream into HTTP responses; fails on desync garbage."""
    responses = []
    rest = raw
    while rest:
        head, sep, remainder = rest.partition(b"\r\n\r\n")
        assert sep, f"incomplete response head in stream: {rest!r}"
        lines = head.split(b"\r\n")
        status_line = lines[0].decode("latin-1")
        assert status_line.startswith("HTTP/1."), (
            f"stream desynchronized: expected a status line, got "
            f"{status_line!r}"
        )
        status = int(status_line.split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body, rest = remainder[:length], remainder[length:]
        assert len(body) == length, "response body truncated"
        responses.append((status, headers, body))
    return responses


class TestKeepAliveBodyHandling:
    def test_oversized_post_closes_instead_of_desyncing(self, stub_server):
        """Bug 1: a 413 with the body unread must close the connection.

        A pipelined client sends the oversized POST (body included) and a
        follow-up GET back-to-back.  A server that kept the connection
        open would parse the unread body as more requests — the stream
        desynchronizes into phantom responses.  The client must see
        exactly one 413 carrying ``Connection: close``, then EOF.
        """
        service, server = stub_server
        body = b"x" * (MAX_BODY_BYTES + 1)
        oversized = (
            b"POST /v1/join HTTP/1.1\r\n"
            b"Host: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        ) + body
        pipelined_get = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        with _connect(server) as sock:
            sock.sendall(oversized + pipelined_get)
            responses = _parse_responses(_read_until_eof(sock))
        assert len(responses) == 1, (
            "exactly one response then EOF — anything else means the "
            "unread body was parsed as new requests"
        )
        status, headers, raw = responses[0]
        assert status == 413
        assert headers.get("connection") == "close"
        assert json.loads(raw)["error"] == "request body too large"
        assert service.submitted == []

    def test_bad_content_length_closes(self, stub_server):
        """Bug 1 (second arm): unparseable Content-Length must close."""
        service, server = stub_server
        request = (
            b"POST /v1/join HTTP/1.1\r\n"
            b"Host: t\r\n"
            b"Content-Length: banana\r\n\r\n"
            b'{"tau_good": 1}'
            b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        with _connect(server) as sock:
            sock.sendall(request)
            responses = _parse_responses(_read_until_eof(sock))
        assert len(responses) == 1
        status, headers, raw = responses[0]
        assert status == 400
        assert headers.get("connection") == "close"
        assert json.loads(raw)["error"] == "bad Content-Length"
        assert service.submitted == []

    def test_half_closed_body_maps_to_truncated_400(self, stub_server):
        """Bug 2: a short body read is named, not blamed on JSON.

        The client declares 100 body bytes, sends 40, and half-closes.
        Handing the 40 bytes to ``json.loads`` would answer a JSON-parse
        error for a transport problem; the server must instead answer
        400 "truncated request body" with the connection closed.
        """
        service, server = stub_server
        head = (
            b"POST /v1/join HTTP/1.1\r\n"
            b"Host: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 100\r\n\r\n"
        )
        with _connect(server) as sock:
            sock.sendall(head + b'{"tau_good": 40, "tau_bad": 100'[:40])
            sock.shutdown(socket.SHUT_WR)
            responses = _parse_responses(_read_until_eof(sock))
        assert len(responses) == 1
        status, headers, raw = responses[0]
        assert status == 400
        assert headers.get("connection") == "close"
        assert json.loads(raw)["error"] == "truncated request body"
        assert service.submitted == []


class TestRequestTimeoutBackstop:
    def test_wedged_worker_maps_to_504(self, stub_server):
        """Bug 3: a never-resolving future answers 504, not a hang.

        The stub returns a future that never resolves — the wedged-worker
        case.  With ``request_timeout=1.0`` the server must answer a
        504 within the timeout (plus slack) and close the connection;
        an unbounded wait would hang and time out the socket read.
        """
        service, server = stub_server
        service.never_resolve = True
        payload = json.dumps({"tau_good": 40, "tau_bad": 1000}).encode()
        request = (
            b"POST /v1/join HTTP/1.1\r\n"
            b"Host: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(payload)
        ) + payload
        with _connect(server) as sock:
            sock.sendall(request)
            responses = _parse_responses(_read_until_eof(sock, limit=8.0))
        assert len(responses) == 1
        status, headers, raw = responses[0]
        assert status == 504
        assert headers.get("connection") == "close"
        body = json.loads(raw)
        assert body["error"] == "request timed out in service"
        assert body["timeout_seconds"] == 1.0
        assert len(service.submitted) == 1


_PIPELINED_GET = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"


class TestConnectionCloseRules:
    @pytest.mark.parametrize(
        "request_bytes, status, error",
        [
            pytest.param(
                b"GET /v1/healthz HTTP/1.0\r\n\r\n",
                200,
                None,
                id="http10-without-keep-alive",
            ),
            pytest.param(
                b"GET /v1/healthz HTTP/1.1\r\n"
                b"Host: t\r\n"
                b"Content-Length: 9\r\n\r\n"
                b"x = 1 2 3",
                200,
                None,
                id="get-with-body",
            ),
            pytest.param(
                b"POST /v1/join HTTP/1.1\r\n"
                b"Host: t\r\n"
                b"Content-Type: application/json\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"1e\r\n"
                b'{"tau_good": 4, "tau_bad": 99}\r\n'
                b"0\r\n\r\n",
                411,
                "Transfer-Encoding is not supported",
                id="chunked-post",
            ),
        ],
    )
    def test_answers_once_then_closes(
        self, stub_server, request_bytes, status, error
    ):
        """One response with ``Connection: close``, then EOF.

        An HTTP/1.0 request without ``Connection: keep-alive`` ends its
        connection.  A body the server never reads — on a GET, or coded
        with ``Transfer-Encoding`` — must not stay on the stream: left
        there, its bytes were parsed as the next request line (a phantom
        400 on the pipelined stream), and the chunked POST itself got a
        misleading 400 about its empty payload.  A chunked join is never
        submitted.
        """
        service, server = stub_server
        with _connect(server) as sock:
            sock.sendall(request_bytes + _PIPELINED_GET)
            responses = _parse_responses(_read_until_eof(sock))
        assert len(responses) == 1, responses
        got_status, headers, raw = responses[0]
        assert got_status == status
        assert headers.get("connection") == "close"
        if error is not None:
            assert json.loads(raw)["error"] == error
        assert service.submitted == []

    def test_http10_keep_alive_is_honoured(self, stub_server):
        _service, server = stub_server
        request = b"GET /v1/healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        last = b"GET /v1/healthz HTTP/1.0\r\n\r\n"
        with _connect(server) as sock:
            sock.sendall(request + last)
            responses = _parse_responses(_read_until_eof(sock))
        assert [status for status, _, _ in responses] == [200, 200]
        assert responses[0][1].get("connection") != "close"
        assert responses[1][1].get("connection") == "close"
