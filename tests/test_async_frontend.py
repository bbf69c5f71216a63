"""HTTP front end tests: request handling, idle keep-alive scaling, and
coalesced serving over HTTP.

Protocol tests run against a stub service (they exercise only the event
loop's HTTP handling); the end-to-end tests boot the real warmed
:class:`JoinService` behind :class:`AsyncServiceServer` and drive it
with the ``request_json`` client, comparing against in-process
``service.submit`` as the uncoalesced reference.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from concurrent.futures import Future

import pytest

from repro.service import (
    AsyncServiceServer,
    JoinRequest,
    JoinService,
    serve_async,
)
from repro.service.http import MAX_BODY_BYTES, request_json
from repro.service.service import ServiceBusyError, response_json

TAU_GOOD = 40
TAU_BAD = 10**6
PILOT = 60


# -- raw-socket helpers --------------------------------------------------------


def _connect(server) -> socket.socket:
    sock = socket.create_connection(server.server_address, timeout=10.0)
    sock.settimeout(10.0)
    return sock


def _send_request(
    sock: socket.socket,
    method: str = "GET",
    target: str = "/v1/healthz",
    body: bytes = b"",
    headers: str = "",
) -> None:
    head = f"{method} {target} HTTP/1.1\r\nHost: t\r\n{headers}"
    if method == "POST":
        head += f"Content-Length: {len(body)}\r\n"
    sock.sendall(head.encode() + b"\r\n" + body)


def _read_response(sock: socket.socket):
    """Read exactly one response off the socket; returns (status, headers,
    body bytes) or None on EOF before any byte."""
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            if buffer:
                raise AssertionError(f"truncated response: {buffer!r}")
            return None
        buffer += chunk
    head, _, rest = buffer.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError("body truncated")
        rest += chunk
    assert len(rest) == length, f"unexpected trailing bytes: {rest!r}"
    return status, headers, rest


# -- stub service --------------------------------------------------------------


class StubService:
    """The surface the async front end touches, fully controllable."""

    def __init__(self):
        self.submitted = []
        self.resolve_with = {"ok": True}
        self.never_resolve = False
        self.busy = None

    def submit(self, request):
        if self.busy is not None:
            raise ServiceBusyError(retry_after=self.busy)
        self.submitted.append(request)
        future = Future()
        if not self.never_resolve:
            future.set_result(dict(self.resolve_with))
        return future

    def coalesce_key(self, request):
        return None  # nothing coalesces: every join reaches submit()

    def health(self):
        return {"status": "ok"}

    def close(self, wait=True):
        pass


@pytest.fixture()
def stub_async():
    service = StubService()
    server = AsyncServiceServer(
        service, request_timeout=2.0, executor_workers=8
    ).start()
    try:
        yield service, server
    finally:
        server.shutdown()


class TestAsyncProtocol:
    def test_healthz_and_keep_alive_reuse(self, stub_async):
        service, server = stub_async
        with _connect(server) as sock:
            for _ in range(3):  # same connection, three requests
                _send_request(sock, "GET", "/v1/healthz")
                status, headers, body = _read_response(sock)
                assert status == 200
                assert headers.get("connection") != "close"
                assert json.loads(body)["status"] == "ok"
        assert server.requests_served >= 3

    def test_request_counted_before_a_slow_drain(self):
        # The response bytes reach the client while drain() still waits;
        # the request must already be counted when the client reads it.
        class SlowDrainServer(AsyncServiceServer):
            async def _write(self, writer, *args, **kwargs):
                drain = writer.drain

                async def slow_drain():
                    await asyncio.sleep(1.0)
                    await drain()

                writer.drain = slow_drain
                await super()._write(writer, *args, **kwargs)

        server = SlowDrainServer(
            StubService(), request_timeout=2.0, executor_workers=2
        ).start()
        try:
            with _connect(server) as sock:
                _send_request(sock, "GET", "/v1/healthz")
                status, _, _ = _read_response(sock)
                assert status == 200
                assert server.requests_served == 1
        finally:
            server.shutdown()

    def test_post_join_round_trip(self, stub_async):
        service, server = stub_async
        service.resolve_with = {"plan": "p1"}
        payload = json.dumps({"tau_good": 4, "tau_bad": 99}).encode()
        with _connect(server) as sock:
            _send_request(sock, "POST", "/v1/join", payload)
            status, headers, body = _read_response(sock)
        assert status == 200
        assert json.loads(body) == {"plan": "p1"}
        assert service.submitted[0].tau_good == 4

    def test_unknown_paths_and_methods(self, stub_async):
        _service, server = stub_async
        with _connect(server) as sock:
            _send_request(sock, "POST", "/v1/nonsense", b"{}")
            status, _, body = _read_response(sock)
            assert status == 404 and b"unknown path" in body
            # connection survives a 404; an unsupported method closes
            _send_request(sock, "PUT", "/v1/join", b"{}")
            status, headers, _ = _read_response(sock)
            assert status == 501
            assert headers.get("connection") == "close"

    def test_malformed_request_line_closes(self, stub_async):
        _service, server = stub_async
        with _connect(server) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            status, headers, _ = _read_response(sock)
            assert status == 400
            assert headers.get("connection") == "close"
            assert _read_response(sock) is None, "connection must close"

    def test_oversized_body_answers_413_and_closes(self, stub_async):
        service, server = stub_async
        body = b"x" * (MAX_BODY_BYTES + 1)
        with _connect(server) as sock:
            _send_request(sock, "POST", "/v1/join", body)
            status, headers, raw = _read_response(sock)
        assert status == 413
        assert headers.get("connection") == "close"
        assert json.loads(raw)["error"] == "request body too large"
        assert service.submitted == []

    def test_truncated_body_answers_400_and_closes(self, stub_async):
        service, server = stub_async
        with _connect(server) as sock:
            sock.sendall(
                b"POST /v1/join HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 100\r\n\r\n"
                b'{"tau_good"'
            )
            sock.shutdown(socket.SHUT_WR)
            status, headers, raw = _read_response(sock)
        assert status == 400
        assert headers.get("connection") == "close"
        assert json.loads(raw)["error"] == "truncated request body"
        assert service.submitted == []

    def test_bad_json_keeps_connection(self, stub_async):
        _service, server = stub_async
        with _connect(server) as sock:
            _send_request(sock, "POST", "/v1/join", b"{nope")
            status, headers, _ = _read_response(sock)
            assert status == 400
            assert headers.get("connection") != "close"
            _send_request(sock, "GET", "/v1/healthz")
            status, _, _ = _read_response(sock)
            assert status == 200

    def test_busy_maps_to_503_with_retry_after(self, stub_async):
        service, server = stub_async
        service.busy = 2.4
        with _connect(server) as sock:
            _send_request(
                sock, "POST", "/v1/join",
                b'{"tau_good": 4, "tau_bad": 99}',
            )
            status, headers, raw = _read_response(sock)
        assert status == 503
        assert headers.get("retry-after") == "3"
        assert json.loads(raw)["error"] == "overloaded"

    def test_request_timeout_backstop_maps_to_504(self, stub_async):
        service, server = stub_async
        service.never_resolve = True
        started = time.monotonic()
        with _connect(server) as sock:
            _send_request(
                sock, "POST", "/v1/join",
                b'{"tau_good": 4, "tau_bad": 99}',
            )
            status, headers, raw = _read_response(sock)
        elapsed = time.monotonic() - started
        assert status == 504
        assert headers.get("connection") == "close"
        assert json.loads(raw)["error"] == "request timed out in service"
        assert elapsed < 8.0, "must answer near request_timeout, not hang"

    def test_idle_connections_park_without_threads(self, stub_async):
        """Many idle keep-alive connections; the server stays responsive
        and every parked connection still works afterwards."""
        _service, server = stub_async
        threads_before = threading.active_count()
        idle = [_connect(server) for _ in range(64)]
        try:
            # Idle sockets must not have spawned threads: a parked
            # connection costs a socket, not a thread.
            assert threading.active_count() - threads_before < 8
            # The loop still answers while 64 connections sit parked.
            with _connect(server) as sock:
                _send_request(sock, "GET", "/v1/healthz")
                status, _, _ = _read_response(sock)
                assert status == 200
            # And every parked connection is still alive and usable.
            for sock in idle:
                _send_request(sock, "GET", "/v1/healthz")
            for sock in idle:
                status, _, _ = _read_response(sock)
                assert status == 200
        finally:
            for sock in idle:
                sock.close()
        assert server.connections_peak >= 64


# -- end-to-end with a real JoinService ----------------------------------------


@pytest.fixture(scope="module")
def warmed_async(hq_ex_task, tmp_path_factory):
    root = tmp_path_factory.mktemp("async-store")
    service = JoinService(
        hq_ex_task, str(root), workers=3, pilot_documents=PILOT
    )
    service.submit(
        JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD)
    ).result(timeout=600)
    server = serve_async(service)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield service, server, base
    finally:
        server.shutdown()
        service.close(wait=True)


class TestAsyncEndToEnd:
    def test_parity_with_threaded_api(self, warmed_async):
        service, _server, base = warmed_async
        status, health = request_json(base, "healthz")
        assert status == 200 and health["status"] == "ok"

        status, planned = request_json(
            base, "join",
            {"tau_good": TAU_GOOD, "tau_bad": TAU_BAD, "mode": "plan"},
        )
        assert status == 200 and planned["plan"] is not None

        # The async answer is byte-identical to uncoalesced serving.
        reference = service.submit(
            JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD, mode="plan")
        ).result(timeout=120)
        assert response_json(reference) == response_json(planned)

        status, stats = request_json(base, "stats")
        assert status == 200
        assert stats["signature"] == service.signature
        assert "coalescing" in stats

        status, text = request_json(base, "metrics")
        assert status == 200
        assert "repro_service_coalescing" in text

        status, body = request_json(base, "join", {"tau_good": "nope"})
        assert status == 400 and "error" in body

    def test_duplicate_burst_coalesces_over_http(self, warmed_async):
        service, _server, base = warmed_async
        payload = {
            "tau_good": TAU_GOOD + 2, "tau_bad": TAU_BAD, "mode": "plan",
        }
        original = service.plan_cache.optimize

        def slowed(key, requirement, factory):
            time.sleep(0.4)
            return original(key, requirement, factory)

        cache_before = service.plan_cache.stats()
        flights_before = service.coalescer.stats()
        n = 6
        barrier = threading.Barrier(n)
        answers = [None] * n
        errors = []

        def client(index):
            try:
                barrier.wait(timeout=30)
                status, body = request_json(base, "join", payload)
                assert status == 200, body
                answers[index] = body
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        service.plan_cache.optimize = slowed
        try:
            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
        finally:
            service.plan_cache.optimize = original
        assert not errors, errors

        cache_after = service.plan_cache.stats()
        flights_after = service.coalescer.stats()
        assert cache_after["misses"] - cache_before["misses"] == 1
        assert flights_after["leaders"] - flights_before["leaders"] == 1
        assert flights_after["attached"] - flights_before["attached"] == n - 1
        assert len({response_json(a) for a in answers}) == 1

    def test_waiter_deadline_detaches_without_killing_the_flight(
        self, warmed_async
    ):
        service, _server, base = warmed_async
        payload = {
            "tau_good": TAU_GOOD + 3, "tau_bad": TAU_BAD, "mode": "plan",
        }
        original = service.plan_cache.optimize

        def slowed(key, requirement, factory):
            time.sleep(0.8)
            return original(key, requirement, factory)

        flights_before = service.coalescer.stats()
        results = {}
        started = threading.Barrier(2)

        def patient():
            started.wait(timeout=30)
            results["patient"] = request_json(base, "join", payload)

        def impatient():
            started.wait(timeout=30)
            time.sleep(0.1)  # attach second, expire first
            results["impatient"] = request_json(
                base, "join", {**payload, "deadline_ms": 150}
            )

        service.plan_cache.optimize = slowed
        try:
            threads = [
                threading.Thread(target=patient),
                threading.Thread(target=impatient),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            service.plan_cache.optimize = original

        status, body = results["impatient"]
        assert status == 504
        assert body["error"] == "deadline exceeded"
        assert body["where"] == "frontend.coalesce"

        status, body = results["patient"]
        assert status == 200, (
            "the impatient waiter detaching must not cancel the shared "
            f"computation: {body}"
        )
        assert body["plan"] is not None

        flights_after = service.coalescer.stats()
        assert flights_after["detached"] - flights_before["detached"] >= 1
        assert flights_after["cancelled"] == flights_before["cancelled"]
