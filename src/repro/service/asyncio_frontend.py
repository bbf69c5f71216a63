"""The HTTP front end of the join service (``repro serve``).

An asyncio event loop on one daemon thread handles every connection:
idle keep-alive connections are just registered sockets, request heads
are parsed on the loop, and only *work* consumes threads — join requests
dispatch to the service's bounded worker pool (via a small
``run_in_executor`` bridge sized to the pool + admission queue, so the
event loop never blocks on a lock or a store write).  The API itself is
described in :mod:`~repro.service.http`, which also holds the read-only
route table this server answers GETs through.

What the service promises survives the trip over HTTP:

* the **admission ladder** runs unchanged inside ``service.submit`` —
  admits queue, degrades answer synchronously, sheds map to 503 with a
  jittered ``Retry-After`` header;
* **deadlines** still start at admission, so queue wait counts against
  the budget, and a service-side expiry maps to a 504 carrying partial
  progress;
* requests without a deadline are bounded by the front end's
  ``request_timeout`` backstop (504, connection closed), so a wedged
  worker can never pin a connection forever.

On top of this the front end adds **cross-request coalescing**
(:mod:`~repro.service.coalesce`): plan-mode requests — pure functions of
``(signature, store generation, requirement)`` — that duplicate an
in-flight computation attach as waiters and share its one result.  A
waiter's own deadline expiring detaches it (504) without disturbing the
shared flight; the last waiter detaching cancels the flight.  A lone
request never coalesces, so ``service.submit`` is the uncoalesced
reference that byte-identity tests compare against.

Connection-handling discipline: any request whose body cannot be fully
consumed — oversized, truncated, bad ``Content-Length``, stalled
mid-read, ``Transfer-Encoding`` (411), or a body on a method that takes
none — is answered with ``Connection: close`` and the connection is torn
down, never left desynchronized with body bytes pending.  Keep-alive
follows the request's protocol version: HTTP/1.1 connections persist
unless the client sends ``Connection: close``; HTTP/1.0 connections
close unless the client sends ``Connection: keep-alive``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from http.client import responses as _STATUS_REASONS
from typing import Any, Dict, Optional, Tuple

from ..robustness.deadline import DeadlineExceeded
from .coalesce import FlightCancelled, submit_coalesced
from .http import (
    DEFAULT_REQUEST_TIMEOUT,
    JSON_CONTENT_TYPE,
    MAX_BODY_BYTES,
    _retry_after_header,
    deadline_payload,
    route_get,
)
from .service import (
    JoinRequest,
    JoinService,
    ServiceBusyError,
    ServiceClosedError,
    response_json,
)

#: StreamReader buffer limit: a full request head plus slack
_READ_LIMIT = MAX_BODY_BYTES + 64 * 1024

#: maximum number of request headers accepted
_MAX_HEADERS = 100

#: listen backlog: connections the kernel queues before accept
_BACKLOG = 512

#: extra executor threads beyond workers + queue: GET routes and
#: admission probes that overlap in-flight joins
_EXECUTOR_SLACK = 4

_SERVER_NAME = "repro-join-service/1.0 asyncio"


def _prespawn_workers(pool: ThreadPoolExecutor) -> None:
    """Spawn the pool's threads eagerly at construction.

    ``ThreadPoolExecutor`` grows lazily — a submit that finds no idle
    worker *at that instant* adds a thread, so under scheduler pressure
    even sequential traffic keeps growing the pool for a while.  A
    server wants that jitter at startup, not on early requests: parking
    every worker on a barrier once forces the full complement, making
    first-request latency and thread accounting deterministic.
    """
    count = pool._max_workers
    barrier = threading.Barrier(count)

    def _park() -> None:
        try:
            barrier.wait(timeout=10.0)
        except threading.BrokenBarrierError:
            pass

    for future in [pool.submit(_park) for _ in range(count)]:
        future.result(timeout=30.0)


def _declares_body(headers: Dict[str, str]) -> bool:
    """Whether the request announces body bytes via ``Content-Length``."""
    try:
        return int(headers.get("content-length", "0")) != 0
    except ValueError:
        return True


class _HTTPError(Exception):
    """A request that cannot proceed; always answered and then closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _render(
    status: int,
    body: bytes,
    content_type: str,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
    close: bool = False,
) -> bytes:
    reason = _STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Server: {_SERVER_NAME}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    if close:
        lines.append("Connection: close")
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


class AsyncServiceServer:
    """An asyncio HTTP server owning its event loop on a daemon thread.

    ``start()`` binds the socket and returns once ``server_address`` is
    known (``port=0`` picks a free port); ``serve_forever()`` blocks the
    calling thread (the CLI path); ``shutdown()`` stops accepting,
    cancels connection handlers, and joins the loop thread.  The service
    itself is drained separately via :func:`shutdown_async`.
    ``executor_workers`` overrides the bridge pool's size (tests use a
    small fixed pool); by default it fits the service's workers + queue.
    """

    def __init__(
        self,
        service: JoinService,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        executor_workers: Optional[int] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: bounds reads *within* a request and the no-deadline wait on a
        #: submitted join; an idle connection between requests is not a
        #: request — it parks for as long as the client keeps it, at the
        #: cost of a socket, not a thread
        self.request_timeout = request_timeout
        if executor_workers is None:
            workers = len(getattr(service, "_workers", ())) or 2
            queue = getattr(service, "_queue", None)
            queue_limit = getattr(queue, "maxsize", 8) or 8
            executor_workers = workers + queue_limit + _EXECUTOR_SLACK
        self._pool = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="async-frontend"
        )
        _prespawn_workers(self._pool)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._tasks: set = set()
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.server_address: Optional[Tuple[str, int]] = None
        #: loop-confined connection accounting (reads are approximate)
        self.connections_open = 0
        self.connections_peak = 0
        self.requests_served = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "AsyncServiceServer":
        """Bind and serve on a background thread; returns once bound."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run, name="join-service-asyncio", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("asyncio front end failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def serve_forever(self) -> None:
        """Start (if needed) and block until shutdown or interrupt."""
        if self._thread is None:
            self.start()
        assert self._thread is not None
        while self._thread.is_alive():
            self._thread.join(0.5)

    def shutdown(self) -> None:
        """Stop accepting, cancel open connections, join the loop."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop closed between the check and the call
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._pool.shutdown(wait=False)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 — surfaced via start()
            self._startup_error = error
        finally:
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            backlog=_BACKLOG,
            limit=_READ_LIMIT,
        )
        self.server_address = server.sockets[0].getsockname()[:2]
        self._started.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            for task in list(self._tasks):
                task.cancel()
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)

    # -- connection loop -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        self.connections_open += 1
        self.connections_peak = max(
            self.connections_peak, self.connections_open
        )
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            pass  # server shutting down mid-request
        except (ConnectionError, TimeoutError, OSError):
            pass  # peer vanished; nothing to answer
        finally:
            self.connections_open -= 1
            if task is not None:
                self._tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):  # noqa: BLE001
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                head = await self._read_request(reader)
            except _HTTPError as error:
                # Parse-level failures leave the stream in an unknown
                # state (unread body bytes, half a head): answer, then
                # always close — never let the next "request line" be
                # someone's body.
                await self._write(
                    writer,
                    error.status,
                    response_json({"error": error.message}),
                    close=True,
                )
                return
            if head is None:
                return  # clean EOF
            method, target, version, headers = head
            close = self._wants_close(version, headers)
            try:
                status, body, content_type, extra, force_close = (
                    await self._respond(method, target, reader, headers)
                )
            except _HTTPError as error:
                await self._write(
                    writer,
                    error.status,
                    response_json({"error": error.message}),
                    close=True,
                )
                return
            except asyncio.CancelledError:
                raise
            except Exception as error:  # noqa: BLE001 — keep the loop alive
                status = 500
                body = response_json(
                    {"error": f"{type(error).__name__}: {error}"}
                )
                content_type, extra, force_close = JSON_CONTENT_TYPE, (), False
            close = close or force_close
            # Counted before the write: a client can read its response
            # while drain() is still pending on this side.
            self.requests_served += 1
            await self._write(
                writer, status, body, content_type, extra, close
            )
            if close:
                return

    @staticmethod
    def _wants_close(version: str, headers: Dict[str, str]) -> bool:
        """HTTP/1.1 keeps the connection unless told to close; HTTP/1.0
        closes it unless asked to keep it alive."""
        tokens = {
            token.strip().lower()
            for token in headers.get("connection", "").split(",")
        }
        if version == "HTTP/1.0":
            return "keep-alive" not in tokens
        return "close" in tokens

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: str,
        content_type: str = JSON_CONTENT_TYPE,
        extra_headers: Tuple[Tuple[str, str], ...] = (),
        close: bool = False,
    ) -> None:
        writer.write(
            _render(
                status,
                body.encode("utf-8"),
                content_type,
                extra_headers,
                close=close,
            )
        )
        await writer.drain()

    # -- request parsing -------------------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, str, Dict[str, str]]]:
        """Read one request head; None on clean EOF."""
        line = b""
        for _ in range(3):  # tolerate stray CRLFs between requests
            try:
                line = await reader.readline()
            except ValueError as error:
                raise _HTTPError(400, "request line too long") from error
            if line.strip():
                break
            if not line:
                return None
        if not line.strip():
            return None
        parts = line.decode("latin-1", "replace").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HTTPError(400, "malformed request line")
        method, target, version = parts
        try:
            headers = await asyncio.wait_for(
                self._read_headers(reader), self.request_timeout
            )
        except asyncio.TimeoutError as error:
            raise _HTTPError(408, "request head read timed out") from error
        return method, target, version, headers

    async def _read_headers(
        self, reader: asyncio.StreamReader
    ) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            try:
                line = await reader.readline()
            except ValueError as error:
                raise _HTTPError(431, "header line too long") from error
            if not line:
                raise _HTTPError(400, "truncated request head")
            if line in (b"\r\n", b"\n"):
                return headers
            text = line.decode("latin-1", "replace")
            name, sep, value = text.partition(":")
            if not sep:
                raise _HTTPError(400, "malformed header")
            headers[name.strip().lower()] = value.strip()
        raise _HTTPError(431, "too many request headers")

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: Dict[str, str]
    ) -> bytes:
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError as error:
            raise _HTTPError(400, "bad Content-Length") from error
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HTTPError(413, "request body too large")
        if length == 0:
            return b""
        try:
            return await asyncio.wait_for(
                reader.readexactly(length), self.request_timeout
            )
        except asyncio.IncompleteReadError as error:
            raise _HTTPError(400, "truncated request body") from error
        except asyncio.TimeoutError as error:
            raise _HTTPError(408, "request body read timed out") from error

    # -- dispatch --------------------------------------------------------------

    async def _respond(
        self,
        method: str,
        target: str,
        reader: asyncio.StreamReader,
        headers: Dict[str, str],
    ) -> Tuple[int, str, str, Tuple[Tuple[str, str], ...], bool]:
        """Returns ``(status, body, content type, headers, force_close)``."""
        if "transfer-encoding" in headers:
            # Coded (e.g. chunked) bodies are not decoded here; their
            # bytes must never be parsed as the next request.
            raise _HTTPError(411, "Transfer-Encoding is not supported")
        loop = asyncio.get_running_loop()
        if method == "GET":
            # route_get takes service locks and may block (profile);
            # never run it on the event loop.
            status, body, content_type = await loop.run_in_executor(
                self._pool, route_get, self.service, target
            )
            # A body on a GET is never read: answer, then close.
            return status, body, content_type, (), _declares_body(headers)
        if method != "POST":
            return (
                501,
                response_json({"error": f"unsupported method {method}"}),
                JSON_CONTENT_TYPE,
                (),
                True,
            )
        body_bytes = await self._read_body(reader, headers)
        path = target.split("?", 1)[0]
        if path != "/v1/join":
            return (
                404,
                response_json({"error": f"unknown path {path}"}),
                JSON_CONTENT_TYPE,
                (),
                False,
            )
        try:
            payload = json.loads(body_bytes or b"{}")
            request = JoinRequest.from_payload(payload)
        except ValueError as error:
            return (
                400,
                response_json({"error": str(error)}),
                JSON_CONTENT_TYPE,
                (),
                False,
            )
        status, reply, extra, force_close = await self._answer_join(request)
        return (
            status,
            response_json(reply),
            JSON_CONTENT_TYPE,
            extra,
            force_close,
        )

    # -- join handling ---------------------------------------------------------

    async def _answer_join(
        self, request: JoinRequest
    ) -> Tuple[int, Dict[str, Any], Tuple[Tuple[str, str], ...], bool]:
        loop = asyncio.get_running_loop()
        arrived = loop.time()
        try:
            # Submit (possibly coalesced) on an executor thread: admission
            # takes service locks.
            future, waiter = await loop.run_in_executor(
                self._pool, submit_coalesced, self.service, request
            )
        except ServiceBusyError as busy:
            return (
                503,
                {"error": "overloaded", "retry_after": busy.retry_after},
                (("Retry-After", _retry_after_header(busy.retry_after)),),
                False,
            )
        except ServiceClosedError:
            return 503, {"error": "service is draining"}, (), False
        # Coalesced waiters enforce their deadline here (the shared
        # computation runs deadline-free); everyone else is backstopped
        # by request_timeout — the service's own deadline machinery
        # interrupts deadlined requests much earlier.
        if waiter is not None and request.deadline_ms is not None:
            elapsed = loop.time() - arrived
            timeout: Optional[float] = max(
                request.deadline_ms / 1000.0 - elapsed, 0.0
            )
        else:
            timeout = self.request_timeout
        try:
            result = await self._await_future(future, timeout)
        except asyncio.TimeoutError:
            if waiter is not None and request.deadline_ms is not None:
                # This waiter's own deadline expired: detach (the shared
                # flight keeps running unless this was the last waiter)
                # and answer a deadline 504.  The connection is intact.
                waiter.detach()
                return (
                    504,
                    {
                        "error": "deadline exceeded",
                        "where": "frontend.coalesce",
                        "phase": "coalesced-wait",
                        "deadline_ms": request.deadline_ms,
                        "partial": {},
                    },
                    (),
                    False,
                )
            # request_timeout backstop: cancel what we can and close the
            # connection.
            if waiter is not None:
                waiter.detach()
            else:
                future.cancel()
            return (
                504,
                {
                    "error": "request timed out in service",
                    "timeout_seconds": self.request_timeout,
                },
                (),
                True,
            )
        except DeadlineExceeded as expired:
            return 504, deadline_payload(expired), (), False
        except FlightCancelled:
            return (
                503,
                {"error": "coalesced computation was cancelled"},
                (),
                False,
            )
        except ServiceBusyError as busy:
            # The flight's leader was shed: the whole burst shares the
            # one admission decision.
            return (
                503,
                {"error": "overloaded", "retry_after": busy.retry_after},
                (("Retry-After", _retry_after_header(busy.retry_after)),),
                False,
            )
        except ServiceClosedError:
            return 503, {"error": "service is draining"}, (), False
        except ValueError as error:
            return 409, {"error": str(error)}, (), False
        except Exception as error:  # noqa: BLE001 — surface, keep serving
            return (
                500,
                {"error": f"{type(error).__name__}: {error}"},
                (),
                False,
            )
        return 200, result, (), False

    async def _await_future(
        self, future: "Future[Any]", timeout: Optional[float]
    ) -> Any:
        """Await a concurrent Future without a thread, timeout-safe.

        ``asyncio.wait_for`` cancellation must only cancel *this
        caller's* view — a coalesced flight may have other waiters — so
        the bridge is a per-caller asyncio future fed by a done
        callback, never ``wrap_future`` (whose cancellation propagates
        to the shared future).
        """
        loop = asyncio.get_running_loop()
        bridge: "asyncio.Future[Any]" = loop.create_future()

        def deliver(done: "Future[Any]") -> None:
            def settle() -> None:
                if bridge.cancelled():
                    return
                if done.cancelled():
                    bridge.set_exception(
                        FlightCancelled("computation was cancelled")
                    )
                    return
                error = done.exception()
                if error is not None:
                    bridge.set_exception(error)
                else:
                    bridge.set_result(done.result())

            try:
                loop.call_soon_threadsafe(settle)
            except RuntimeError:
                pass  # loop already closed (shutdown race)

        future.add_done_callback(deliver)
        return await asyncio.wait_for(bridge, timeout)


def serve_async(
    service: JoinService,
    host: str = "127.0.0.1",
    port: int = 0,
    request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
) -> AsyncServiceServer:
    """Start an asyncio front end for *service*; returns once bound."""
    return AsyncServiceServer(
        service, host=host, port=port, request_timeout=request_timeout
    ).start()


def shutdown_async(server: AsyncServiceServer) -> None:
    """Graceful drain: stop the loop, then drain the join service."""
    server.shutdown()
    server.service.close(wait=True)


__all__ = [
    "AsyncServiceServer",
    "serve_async",
    "shutdown_async",
]
