"""Cross-request plan coalescing (singleflight).

The optimizer picks one quality-optimal plan per
``(task signature, store generation, requirement)`` — so concurrent
requests that agree on all three are asking for the *same* answer, and
computing it once is enough.  One optimizer answering a sweep amortizes
shared work across the requirements of a single request; this module
applies the same move **across requests**: the first arrival (the *leader*)
starts the computation, duplicates that arrive while it is in flight
attach as *waiters*, and all of them receive the one resolved result.

The cancellation contract, stated once and tested:

* a waiter whose own deadline expires **detaches** — it stops waiting
  and answers its client, but the shared computation keeps running for
  the waiters that remain;
* the **last** waiter detaching cancels the shared computation (best
  effort: a computation already running on a worker finishes and its
  result is discarded; one still queued is cancelled outright);
* a resolved flight is immediately retired — later duplicates start a
  fresh computation (which the plan cache answers from memory), so a
  statistics-generation bump between two bursts can never serve the
  second burst a stale answer.  Generation safety for *concurrent*
  bursts is structural: the generation is part of the key, so waiters
  only ever attach to a flight of their own generation.

Only requests without side effects coalesce.  ``plan``-mode requests
(binary and multiway) read stored statistics and never touch the
databases; ``execute``-mode requests pull pilot documents, mutate the
store, and advance breaker state, so each one must run individually.
:meth:`~repro.service.service.JoinService.coalesce_key` encodes exactly
that policy.

Everything here is frontend-agnostic and thread-safe: the asyncio front
end awaits :attr:`Waiter.future` on its event loop, and tests drive the
same object from plain threads.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import replace
from typing import Any, Callable, Dict, Hashable, Optional, Tuple


class FlightCancelled(RuntimeError):
    """The shared computation was cancelled by its last waiter detaching."""


class _Flight:
    """One in-flight shared computation and its bookkeeping."""

    __slots__ = ("key", "result", "waiters", "computation", "cancel_requested")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        #: resolves to the shared response (or its exception), fan-out to
        #: every waiter; a plain concurrent Future so threads block on it
        #: and event loops bridge it
        self.result: "Future[Any]" = Future()
        self.waiters = 0
        #: the underlying service future, bound after the leader submits
        self.computation: Optional["Future[Any]"] = None
        #: set when the last waiter detached before the computation was
        #: bound (the bind then cancels immediately)
        self.cancel_requested = False


class Waiter:
    """One request's handle on a shared flight.

    ``waiter.result(timeout)`` blocks like ``Future.result`` but a
    timeout *detaches* the waiter first — the flight is then free to be
    cancelled if nobody else is waiting.  Async callers await
    :attr:`future` themselves and call :meth:`detach` on expiry.
    """

    __slots__ = ("_coalescer", "_flight", "leader", "_detached")

    def __init__(
        self, coalescer: "RequestCoalescer", flight: _Flight, leader: bool
    ) -> None:
        self._coalescer = coalescer
        self._flight = flight
        self.leader = leader
        self._detached = False

    @property
    def future(self) -> "Future[Any]":
        return self._flight.result

    @property
    def key(self) -> Hashable:
        return self._flight.key

    def result(self, timeout: Optional[float] = None) -> Any:
        try:
            return self._flight.result.result(timeout)
        except FutureTimeoutError:
            self.detach()
            raise

    def detach(self) -> bool:
        """Stop waiting; returns True when this cancelled the flight.

        Idempotent.  Detaching never affects waiters that remain — only
        the last one out pulls the plug, and even then a computation
        already running on a worker merely has its result discarded.
        """
        if self._detached:
            return False
        self._detached = True
        return self._coalescer._detach(self._flight)


class RequestCoalescer:
    """Singleflight map from coalesce keys to in-flight computations."""

    def __init__(self) -> None:
        self._flights: Dict[Hashable, _Flight] = {}
        self._lock = threading.Lock()
        #: computations started (one per flight)
        self.leaders = 0
        #: duplicate requests that attached to an existing flight — the
        #: work the coalescer saved
        self.attached = 0
        #: flights that resolved (result or error) and fanned out
        self.resolved = 0
        #: waiters that detached before resolution (deadline expiries)
        self.detached = 0
        #: computations cancelled because their last waiter detached
        self.cancelled = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._flights)

    # -- joining ---------------------------------------------------------------

    def join(
        self,
        key: Hashable,
        start: Callable[[], "Future[Any]"],
    ) -> Waiter:
        """Attach to the flight for *key*, starting one if none is live.

        *start* is only invoked by the leader, outside the coalescer's
        lock (it may block briefly on admission control).  If it raises,
        the exception resolves the flight — every waiter of this burst
        shares the one admission decision, which is the point: a shed
        burst costs one queue probe, not N.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None and not flight.result.done():
                flight.waiters += 1
                self.attached += 1
                return Waiter(self, flight, leader=False)
            flight = _Flight(key)
            flight.waiters = 1
            self._flights[key] = flight
            self.leaders += 1
        waiter = Waiter(self, flight, leader=True)
        try:
            computation = start()
        except BaseException as error:  # noqa: BLE001 — fan out to waiters
            self._resolve(flight, error=error)
            return waiter
        cancel_now = False
        with self._lock:
            flight.computation = computation
            cancel_now = flight.cancel_requested
        if cancel_now and computation.cancel():
            with self._lock:
                self.cancelled += 1
        computation.add_done_callback(
            lambda finished: self._computation_done(flight, finished)
        )
        return waiter

    # -- resolution ------------------------------------------------------------

    def _computation_done(self, flight: _Flight, finished: "Future[Any]") -> None:
        if finished.cancelled():
            self._resolve(
                flight,
                error=FlightCancelled(
                    "shared computation cancelled by last waiter detaching"
                ),
            )
            return
        error = finished.exception()
        if error is not None:
            self._resolve(flight, error=error)
        else:
            self._resolve(flight, result=finished.result())

    def _resolve(
        self,
        flight: _Flight,
        result: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        with self._lock:
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]
        if flight.result.done():
            return
        if error is not None:
            flight.result.set_exception(error)
        else:
            flight.result.set_result(result)
        with self._lock:
            self.resolved += 1

    def _detach(self, flight: _Flight) -> bool:
        with self._lock:
            if flight.result.done():
                return False
            flight.waiters -= 1
            self.detached += 1
            if flight.waiters > 0:
                return False
            # Last waiter out: retire the flight so later duplicates do
            # not attach to a computation nobody will consume.
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]
            computation = flight.computation
            flight.cancel_requested = True
        if computation is None:
            return False
        if computation.cancel():
            with self._lock:
                self.cancelled += 1
            return True
        return False

    # -- reporting -------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "in_flight": len(self._flights),
                "leaders": self.leaders,
                "attached": self.attached,
                "resolved": self.resolved,
                "detached": self.detached,
                "cancelled": self.cancelled,
            }


def submit_coalesced(
    service: Any, request: Any
) -> Tuple["Future[Any]", Optional[Waiter]]:
    """Submit *request* through the service's coalescer when shareable.

    Returns ``(future, waiter)``: ``waiter`` is None for requests that
    cannot coalesce (they went straight to ``service.submit``).  The
    shared computation is submitted *without* the request's deadline —
    deadlines are per-waiter (each caller bounds its own wait and
    detaches on expiry), so one impatient duplicate can never poison the
    answer for the patient ones.
    """
    key = service.coalesce_key(request)
    if key is None:
        return service.submit(request), None
    shared = (
        replace(request, deadline_ms=None)
        if request.deadline_ms is not None
        else request
    )
    waiter = service.coalescer.join(key, lambda: service.submit(shared))
    return waiter.future, waiter


__all__ = [
    "FlightCancelled",
    "RequestCoalescer",
    "Waiter",
    "submit_coalesced",
]
