"""Cross-request plan coalescing (singleflight) tests.

The contracts from ISSUE 10:

* N concurrent identical plan-mode requests perform exactly one
  optimizer computation and all receive byte-identical answers — also
  byte-identical to uncoalesced serving of the same request;
* a statistics-generation bump mid-flight never serves stale results to
  new waiters (the generation is part of the key, so post-bump arrivals
  start a fresh flight);
* a waiter's deadline expiring detaches it without cancelling the
  shared computation; the last waiter detaching cancels it.

Pure semantics are tested against stub-controlled futures (no timing),
the end-to-end burst against a real warmed :class:`JoinService` with the
optimizer slowed enough that every thread attaches before resolution.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

from repro.service import (
    FlightCancelled,
    JoinRequest,
    JoinService,
    RequestCoalescer,
    submit_coalesced,
)
from repro.service.service import response_json

TAU_GOOD = 40
TAU_BAD = 10**6
PILOT = 60


# -- pure singleflight semantics (stub futures, no timing) ---------------------


class TestRequestCoalescer:
    def test_duplicates_attach_and_share_one_result(self):
        coalescer = RequestCoalescer()
        computation = Future()
        starts = []

        def start():
            starts.append(1)
            return computation

        waiters = [coalescer.join("k", start) for _ in range(5)]
        assert len(starts) == 1, "only the leader starts a computation"
        assert waiters[0].leader and not any(w.leader for w in waiters[1:])
        stats = coalescer.stats()
        assert stats["leaders"] == 1
        assert stats["attached"] == 4
        assert stats["in_flight"] == 1

        computation.set_result({"answer": 7})
        for waiter in waiters:
            assert waiter.result(timeout=5) == {"answer": 7}
        stats = coalescer.stats()
        assert stats["resolved"] == 1
        assert stats["in_flight"] == 0

    def test_resolved_flight_is_retired(self):
        coalescer = RequestCoalescer()
        first = Future()
        first_waiter = coalescer.join("k", lambda: first)
        first.set_result("one")
        assert first_waiter.result(timeout=5) == "one"

        second = Future()
        second_waiter = coalescer.join("k", lambda: second)
        assert second_waiter.leader, (
            "a resolved flight must not capture later arrivals"
        )
        second.set_result("two")
        assert second_waiter.result(timeout=5) == "two"
        assert coalescer.stats()["leaders"] == 2

    def test_different_keys_never_share(self):
        coalescer = RequestCoalescer()
        a, b = Future(), Future()
        waiter_a = coalescer.join(("sig", 1), lambda: a)
        waiter_b = coalescer.join(("sig", 2), lambda: b)
        assert waiter_a.leader and waiter_b.leader
        a.set_result("gen1")
        b.set_result("gen2")
        assert waiter_a.result(timeout=5) == "gen1"
        assert waiter_b.result(timeout=5) == "gen2"

    def test_submit_exception_fans_out_to_the_burst(self):
        coalescer = RequestCoalescer()
        boom = RuntimeError("shed")

        def start():
            raise boom

        waiter = coalescer.join("k", start)
        with pytest.raises(RuntimeError, match="shed"):
            waiter.result(timeout=5)
        assert coalescer.stats()["resolved"] == 1

    def test_computation_error_fans_out(self):
        coalescer = RequestCoalescer()
        computation = Future()
        first = coalescer.join("k", lambda: computation)
        second = coalescer.join("k", lambda: computation)
        computation.set_exception(ValueError("no statistics"))
        for waiter in (first, second):
            with pytest.raises(ValueError, match="no statistics"):
                waiter.result(timeout=5)

    def test_detach_leaves_remaining_waiters_untouched(self):
        coalescer = RequestCoalescer()
        computation = Future()
        computation.set_running_or_notify_cancel()  # worker picked it up
        impatient = coalescer.join("k", lambda: computation)
        patient = coalescer.join("k", lambda: computation)

        assert impatient.detach() is False, "one waiter remains"
        assert not computation.cancelled()
        stats = coalescer.stats()
        assert stats["detached"] == 1
        assert stats["cancelled"] == 0

        computation.set_result("late but fine")
        assert patient.result(timeout=5) == "late but fine"

    def test_last_waiter_detaching_cancels_queued_computation(self):
        coalescer = RequestCoalescer()
        computation = Future()  # still queued: cancel() will succeed
        first = coalescer.join("k", lambda: computation)
        second = coalescer.join("k", lambda: computation)
        assert first.detach() is False
        assert second.detach() is True, "last one out pulls the plug"
        assert computation.cancelled()
        stats = coalescer.stats()
        assert stats["detached"] == 2
        assert stats["cancelled"] == 1
        assert stats["in_flight"] == 0
        with pytest.raises(FlightCancelled):
            second.future.result(timeout=5)

    def test_last_waiter_detach_cannot_cancel_running_computation(self):
        coalescer = RequestCoalescer()
        computation = Future()
        computation.set_running_or_notify_cancel()
        only = coalescer.join("k", lambda: computation)
        assert only.detach() is False, (
            "a computation already on a worker cannot be cancelled; its "
            "result is merely discarded"
        )
        assert not computation.cancelled()
        assert coalescer.stats()["cancelled"] == 0
        # The flight is still retired: a later duplicate starts fresh.
        again = coalescer.join("k", lambda: Future())
        assert again.leader

    def test_result_timeout_detaches(self):
        coalescer = RequestCoalescer()
        computation = Future()
        computation.set_running_or_notify_cancel()
        slow = coalescer.join("k", lambda: computation)
        fast = coalescer.join("k", lambda: computation)
        with pytest.raises(FutureTimeoutError):
            fast.result(timeout=0.05)
        stats = coalescer.stats()
        assert stats["detached"] == 1
        assert stats["cancelled"] == 0, "slow is still waiting"
        computation.set_result("done")
        assert slow.result(timeout=5) == "done"

    def test_detach_is_idempotent(self):
        coalescer = RequestCoalescer()
        computation = Future()
        first = coalescer.join("k", lambda: computation)
        second = coalescer.join("k", lambda: computation)
        assert first.detach() is False
        assert first.detach() is False
        assert coalescer.stats()["detached"] == 1
        assert second.detach() is True

    def test_last_waiter_detach_during_submission_cancels_on_bind(self):
        """The cancel-requested race: everyone gives up mid-submit.

        If the last waiter detaches while the leader is still inside
        ``service.submit`` (computation not yet bound), the detach
        records ``cancel_requested`` and the bind cancels immediately.
        """
        coalescer = RequestCoalescer()
        computation = Future()

        def start():
            flight = coalescer._flights["k"]
            coalescer._detach(flight)  # the only waiter gives up mid-submit
            return computation

        waiter = coalescer.join("k", start)
        assert computation.cancelled()
        assert coalescer.stats()["cancelled"] == 1
        with pytest.raises(FlightCancelled):
            waiter.future.result(timeout=5)


# -- submit_coalesced policy ---------------------------------------------------


class _StubService:
    """coalesce_key policy + submit bookkeeping, no real workers."""

    def __init__(self):
        self.coalescer = RequestCoalescer()
        self.generation = 1
        self.submitted = []

    def coalesce_key(self, request):
        if request.mode != "plan":
            return None
        return ("plan", "sig", self.generation, request.tau_good,
                request.tau_bad)

    def submit(self, request):
        self.submitted.append(request)
        return Future()


class TestSubmitCoalesced:
    def test_execute_mode_never_coalesces(self):
        service = _StubService()
        request = JoinRequest(tau_good=40, tau_bad=100, mode="execute")
        future_a, waiter_a = submit_coalesced(service, request)
        future_b, waiter_b = submit_coalesced(service, request)
        assert waiter_a is None and waiter_b is None
        assert future_a is not future_b, "each execute runs individually"
        assert len(service.submitted) == 2

    def test_plan_duplicates_share_one_submission(self):
        service = _StubService()
        request = JoinRequest(tau_good=40, tau_bad=100, mode="plan")
        future_a, waiter_a = submit_coalesced(service, request)
        future_b, waiter_b = submit_coalesced(service, request)
        assert waiter_a is not None and waiter_b is not None
        assert future_a is future_b
        assert len(service.submitted) == 1

    def test_shared_computation_is_submitted_without_deadline(self):
        service = _StubService()
        request = JoinRequest(
            tau_good=40, tau_bad=100, mode="plan", deadline_ms=250.0
        )
        submit_coalesced(service, request)
        assert len(service.submitted) == 1
        assert service.submitted[0].deadline_ms is None, (
            "deadlines are per-waiter; one impatient duplicate must not "
            "poison the shared answer"
        )
        assert service.submitted[0].tau_good == request.tau_good

    def test_generation_bump_changes_the_key(self):
        service = _StubService()
        request = JoinRequest(tau_good=40, tau_bad=100, mode="plan")
        _, first = submit_coalesced(service, request)
        service.generation += 1
        _, second = submit_coalesced(service, request)
        assert first.key != second.key
        assert second.leader, "post-bump arrivals start a fresh flight"
        assert len(service.submitted) == 2


# -- end-to-end against a warmed JoinService -----------------------------------


@pytest.fixture(scope="module")
def plan_service(hq_ex_task, tmp_path_factory):
    """A service warmed by one cold execute (statistics recorded)."""
    root = tmp_path_factory.mktemp("coalesce-store")
    service = JoinService(
        hq_ex_task, str(root), workers=3, pilot_documents=PILOT
    )
    future = service.submit(JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD))
    future.result(timeout=600)
    yield service
    service.close(wait=True)


class TestCoalescedServing:
    def test_burst_computes_once_and_answers_are_byte_identical(
        self, plan_service
    ):
        service = plan_service
        request = JoinRequest(
            tau_good=TAU_GOOD, tau_bad=TAU_BAD, mode="plan"
        )
        # Slow the optimizer enough that the whole burst attaches to the
        # leader's flight before it resolves; counters below are exact.
        original = service.plan_cache.optimize

        def slowed(key, requirement, factory):
            time.sleep(0.4)
            return original(key, requirement, factory)

        cache_before = service.plan_cache.stats()
        flights_before = service.coalescer.stats()

        n = 8
        barrier = threading.Barrier(n)
        answers = [None] * n
        errors = []

        def client(index):
            try:
                barrier.wait(timeout=30)
                future, _waiter = submit_coalesced(service, request)
                answers[index] = future.result(timeout=120)
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
        assert (
            cache_after["misses"] - cache_before["misses"] == 1
        ), "exactly one optimizer computation for the whole burst"
        assert (
            cache_after["optimizer_misses"]
            - cache_before["optimizer_misses"]
            == 1
        )
        assert flights_after["leaders"] - flights_before["leaders"] == 1
        assert flights_after["attached"] - flights_before["attached"] == n - 1

        rendered = {response_json(answer) for answer in answers}
        assert len(rendered) == 1, "every waiter sees the same bytes"

        # Byte-identity against uncoalesced serving: the threaded front
        # end submits directly, bypassing the coalescer.
        reference = service.submit(request).result(timeout=120)
        assert response_json(reference) == rendered.pop()
        assert answers[0]["plan"] is not None

    def test_generation_bump_mid_flight_starts_fresh_flight(
        self, plan_service
    ):
        service = plan_service
        request = JoinRequest(
            tau_good=TAU_GOOD + 1, tau_bad=TAU_BAD, mode="plan"
        )
        generation_before = service.store.generation
        gate = threading.Event()
        original = service.plan_cache.optimize

        def gated(key, requirement, factory):
            if key.generation == generation_before:
                assert gate.wait(timeout=60), "test gate never opened"
            return original(key, requirement, factory)

        service.plan_cache.optimize = gated
        try:
            first_future, first_waiter = submit_coalesced(service, request)
            # Statistics move on while the first flight is stuck in the
            # optimizer — as if a concurrent execute just recorded a run.
            with service._store_lock:
                service.store.generation += 1
            second_future, second_waiter = submit_coalesced(service, request)
            assert second_waiter.key != first_waiter.key
            assert second_future is not first_future, (
                "a post-bump arrival must not wait on the stale flight"
            )
            gate.set()
            first = first_future.result(timeout=120)
            second = second_future.result(timeout=120)
        finally:
            service.plan_cache.optimize = original
        # Same stored statistics on both sides of the bump, so the plans
        # agree — but each generation computed its own.
        assert response_json(first) == response_json(second)
        stats = service.coalescer.stats()
        assert stats["in_flight"] == 0

    def test_coalescing_tallies_surface_in_stats_and_metrics(
        self, plan_service
    ):
        service = plan_service
        stats = service.stats()
        assert "coalescing" in stats
        assert stats["coalescing"]["leaders"] >= 1
        assert stats["coalescing"]["attached"] >= 1
        text = service.render_metrics()
        assert 'repro_service_coalescing{key="attached"}' in text
        assert 'repro_service_coalescing{key="leaders"}' in text
