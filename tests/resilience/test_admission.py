"""AdmissionController caps, queueing, and HTTP 429s with Retry-After."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from contextlib import ExitStack
from time import perf_counter

import pytest

from repro.exceptions import (
    DeadlineExceededError,
    OverloadedError,
    ServiceConfigError,
)
from repro.resilience.admission import AdmissionController
from repro.resilience.deadline import Deadline
from repro.service.app import QueryService
from tests.helpers import graph_from_edges, running_server


def make_graph():
    return graph_from_edges(
        [
            ("s", "go", "m"),
            ("m", "go", "t"),
            ("m", "mark", "m"),
            ("t", "go", "u"),
            ("u", "mark", "s"),
        ],
        name="tiny",
    )


QUERY = {
    "source": "s",
    "target": "t",
    "labels": ["go"],
    "constraint": "SELECT ?x WHERE { ?x <mark> ?y . }",
}


class TestController:
    def test_admits_up_to_cap_then_sheds(self):
        controller = AdmissionController(2, max_queue=0)
        first = controller.admit()
        second = controller.admit()
        with pytest.raises(OverloadedError) as excinfo:
            controller.admit()
        error = excinfo.value
        assert error.status == 429
        assert error.headers["Retry-After"]
        assert error.detail["max_concurrent"] == 2
        first.__exit__(None, None, None)
        second.__exit__(None, None, None)

    def test_release_frees_the_slot(self):
        controller = AdmissionController(1)
        with controller.admit():
            pass
        with controller.admit():
            pass
        stats = controller.stats()
        assert stats["admitted"] == 2
        assert stats["active"] == 0
        assert stats["shed"] == 0

    def test_queued_request_proceeds_after_release(self):
        controller = AdmissionController(1, max_queue=1, max_wait=5.0)
        slot = controller.admit()
        outcome = {}

        def waiter():
            with controller.admit():
                outcome["admitted"] = True

        thread = threading.Thread(target=waiter)
        thread.start()
        # Give the waiter time to enter the queue, then free the slot.
        for _ in range(200):
            if controller.stats()["queued"] == 1:
                break
            threading.Event().wait(0.005)
        assert controller.stats()["queued"] == 1
        slot.__exit__(None, None, None)
        thread.join(timeout=5)
        assert outcome.get("admitted") is True
        assert controller.stats()["queued"] == 0

    def test_bounded_wait_times_out_as_overload(self):
        controller = AdmissionController(1, max_queue=1, max_wait=0.05)
        slot = controller.admit()
        try:
            with pytest.raises(OverloadedError) as excinfo:
                controller.admit()
            assert "queued longer" in str(excinfo.value)
            stats = controller.stats()
            assert stats["queue_timeouts"] == 1
            assert stats["shed"] == 1
        finally:
            slot.__exit__(None, None, None)

    def test_expired_deadline_in_queue_is_a_504(self):
        controller = AdmissionController(1, max_queue=1, max_wait=5.0)
        slot = controller.admit()
        try:
            expired = Deadline(5, started=perf_counter() - 1.0)
            with pytest.raises(DeadlineExceededError) as excinfo:
                controller.admit(deadline=expired)
            assert excinfo.value.detail["where"] == "admission-queue"
        finally:
            slot.__exit__(None, None, None)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(0)
        with pytest.raises(ValueError):
            AdmissionController(1, max_queue=-1)


class TestServiceIntegration:
    def test_service_validates_admission_config(self):
        with pytest.raises(ServiceConfigError):
            QueryService(make_graph(), max_concurrent=0)

    def test_shed_request_is_structured_429_over_http(self):
        service = QueryService(make_graph(), max_concurrent=1)
        with ExitStack() as stack:
            stack.callback(service.close)
            base = stack.enter_context(running_server(service))
            # Occupy the only slot (released early below, or on exit).
            slot = stack.enter_context(ExitStack())
            slot.enter_context(service.admission.admit())
            request = urllib.request.Request(
                f"{base}/query",
                data=json.dumps(QUERY).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            error = excinfo.value
            assert error.code == 429
            assert error.headers["Retry-After"] is not None
            document = json.loads(error.read())
            assert document["error"]["type"] == "overloaded"
            assert document["error"]["detail"]["retry_after_seconds"] == 1.0
            # The shed shows up in /stats for operators.
            slot.close()
            with urllib.request.urlopen(f"{base}/stats", timeout=10) as resp:
                stats = json.loads(resp.read())
            assert stats["admission"]["shed"] == 1
            assert stats["service"]["resilience"]["requests_shed"] == 1

    def test_admitted_requests_answer_normally(self):
        service = QueryService(make_graph(), max_concurrent=4)
        try:
            document = json.loads(service.handle_query(dict(QUERY)))
            assert document["answer"] is True
            assert service.admission.stats()["admitted"] == 1
            assert service.admission.stats()["active"] == 0
        finally:
            service.close()
