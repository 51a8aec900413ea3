"""Deadline arithmetic and end-to-end 504s (how a deadline travels is
``tests/service/test_request_context.py``)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from contextlib import ExitStack
from time import perf_counter

import pytest

from repro.context import RequestContext, activate
from repro.exceptions import DeadlineExceededError
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


def expired_deadline(budget_ms: float = 5.0) -> Deadline:
    """A deadline whose budget ran out one second ago."""
    return Deadline(budget_ms, started=perf_counter() - 1.0)


def under(deadline: Deadline) -> activate:
    """Arm ``deadline`` the way the HTTP handler does."""
    return activate(RequestContext(deadline=deadline))


class TestDeadlineMath:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-10)

    def test_fresh_deadline_not_expired(self):
        deadline = Deadline.after_ms(60_000)
        assert not deadline.expired()
        assert deadline.remaining_ms() > 59_000
        assert deadline.remaining_seconds() > 59
        assert deadline.elapsed_ms() < 1_000

    def test_expired_deadline_reports_expiry(self):
        deadline = expired_deadline()
        assert deadline.expired()
        assert deadline.remaining_ms() < 0
        assert deadline.elapsed_ms() >= 1_000

    def test_check_raises_structured_504_with_partial(self):
        deadline = expired_deadline(budget_ms=5)
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check("unit-test", rounds=3)
        error = excinfo.value
        assert error.status == 504
        assert error.detail["where"] == "unit-test"
        assert error.detail["budget_ms"] == 5.0
        assert error.detail["partial"] == {"rounds": 3}

    def test_check_is_noop_before_expiry(self):
        Deadline.after_ms(60_000).check("unit-test")


class TestServiceEnforcement:
    def test_expired_deadline_aborts_query(self):
        service = QueryService(make_graph())
        try:
            with under(expired_deadline()):
                with pytest.raises(DeadlineExceededError):
                    service.query(**QUERY)
        finally:
            service.close()

    def test_expired_deadline_surfaces_in_handle_query(self):
        service = QueryService(make_graph())
        try:
            with under(expired_deadline()):
                with pytest.raises(DeadlineExceededError) as excinfo:
                    service.handle_query(dict(QUERY))
            assert excinfo.value.status == 504
        finally:
            service.close()

    def test_generous_deadline_answers_normally(self):
        service = QueryService(make_graph())
        try:
            with under(Deadline.after_ms(60_000)):
                result, _ = service.query(**QUERY)
            assert result.answer is True
        finally:
            service.close()

    def test_batch_respects_ambient_deadline(self):
        service = QueryService(make_graph())
        try:
            payload = {"queries": [dict(QUERY), dict(QUERY)]}
            with under(expired_deadline()):
                with pytest.raises(DeadlineExceededError):
                    service.handle_batch(payload)
        finally:
            service.close()


class HttpFixture:
    def __init__(self, service, **server_kwargs):
        self._stack = ExitStack()
        self._stack.callback(service.close)
        self.base = self._stack.enter_context(
            running_server(service, **server_kwargs)
        )

    def close(self):
        self._stack.close()

    def post(self, path, payload):
        request = urllib.request.Request(
            f"{self.base}{path}",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())

    def post_error(self, path, payload):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(path, payload)
        error = excinfo.value
        return error.code, json.loads(error.read())


class TestHttpDeadlines:
    def test_deadline_ms_query_parameter_happy_path(self):
        fixture = HttpFixture(QueryService(make_graph()))
        try:
            status, document = fixture.post("/query?deadline_ms=60000", QUERY)
            assert status == 200
            assert document["answer"] is True
        finally:
            fixture.close()

    def test_junk_deadline_is_a_400(self):
        fixture = HttpFixture(QueryService(make_graph()))
        try:
            for raw in ("junk", "-5", "0", "inf", "nan"):
                code, document = fixture.post_error(
                    f"/query?deadline_ms={raw}", QUERY
                )
                assert code == 400
                assert document["error"]["type"] == "bad-request"
        finally:
            fixture.close()

    def test_tiny_deadline_times_out_structured(self):
        # An sub-microsecond budget expires before the execute seam even
        # runs, so this stays fast and deterministic.
        fixture = HttpFixture(QueryService(make_graph()))
        try:
            code, document = fixture.post_error(
                "/query?deadline_ms=0.001", QUERY
            )
            assert code == 504
            error = document["error"]
            assert error["type"] == "deadline-exceeded"
            assert error["detail"]["budget_ms"] == 0.001
            assert "where" in error["detail"]
        finally:
            fixture.close()

    def test_server_default_deadline_applies(self):
        fixture = HttpFixture(
            QueryService(make_graph()), default_deadline_ms=0.0001
        )
        try:
            code, document = fixture.post_error("/query", QUERY)
            assert code == 504
            assert document["error"]["type"] == "deadline-exceeded"
            # An explicit parameter wins over the server default.
            status, document = fixture.post("/query?deadline_ms=60000", QUERY)
            assert status == 200
            assert document["answer"] is True
        finally:
            fixture.close()

    def test_deadline_stats_counter_moves(self):
        service = QueryService(make_graph())
        fixture = HttpFixture(service)
        try:
            fixture.post_error("/query?deadline_ms=0.0001", QUERY)
            snapshot = service.stats_snapshot()
            assert snapshot["service"]["errors"]["deadline-exceeded"] >= 1
        finally:
            fixture.close()
