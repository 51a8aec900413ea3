"""The request context: the activation primitive's own contract (arm,
restore, mask, cursor reset, threads) and a traced batch under a
deadline, whose members run in the request thread under the one armed
context.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter

import pytest

from repro.context import RequestContext, activate
from repro.datasets.synthetic import random_labeled_graph
from repro.exceptions import DeadlineExceededError
from repro.obs.trace import (
    _NOOP,
    Trace,
    current_span,
    current_trace,
    span,
)
from repro.resilience.deadline import Deadline, check_deadline, current_deadline
from repro.service.app import QueryService

CONSTRAINT = "SELECT ?x WHERE { ?x <l0> ?y . }"


def expired_deadline(budget_ms: float = 5.0) -> Deadline:
    """A deadline whose budget ran out one second ago."""
    return Deadline(budget_ms, started=perf_counter() - 1.0)


# ----------------------------------------------------------------------
# the activation primitive
# ----------------------------------------------------------------------


class TestActivate:
    def test_nothing_armed_by_default(self):
        assert current_trace() is None
        assert current_deadline() is None
        check_deadline("anywhere")  # must not raise
        assert span("anything") is _NOOP

    def test_arms_and_restores(self):
        context = RequestContext(Trace("request"), Deadline.after_ms(60_000))
        with activate(context) as armed:
            assert armed is context
            assert current_trace() is context.trace
            assert current_deadline() is context.deadline
        assert current_trace() is None
        assert current_deadline() is None

    def test_none_masks_the_outer_request(self):
        context = RequestContext(Trace("request"), Deadline.after_ms(60_000))
        with activate(context):
            with span("outer"):
                with activate(None):
                    assert current_trace() is None
                    assert current_deadline() is None
                    assert current_span() is None
                    assert span("invisible") is _NOOP
                    check_deadline("inner")
                assert current_trace() is context.trace
                assert current_deadline() is context.deadline
        outer = context.trace.root.children[0]
        assert outer.children == []

    def test_expired_ambient_deadline_raises(self):
        with activate(RequestContext(deadline=expired_deadline())):
            with pytest.raises(DeadlineExceededError):
                check_deadline("ambient")

    def test_arming_resets_the_span_cursor(self):
        # A context armed inside an open span starts at the trace root,
        # never inside whatever span the arming code had open.
        context = RequestContext(Trace("request"))
        with activate(context):
            with span("outer"):
                with activate(context):
                    assert current_span() is None
                    with span("re-entered"):
                        pass
        names = [child.name for child in context.trace.root.children]
        assert names == ["outer", "re-entered"]

    def test_thread_does_not_inherit_but_can_adopt(self):
        context = RequestContext(Trace("request"), Deadline.after_ms(60_000))
        observed: list[object] = []

        def worker() -> None:
            observed.append((current_trace(), current_deadline()))
            with activate(context):
                with span("adopted"):
                    pass
                observed.append((current_trace(), current_deadline()))

        with activate(context):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert observed == [
            (None, None), (context.trace, context.deadline)
        ]
        names = [child.name for child in context.trace.root.children]
        assert names == ["adopted"]


class TestBatchUnderContext:
    def test_members_hang_their_query_span_under_the_batch_root(self):
        graph = random_labeled_graph(16, 2.0, 3, rng=1, name="batch")
        service = QueryService(graph, seed=1)
        try:
            names = [graph.name_of(vid) for vid in range(4)]
            payload = {
                "queries": [
                    {"source": source, "target": target,
                     "labels": ["l0", "l1"], "constraint": CONSTRAINT}
                    for source, target in zip(names, reversed(names))
                ]
            }
            with activate(RequestContext(deadline=Deadline.after_ms(60_000))):
                tree = json.loads(service.handle_batch(payload, trace=True))["trace"]
        finally:
            service.close()
        assert tree["name"] == "batch"
        members = [c for c in tree["children"] if c["name"] == "query"]
        assert sorted(m["attrs"]["index"] for m in members) == [0, 1, 2, 3]
