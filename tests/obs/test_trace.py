"""Request-scoped tracing: spans, the tree they build, sampling (how a
trace travels is ``tests/service/test_request_context.py``)."""

from __future__ import annotations

import pytest

from repro.context import RequestContext, activate
from repro.obs.trace import (
    Trace,
    TraceSampler,
    annotate,
    current_span,
    current_trace,
    new_trace_id,
    span,
)
from repro.obs.trace import _NOOP  # the shared disabled-path handle


class TestDisabledPath:
    def test_span_returns_shared_noop(self):
        assert current_trace() is None
        handle = span("anything", key="value")
        assert handle is _NOOP
        assert span("other") is handle          # the very same object

    def test_noop_handle_is_inert(self):
        with span("outer") as handle:
            handle.set(a=1).set(b=2)
            with span("inner"):
                annotate(ignored=True)
        assert current_trace() is None
        assert current_span() is None


class TestTraceTree:
    def test_nesting_follows_lexical_structure(self):
        trace = Trace("request")
        with activate(RequestContext(trace)):
            with span("plan", algorithm="ins"):
                pass
            with span("execute") as execute:
                execute.set(answer=True)
                with span("candidate-cache", hit=False):
                    pass
        trace.finish()
        document = trace.to_dict()
        assert document["trace_id"] == trace.trace_id
        assert document["name"] == "request"
        assert document["seconds"] >= 0.0
        names = [child["name"] for child in document["children"]]
        assert names == ["plan", "execute"]
        plan, execute = document["children"]
        assert plan["attrs"] == {"algorithm": "ins"}
        assert execute["attrs"]["answer"] is True
        assert [child["name"] for child in execute["children"]] == [
            "candidate-cache"
        ]

    def test_annotate_hits_innermost_open_span(self):
        trace = Trace("request")
        with activate(RequestContext(trace)):
            annotate(root_attr=1)               # no span open: the root
            with span("child"):
                annotate(child_attr=2)
        assert trace.root.attrs == {"root_attr": 1}
        assert trace.root.children[0].attrs == {"child_attr": 2}

    def test_to_dict_before_finish_reports_elapsed(self):
        trace = Trace("request")
        document = trace.to_dict()
        assert document["seconds"] >= 0.0       # not the open sentinel -1.0


class TestIdsAndSampler:
    def test_trace_ids_are_distinct_hex(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)

    def test_sampler_extremes(self):
        assert not any(TraceSampler(0.0).sample() for _ in range(100))
        assert all(TraceSampler(1.0).sample() for _ in range(100))

    def test_sampler_rate_is_roughly_honored(self):
        sampler = TraceSampler(0.25, seed=0)
        hits = sum(sampler.sample() for _ in range(4000))
        assert 800 < hits < 1200

    @pytest.mark.parametrize("rate", [-0.1, 1.1, 2.0])
    def test_sampler_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError, match="sample rate"):
            TraceSampler(rate)
