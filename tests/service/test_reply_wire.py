"""The ``/query`` and ``/batch`` reply bodies, byte for byte.

A reply is assembled as text from each result's JSON members (encoded
once per result object) and the reply's own meta members.  These
properties hold it to the bytes ``json.dumps`` writes for the payload
object the service used to build, for any result, any meta and with or
without a trace.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace

from hypothesis import given
from hypothesis import strategies as st

from repro.core.result import QueryResult
from repro.service.app import batch_body, query_body


def payload(result: QueryResult, meta: dict) -> dict:
    """One answer's reply object, as a dict for ``json.dumps``."""
    document = {
        "answer": result.answer,
        "algorithm": result.algorithm,
        "seconds": result.seconds,
        "passed_vertices": result.passed_vertices,
        "cached": meta["cached"],
        "trivial": meta["trivial"],
        "reason": meta["reason"],
        "epoch": meta["epoch"],
        "source": meta.get("source", "evaluated"),
    }
    if "tier" in meta:
        document["tier"] = meta["tier"]
    return document


class Drawn:
    """A trace whose span tree is a drawn document."""

    def __init__(self, document: dict) -> None:
        self.document = document

    def to_dict(self) -> dict:
        return self.document


floats = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-310, 1e300, -1e300, float("nan"), float("inf"),
     float("-inf")]
)
ints = st.integers(min_value=-(2**70), max_value=2**70)
texts = st.text() | st.sampled_from(
    ['"', '\\"quoted\\"', "\x00\x01\x1f\x7f", "\n\r\t", "é", "日本語", "\U0001f600",
     "\ud800"]
)
documents = st.recursive(
    st.none() | st.booleans() | ints | floats | texts,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)
results = st.builds(
    QueryResult,
    answer=st.booleans(),
    algorithm=texts,
    seconds=floats,
    passed_vertices=ints,
    scck_calls=ints,
    vsg_seconds=floats,
)


@st.composite
def metas(draw) -> dict:
    meta = {
        "cached": draw(st.booleans()),
        "trivial": draw(st.booleans()),
        "reason": draw(texts),
        "epoch": draw(ints),
    }
    if draw(st.booleans()):
        meta["source"] = draw(texts)
    if draw(st.booleans()):
        meta["tier"] = draw(texts)
    return meta


traces = st.none() | st.dictionaries(texts, documents, max_size=3).map(Drawn)


@given(result=results, meta=metas(), trace=traces)
def test_a_query_reply_is_the_bytes_json_dumps_writes(result, meta, trace):
    expected = payload(result, meta)
    if trace is not None:
        expected["trace"] = trace.to_dict()
    wire = json.dumps(expected).encode("utf-8")
    assert query_body(result, meta, trace) == wire
    # A second reply from the same result object reads its stored members.
    assert query_body(result, meta, trace) == wire


@given(
    answered=st.lists(st.tuples(results, metas()), min_size=1, max_size=4),
    trace=traces,
)
def test_a_batch_reply_is_the_bytes_json_dumps_writes(answered, trace):
    expected = {
        "count": len(answered),
        "results": [payload(result, meta) for result, meta in answered],
    }
    if trace is not None:
        expected["trace"] = trace.to_dict()
    assert batch_body(answered, trace) == json.dumps(expected).encode("utf-8")


@given(result=results, meta=metas())
def test_the_stored_members_are_not_a_field(result, meta):
    fields = asdict(result)
    query_body(result, meta)
    assert asdict(result) == fields
    assert result == replace(result)
