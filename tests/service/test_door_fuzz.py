"""The ``/query``, ``/batch`` and ``/edges`` doors under generated
bodies, over HTTP.

Whatever body a client sends, the reply is a 200 or a structured 4xx —
never a 500 — and the keep-alive connection it came on answers the next
request.  A 4xx names what was wrong: the field a one-field change broke
(as ``queries[i]: ...`` inside a batch), or, for constraint or label
text the readers refuse, ``invalid query`` with the reader's reason.  A
body the door accepts answers exactly as :meth:`QueryService.query`
does in process.

Two kinds of input: any JSON value, and a valid body with one field
changed — a wrong type, a missing key, empty or non-string labels, an
integer too long for a machine word (or, at 5 000 digits, for the JSON
reader), and constraints either side of
:data:`~repro.sparql.parser.MAX_TRIPLE_PATTERNS`.  The limit itself is
then pinned on both doors that read a constraint.

``POST /edges`` gets any JSON value, batches over ``max_batch``, and
valid batches (object and array items) with one field of one item
changed — dropped, a bad ``op``, an empty or non-string name, any JSON.
A 200 carries the summary an in-process twin's ``handle_updates``
returns for the same body (the twin applies every batch the door
applies, so both graphs move together); a 4xx names the ``edges[i]``
the change broke.
"""

from __future__ import annotations

import http.client
import json
from contextlib import ExitStack, contextmanager
from urllib.parse import urlsplit

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.toy import figure3_graph
from repro.exceptions import BadRequestError, ConstraintError, SparqlError
from repro.service.app import QueryService, validate_spec
from repro.service.epoch import EDGE_OPS
from repro.sparql.parser import MAX_TRIPLE_PATTERNS
from tests.helpers import running_server

S0 = "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }"
LABELS = ["likes", "follows", "friendOf"]
FIELDS = ("source", "target", "labels", "constraint", "algorithm", "use_cache")
#: Bodies the doors accept, one per planner outcome: a search, a
#: no-path search, a forced evaluator, an unknown vertex, uncached.
VALID = [
    {"source": "v0", "target": "v4", "labels": LABELS, "constraint": S0},
    {"source": "v0", "target": "v3", "labels": ["likes", "follows"], "constraint": S0},
    {"source": "v1", "target": "v4", "labels": "likes,follows", "constraint": S0,
     "algorithm": "uis*"},
    {"source": "v0", "target": "ghost", "labels": LABELS, "constraint": S0},
    {"source": "v2", "target": "v4", "labels": LABELS, "constraint": S0,
     "use_cache": False},
]
#: A 5 000-digit integer: more than the JSON reader converts, so the
#: whole body is refused as JSON.
HUGE = "9" * 5000
#: How such a body's 400 starts (the reader's own reason follows).
NOT_JSON = "request body is not valid JSON: "
_HUGE_MARK = "\x00huge\x00"
_DROP = object()


def long_constraint(patterns: int) -> str:
    body = " . ".join(f"?x <likes> ?y{i}" for i in range(patterns))
    return f"SELECT ?x WHERE {{ {body} . }}"


def encode(value) -> bytes:
    """JSON text of ``value``; the marker string becomes :data:`HUGE`
    (the encoder would refuse to write it)."""
    return json.dumps(value).replace(json.dumps(_HUGE_MARK), HUGE).encode()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

_long_ints = st.sampled_from([2**63, -(2**63) - 1, 2**64 + 1, 10**40, _HUGE_MARK])
_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | _long_ints
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
#: ``(field, new value)``: :data:`_DROP` removes the field.
_change = st.one_of(
    st.tuples(st.sampled_from(FIELDS), st.just(_DROP)),
    st.tuples(st.sampled_from(FIELDS), _json),
    st.tuples(st.sampled_from(FIELDS), _long_ints),
    st.tuples(
        st.just("labels"),
        st.sampled_from([
            [], [""], ["", "likes"], [1], ["likes", None], [True], ["likes", ["x"]],
            [{"a": 1}], ",", "", ",,likes,", ["likes"] * 3,
        ]),
    ),
    st.tuples(
        st.just("constraint"),
        st.sampled_from(["", "   ", "SELECT garbage ?!", "SELECT ?x WHERE { }"]),
    ),
    st.tuples(
        st.just("constraint"),
        st.one_of(
            st.sampled_from(
                [MAX_TRIPLE_PATTERNS - 1, MAX_TRIPLE_PATTERNS, MAX_TRIPLE_PATTERNS + 1]
            ),
            # Deeper than the evaluator's recursion could go.
            st.just(1000),
        ).map(long_constraint),
    ),
    st.tuples(st.just("algorithm"), st.sampled_from(["", "bogus", "ins", "naive"])),
)


def changed(base: dict, change: tuple) -> dict:
    field, value = change
    body = {key: item for key, item in base.items() if key != field}
    if value is not _DROP:
        body[field] = value
    return body


#: What a 4xx must say when ``field`` was the one changed.
NAMES = {
    "source": ("'source' and 'target'", "missing field(s) source"),
    "target": ("'source' and 'target'", "missing field(s) target"),
    "labels": ("'labels'", "missing field(s) labels", "invalid query: a label"),
    "constraint": ("'constraint'", "missing field(s) constraint", "invalid query"),
    "algorithm": ("'algorithm'", "unknown algorithm", "algorithm 'ins'"),
    "use_cache": ("'use_cache'",),
}


# ---------------------------------------------------------------------------
# the server, one keep-alive connection, an uncached in-process reference
# ---------------------------------------------------------------------------


@contextmanager
def loopback(service: QueryService, reference: QueryService, **server_options):
    """A keep-alive connection to ``service`` served over loopback, and
    ``reference`` to check its replies against; all closed on exit."""
    with ExitStack() as stack:
        stack.callback(service.close)
        stack.callback(reference.close)
        base = stack.enter_context(running_server(service, **server_options))
        connection = http.client.HTTPConnection(urlsplit(base).netloc, timeout=30)
        stack.callback(connection.close)
        yield connection, reference


@pytest.fixture(scope="module")
def door():
    with loopback(
        QueryService(figure3_graph(), seed=0),
        QueryService(figure3_graph(), seed=0, cache_size=0),
    ) as pair:
        yield pair


def post(connection: http.client.HTTPConnection, path: str, body: bytes) -> tuple:
    connection.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    document = json.loads(response.read())
    # The reply keeps the connection open, so the next request reuses it.
    assert not response.will_close
    return response.status, document


def answered(result, meta) -> tuple:
    return result.answer, meta["trivial"], meta["reason"]


def reference_member(reference: QueryService, spec: dict) -> tuple:
    result, meta = reference.query(**spec)
    return answered(result, meta)


def check_reply(status: int, document: dict, expected: tuple) -> None:
    """The door answered what ``expected`` — ``(200, answers)`` or
    ``(status, message)`` — says, as a 200 or a structured 4xx."""
    assert status != 500, document
    assert status == expected[0], document
    if status == 200:
        return
    assert 400 <= status < 500, document
    error = document["error"]
    assert isinstance(error["type"], str)
    if expected[1] is NOT_JSON:
        assert error["message"].startswith(NOT_JSON)
    else:
        assert error["message"] == expected[1]


def still_usable(connection) -> None:
    status, document = post(connection, "/query", encode(VALID[0]))
    assert status == 200 and document["answer"] is True


def expect_query(reference: QueryService, body) -> tuple:
    """``(200, answers)`` or ``(status, message)`` for one ``/query`` body."""
    if HUGE in encode(body).decode():
        return 400, NOT_JSON
    try:
        return 200, reference_member(reference, validate_spec(body, where="query"))
    except BadRequestError as error:
        return error.status, str(error)
    except (ConstraintError, SparqlError) as error:
        return 400, f"invalid query: {error}"


def expect_batch(reference: QueryService, body) -> tuple:
    """``(200, answers)`` or ``(status, message)`` for one ``/batch`` body."""
    if HUGE in encode(body).decode():
        return 400, NOT_JSON
    try:
        reference.handle_batch(body)
    except BadRequestError as error:
        return error.status, str(error)
    return 200, [
        reference_member(reference, validate_spec(member, where="member"))
        for member in body["queries"]
    ]


_FUZZ = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestQueryDoor:
    @_FUZZ
    @given(body=st.one_of(_json, st.tuples(st.sampled_from(VALID), _change)))
    def test_every_body_gets_an_answer_or_a_structured_4xx(self, door, body):
        connection, reference = door
        change = None
        if isinstance(body, tuple):
            base, change = body
            body = changed(base, change)
        status, document = post(connection, "/query", encode(body))
        expected = expect_query(reference, body)
        check_reply(status, document, expected)
        if status == 200:
            reply = (document["answer"], document["trivial"], document["reason"])
            assert reply == expected[1]
        elif change is not None and expected[1] is not NOT_JSON:
            message = document["error"]["message"]
            assert any(name in message for name in NAMES[change[0]]), message
        still_usable(connection)


class TestBatchDoor:
    @_FUZZ
    @given(
        body=st.one_of(
            _json,
            st.tuples(
                st.lists(st.sampled_from(VALID), min_size=1, max_size=4),
                st.integers(0, 3),
                _change,
                st.sampled_from([None, True, False]),
            ),
            st.fixed_dictionaries({"queries": _json}),
        )
    )
    def test_every_body_gets_an_answer_or_a_structured_4xx(self, door, body):
        connection, reference = door
        field = position = None
        if isinstance(body, tuple):
            members, position, change, flag = body
            position %= len(members)
            members = list(members)
            members[position] = changed(members[position], change)
            field = change[0]
            body = {"queries": members}
            if flag is not None:
                body["use_cache"] = flag
        status, document = post(connection, "/batch", encode(body))
        expected = expect_batch(reference, body)
        check_reply(status, document, expected)
        if status == 200:
            replies = [
                (reply["answer"], reply["trivial"], reply["reason"])
                for reply in document["results"]
            ]
            assert replies == expected[1]
        elif field is not None and expected[1] is not NOT_JSON and expected[1].startswith("queries["):
            message = expected[1]
            assert message.startswith(f"queries[{position}]: "), message
            assert any(name in message for name in NAMES[field]), message
        still_usable(connection)


# ---------------------------------------------------------------------------
# the /edges door
# ---------------------------------------------------------------------------

MAX_BATCH = 4
EDGE_FIELDS = ("source", "label", "target", "op")
_names = st.sampled_from(["v0", "v1", "v4", "n1", "n2"])
_labels = st.sampled_from(["likes", "follows", "new"])
_ops = st.sampled_from(EDGE_OPS)
_edge = st.one_of(
    st.fixed_dictionaries(
        {"source": _names, "label": _labels, "target": _names}, optional={"op": _ops}
    ),
    st.tuples(_names, _labels, _names).map(list),
    st.tuples(_names, _labels, _names, _ops).map(list),
)
#: ``(field, new value)`` for one item; field None replaces the whole
#: item, and :data:`_DROP` removes the field (or the item).
_edge_change = st.tuples(
    st.sampled_from((*EDGE_FIELDS, None)),
    st.one_of(
        st.just(_DROP),
        _json,
        _long_ints,
        st.sampled_from(["", "ADD", "delete", None, 1, ["add"], {"op": "add"}]),
    ),
)


def changed_edge(item, field: str, value):
    if isinstance(item, dict):
        item = {key: part for key, part in item.items() if key != field}
        if value is not _DROP:
            item[field] = value
        return item
    position = EDGE_FIELDS.index(field)
    item = list(item)
    if value is _DROP:
        del item[position:position + 1]
    elif position < len(item):
        item[position] = value
    else:
        item.append(value)
    return item


def expect_edges(twin: QueryService, body) -> tuple:
    """``(200, summary)`` or ``(status, message)`` for one ``/edges`` body."""
    if HUGE in encode(body).decode():
        return 400, NOT_JSON
    try:
        return 200, timeless(twin.handle_updates(body))
    except BadRequestError as error:
        return error.status, str(error)


def timeless(summary: dict) -> dict:
    return {key: value for key, value in summary.items() if key != "seconds"}


@pytest.fixture(scope="module")
def edges_door():
    with loopback(
        QueryService(figure3_graph(), seed=0, max_batch=MAX_BATCH),
        QueryService(figure3_graph(), seed=0, max_batch=MAX_BATCH),
        allow_updates=True,
    ) as pair:
        yield pair


class TestEdgesDoor:
    @_FUZZ
    @given(
        body=st.one_of(
            _json,
            st.fixed_dictionaries({"edges": _json}),
            st.lists(_edge, min_size=MAX_BATCH + 1, max_size=MAX_BATCH + 3).map(
                lambda edges: {"edges": edges}
            ),
            st.tuples(
                st.lists(_edge, min_size=1, max_size=MAX_BATCH),
                st.integers(0, MAX_BATCH - 1),
                _edge_change,
            ),
        )
    )
    def test_every_body_gets_a_summary_or_a_structured_4xx(self, edges_door, body):
        connection, twin = edges_door
        position = None
        if isinstance(body, tuple):
            edges, position, (field, value) = body
            position %= len(edges)
            if field is not None:
                edges[position] = changed_edge(edges[position], field, value)
            elif value is not _DROP:
                edges[position] = value
            else:
                del edges[position]
                position = None
            body = {"edges": edges}
        status, document = post(connection, "/edges", encode(body))
        expected = expect_edges(twin, body)
        check_reply(status, document, expected)
        if status == 200:
            assert timeless(document) == expected[1]
        elif position is not None and expected[1] is not NOT_JSON:
            assert document["error"]["message"].startswith(f"edges[{position}]: ")
        # The graph moves under the door, so the answer may too; the
        # twin asks as well, so both carry the same cached candidates.
        status, document = post(connection, "/query", encode(VALID[0]))
        twin_reply = json.loads(twin.handle_query(VALID[0]))
        assert (status, document["answer"]) == (200, twin_reply["answer"])


# ---------------------------------------------------------------------------
# the pattern limit on every door that reads a constraint
# ---------------------------------------------------------------------------


def member(patterns: int) -> dict:
    return {**VALID[0], "constraint": long_constraint(patterns)}


class TestPatternLimit:
    def test_query_and_batch_at_the_limit_and_one_past(self, door):
        connection, _ = door
        status, document = post(connection, "/query", encode(member(MAX_TRIPLE_PATTERNS)))
        assert (status, document["answer"]) == (200, True)
        status, document = post(
            connection, "/batch", encode({"queries": [VALID[1], member(MAX_TRIPLE_PATTERNS)]})
        )
        assert status == 200
        assert [reply["answer"] for reply in document["results"]] == [False, True]
        past = member(MAX_TRIPLE_PATTERNS + 1)
        for path, body, prefix in (
            ("/query", past, "invalid query: "),
            ("/batch", {"queries": [VALID[1], past]}, "invalid query in batch: "),
        ):
            status, document = post(connection, path, encode(body))
            assert status == 400, document
            message = document["error"]["message"]
            assert message.startswith(prefix + "too many triple patterns")
            assert "constraint" in message
        still_usable(connection)

    def test_a_thousand_patterns_is_a_400_not_a_recursion_error(self, door):
        connection, _ = door
        status, document = post(connection, "/query", encode(member(1000)))
        assert status == 400 and "too many triple patterns" in document["error"]["message"]
