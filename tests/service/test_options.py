"""One options table, three front doors, one verdict.

``python -m repro serve``, ``POST /tenants`` and the ``QueryService``
keywords all read :data:`repro.service.options.OPTIONS`.  These tests
walk the table row by row — a valid value and every kind of invalid one
— and hold the doors to the same answer: a bad value is refused at the
door (exit 2 with one ``error:`` line / 400 and nothing registered /
``ServiceConfigError``) naming the option as that door spells it, and a
good one arrives in ``/stats`` ``config``.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import build_parser, main
from repro.datasets.toy import figure3_graph
from repro.exceptions import ServiceConfigError
from repro.graph.io import dump_tsv
from repro.service.app import QueryService
from repro.service.http import ServiceHTTPServer
from repro.service.options import OPTIONS, ServiceOptions, options_from_args
from repro.service.registry import TenantRegistry
from tests.helpers import running_server
from tests.service.test_http_tenants import http_get, http_request

ROWS = {row.name: row for row in OPTIONS}
SPEC = {
    "source": "v0", "target": "v4", "labels": ["likes", "follows"],
    "constraint": "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }",
}

#: option → (a valid non-default value, the options it needs switched on).
VALID = {
    "landmark_count": (2, {}),
    "seed": (7, {}),
    "cache_size": (5, {}),
    "max_batch": (9, {}),
    "trace_sample": (0.5, {}),
    "slow_ms": (10.0, {}),
    "slow_log_size": (3, {}),
    "max_concurrent": (2, {}),
    "max_queue": (3, {"max_concurrent": 2}),
}

_WRONG_TYPES = {
    int: ["zero", True, 1.5],
    float: ["fast", True],
}


def invalid_cases():
    """``(option, kind of badness, values)`` for every way a row can be
    given wrong: mistyped, out of range, or without what it requires."""
    for row in OPTIONS:
        for value in _WRONG_TYPES[row.kind]:
            yield row.name, "type", {row.name: value}
        for bound in (
            None if row.ge is None else row.ge - 1,
            None if row.le is None else row.le + 0.5,
        ):
            if bound is not None:
                yield row.name, "range", {row.name: bound}
        if row.requires is not None:
            yield row.name, "requires", {row.name: VALID[row.name][0]}
    # The values PR 2's per-door parametrisation used to pin.
    yield "landmark_count", "range", {"landmark_count": -3}
    yield "max_batch", "type", {"max_batch": "lots"}


def to_argv(values):
    """``values`` as ``serve`` flags; None when the command line cannot
    say it (a flagless row)."""
    argv = []
    for name, value in values.items():
        row = ROWS[name]
        if row.flag is None:
            return None
        argv += [row.flag, str(value)]
    return argv


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("options") / "g.tsv"
    dump_tsv(figure3_graph(), path)
    return str(path)


@pytest.fixture(scope="module")
def base_url():
    """A server with an empty registry: ``POST /tenants`` is the door."""
    with running_server(TenantRegistry()) as base:
        yield base


@pytest.mark.parametrize(
    "name, badness, values",
    [pytest.param(*case, id=f"{case[0]}-{case[1]}-{i}")
     for i, case in enumerate(invalid_cases())],
)
def test_every_door_refuses_a_bad_value(
    name, badness, values, graph_path, base_url, capsys
):
    row = ROWS[name]
    argv = to_argv(values)
    if argv is not None:
        try:
            code = main(["serve", "--graph", graph_path, *argv])
        except SystemExit as refusal:  # argparse's own type/choice check
            code = refusal.code
        stderr = capsys.readouterr().err
        assert code == 2
        assert "error:" in stderr and row.flag in stderr.splitlines()[-1]

    with pytest.raises(ServiceConfigError, match=repr(name)):
        QueryService(figure3_graph(), **values)

    status, document = http_request(
        f"{base_url}/tenants", {"name": "probe", "graph": graph_path, **values}
    )
    assert status == 400
    assert repr(name) in document["error"]["message"]
    assert http_get(f"{base_url}/tenants")[1]["tenants"] == {}


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "name", sorted(row.name for row in OPTIONS if row.kind is float)
)
def test_every_door_refuses_a_number_that_is_not_finite(
    name, value, graph_path, base_url, capsys, monkeypatch
):
    """``inf`` clears every lower bound, and ``/stats`` would echo it as
    JSON's ``Infinity``."""
    row = ROWS[name]
    values = {name: value}

    def served(server):
        raise AssertionError(f"{row.flag} {value} was served")

    monkeypatch.setattr(ServiceHTTPServer, "serve_forever", served)
    code = main(["serve", "--graph", graph_path, *to_argv(values)])
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {row.flag} must be a finite number, got {value}"
    )

    with pytest.raises(
        ServiceConfigError, match=f"^{name!r} must be a finite number"
    ):
        QueryService(figure3_graph(), **values)

    status, document = http_request(
        f"{base_url}/tenants", {"name": "probe", "graph": graph_path, **values}
    )
    assert status == 400
    assert f"{name!r} must be a finite number" in document["error"]["message"]
    assert http_get(f"{base_url}/tenants")[1]["tenants"] == {}


@pytest.mark.parametrize("name", sorted(VALID))
def test_a_good_value_round_trips_into_stats_config(name, graph_path, base_url):
    value, needs = VALID[name]
    values = {**needs, name: value}

    argv = to_argv(values)
    if argv is not None:
        options = options_from_args(
            build_parser().parse_args(["serve", "--graph", graph_path, *argv])
        )
        assert json.loads(json.dumps(options.as_dict()))[name] == value

    service = QueryService(figure3_graph(), **values)
    try:
        config = json.loads(json.dumps(service.stats_snapshot()["config"]))
        assert config[name] == value
    finally:
        service.close()

    status, document = http_request(
        f"{base_url}/tenants", {"name": "probe", "graph": graph_path, **values}
    )
    try:
        assert status == 201
        assert http_request(f"{base_url}/t/probe/query", SPEC)[0] == 200
        _, stats = http_get(f"{base_url}/t/probe/stats")
        assert stats["config"][name] == value
    finally:
        http_request(f"{base_url}/t/probe", None, method="DELETE")


def _refusal(build) -> str:
    with pytest.raises(ServiceConfigError) as refusal:
        build()
    return str(refusal.value)


@pytest.mark.parametrize("door", ["QueryService", "register_files"])
@pytest.mark.parametrize(
    "name, value",
    [("cache_size", -5), ("trace_sample", 2.0), ("max_queue", 3), ("seed", True)],
)
def test_a_hand_built_value_gets_the_keyword_refusal(door, name, value, graph_path):
    """``options=`` is checked against the table as keywords are: no bare
    ``ValueError`` from a sub-object, no bad value taken silently."""
    build = {
        "QueryService": lambda **kw: QueryService(figure3_graph(), **kw),
        "register_files": lambda **kw: TenantRegistry().register_files(
            "probe", graph_path, **kw
        ),
    }[door]
    values = {name: value}
    keyword = _refusal(lambda: build(**values))
    hand_built = _refusal(lambda: build(options=ServiceOptions(**values)))
    assert hand_built == keyword
    assert keyword.startswith(repr(name))


def test_the_cases_cover_every_row_of_the_table():
    assert set(VALID) == set(ROWS)
    assert {name for name, _, _ in invalid_cases()} == set(ROWS)


def test_stats_config_lists_every_row():
    service = QueryService(figure3_graph())
    try:
        config = service.stats_snapshot()["config"]
    finally:
        service.close()
    assert set(config) == set(ROWS) | {"default_algorithm"}
    assert all(config[row.name] == row.default for row in OPTIONS)


@pytest.mark.parametrize(
    "name, argv",
    [("approx_default", ["--approx-default"]),
     ("approx_recheck", ["--approx-recheck", "0.5"]),
     # A cached answer dies with its epoch and LRU bounds the memory, so
     # an expiry could only ever drop a correct answer.
     ("cache_ttl", ["--cache-ttl", "2.5"]),
     # A request names its evaluator, and the router's sound No can
     # change no answer: neither is a deployment-time fork.
     ("algorithm", ["--algorithm", "uis"]),
     ("approx", ["--no-approx"]),
     # One process serves each graph whole: no shard fleet to size,
     # attach, probe, bound or degrade.
     ("shards", ["--shards", "2"]),
     ("max_workers", ["--workers", "2"]),
     ("worker_urls", ["--worker-url", "http://127.0.0.1:9"]),
     ("probe_interval", ["--worker-probe-interval", "1"]),
     ("scatter_timeout", ["--shard-timeout", "1"]),
     ("degraded_answers", ["--degraded-answers"])],
)
def test_a_deleted_row_is_an_unknown_option(
    name, argv, graph_path, base_url, capsys
):
    assert name not in ROWS
    with pytest.raises(SystemExit) as refusal:
        main(["serve", "--graph", graph_path, *argv])
    assert refusal.value.code == 2
    assert argv[0] in capsys.readouterr().err.splitlines()[-1]
    with pytest.raises(ServiceConfigError, match=f"unknown option {name!r}"):
        QueryService(figure3_graph(), **{name: 0.5})
    status, document = http_request(
        f"{base_url}/tenants", {"name": "probe", "graph": graph_path, name: 0.5}
    )
    assert status == 400
    assert f"unknown option {name!r}" in document["error"]["message"]


def test_an_unknown_option_is_refused_not_ignored(graph_path, base_url):
    with pytest.raises(ServiceConfigError, match="unknown option 'cache_sze'"):
        QueryService(figure3_graph(), cache_sze=5)
    status, document = http_request(
        f"{base_url}/tenants",
        {"name": "probe", "graph": graph_path, "cache_sze": 5},
    )
    assert status == 400
    assert "unknown option 'cache_sze'" in document["error"]["message"]
    assert http_get(f"{base_url}/tenants")[1]["tenants"] == {}
