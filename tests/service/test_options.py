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
from repro.shard import ShardedQueryService
from repro.shard.worker import HttpShardWorker
from tests.helpers import running_server, sharded_fleet
from tests.service.test_http_tenants import http_get, http_request

ROWS = {row.name: row for row in OPTIONS}
SPEC = {
    "source": "v0", "target": "v4", "labels": ["likes", "follows"],
    "constraint": "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }",
}

#: Stands for the URLs of the ``fleet`` fixture's live shard workers.
FLEET = object()

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
    "shards": (2, {"worker_urls": FLEET}),
    "max_workers": (2, {"shards": 2, "worker_urls": FLEET}),
    "worker_urls": (FLEET, {"shards": 2}),
    "probe_interval": (0.5, {"shards": 2, "worker_urls": FLEET}),
    "scatter_timeout": (1.5, {"shards": 2, "worker_urls": FLEET}),
    "degraded_answers": (True, {"shards": 2, "worker_urls": FLEET}),
}

_WRONG_TYPES = {
    int: ["zero", True, 1.5],
    float: ["fast", True],
    bool: [1, "yes"],
    list: ["http://one", [], [""]],
}


def invalid_cases():
    """``(option, kind of badness, values)`` for every way a row can be
    given wrong: mistyped, out of range, or without what it requires."""
    for row in OPTIONS:
        for value in _WRONG_TYPES[row.kind]:
            yield row.name, "type", {row.name: value}
        for bound in (
            None if row.ge is None else row.ge - 1,
            row.gt,
            None if row.le is None else row.le + 0.5,
        ):
            if bound is not None:
                yield row.name, "range", {row.name: bound}
        if row.requires is not None:
            value = VALID[row.name][0]
            if value is FLEET:  # refused before anything is dialled
                value = ["http://127.0.0.1:9"]
            yield row.name, "requires", {row.name: value}
    # The values PR 2's per-door parametrisation used to pin.
    yield "landmark_count", "range", {"landmark_count": -3}
    yield "max_batch", "type", {"max_batch": "lots"}


def to_argv(values):
    """``values`` as ``serve`` flags; None when the command line cannot
    say it (a flagless row, a mistyped switch or repeatable flag)."""
    argv = []
    for name, value in values.items():
        row = ROWS[name]
        if row.flag is None:
            return None
        if row.kind is bool:
            if not isinstance(value, bool):
                return None
            argv += [row.flag] * (value != row.default)
        elif row.kind is list:
            if not isinstance(value, list) or not value:
                return None
            for item in value:
                argv += [row.flag, item]
        else:
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


@pytest.fixture(scope="module")
def fleet():
    """URLs of two live shard workers cut the way ``seed=0`` cuts."""
    with sharded_fleet(figure3_graph(), shards=2) as host:
        yield [worker.base_url for worker in host.workers]


def service_class(name):
    return ShardedQueryService if ROWS[name].sharding else QueryService


@pytest.mark.parametrize(
    "name, badness, values",
    [pytest.param(*case, id=f"{case[0]}-{case[1]}-{i}")
     for i, case in enumerate(invalid_cases())],
)
def test_every_door_refuses_a_bad_value(
    name, badness, values, graph_path, base_url, capsys
):
    row = ROWS[name]
    if row.sharding and badness != "requires":
        values = {"shards": 2, **values}

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
        service_class(name)(figure3_graph(), **values)

    status, document = http_request(
        f"{base_url}/tenants", {"name": "probe", "graph": graph_path, **values}
    )
    assert status == 400
    # A sharding row is an unknown key here whatever its value: this
    # door only builds plain tenants.
    expected = "unknown option" if row.sharding else repr(name)
    assert expected in document["error"]["message"]
    assert http_get(f"{base_url}/tenants")[1]["tenants"] == {}


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "name", sorted(row.name for row in OPTIONS if row.kind is float)
)
def test_every_door_refuses_a_number_that_is_not_finite(
    name, value, graph_path, base_url, capsys, monkeypatch
):
    """``inf`` clears every lower bound: as a timeout it overflows the
    thread waits, and ``/stats`` would echo it as JSON's ``Infinity``."""
    row = ROWS[name]
    values = {"shards": 2, name: value} if row.sharding else {name: value}

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
        service_class(name)(figure3_graph(), **values)

    status, document = http_request(
        f"{base_url}/tenants", {"name": "probe", "graph": graph_path, **values}
    )
    assert status == 400
    expected = (
        "unknown option" if row.sharding else f"{name!r} must be a finite number"
    )
    assert expected in document["error"]["message"]
    assert http_get(f"{base_url}/tenants")[1]["tenants"] == {}


@pytest.mark.parametrize("name", sorted(VALID))
def test_a_good_value_round_trips_into_stats_config(
    name, graph_path, base_url, fleet
):
    value, needs = VALID[name]
    values = {
        key: fleet if item is FLEET else item
        for key, item in {**needs, name: value}.items()
    }
    value = values[name]

    argv = to_argv(values)
    if argv is not None:
        options = options_from_args(
            build_parser().parse_args(["serve", "--graph", graph_path, *argv])
        )
        assert json.loads(json.dumps(options.as_dict()))[name] == value

    service = service_class(name)(figure3_graph(), **values)
    try:
        config = json.loads(json.dumps(service.stats_snapshot()["config"]))
        assert config[name] == value
    finally:
        service.close()

    status, document = http_request(
        f"{base_url}/tenants", {"name": "probe", "graph": graph_path, **values}
    )
    if ROWS[name].sharding:
        assert status == 400 and "unknown option" in document["error"]["message"]
        return
    try:
        assert status == 201
        assert http_request(f"{base_url}/t/probe/query", SPEC)[0] == 200
        _, stats = http_get(f"{base_url}/t/probe/stats")
        assert stats["config"][name] == value
    finally:
        http_request(f"{base_url}/t/probe", None, method="DELETE")


@pytest.mark.parametrize("urls", [[], ["http://127.0.0.1:9"]], ids=["none", "one"])
def test_a_shard_count_needs_one_worker_url_per_shard(urls, graph_path, capsys):
    """A sharded service holds no slice of its own: each shard is a
    ``serve --worker`` process, and the refusal says how to start one."""
    argv = [item for url in urls for item in ("--worker-url", url)]
    assert main(["serve", "--graph", graph_path, "--shards", "2", *argv]) == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert error.startswith(
        f"error: --shards 2 needs exactly 2 --worker-url values, got {len(urls)}"
    )
    assert "'repro cut " in error and "'serve --worker " in error
    keywords = {"worker_urls": urls} if urls else {}
    with pytest.raises(ServiceConfigError, match="'shards' 2 needs exactly 2"):
        ShardedQueryService(figure3_graph(), shards=2, **keywords)


def _refusal(build) -> str:
    with pytest.raises(ServiceConfigError) as refusal:
        build()
    return str(refusal.value)


@pytest.mark.parametrize(
    "door", ["QueryService", "ShardedQueryService", "register_files"]
)
@pytest.mark.parametrize(
    "name, value",
    [("cache_size", -5), ("trace_sample", 2.0), ("max_queue", 3), ("seed", True)],
)
def test_a_hand_built_value_gets_the_keyword_refusal(
    door, name, value, graph_path, monkeypatch
):
    """``options=`` is checked against the table as keywords are: no bare
    ``ValueError`` from a sub-object, no bad value taken silently, and a
    sharded service refuses before it dials a worker."""

    def dialled(*args, **kwargs):
        raise AssertionError("a shard worker was contacted")

    monkeypatch.setattr(HttpShardWorker, "__init__", dialled)
    fleet = (
        {"shards": 2, "worker_urls": ("http://127.0.0.1:9",) * 2}
        if door == "ShardedQueryService"
        else {}
    )
    build = {
        "QueryService": lambda **kw: QueryService(figure3_graph(), **kw),
        "ShardedQueryService": lambda **kw: ShardedQueryService(figure3_graph(), **kw),
        "register_files": lambda **kw: TenantRegistry().register_files(
            "probe", graph_path, **kw
        ),
    }[door]
    values = {**fleet, name: value}
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
     ("approx", ["--no-approx"])],
)
def test_a_deleted_row_is_an_unknown_option(
    name, argv, graph_path, base_url, capsys
):
    assert name not in ROWS
    with pytest.raises(SystemExit) as refusal:
        main(["serve", "--graph", graph_path, *argv])
    assert refusal.value.code == 2
    assert argv[0] in capsys.readouterr().err.splitlines()[-1]
    for cls in (QueryService, ShardedQueryService):
        with pytest.raises(ServiceConfigError, match=f"unknown option {name!r}"):
            cls(figure3_graph(), **{name: 0.5})
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
