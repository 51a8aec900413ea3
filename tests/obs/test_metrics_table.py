"""``GET /metrics`` against real ``/stats`` documents.

Two guards over the renderer's table of families
(:data:`repro.obs.prometheus._ROWS`):

* golden — ``stats_snapshot()`` documents of three service shapes (a
  plain service with admission control and a sampled slow entry, a WAL
  leader and its follower), captured once with their volatile values
  pinned and committed under ``tests/obs/golden/``, render byte for
  byte as the committed scrapes, registry block included;
* drift — every numeric leaf of live documents from the same three shapes
  is read by a table row or named in :data:`NOT_EXPORTED`, and every row
  renders a sample from one of them.

``PYTHONPATH=src:. python tests/obs/test_metrics_table.py`` rewrites the
golden fixtures and scrapes from live services: run it only when the
exposition is meant to change, and read the diff.
"""

from __future__ import annotations

import http.client
import json
import tempfile
from contextlib import ExitStack, contextmanager
from fnmatch import fnmatchcase
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from repro.datasets.toy import figure3_graph
from repro.index.local_index import build_local_index
from repro.obs import prometheus
from repro.obs.prometheus import parse_prometheus_text, render_metrics
from repro.service.app import QueryService
from repro.wal import TenantWal, WalFollower
from tests.helpers import running_server

GOLDEN = Path(__file__).parent / "golden"
QUERY = {
    "source": "v0",
    "target": "v4",
    "labels": ["likes", "follows", "friendOf"],
    "constraint": "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }",
}
#: One scrape per file, named after the shapes of its tenants.
SCRAPES = {
    "plain.prom": ("plain",),
    "leader_follower.prom": ("leader", "follower"),
}
REGISTRY = {"tenant_count": 5, "tenants_loaded": 4, "errors": {"not-found": 2}}

#: ``/stats`` numbers ``/metrics`` leaves out (``fnmatch`` patterns over
#: dotted leaf paths; a list's items are numbered).
NOT_EXPORTED = {
    # Settings, not measurements.
    "config.*",
    "admission.max_queue",
    "slow_queries.max_entries",
    "approx.enabled",
    "approx.witness_cache.max_size",
    # Counters and flags with no family yet.
    "candidate_cache.candidates_carried",
    "candidate_cache.scck_rechecks",
    "slow_queries.dropped",
    "approx.short_circuit_no_mask",
    "approx.short_circuit_no_bounds",
    "approx.witness_cache.misses",
    "approx.witness_cache.evictions",
    "approx.witness_cache.stored_from_search",
    "approx.bounds.removed_since_build",
    "approx.bounds.derived",
    # Copies of exported numbers, or numbers derived from them.
    "approx.bounds.vertices",
    "epoch.vertices",
    "epoch.edges",
    "epoch.labels",
    "epoch.created_at",
    "service.algorithms.*.mean_milliseconds",
    "service.latency.*.count",
    "service.latency.*.mean_ms",
    "service.latency.*.p50_ms",
    "service.latency.*.p90_ms",
    "service.latency.*.p99_ms",
    "wal.compact_every",
    "replication.interval_seconds",
    "replication.epoch",
    "replication.last_poll_at",
}


# ---------------------------------------------------------------------------
# the three service shapes
# ---------------------------------------------------------------------------


def _post(connection: http.client.HTTPConnection, path: str, body) -> int:
    connection.request("POST", path, body=json.dumps(body).encode())
    response = connection.getresponse()
    response.read()
    return response.status


@contextmanager
def service_shapes(directory: Path):
    """``{shape: service}`` for the three shapes, each having served a
    little traffic of every kind it counts; closed on exit."""
    with ExitStack() as stack:
        plain = QueryService(
            figure3_graph(), seed=0, max_concurrent=2, trace_sample=1.0, slow_ms=0
        )
        stack.callback(plain.close)
        base = stack.enter_context(running_server(plain, allow_updates=True))
        connection = http.client.HTTPConnection(urlsplit(base).netloc, timeout=30)
        stack.callback(connection.close)
        for path, body, status in (
            ("/query", QUERY, 200),
            ("/query", QUERY, 200),
            ("/batch", {"queries": [QUERY, {**QUERY, "target": "v3"}]}, 200),
            ("/query", {"source": "v0"}, 400),
            ("/edges", {"edges": [["v4", "likes", "v9"], ["v0", "likes", "v1"]]}, 200),
        ):
            assert _post(connection, path, body) == status

        graph = figure3_graph()
        leader = QueryService(graph, build_local_index(graph, k=2, rng=0), seed=0)
        stack.callback(leader.close)
        leader.attach_wal(TenantWal(directory, "default", compact_every=2))
        replica = QueryService(figure3_graph(), seed=0)
        stack.callback(replica.close)
        replica.read_only = True
        replica.replication = WalFollower(
            replica, TenantWal(directory, "default", compact_every=2)
        )
        for target in ("v8", "v9", "v10"):
            leader.apply_updates([("v4", "likes", target)])
        leader.query(**QUERY, algorithm="ins")
        replica.replication.poll_once()
        replica.query(**QUERY)
        yield {"plain": plain, "leader": leader, "follower": replica}


def live_documents() -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as directory:
        with service_shapes(Path(directory)) as services:
            return {shape: service.stats_snapshot() for shape, service in services.items()}


@pytest.fixture(scope="module")
def documents() -> dict[str, dict]:
    return live_documents()


# ---------------------------------------------------------------------------
# golden
# ---------------------------------------------------------------------------

#: Leaf names whose values differ run to run (timings, clocks, ages).
_VOLATILE_SUFFIXES = ("_seconds", "_ms", "_milliseconds", "_at")
#: Strings that name a temporary directory.
_VOLATILE_STRINGS = {"directory": "wal"}


def pinned(node, key: str = ""):
    """``node`` with every volatile value replaced by a fixed one."""
    if isinstance(node, dict):
        return {name: pinned(value, name) for name, value in node.items()}
    if key in _VOLATILE_STRINGS:
        return _VOLATILE_STRINGS[key]
    if key == "bucket_counts":
        return [sum(node)] + [0] * (len(node) - 1)
    if isinstance(node, list):
        return [pinned(item) for item in node]
    if isinstance(node, float) and key.endswith(_VOLATILE_SUFFIXES):
        return 0.25
    return node


def scrape(documents: dict[str, dict], tenants: tuple[str, ...]) -> str:
    return render_metrics(
        {tenant: documents[tenant] for tenant in tenants},
        version="0.0.0-golden",
        started_at=1700000000.5,
        registry=REGISTRY,
    )


def write_golden() -> None:
    documents = {shape: pinned(document) for shape, document in live_documents().items()}
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "stats.json").write_text(json.dumps(documents, indent=1) + "\n")
    for name, tenants in SCRAPES.items():
        (GOLDEN / name).write_text(scrape(documents, tenants))


class TestGolden:
    def test_the_exposition_is_byte_identical(self):
        documents = json.loads((GOLDEN / "stats.json").read_text())
        for name, tenants in SCRAPES.items():
            text = scrape(documents, tenants)
            assert text == (GOLDEN / name).read_text(), name
            parse_prometheus_text(text)


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------


class _Reads(dict):
    """A document that notes the path of each value read out of it,
    sections (dicts, lists holding dicts) aside."""

    def __init__(self, node: dict, path: str, reads: set) -> None:
        super().__init__(
            (key, _wrap(value, f"{path}{key}", reads)) for key, value in node.items()
        )
        self._path = path
        self._reads = reads

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if not isinstance(value, dict) and not (
            isinstance(value, list) and any(isinstance(item, dict) for item in value)
        ):
            self._reads.add(f"{self._path}{key}")
        return value

    def get(self, key, default=None):
        return self[key] if key in self else default


def _wrap(node, path: str, reads: set):
    if isinstance(node, dict):
        return _Reads(node, f"{path}.", reads)
    if isinstance(node, list):
        return [_wrap(item, f"{path}.{position}", reads) for position, item in enumerate(node)]
    return node


def numeric_leaves(node, path: str = ""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(node, list):
        for position, item in enumerate(node):
            yield from numeric_leaves(item, f"{path}.{position}")
    elif isinstance(node, (int, float)):
        yield path


def unread_leaves(documents: dict[str, dict]) -> set[str]:
    """The numeric leaves of ``documents`` no table row reads."""
    reads: set[str] = set()
    render_metrics(
        {shape: _Reads(document, "", reads) for shape, document in documents.items()},
        version="test",
    )
    unread = set()
    for document in documents.values():
        for leaf in numeric_leaves(document):
            if not any(leaf == read or leaf.startswith(f"{read}.") for read in reads):
                unread.add(leaf)
    return unread


class TestDrift:
    def test_every_stats_number_is_exported_or_listed(self, documents):
        unread = unread_leaves(documents)
        unlisted = {
            leaf for leaf in unread
            if not any(fnmatchcase(leaf, pattern) for pattern in NOT_EXPORTED)
        }
        assert not unlisted, sorted(unlisted)
        # The set names only numbers no row reads, each one present.
        stale = {
            pattern for pattern in NOT_EXPORTED
            if not any(fnmatchcase(leaf, pattern) for leaf in unread)
        }
        assert not stale, sorted(stale)

    def test_every_row_renders_a_sample(self, documents):
        names = {name for name, _ in parse_prometheus_text(scrape(documents, tuple(documents)))}
        for name, kind, path, _ in prometheus._ROWS:
            for key in path.rstrip("?").rsplit(".", 1)[-1].split("|"):
                family = name.format(key)
                if kind == "histogram":
                    family += "_count"
                assert family in names, (family, path)


if __name__ == "__main__":
    write_golden()
