"""Multi-tenant HTTP integration: /t/<tenant> routes over real sockets.

Covers the tenancy acceptance criteria end to end: two graphs with
different label alphabets served from one process, un-prefixed PR 1
routes still answering for the default tenant, runtime registration via
``POST /tenants`` with lazy warm start, structured 404s for unknown
tenant ids, aggregate ``/healthz``/``/stats`` documents, tenant removal
over ``DELETE``, and `python -m repro serve --tenant` from the CLI.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.datasets.toy import figure3_graph
from repro.graph.io import dump_tsv
from repro.index.local_index import build_local_index
from repro.service import app as app_module
from repro.service.app import QueryService
from repro.service.registry import TenantRegistry
from tests.helpers import graph_from_edges, running_server

S0 = "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }"
LABELS = ["likes", "follows"]

#: Tenant "beta"'s graph: a different shape and label alphabet entirely.
BETA_EDGES = [
    ("s", "hop", "m"),
    ("m", "hop", "t"),
    ("m", "flag", "m"),
]
BETA_SPEC = {
    "source": "s", "target": "t", "labels": ["hop"],
    "constraint": "SELECT ?x WHERE { ?x <flag> ?y . }",
}


def http_get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def http_request(url, payload, method="POST"):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode() if payload is not None else None,
        headers={"Content-Type": "application/json"},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def spec(source, target, labels=LABELS, constraint=S0, **extra):
    return {"source": source, "target": target, "labels": labels,
            "constraint": constraint, **extra}


@pytest.fixture()
def registry():
    alpha = figure3_graph()
    registry = TenantRegistry(default_tenant="alpha")
    registry.add(
        "alpha", QueryService(alpha, build_local_index(alpha, k=2, rng=0), seed=0)
    )
    registry.add(
        "beta", QueryService(graph_from_edges(BETA_EDGES, name="beta"), seed=0)
    )
    return registry


@pytest.fixture()
def base_url(registry):
    with running_server(registry) as url:
        yield url


class TestTenantRoutes:
    def test_two_tenants_answer_from_their_own_graphs(self, base_url):
        status, document = http_request(f"{base_url}/t/alpha/query", spec("v0", "v4"))
        assert status == 200
        assert document["answer"] is True
        assert document["algorithm"] == "Meet"       # alpha's index is opt-in
        status, document = http_request(f"{base_url}/t/beta/query", BETA_SPEC)
        assert status == 200
        assert document["answer"] is True
        assert document["algorithm"] == "Meet"       # beta has no index
        # alpha's vertices mean nothing to beta: trivially false there.
        status, document = http_request(
            f"{base_url}/t/beta/query", spec("v0", "v4")
        )
        assert status == 200
        assert document["answer"] is False
        assert document["trivial"] is True

    def test_unprefixed_routes_alias_default_tenant(self, base_url, registry):
        status, document = http_request(f"{base_url}/query", spec("v0", "v4"))
        assert status == 200
        assert document["answer"] is True
        # The alias hit the same cache the /t/alpha/ route uses.
        status, document = http_request(f"{base_url}/t/alpha/query", spec("v0", "v4"))
        assert document["cached"] is True
        assert registry.get("beta").results.stats().hits == 0

    def test_tenant_batch(self, base_url):
        payload = {"queries": [BETA_SPEC, {**BETA_SPEC, "labels": ["flag"]}]}
        status, document = http_request(f"{base_url}/t/beta/batch", payload)
        assert status == 200
        assert document["count"] == 2
        assert [entry["answer"] for entry in document["results"]] == [True, False]

    def test_tenant_stats_and_healthz(self, base_url):
        http_request(f"{base_url}/t/beta/query", BETA_SPEC)
        status, document = http_get(f"{base_url}/t/beta/stats")
        assert status == 200
        assert document["tenant"] == "beta"
        assert document["service"]["queries"]["total"] == 1
        status, document = http_get(f"{base_url}/t/beta/healthz")
        assert status == 200
        assert document["tenant"] == "beta"
        assert document["loaded"] is True
        assert document["vertices"] == 3

    def test_unknown_tenant_404_structured(self, base_url):
        for method, url, payload in (
            ("POST", f"{base_url}/t/nope/query", spec("v0", "v4")),
            ("POST", f"{base_url}/t/nope/batch", {"queries": [spec("v0", "v4")]}),
            ("GET", f"{base_url}/t/nope/stats", None),
            ("GET", f"{base_url}/t/nope/healthz", None),
            ("DELETE", f"{base_url}/t/nope", None),
        ):
            if method == "GET":
                status, document = http_get(url)
            else:
                status, document = http_request(url, payload, method=method)
            assert status == 404, url
            assert document["error"]["type"] == "unknown-tenant"
            assert "nope" in document["error"]["message"]

    def test_unknown_tenant_errors_counted_in_registry(self, base_url):
        http_request(f"{base_url}/t/nope/query", spec("v0", "v4"))
        _, stats = http_get(f"{base_url}/stats")
        assert stats["registry"]["errors"].get("unknown-tenant", 0) >= 1

    def test_malformed_tenant_paths_404(self, base_url):
        for path in ("/t/alpha", "/t//query", "/t/alpha/query/extra",
                     "/t/bad%20name/query"):
            status, document = http_request(f"{base_url}{path}", spec("v0", "v4"))
            assert status == 404, path
            assert document["error"]["type"] in ("not-found", "unknown-tenant")


class TestAggregateEndpoints:
    def test_healthz_reports_per_tenant_state(self, base_url):
        status, document = http_get(f"{base_url}/healthz")
        assert status == 200
        assert document["status"] == "ok"
        assert document["tenant_count"] == 2
        assert document["tenants_loaded"] == 2
        tenants = document["tenants"]
        assert tenants["alpha"]["loaded"] and tenants["beta"]["loaded"]
        assert tenants["alpha"]["vertices"] == 5
        assert tenants["beta"]["vertices"] == 3
        assert document["totals"]["vertices"] == 8
        # Default-tenant (alpha) keys are still at top level for PR 1
        # monitoring.
        assert document["index_loaded"] is True

    def test_stats_aggregates_across_tenants(self, base_url):
        http_request(f"{base_url}/t/alpha/query", spec("v0", "v4"))
        http_request(f"{base_url}/t/beta/query", BETA_SPEC)
        http_request(f"{base_url}/t/beta/query", BETA_SPEC)
        status, document = http_get(f"{base_url}/stats")
        assert status == 200
        assert document["service"]["queries"]["total"] == 1          # alpha
        assert document["tenants"]["beta"]["queries"]["total"] == 2
        assert document["totals"]["queries"]["total"] == 3
        assert document["totals"]["queries"]["cached"] == 1
        algorithms = document["totals"]["algorithms"]
        assert "INS" not in algorithms
        assert algorithms["Meet"]["count"] == 2      # one evaluation per tenant

    def test_tenants_listing(self, base_url):
        status, document = http_get(f"{base_url}/tenants")
        assert status == 200
        assert document["count"] == 2
        assert document["default_tenant"] == "alpha"
        assert set(document["tenants"]) == {"alpha", "beta"}


class TestTenantAdmin:
    def test_register_then_query_lazy_tenant(self, base_url, tmp_path):
        graph_path = tmp_path / "gamma.tsv"
        dump_tsv(figure3_graph(), graph_path)
        status, document = http_request(
            f"{base_url}/tenants",
            {"name": "gamma", "graph": str(graph_path), "seed": 0},
        )
        assert status == 201
        assert document == {"registered": "gamma", "loaded": False}
        _, listing = http_get(f"{base_url}/tenants")
        assert listing["tenants"]["gamma"]["loaded"] is False
        # First query triggers the warm start.
        status, document = http_request(f"{base_url}/t/gamma/query", spec("v0", "v4"))
        assert status == 200
        assert document["answer"] is True
        _, listing = http_get(f"{base_url}/tenants")
        assert listing["tenants"]["gamma"]["loaded"] is True

    def test_duplicate_registration_409(self, base_url, tmp_path):
        graph_path = tmp_path / "g.tsv"
        dump_tsv(figure3_graph(), graph_path)
        status, document = http_request(
            f"{base_url}/tenants", {"name": "alpha", "graph": str(graph_path)}
        )
        assert status == 409
        assert "already registered" in document["error"]["message"]

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ("not a dict", "JSON object"),
            ({}, "'name'"),
            ({"name": "bad name", "graph": "g.tsv"}, "'name'"),
            ({"name": "ok"}, "'graph'"),
            ({"name": "ok", "graph": 7}, "'graph'"),
            ({"name": "ok", "graph": "g.tsv", "index": 7}, "'index'"),
        ],
    )
    def test_bad_registration_payloads_400(self, base_url, payload, fragment):
        status, document = http_request(f"{base_url}/tenants", payload)
        assert status == 400
        assert fragment in document["error"]["message"]

    def test_registration_with_missing_graph_file_400(self, base_url, tmp_path):
        status, document = http_request(
            f"{base_url}/tenants",
            {"name": "ok", "graph": str(tmp_path / "absent.tsv")},
        )
        assert status == 400
        assert "not found" in document["error"]["message"]

    def test_non_utf8_graph_file_is_a_structured_400(self, base_url, tmp_path):
        # Registration does not read the file; each query's warm start
        # does, and answers what is wrong with it.
        graph_path = tmp_path / "bad.tsv"
        graph_path.write_bytes(b"v0\tlikes\tv4\n\xff\xfe\tlikes\tv1\n")
        status, _ = http_request(
            f"{base_url}/tenants", {"name": "bad", "graph": str(graph_path)}
        )
        assert status == 201
        for _ in range(2):
            status, document = http_request(f"{base_url}/t/bad/query", spec("v0", "v4"))
            assert (status, document["error"]) == (400, {
                "type": "GraphError",
                "message": "TSV line 2 is not UTF-8: invalid start byte",
            })

    def test_a_failed_load_is_remembered_until_the_file_changes(
        self, base_url, tmp_path, monkeypatch
    ):
        loads: list = []
        load_tsv = app_module.load_tsv

        def counted(*args, **kwargs):
            loads.append(args[0])
            return load_tsv(*args, **kwargs)

        monkeypatch.setattr(app_module, "load_tsv", counted)
        graph_path = tmp_path / "bad.tsv"
        graph_path.write_bytes(b"v0\tlikes\tv4\n\xff\xfe\tlikes\tv1\n")
        status, _ = http_request(
            f"{base_url}/tenants", {"name": "bad", "graph": str(graph_path)}
        )
        assert status == 201
        for _ in range(3):
            status, document = http_request(f"{base_url}/t/bad/query", spec("v0", "v4"))
            assert (status, document["error"]) == (400, {
                "type": "GraphError",
                "message": "TSV line 2 is not UTF-8: invalid start byte",
            })
        assert len(loads) == 1
        # A rewritten file is read again, once.
        graph_path.write_bytes(b"v0\tlikes\tv4\n")
        likes = "SELECT ?x WHERE { ?x <likes> ?y . }"
        status, document = http_request(
            f"{base_url}/t/bad/query", spec("v0", "v4", constraint=likes)
        )
        assert status == 200 and document["answer"] is True
        assert len(loads) == 2

    def test_delete_tenant(self, base_url):
        status, document = http_request(
            f"{base_url}/t/beta", None, method="DELETE"
        )
        assert status == 200
        assert document == {"removed": "beta"}
        status, document = http_request(f"{base_url}/t/beta/query", BETA_SPEC)
        assert status == 404
        _, listing = http_get(f"{base_url}/tenants")
        assert listing["count"] == 1

    def test_a_deleted_logged_tenant_is_not_registered_from_files(
        self, registry, tmp_path
    ):
        from repro.wal import UpdateWal, recover_service

        graph_path = tmp_path / "g.tsv"
        dump_tsv(graph_from_edges(BETA_EDGES, name="g"), graph_path)
        root = UpdateWal(tmp_path / "wal")
        service, _ = recover_service(root.tenant("logged"), graph_path=graph_path)
        service.apply_updates([("t", "hop", "u")])
        registry.add("logged", service)
        with running_server(registry) as url:
            status, _ = http_request(f"{url}/t/logged", None, method="DELETE")
            assert status == 200
            status, document = http_request(
                f"{url}/tenants", {"name": "logged", "graph": str(graph_path)}
            )
            assert status == 409
            assert document["error"]["type"] == "tenant-logged"
            assert document["error"]["detail"] == {"tenant": "logged"}
            assert "serve --wal" in document["error"]["message"]
            status, _ = http_request(f"{url}/t/logged/query", BETA_SPEC)
            assert status == 404
        root.close()

    def test_put_still_405(self, base_url):
        status, document = http_request(
            f"{base_url}/t/alpha/query", spec("v0", "v4"), method="PUT"
        )
        assert status == 405

    def test_delete_with_body_keeps_connection_in_sync(self, base_url):
        # DELETE must drain an unexpected request body, or the next
        # request on the same keep-alive connection reads garbage.
        import http.client

        host_port = base_url.removeprefix("http://")
        connection = http.client.HTTPConnection(host_port, timeout=10)
        try:
            connection.request(
                "DELETE", "/t/beta", body=b'{"why": "not"}',
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"removed": "beta"}
            # Same socket, second request: still a clean HTTP exchange.
            connection.request("GET", "/tenants")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["count"] == 1
        finally:
            connection.close()


class TestCliServeTenants:
    def test_serve_tenant_flags_subprocess(self, tmp_path):
        alpha_path = tmp_path / "alpha.tsv"
        beta_path = tmp_path / "beta.tsv"
        dump_tsv(figure3_graph(), alpha_path)
        dump_tsv(graph_from_edges(BETA_EDGES, name="beta"), beta_path)

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--tenant", f"alpha={alpha_path}",
             "--tenant", f"beta={beta_path}",
             "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            port = _await_ready_line(process)
            base = f"http://127.0.0.1:{port}"
            # First --tenant backs the un-prefixed routes when --graph
            # is absent.
            status, document = http_request(f"{base}/query", spec("v0", "v4"))
            assert status == 200
            assert document["answer"] is True
            status, document = http_request(f"{base}/t/beta/query", BETA_SPEC)
            assert status == 200
            assert document["answer"] is True
            status, document = http_get(f"{base}/tenants")
            assert status == 200
            assert set(document["tenants"]) == {"alpha", "beta"}
            assert document["default_tenant"] == "alpha"
        finally:
            process.terminate()
            process.wait(timeout=10)
            process.stdout.close()


def _await_ready_line(process, timeout=30.0):
    """Read stdout until the 'listening on' line; return the port."""
    lines: list[str] = []
    found: list[int] = []

    def reader():
        for line in process.stdout:
            lines.append(line)
            if "listening on" in line:
                found.append(int(line.rsplit(":", 1)[1]))
                return

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if found:
            return found[0]
        if process.poll() is not None:
            break
        time.sleep(0.05)
    raise AssertionError(
        f"server never became ready; exit={process.poll()} output={lines!r}"
    )
