"""Integration tests: the service over real HTTP on an ephemeral port.

These exercise the acceptance criteria end to end: /query, /batch,
/stats and /healthz over actual sockets, structured JSON errors with
4xx statuses, cache hits visible in /stats, a 64-query batch identical
to serial execution, a threaded stress run identical to serial
execution, and `python -m repro serve --port 0` starting from the CLI.
"""

import http.client
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from urllib.parse import urlsplit

import pytest

import repro
from repro.datasets.toy import figure3_graph
from repro.graph.io import dump_tsv
from repro.index.local_index import build_local_index
from repro.service.app import QueryService
from repro.service.http import ServiceRequestHandler
from repro.session import LSCRSession
from tests.helpers import running_server

S0 = "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }"
S1 = "SELECT ?x WHERE { ?x <likes> ?y . }"
LABELS = ["likes", "follows"]


@pytest.fixture()
def service():
    graph = figure3_graph()
    return QueryService(graph, build_local_index(graph, k=2, rng=0), seed=0)


@pytest.fixture()
def base_url(service):
    with running_server(service) as url:
        yield url


def http_get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def http_post(url, payload, raw_body=None):
    body = raw_body if raw_body is not None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def spec(source, target, labels=LABELS, constraint=S0, **extra):
    return {"source": source, "target": target, "labels": labels,
            "constraint": constraint, **extra}


class TestEndpoints:
    def test_healthz(self, base_url):
        status, document = http_get(f"{base_url}/healthz")
        assert status == 200
        assert document["status"] == "ok"
        assert document["index_loaded"] is True

    def test_query_true_and_false(self, base_url):
        status, document = http_post(f"{base_url}/query", spec("v0", "v4"))
        assert status == 200
        assert document["answer"] is True
        assert document["algorithm"] == "Meet"
        status, document = http_post(f"{base_url}/query", spec("v0", "v3"))
        assert status == 200
        assert document["answer"] is False

    def test_trivial_answer_over_http(self, base_url):
        status, document = http_post(f"{base_url}/query", spec("v0", "no-such"))
        assert status == 200
        assert document["answer"] is False
        assert document["trivial"] is True

    def test_cached_repeat_visible_in_stats(self, base_url):
        http_post(f"{base_url}/query", spec("v0", "v4"))
        status, document = http_post(f"{base_url}/query", spec("v0", "v4"))
        assert status == 200
        assert document["cached"] is True
        status, stats = http_get(f"{base_url}/stats")
        assert status == 200
        assert stats["service"]["queries"]["cached"] >= 1
        assert stats["result_cache"]["hits"] >= 1

    def test_batch_64_matches_serial(self, base_url, service):
        # The acceptance batch: 64 mixed queries, answers must come back
        # in input order and agree with serial execution on one session.
        pairs = [("v0", "v4"), ("v0", "v3"), ("v3", "v4"), ("v1", "v4"),
                 ("v0", "v0"), ("v2", "v2"), ("v4", "v0"), ("v1", "v3")] * 8
        payload = {"queries": [spec(s, t) for s, t in pairs], "use_cache": False}
        status, document = http_post(f"{base_url}/batch", payload)
        assert status == 200
        assert document["count"] == 64
        session = LSCRSession(service.graph, "ins", index=service.index, seed=0)
        expected = [
            session.answer(session.make_query(s, t, LABELS, S0)).answer
            for s, t in pairs
        ]
        assert [entry["answer"] for entry in document["results"]] == expected

    def test_stats_shape(self, base_url):
        status, stats = http_get(f"{base_url}/stats")
        assert status == 200
        assert {"service", "result_cache", "constraint_cache", "graph",
                "index", "config"} <= set(stats)
        assert stats["service"]["uptime_seconds"] >= 0


def all_keys(document) -> set[str]:
    """Every object key anywhere inside a JSON document."""
    if isinstance(document, dict):
        return set(document).union(*map(all_keys, document.values()))
    if isinstance(document, list):
        return set().union(*map(all_keys, document))
    return set()


class TestDefaultRoute:
    """The meet kernel is the default with or without an index; the
    paper's evaluators run when a request names them."""

    QUERY_KEYS = {"answer", "algorithm", "seconds", "passed_vertices", "cached",
                  "trivial", "reason", "epoch", "source", "tier"}

    def test_bodies_keep_their_shape_and_carry_no_witness(self):
        graph = figure3_graph()
        service = QueryService(
            graph, build_local_index(graph, k=2, rng=0), seed=0, slow_ms=0
        )
        with running_server(service) as base_url:
            _, query = http_post(f"{base_url}/query", spec("v0", "v4"))
            _, batch = http_post(
                f"{base_url}/batch",
                {"queries": [spec("v0", "v4", use_cache=False), spec("v3", "v4")]},
            )
            _, stats = http_get(f"{base_url}/stats")
            _, slow = http_get(f"{base_url}/debug/slow")
            _, health = http_get(f"{base_url}/healthz")
        # A True answer is a verdict: the repeat searches again, and no
        # body carries a path.
        assert query["answer"] is True and query["algorithm"] == "Meet"
        assert [entry["algorithm"] for entry in batch["results"]] == ["Meet", "Meet"]
        assert set(query) == self.QUERY_KEYS
        assert all(set(entry) == self.QUERY_KEYS for entry in batch["results"])
        assert slow["tenants"]["default"]["entries"]
        for body in (query, batch, slow, health, stats):
            assert "witness" not in all_keys(body)
        assert "satisfying_vertex" not in all_keys(stats)
        assert health["default_algorithm"] == "meet"
        assert stats["config"]["default_algorithm"] == "meet"
        assert stats["index"]["loaded"] is True        # still built and served

    def test_ins_runs_when_the_request_names_it(self, base_url):
        status, document = http_post(
            f"{base_url}/query", spec("v0", "v4", algorithm="ins")
        )
        assert status == 200
        assert document["answer"] is True and document["algorithm"] == "INS"
        assert "requested" in document["reason"]

    def test_uis_star_still_runs_when_the_request_names_it(self, base_url):
        for path, body in (
            ("/query", spec("v0", "v4", algorithm="uis*")),
            ("/batch", {"queries": [spec("v0", "v4", algorithm="uis*", use_cache=False)]}),
        ):
            status, document = http_post(f"{base_url}{path}", body)
            assert status == 200
            reply = document["results"][0] if path == "/batch" else document
            assert reply["answer"] is True and reply["algorithm"] == "UIS*"

    def test_ins_without_an_index_is_still_a_400(self):
        with running_server(QueryService(figure3_graph(), seed=0)) as base_url:
            status, document = http_post(
                f"{base_url}/query", spec("v0", "v4", algorithm="ins")
            )
        assert status == 400
        assert "requires a loaded index" in document["error"]["message"]


class TestOneSegmentReplies:
    def test_each_reply_is_a_single_write(self, service, monkeypatch):
        # Headers and body in two writes are two TCP segments, and the
        # second waits out the client's delayed ACK (~40 ms) on every
        # kept-alive request.
        writes: list[bytes] = []

        class Recording:
            def __init__(self, wfile):
                self._wfile = wfile

            def write(self, data):
                writes.append(bytes(data))
                return self._wfile.write(data)

            def __getattr__(self, name):
                return getattr(self._wfile, name)

        setup = ServiceRequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            handler.wfile = Recording(handler.wfile)

        monkeypatch.setattr(ServiceRequestHandler, "setup", recording_setup)
        with running_server(service) as base_url:
            assert http_post(f"{base_url}/query", spec("v0", "v4"))[0] == 200
            assert http_post(f"{base_url}/query", {"source": "v0"})[0] == 400
            assert http_get(f"{base_url}/stats")[0] == 200
            with urllib.request.urlopen(f"{base_url}/metrics", timeout=10) as reply:
                metrics = reply.read()
        assert len(writes) == 4
        for reply in writes:
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.")
            assert f"Content-Length: {len(body)}".encode() in head and body
        assert writes[3].endswith(metrics)


class TestErrors:
    def test_missing_fields_400(self, base_url):
        status, document = http_post(f"{base_url}/query", {"source": "v0"})
        assert status == 400
        assert document["error"]["type"] == "bad-request"
        assert "missing field" in document["error"]["message"]

    def test_invalid_json_400(self, base_url):
        status, document = http_post(
            f"{base_url}/query", None, raw_body=b"{not json"
        )
        assert status == 400
        assert "not valid JSON" in document["error"]["message"]

    def test_empty_body_400(self, base_url):
        status, document = http_post(f"{base_url}/query", None, raw_body=b"")
        assert status == 400
        assert "empty" in document["error"]["message"]

    def test_bad_sparql_400(self, base_url):
        status, document = http_post(
            f"{base_url}/query", spec("v0", "v4", constraint="SELECT garbage")
        )
        assert status == 400

    def test_unknown_algorithm_400(self, base_url):
        status, document = http_post(
            f"{base_url}/query", spec("v0", "v4", algorithm="dijkstra")
        )
        assert status == 400
        assert "unknown algorithm" in document["error"]["message"]

    def test_unknown_endpoint_404(self, base_url):
        status, document = http_get(f"{base_url}/nope")
        assert status == 404
        assert document["error"]["type"] == "not-found"
        status, document = http_post(f"{base_url}/nope", {})
        assert status == 404
        # One process serves: the shard worker wire and the rebalance
        # door are unknown paths like any other, and the keep-alive
        # connection a refusal came on still answers.
        connection = http.client.HTTPConnection(urlsplit(base_url).netloc, timeout=10)
        try:
            for method, path in (
                ("POST", "/shard/0/expand"),
                ("GET", "/shard/0"),
                ("POST", "/admin/rebalance"),
                ("POST", "/t/default/admin/rebalance"),
            ):
                body = b"{}" if method == "POST" else None
                connection.request(method, path, body=body)
                response = connection.getresponse()
                document = json.loads(response.read())
                assert response.status == 404, (method, path)
                assert document["error"]["type"] == "not-found", (method, path)
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    @pytest.mark.parametrize("labels", [[""], ["", ""], "", ","])
    def test_empty_label_names_are_no_labels_at_every_door(self, base_url, labels):
        # An empty name is dropped in the array form as in the comma
        # form, so each of these is a constraint without labels.
        message = "a label constraint must contain at least one label"
        status, document = http_post(f"{base_url}/query", spec("v0", "v4", labels))
        assert status == 400
        assert document["error"]["message"] == f"invalid query: {message}"
        status, document = http_post(
            f"{base_url}/batch",
            {"queries": [spec("v0", "v4"), spec("v0", "v4", labels)]},
        )
        assert status == 400
        assert document["error"]["message"] == f"invalid query in batch: {message}"

    def test_errors_counted_in_stats(self, base_url):
        http_post(f"{base_url}/query", {"source": "v0"})
        _, stats = http_get(f"{base_url}/stats")
        assert stats["service"]["errors"].get("bad-request", 0) >= 1


def replies_until_eof(base_url, head: bytes) -> list[tuple[int, bytes]]:
    """Send a request head on a fresh connection and read until the
    server closes it: every reply's ``(status, body)``.  A server that
    keeps the connection open fails the read with a timeout."""
    address = urlsplit(base_url)
    data = b""
    with socket.create_connection((address.hostname, address.port), timeout=5) as sock:
        sock.sendall(head)
        while chunk := sock.recv(65536):
            data += chunk
    replies = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        length = int(re.search(rb"\r\nContent-Length: (\d+)", head)[1])
        replies.append((status, rest[:length]))
        data = rest[length:]
    return replies


class TestRefusedBodies:
    """A body the server refuses stays unread, so exactly one reply
    comes back and then the connection closes: left open, the body's
    bytes would be parsed as the next request.  Only the head is sent —
    closing over unread input would reset the socket, and the reset may
    overtake the reply."""

    @pytest.mark.parametrize(
        "field, status, message",
        [
            (b"Content-Length: 16777217", 413, "exceeds the"),
            (b"Content-Length: twelve", 400, "valid Content-Length"),
            (b"Content-Length: -5", 400, "valid Content-Length"),
            (b"Transfer-Encoding: chunked", 400, "no chunks"),
        ],
        ids=["over-limit", "invalid-length", "negative-length", "transfer-encoding"],
    )
    def test_one_reply_then_eof(self, base_url, field, status, message):
        head = b"POST /query HTTP/1.1\r\nHost: test\r\n" + field + b"\r\n\r\n"
        replies = replies_until_eof(base_url, head)
        assert [code for code, _ in replies] == [status]
        assert message in json.loads(replies[0][1])["error"]["message"]

    def test_an_over_limit_put_is_not_read(self, base_url):
        head = b"PUT /query HTTP/1.1\r\nHost: test\r\nContent-Length: 16777217\r\n\r\n"
        assert [code for code, _ in replies_until_eof(base_url, head)] == [405]


class TestRequestTargets:
    """Only a plain ``/...`` target skips URL parsing; every other form
    is split as it always was."""

    @pytest.mark.parametrize(
        "target",
        ["/query", "/query?trace=0", "/query#fragment", "http://test/query"],
    )
    def test_each_form_reaches_the_query_route(self, base_url, target):
        body = json.dumps(spec("v0", "v4")).encode()
        head = (
            f"POST {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        [(status, reply)] = replies_until_eof(base_url, head + body)
        assert status == 200 and json.loads(reply)["answer"] is True


class TestBodiesJsonCannotHold:
    """Bodies ``json.loads`` refuses with something other than a
    ``JSONDecodeError`` — a plain ``ValueError`` for an integer past the
    interpreter's digit limit, a ``RecursionError`` for nesting too deep
    — are the same 400 as any other body that is not JSON, at every door
    that reads one."""

    BODIES = {
        "long-integer": b"1" * 5000,
        "deep-nesting": b"[" * 100_000,
    }

    @pytest.mark.parametrize("body", BODIES)
    @pytest.mark.parametrize("door", ["/query", "/batch", "/edges", "/tenants"])
    def test_a_400_not_a_500(self, base_url, door, body):
        payload = self.BODIES[body]
        head = (
            f"POST {door} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode()
        [(status, reply)] = replies_until_eof(base_url, head + payload)
        error = json.loads(reply)["error"]
        assert (status, error["type"]) == (400, "bad-request")
        assert error["message"].startswith("request body is not valid JSON")


class TestConcurrency:
    def test_threaded_stress_matches_serial(self, base_url, service):
        # >= 8 workers x >= 50 mixed queries (two constraints, varying
        # label sets and endpoints), every HTTP answer must equal the
        # serial in-process answer for the same query.
        vertices = ["v0", "v1", "v2", "v3", "v4"]
        cases = []
        for i in range(64):
            source = vertices[i % 5]
            target = vertices[(i * 3 + 1) % 5]
            labels = (LABELS, ["likes", "follows", "friendOf"], ["hates"])[i % 3]
            constraint = (S0, S1)[i % 2]
            cases.append((source, target, list(labels), constraint))

        session = LSCRSession(service.graph, "ins", index=service.index, seed=0)
        expected = [
            session.answer(session.make_query(s, t, labels, c)).answer
            for s, t, labels, c in cases
        ]

        def ask(case):
            source, target, labels, constraint = case
            status, document = http_post(
                f"{base_url}/query",
                spec(source, target, labels, constraint, use_cache=False),
            )
            assert status == 200
            return document["answer"]

        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = list(pool.map(ask, cases))
        assert answers == expected

        _, stats = http_get(f"{base_url}/stats")
        assert stats["service"]["queries"]["total"] >= 64


class TestCliServe:
    def test_serve_subprocess_ephemeral_port(self, tmp_path):
        graph_path = tmp_path / "g0.tsv"
        index_path = tmp_path / "g0.index.json"
        dump_tsv(figure3_graph(), graph_path)

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--graph", str(graph_path), "--index", str(index_path),
             "--port", "0", "--k", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            port = self._await_ready_line(process)
            status, document = http_get(f"http://127.0.0.1:{port}/healthz")
            assert status == 200
            assert document["status"] == "ok"
            status, document = http_post(
                f"http://127.0.0.1:{port}/query", spec("v0", "v4")
            )
            assert status == 200
            assert document["answer"] is True
            assert not index_path.exists()     # a default query reads no index
        finally:
            process.terminate()
            process.wait(timeout=10)
            process.stdout.close()

    @staticmethod
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
