"""The request-head reader and the reply-head writer against the
interpreter's own.

``ServiceRequestHandler.parse_request`` replaces the stdlib's (which
parses the header block with ``email.feedparser``).  Every case below is
sent as raw bytes over a real socket to two servers hosting the same
service: ours, and one whose handler differs only in running the stock
``BaseHTTPRequestHandler.parse_request`` of the running Python.  The two
must answer with the same status codes and leave the connection in the
same state — closed, or alive enough to answer one more request.

``ServiceRequestHandler._send`` writes the reply head as one string.
The last section answers the same requests with it and with a twin that
writes the head through ``send_response`` / ``send_header`` /
``flush_headers``, and compares the heads line by line.
"""

from __future__ import annotations

import io
import json
import re
import socket
import threading
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from http.client import _MAXHEADERS, _MAXLINE
from http.server import BaseHTTPRequestHandler

import pytest

from repro.datasets.toy import figure3_graph
from repro.service.app import QueryService
from repro.service.http import (
    RequestHeaders,
    ServiceRequestHandler,
    create_server,
)

QUERY = json.dumps({
    "source": "v0",
    "target": "v4",
    "labels": ["likes", "follows"],
    "constraint": "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }",
}).encode()
LENGTH = b"Content-Length: %d\r\n" % len(QUERY)
PROBE = b"GET /healthz HTTP/1.1\r\n\r\n"


class StockHeadHandler(ServiceRequestHandler):
    """The service's handler, reading the request head the stdlib's way."""

    parse_request = BaseHTTPRequestHandler.parse_request


@pytest.fixture(scope="module")
def addresses():
    """``{"ours": address, "stock": address}`` over one service."""
    service = QueryService(figure3_graph(), seed=0)
    servers = {
        "ours": create_server(service, "127.0.0.1", 0),
        "stock": create_server(service, "127.0.0.1", 0),
    }
    servers["stock"].RequestHandlerClass = StockHeadHandler
    threads = [
        threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )
        for server in servers.values()
    ]
    for thread in threads:
        thread.start()
    try:
        yield {name: server.server_address for name, server in servers.items()}
    finally:
        for server in servers.values():
            server.shutdown()
            server.server_close()
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        service.close()


class Wire:
    """One client socket and the replies read off it."""

    def __init__(self, address) -> None:
        self.socket = socket.create_connection(address, timeout=10)
        self.unread = b""

    def close(self) -> None:
        self.socket.close()

    def send(self, data: bytes) -> None:
        self.socket.sendall(data)

    def reply(self) -> int | None:
        """The next reply's status, its body consumed; None once the
        server has closed (or reset) the connection instead.

        A request refused before its version was accepted is answered
        the HTTP/0.9 way — the stdlib's HTML error page and nothing
        else, then a close — so there the status is read off the page.
        """
        try:
            while b"\r\n\r\n" not in self.unread:
                chunk = self.socket.recv(65536)
                if not chunk:
                    page = re.search(rb"Error code: (\d+)", self.unread)
                    return int(page[1]) if page else None
                self.unread += chunk
            head, _, rest = self.unread.partition(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
            length = 0
            for line in head.lower().split(b"\r\n")[1:]:
                if line.startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            while len(rest) < length:
                chunk = self.socket.recv(65536)
                if not chunk:
                    return None
                rest += chunk
            self.unread = rest[length:]
            return status
        except ConnectionError:
            return None


def exchange(address, *sends: bytes, replies: int) -> tuple[list, bool]:
    """Send each piece (reading one reply after every piece but the
    last), read up to ``replies`` replies in all, then ask for one more
    answer: ``(statuses, kept_alive)``."""
    wire = Wire(address)
    try:
        statuses = []
        for piece in sends[:-1]:
            wire.send(piece)
            statuses.append(wire.reply())
        wire.send(sends[-1])
        while len(statuses) < replies:
            statuses.append(wire.reply())
        if statuses[-1] is None:
            return statuses, False
        try:
            wire.send(PROBE)
        except ConnectionError:
            return statuses, False
        return statuses, wire.reply() == 200
    finally:
        wire.close()


def post(*header_lines: bytes, version: bytes = b"HTTP/1.1") -> bytes:
    return b"POST /query " + version + b"\r\n" + b"".join(header_lines) + b"\r\n" + QUERY


#: name -> (pieces to send, replies to read, expected statuses, kept alive).
#: Requests the server refuses on the request line or mid-header are sent
#: without the bytes it would leave unread: closing a socket over unread
#: input resets it, and the reset may overtake the reply.
CASES = {
    "plain POST": ((post(LENGTH),), 1, [200], True),
    "plain GET": ((b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",), 1, [200], True),
    "bad version token": ((b"GET /healthz HTTP/1.x\r\n",), 1, [400], False),
    "version without a dot": ((b"GET /healthz HTTP/1\r\n",), 1, [400], False),
    "not a version at all": ((b"GET /healthz FTP/1.1\r\n",), 1, [400], False),
    "HTTP/2.0": ((b"GET /healthz HTTP/2.0\r\n",), 1, [505], False),
    "four words": ((b"GET /healthz extra HTTP/1.1\r\n",), 1, [400], False),
    "two-word non-GET": ((b"POST /query\r\n",), 1, [400], False),
    "empty request line": ((b"\r\n",), 1, [None], False),
    "request line over the limit": (
        (b"GET /" + b"a" * (_MAXLINE + 1 - 5),), 1, [414], False,
    ),
    "header line over the limit": (
        (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * (_MAXLINE + 1 - 8),),
        1, [431], False,
    ),
    "header line at the limit": (
        (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * (_MAXLINE - 10) + b"\r\n\r\n",),
        1, [200], True,
    ),
    "too many headers": (
        (b"GET /healthz HTTP/1.1\r\n"
         + b"".join(b"X-%d: v\r\n" % n for n in range(_MAXHEADERS + 1)),),
        1, [431], False,
    ),
    "as many headers as allowed": (
        (b"GET /healthz HTTP/1.1\r\n"
         + b"".join(b"X-%d: v\r\n" % n for n in range(_MAXHEADERS - 1)) + b"\r\n",),
        1, [200], True,
    ),
    "mixed-case Content-Length": (
        (post(b"cOnTeNt-LeNgTh:%d\r\n" % len(QUERY)),), 1, [200], True,
    ),
    "duplicated Content-Length, first wins": (
        (post(LENGTH, b"Content-Length: 0\r\n"),), 1, [200], True,
    ),
    "folded continuation line": (
        (post(LENGTH, b"X-Note: first\r\n", b"\tsecond\r\n", b"Connection: close\r\n"),),
        1, [200], False,
    ),
    "folded Connection value is not 'close'": (
        (post(LENGTH, b"Connection: close\r\n", b" , really\r\n"),), 1, [200], True,
    ),
    "continuation before any field": (
        (post(b" orphan\r\n", LENGTH),), 1, [200], True,
    ),
    "line with no colon ends the fields": (
        (post(LENGTH, b"no colon here\r\n", b"Connection: close\r\n"),),
        1, [200], True,
    ),
    "field with an empty name is skipped": (
        (post(b": nameless\r\n", LENGTH, b"Connection: close\r\n"),), 1, [200], False,
    ),
    "bare LF line ends": (
        (b"POST /query HTTP/1.1\n" + LENGTH.replace(b"\r", b"") + b"\n" + QUERY,),
        1, [200], True,
    ),
    "Connection: close on 1.1": (
        (post(LENGTH, b"Connection: Close\r\n"),), 1, [200], False,
    ),
    "HTTP/1.0 closes by default": (
        (post(LENGTH, version=b"HTTP/1.0"),), 1, [200], False,
    ),
    "keep-alive on 1.0": (
        (post(LENGTH, b"connection: Keep-Alive\r\n", version=b"HTTP/1.0"),),
        1, [200], True,
    ),
    "Expect: 100-continue": (
        (b"POST /query HTTP/1.1\r\n" + LENGTH + b"Expect: 100-Continue\r\n\r\n", QUERY),
        2, [100, 200], True,
    ),
    "Expect on 1.0 gets no interim reply": (
        (post(LENGTH, b"Expect: 100-continue\r\n", version=b"HTTP/1.0"),),
        1, [200], False,
    ),
    "pipelined request after an early 404": (
        (b"POST /nope HTTP/1.1\r\n" + LENGTH + b"\r\n" + QUERY
         + b"GET /healthz HTTP/1.1\r\n\r\n",),
        2, [404, 200], True,
    ),
    "path starting with two slashes": (
        (b"GET //healthz HTTP/1.1\r\n\r\n",), 1, [200], True,
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_same_answer_as_the_stock_head_parser(addresses, name):
    sends, replies, statuses, kept_alive = CASES[name]
    ours = exchange(addresses["ours"], *sends, replies=replies)
    stock = exchange(addresses["stock"], *sends, replies=replies)
    assert ours == stock
    assert ours == (statuses, kept_alive)


def test_the_stock_twin_really_runs_the_stock_parser():
    assert StockHeadHandler.parse_request is BaseHTTPRequestHandler.parse_request
    assert ServiceRequestHandler.parse_request is not BaseHTTPRequestHandler.parse_request


def test_header_names_are_case_insensitive():
    headers = RequestHeaders({"x-ladder-request": "17", "content-length": "3"})
    assert headers.get("X-Ladder-Request") == "17"
    assert headers.get("x-ladder-request") == "17"
    assert headers.get("CONTENT-LENGTH", 0) == "3"
    assert headers.get("Missing") is None
    assert headers.get("Missing", 0) == 0


# ---------------------------------------------------------------------------
# the reply head, against the stdlib's writer
# ---------------------------------------------------------------------------


class StockReplyHandler(ServiceRequestHandler):
    """The service's handler, writing the reply head the stdlib's way."""

    def _send(self, status, content_type, body, headers=None):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self._headers_buffer += (b"\r\n", body)
        self.flush_headers()


class CountedWrites(io.BytesIO):
    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def write(self, data) -> int:
        self.writes += 1
        return super().write(data)


def answer(handler_class, server, request: bytes) -> tuple[bytes, int]:
    """One request through ``handler_class`` over in-memory streams:
    the bytes written back, and in how many writes."""
    handler = handler_class.__new__(handler_class)
    handler.server, handler.client_address = server, ("127.0.0.1", 0)
    handler.rfile, handler.wfile = io.BytesIO(request), CountedWrites()
    handler.close_connection = True
    handler.handle_one_request()
    return handler.wfile.getvalue(), handler.wfile.writes


def head_and_body(reply: bytes) -> tuple[list[str], bytes]:
    head, _, body = reply.partition(b"\r\n\r\n")
    return head.decode("latin-1").split("\r\n"), body


@pytest.fixture(scope="module")
def servers():
    """``(plain, full)``: a server over the Figure 3 service, and one
    whose only admission slot is taken, so a query is shed with a 429
    that carries ``Retry-After``."""
    plain_service = QueryService(figure3_graph(), seed=0)
    full_service = QueryService(figure3_graph(), seed=0, max_concurrent=1)
    slot = full_service.admission.admit()
    plain = create_server(plain_service, "127.0.0.1", 0)
    full = create_server(full_service, "127.0.0.1", 0)
    try:
        yield plain, full
    finally:
        slot.__exit__(None, None, None)
        for server in (plain, full):
            server.server_close()
        plain_service.close()
        full_service.close()


#: name -> (request, which server, expected status line, closes).
REPLIES = {
    "200 query": (post(LENGTH), 0, "HTTP/1.1 200 OK", False),
    "200 metrics text": (b"GET /metrics HTTP/1.1\r\n\r\n", 0, "HTTP/1.1 200 OK", False),
    "404": (b"GET /nope HTTP/1.1\r\n\r\n", 0, "HTTP/1.1 404 Not Found", False),
    "400 bad JSON": (
        b"POST /query HTTP/1.1\r\nContent-Length: 5\r\n\r\n{nope",
        0, "HTTP/1.1 400 Bad Request", False,
    ),
    "413 closes": (
        b"POST /query HTTP/1.1\r\nContent-Length: 16777217\r\n\r\n",
        0, "HTTP/1.1 413 Request Entity Too Large", True,
    ),
    "429 with Retry-After": (post(LENGTH), 1, "HTTP/1.1 429 Too Many Requests", False),
    # The status line names the handler's protocol, not the request's.
    "HTTP/1.0 closes": (post(LENGTH, version=b"HTTP/1.0"), 0, "HTTP/1.1 200 OK", True),
}


@pytest.mark.parametrize("name", REPLIES)
def test_the_same_head_as_the_stock_writer(servers, name):
    request, which, status_line, closes = REPLIES[name]
    server = servers[which]
    reply, writes = answer(ServiceRequestHandler, server, request)
    assert writes == 1
    ours, our_body = head_and_body(reply)
    stock, stock_body = head_and_body(answer(StockReplyHandler, server, request)[0])
    assert ours[0] == stock[0] == status_line
    names = [line.split(":", 1)[0] for line in ours[1:]]
    assert names == [line.split(":", 1)[0] for line in stock[1:]]
    expected = ["Server", "Date", "Content-Type", "Content-Length"]
    expected += ["Connection"] * closes + ["Retry-After"] * (which == 1)
    assert names == expected
    for line, twin in zip(ours[1:], stock[1:]):
        if line.startswith("Date:"):
            sent = parsedate_to_datetime(line[len("Date: "):])
            assert line.endswith(" GMT") and sent.tzinfo == timezone.utc
            assert abs((datetime.now(timezone.utc) - sent).total_seconds()) <= 2
        elif line.startswith("Content-Length:"):
            # A body can carry timings, so each length is its own body's.
            assert line == f"Content-Length: {len(our_body)}"
            assert twin == f"Content-Length: {len(stock_body)}"
        else:
            assert line == twin


def test_an_http_0_9_request_gets_the_body_alone(servers):
    reply, writes = answer(ServiceRequestHandler, servers[0], b"GET /nope\r\n")
    assert writes == 1
    assert json.loads(reply) == {
        "error": {"type": "not-found", "message": "no such endpoint: GET /nope"}
    }
