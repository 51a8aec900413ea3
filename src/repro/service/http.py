"""Stdlib HTTP front end: JSON endpoints over ``ThreadingHTTPServer``.

The server routes onto a :class:`~repro.service.registry.TenantRegistry`
— one process hosting any number of graphs.  Endpoints
(all JSON, UTF-8):

* ``POST /t/<tenant>/query``  — answer one LSCR query on a tenant
  (``{"source", "target", "labels", "constraint", "algorithm"?,
  "use_cache"?}``);
* ``POST /t/<tenant>/batch``  — answer a batch (``{"queries":
  [spec, ...], "use_cache"?}``), order-preserving, its members answered
  in the request thread;
* ``POST /t/<tenant>/edges``  — apply a live edge update batch
  (``{"edges": [{"source", "label", "target", "op"?}, ...]}``) and
  publish a new serving epoch; gated behind ``serve --allow-updates``
  (403 when off);
* ``GET /t/<tenant>/stats``   — that tenant's telemetry;
* ``GET /t/<tenant>/healthz`` — that tenant's liveness and load state;
* ``GET /metrics``, ``GET /t/<tenant>/metrics`` — the same telemetry
  in Prometheus text exposition format (``text/plain; version=0.0.4``),
  aggregate and per-tenant;
* ``GET /debug/slow``, ``GET /t/<tenant>/debug/slow`` — the slow-query
  flight recorder: the worst-N traced queries above ``serve
  --slow-ms``, with their span trees;
* ``POST /query``, ``POST /batch``, ``POST /edges`` — un-prefixed
  aliases for the registry's **default tenant**, so single-graph
  clients keep working; every query/batch/edges route accepts
  ``?trace=1`` to force a request-scoped trace echoed back in the
  response's ``trace`` field;
* ``GET /stats``, ``GET /healthz`` — the default tenant's documents
  *plus* cross-tenant aggregation (per-tenant load state, graph sizes,
  merged counters);
* ``GET /tenants``    — list every tenant and its load state;
* ``POST /tenants``   — register a tenant at runtime from file paths
  (``{"name", "graph", "seed"?, ...}`` — any row of
  :data:`repro.service.options.OPTIONS`; an unknown key or a bad value
  is a 400), warm started lazily on its first query;
* ``DELETE /t/<tenant>`` — deregister a tenant.

Errors are structured: every failure body is
``{"error": {"type": ..., "message": ...}}`` with a matching 4xx/5xx
status — unknown tenant ids give 404, duplicate registrations 409.
``ThreadingHTTPServer`` gives one thread per connection; the registry
and each :class:`~repro.service.app.QueryService` are safe for that by
construction (immutable graphs; caches whose hit is one
unlocked dict read and whose writes take a lock; locked counters).
A ``/query`` or ``/batch`` reply body comes from the service as bytes,
assembled from each result's JSON members encoded once per result
object; every other reply is ``json.dumps`` of a dict.

Binding ``port=0`` asks the OS for an ephemeral port — the bound
address is on ``server.server_address`` — which is how the integration
tests and ``python -m repro serve --port 0`` avoid collisions.
"""

from __future__ import annotations

import json
import math
import re
import socket
import time
from contextlib import nullcontext
from email.utils import formatdate
from http.client import HTTPException, LineTooLong, _read_headers
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.context import RequestContext, activate
from repro.exceptions import BadRequestError, ReproError, UpdatesDisabledError
from repro.resilience.deadline import Deadline
from repro.service.app import QueryService
from repro.service.options import build_options
from repro.service.registry import TenantRegistry, valid_tenant_name

__all__ = [
    "RequestHeaders",
    "ServiceHTTPServer",
    "ServiceRequestHandler",
    "create_server",
]

#: Refuse request bodies larger than this many bytes (memory guard).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: ``Content-Type`` of every JSON reply.
_JSON = "application/json; charset=utf-8"

#: ``HTTP/<major>.<minor>``, each number at most ten digits.
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")
#: One header line: a name of printable ASCII with no space or colon,
#: the colon, the value with its leading blanks dropped.
_FIELD = re.compile(r"([!-9;-~]*):[ \t]*(.*)", re.DOTALL)

#: The ``Date`` header's value for one second of the clock, as a
#: ``(second, text)`` pair: formatted at most once a second.  Two threads
#: that both see it stale both write an equal pair.
_date: tuple[int, str] = (0, "")


def _http_date() -> str:
    """Now, as the stdlib's ``date_time_string`` formats it."""
    global _date
    second = int(time.time())
    stamp = _date
    if stamp[0] != second:
        stamp = _date = (second, formatdate(second, usegmt=True))
    return stamp[1]


class RequestHeaders:
    """The header fields of one request: ``get`` by any spelling of the
    name, the first value where a name repeats."""

    __slots__ = ("_fields",)

    def __init__(self, fields: dict[str, str]) -> None:
        self._fields = fields

    def get(self, name: str, default: Any = None) -> Any:
        return self._fields.get(name.lower(), default)


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`TenantRegistry`.

    A bare :class:`QueryService` is accepted too and wrapped as the
    registry's default tenant — the PR 1 embedding API unchanged.
    """

    daemon_threads = True
    allow_reuse_address = True
    #: The kernel's listen backlog cap, not ``socketserver``'s 5: a
    #: burst of connects beyond 5 otherwise waits for a SYN retry.
    request_queue_size = socket.SOMAXCONN

    def __init__(
        self,
        address: tuple[str, int],
        service: QueryService | TenantRegistry,
        allow_updates: bool = False,
        default_deadline_ms: float | None = None,
    ) -> None:
        super().__init__(address, ServiceRequestHandler)
        if isinstance(service, TenantRegistry):
            self.registry = service
        else:
            self.registry = TenantRegistry.for_service(service)
        #: Gate for ``POST /edges`` (live graph updates): an admin
        #: operation the operator must opt into (``serve
        #: --allow-updates``); off, the routes answer a structured 403.
        self.allow_updates = allow_updates
        #: Budget applied to every ``/query`` and ``/batch`` request that
        #: doesn't name its own ``?deadline_ms=`` (``serve
        #: --default-deadline-ms``); None serves without deadlines.
        self.default_deadline_ms = default_deadline_ms

    @property
    def service(self) -> QueryService:
        """The default tenant's service (back-compat convenience)."""
        return self.registry.get()


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes tenant and admin endpoints onto the shared registry."""

    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"
    #: Quiet by default — a query service would log via real telemetry,
    #: and the test suite starts dozens of servers.
    verbose = False
    #: The ``Server`` header of every reply (``version_string()``).
    _server = (
        f"{BaseHTTPRequestHandler.server_version} "
        f"{BaseHTTPRequestHandler.sys_version}"
    )

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if self.verbose:
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        """Read the request line and the header block.

        In place of the base class's, which hands the header block to
        ``email.feedparser`` — a mail parser, and most of what a cached
        answer cost.  What it decides is kept, case by case: the 400s
        for a malformed request line, 505 from ``HTTP/2.0`` up, 431 for
        an overlong header line or too many of them (the block is still
        read by ``http.client``'s own reader, so the limits are the
        interpreter's), keep-alive by version and ``Connection``, the
        interim reply to ``Expect: 100-continue``.  Header lines mean
        what they meant to the mail parser: a line that starts with a
        blank continues the value before it, and the first line that is
        not ``name: value`` ends the fields — what follows it in the
        block is dropped.  Two things it did are not kept: a bare CR
        does not end a line, and a line starting ``From `` is not
        skipped as an mbox envelope (it ends the fields like any other
        non-field).
        """
        self.command = None  # set in case of error on the first line
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            matched = _VERSION.fullmatch(words[-1])
            if matched is None:
                return self._refuse(400, f"Bad request version ({words[-1]!r})")
            version = int(matched[1]), int(matched[2])
            if version >= (1, 1) and self.protocol_version >= "HTTP/1.1":
                self.close_connection = False
            if version >= (2, 0):
                return self._refuse(
                    505, f"Invalid HTTP version ({matched[1]}.{matched[2]})"
                )
            self.request_version = words[-1]
        if not 2 <= len(words) <= 3:
            return self._refuse(400, f"Bad request syntax ({self.requestline!r})")
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                return self._refuse(400, f"Bad HTTP/0.9 request type ({command!r})")
        if path.startswith("//"):
            # Not an absolute URI without a scheme (open redirects).
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path

        try:
            lines = _read_headers(self.rfile)
        except LineTooLong as error:
            return self._refuse(431, "Line too long", str(error))
        except HTTPException as error:
            return self._refuse(431, "Too many headers", str(error))
        fields: dict[str, str] = {}
        #: The field a continuation line extends ("" = one not kept).
        last = ""
        for line in lines[:-1]:
            text = line.decode("iso-8859-1")
            if text[0] in " \t":
                if last:
                    fields[last] += text
                continue
            matched = _FIELD.match(text)
            if matched is None:
                break
            last = matched[1].lower()
            if last in fields:
                last = ""
            elif last:
                fields[last] = matched[2]
        self.headers = RequestHeaders(
            {name: value.rstrip("\r\n") for name, value in fields.items()}
        )

        connection = self.headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive" and self.protocol_version >= "HTTP/1.1":
            self.close_connection = False
        if (
            self.headers.get("Expect", "").lower() == "100-continue"
            and self.protocol_version >= "HTTP/1.1"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def _refuse(self, status: int, message: str, explain: str | None = None) -> bool:
        """Answer a request head with the base class's error page;
        False, for :meth:`parse_request` to return."""
        self.send_error(status, message, explain)
        return False

    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server's naming)
        registry = self.server.registry
        try:
            path, _ = self._route()
            if path == "/healthz":
                self._send_json(200, registry.health())
            elif path == "/stats":
                self._send_json(200, registry.stats_snapshot())
            elif path == "/metrics":
                self._send_text(200, registry.metrics_text())
            elif path == "/debug/slow":
                self._send_json(200, registry.slow_queries())
            elif path == "/tenants":
                self._send_json(200, registry.describe())
            else:
                tenant, endpoint = self._split_tenant_path(path)
                if endpoint == "stats":
                    self._send_json(200, registry.tenant_stats(tenant))
                elif endpoint == "healthz":
                    self._send_json(200, registry.tenant_health(tenant))
                elif endpoint == "metrics":
                    self._send_text(200, registry.tenant_metrics_text(tenant))
                elif endpoint == "debug/slow":
                    self._send_json(200, registry.slow_queries(tenant))
                else:
                    raise BadRequestError(
                        f"no such endpoint: GET {self.path}", status=404
                    )
        except BadRequestError as error:
            registry.record_error(self._error_kind(error))
            self._send_error(error.status, self._error_kind(error), str(error))

    def do_POST(self) -> None:  # noqa: N802
        registry = self.server.registry
        service: QueryService | None = None
        try:
            # Read the body before any routing verdict: an early 404 on
            # a keep-alive connection must not leave body bytes behind
            # to corrupt the next request.
            payload = self._read_json_body()
            path, query = self._route()
            trace = query.get("trace") in ("1", "true")
            if path == "/tenants":
                self._send_json(201, self._register_tenant(payload))
                return
            if path in ("/query", "/batch", "/edges"):
                tenant, endpoint = None, path[1:]
            else:
                tenant, endpoint = self._split_tenant_path(path)
                if endpoint not in ("query", "batch", "edges"):
                    raise BadRequestError(
                        f"no such endpoint: POST {self.path}", status=404
                    )
            if endpoint == "edges" and not self.server.allow_updates:
                # Checked before the tenant lookup: the gate is a server
                # policy, not a per-tenant property.
                raise UpdatesDisabledError()
            service = registry.get(tenant)
            if endpoint == "edges":
                self._send_json(200, service.handle_updates(payload, trace=trace))
            else:
                # Deadlines cover the answering endpoints only: update
                # batches are admin operations that must run to the end.
                with self._request_scope(query):
                    if endpoint == "query":
                        body = service.handle_query(payload, trace=trace)
                    else:
                        body = service.handle_batch(payload, trace=trace)
                self._send(200, _JSON, body)
        except BadRequestError as error:
            kind = self._error_kind(error)
            if service is not None:
                service.stats.record_error(kind)
            else:
                registry.record_error(kind)
            self._send_error(
                error.status,
                kind,
                str(error),
                detail=error.detail,
                headers=getattr(error, "headers", None),
            )
        except ReproError as error:
            # Anything else the library rejected is still the client's
            # query (bad constraint text reaching a deeper layer, ...).
            if service is not None:
                service.stats.record_error("bad-request")
            else:
                registry.record_error("bad-request")
            self._send_error(400, type(error).__name__, str(error))
        except Exception as error:  # noqa: BLE001 — last-resort boundary
            if service is not None:
                service.stats.record_error("internal-error")
            else:
                registry.record_error("internal-error")
            self._send_error(500, "internal-error", f"{type(error).__name__}: {error}")

    def do_DELETE(self) -> None:  # noqa: N802
        registry = self.server.registry
        self._drain_body()
        try:
            path, _ = self._route()
            parts = path.strip("/").split("/")
            if len(parts) != 2 or parts[0] != "t":
                raise BadRequestError(
                    f"no such endpoint: DELETE {self.path}", status=404
                )
            registry.remove(parts[1])
            self._send_json(200, {"removed": parts[1]})
        except BadRequestError as error:
            registry.record_error(self._error_kind(error))
            self._send_error(error.status, self._error_kind(error), str(error))

    def do_PUT(self) -> None:  # noqa: N802
        self._drain_body()
        self._send_error(405, "method-not-allowed", "use GET, POST or DELETE")

    # ------------------------------------------------------------------

    def _drain_body(self) -> None:
        """Discard any request body so keep-alive connections stay in
        sync — unread bytes would be parsed as the next request line
        (a body :meth:`_body_length` refuses closes the connection)."""
        try:
            self.rfile.read(self._body_length())
        except BadRequestError:
            pass

    def _route(self) -> tuple[str, dict[str, str]]:
        """Split ``self.path`` into (path, query) — query keeps the
        first value per key (``?trace=1`` and ``?deadline_ms=`` are the
        consumers).  A plain ``/...`` path with no ``?`` or ``#`` is
        what ``urlsplit`` would give back, so it is not parsed."""
        path = self.path
        if path[:1] == "/" and "?" not in path and "#" not in path:
            return path, {}
        split = urlsplit(path)
        query = {
            key: values[0]
            for key, values in parse_qs(split.query).items()
            if values
        }
        return split.path, query

    def _split_tenant_path(self, path: str) -> tuple[str, str]:
        """``/t/<tenant>/<endpoint>`` → (tenant, endpoint), or 404.

        The endpoint may span segments (``debug/slow``), so everything
        after the tenant joins back into one endpoint string.
        """
        parts = path.strip("/").split("/")
        if len(parts) >= 3 and parts[0] == "t" and valid_tenant_name(parts[1]):
            return parts[1], "/".join(parts[2:])
        raise BadRequestError(
            f"no such endpoint: {self.command} {self.path}", status=404
        )

    def _register_tenant(self, payload: object) -> dict:
        """``POST /tenants``: validate and register a lazy tenant."""
        if not isinstance(payload, dict):
            raise BadRequestError("tenant registration must be a JSON object")
        name = payload.get("name")
        if not valid_tenant_name(name):
            raise BadRequestError(
                "'name' must be 1-128 characters from [A-Za-z0-9._-], "
                "not starting with a dot"
            )
        graph = payload.get("graph")
        if not isinstance(graph, str) or not graph:
            raise BadRequestError("'graph' must be a TSV file path")
        # Every other key is a serving option: validated here, so a bad
        # registration fails the POST with a 400, not every later query
        # once the lazy warm start trips over it.
        options = build_options(
            {
                key: value
                for key, value in payload.items()
                if key not in ("name", "graph")
            },
            error=BadRequestError,
        )
        self.server.registry.register_files(name, graph, options=options)
        return {"registered": name, "loaded": False}

    def _request_scope(self, query: dict[str, str]) -> activate | nullcontext:
        """The context armed for one ``/query`` or ``/batch`` request.

        ``?deadline_ms=`` wins over the server-wide default; with
        neither nothing is armed at all, and every downstream check
        stays a no-op (the service arms a trace itself when one starts).
        """
        raw = query.get("deadline_ms")
        if raw is None:
            budget_ms = self.server.default_deadline_ms
        else:
            try:
                budget_ms = float(raw)
            except ValueError:
                budget_ms = math.nan
            if not math.isfinite(budget_ms) or budget_ms <= 0:
                raise BadRequestError(
                    f"deadline_ms must be a positive number of "
                    f"milliseconds, got {raw!r}"
                )
        if budget_ms is None:
            return nullcontext()
        return activate(RequestContext(deadline=Deadline(budget_ms)))

    @staticmethod
    def _error_kind(error: BadRequestError) -> str:
        plain = error.kind == BadRequestError.kind
        return "not-found" if plain and error.status == 404 else error.kind

    def _body_length(self) -> int:
        """The body's ``Content-Length``.  A body sent chunked, or of an
        invalid or over-limit length, is refused unread, so the
        connection closes: its bytes would be parsed as the next request."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = -1
        if 0 <= length <= MAX_BODY_BYTES and not self.headers.get("Transfer-Encoding"):
            return length
        self.close_connection = True
        if length <= MAX_BODY_BYTES:
            raise BadRequestError("send a valid Content-Length, and no chunks")
        raise BadRequestError(
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit",
            status=413,
        )

    def _read_json_body(self) -> object:
        length = self._body_length()
        if length == 0:
            raise BadRequestError("request body is empty; send a JSON object")
        body = self.rfile.read(length)
        try:
            return json.loads(body)
        except (ValueError, RecursionError) as error:
            # ValueError: bad UTF-8, bad JSON, or an integer longer than
            # the interpreter converts; RecursionError: nesting too deep.
            raise BadRequestError(f"request body is not valid JSON: {error}") from None

    def _send_json(
        self,
        status: int,
        payload: dict,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send(status, _JSON, json.dumps(payload).encode("utf-8"), headers)

    def _send_text(self, status: int, text: str) -> None:
        """Prometheus exposition body (text format 0.0.4)."""
        self._send(
            status, "text/plain; version=0.0.4; charset=utf-8", text.encode("utf-8")
        )

    def _send(
        self,
        status: int,
        content_type: str,
        body: bytes,
        headers: dict[str, str] | None = None,
    ) -> None:
        """One reply, one ``wfile.write``.

        Headers and body written separately leave as two TCP segments,
        and with Nagle on the second waits for the peer's delayed ACK of
        the first: ~40 ms per kept-alive request for every default
        client.  So the head is one
        string, and head and body leave together.

        The head is what ``send_response`` + ``send_header`` wrote —
        status line, ``Server``, ``Date``, ``Content-Type``,
        ``Content-Length``, ``Connection: close`` when closing, then
        ``headers`` — without their per-line buffer and per-reply
        ``email.utils.formatdate``: ``Server`` is fixed and ``Date``
        changes once a second (:func:`_http_date`).  An HTTP/0.9
        request gets the body alone, as the stdlib answers one.
        """
        if self.verbose:
            self.log_request(status)
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)
            return
        reason = self.responses[status][0] if status in self.responses else ""
        head = (
            f"{self.protocol_version} {status} {reason}\r\n"
            f"Server: {self._server}\r\n"
            f"Date: {_http_date()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if self.close_connection:
            # A client that pools connections must not reuse this one.
            head += "Connection: close\r\n"
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        self.wfile.write((head + "\r\n").encode("latin-1") + body)

    def _send_error(
        self,
        status: int,
        kind: str,
        message: str,
        detail: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> None:
        body: dict[str, Any] = {"error": {"type": kind, "message": message}}
        if detail is not None:
            body["error"]["detail"] = detail
        self._send_json(status, body, headers=headers)


def create_server(
    service: QueryService | TenantRegistry,
    host: str = "127.0.0.1",
    port: int = 8080,
    allow_updates: bool = False,
    default_deadline_ms: float | None = None,
) -> ServiceHTTPServer:
    """Bind (but do not start) a server for a service or registry.

    ``allow_updates`` opens the ``POST /edges`` live-update routes
    (otherwise they answer a structured 403).  ``default_deadline_ms``
    bounds every query/batch request that doesn't pass its own
    ``?deadline_ms=``.  Callers run ``server.serve_forever()`` —
    typically on a dedicated thread — and stop with
    ``server.shutdown()`` + ``server.server_close()``.
    """
    return ServiceHTTPServer(
        (host, port),
        service,
        allow_updates,
        default_deadline_ms=default_deadline_ms,
    )
