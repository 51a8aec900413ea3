"""Multi-graph tenancy: many (graph, index) pairs in one process.

The paper's setting is one knowledge graph per deployment; a production
service hosts many.  :class:`TenantRegistry` promotes
:class:`~repro.service.app.QueryService` — already the natural
per-tenant unit (its own graph, index, caches, stats and session
pool) — to a first-class tenant behind a thread-safe name → service
map:

* **add / remove / lookup** are O(1) under one registry lock; lookups
  of a *lazy* tenant (registered by file paths) leave the registry lock
  and take a per-tenant lock instead, so one slow graph load never
  blocks traffic to other tenants, and concurrent first requests build
  the service exactly once.  Warm start freezes each tenant's graph
  into its CSR snapshot (:mod:`repro.graph.csr`) and does no index
  work: a tenant's index file is read by its first request naming
  ``ins`` (:class:`~repro.service.epoch.IndexSource`);
* **the default tenant** backs the un-prefixed PR 1 routes
  (``POST /query`` etc.); ``/t/<tenant>/...`` routes name any other;
* **aggregation** — :meth:`health` and :meth:`stats_snapshot` fold
  per-tenant load state, graph sizes and traffic counters into the
  top-level ``/healthz`` and ``/stats`` payloads without forcing lazy
  tenants to load.

Tenant ids are URL path segments, so they are restricted to
``[A-Za-z0-9._-]`` (and must not start with a dot, keeping ``.`` /
``..`` out of routes).
"""

from __future__ import annotations

import os
import re
import threading
from pathlib import Path
from typing import Any

from repro._version import __version__
from repro.exceptions import (
    BadRequestError,
    ReproError,
    ServiceConfigError,
    TenantExistsError,
    TenantLoggedError,
    UnknownTenantError,
)
from repro.obs.prometheus import render_metrics
from repro.service.app import QueryService
from repro.service.options import ServiceOptions, resolve_options
from repro.service.stats import merge_snapshots

__all__ = ["TenantRegistry", "DEFAULT_TENANT", "valid_tenant_name"]

#: The tenant the un-prefixed (PR 1) routes alias to unless configured.
DEFAULT_TENANT = "default"

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9_-][A-Za-z0-9._-]{0,127}$")


def valid_tenant_name(name: object) -> bool:
    """True when ``name`` is usable as a URL tenant id."""
    return isinstance(name, str) and _NAME_PATTERN.match(name) is not None


def _file_stamp(*paths: Path | None) -> tuple:
    """The ``os.stat`` size and ``mtime_ns`` of each path (None for no
    path or a missing file): what a failed load is remembered against."""
    stamp = []
    for path in paths:
        try:
            status = os.stat(path)
        except (OSError, TypeError):  # a missing file, or no path
            stamp.append(None)
        else:
            stamp.append((status.st_size, status.st_mtime_ns))
    return tuple(stamp)


class _TenantEntry:
    """One tenant: a live service, or file paths to build it from.

    ``lock`` serialises the lazy build only; once ``service`` is set it
    is never cleared, so the fast path is a single attribute read.  A
    build that failed is remembered as ``failure`` — the error beside the
    :func:`_file_stamp` of the files it read — and re-raised, no file
    opened, until one of those files changes.
    """

    __slots__ = ("name", "service", "spec", "lock", "failure")

    def __init__(
        self,
        name: str,
        service: QueryService | None = None,
        spec: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.service = service
        self.spec = spec
        self.lock = threading.Lock()
        self.failure: tuple[tuple, ReproError] | None = None

    @property
    def loaded(self) -> bool:
        return self.service is not None

    def service_or_load(self) -> QueryService:
        service = self.service
        if service is not None:
            return service
        with self.lock:
            if self.service is None:
                assert self.spec is not None
                stamp = _file_stamp(self.spec["graph_path"], self.spec["index_path"])
                if self.failure is not None and self.failure[0] == stamp:
                    raise self.failure[1].with_traceback(None)
                try:
                    self.service = QueryService.from_files(**self.spec)
                except ReproError as error:
                    self.failure = (stamp, error)
                    raise
                self.failure = None
            return self.service

    def describe(self) -> dict[str, Any]:
        """JSON-ready load state + sizes for ``GET /tenants``/``/healthz``."""
        service = self.service
        if service is None:
            assert self.spec is not None
            return {
                "loaded": False,
                "graph_path": str(self.spec["graph_path"]),
                "index_path": (
                    str(self.spec["index_path"])
                    if self.spec.get("index_path") is not None
                    else None
                ),
            }
        return {
            "loaded": True,
            "graph": service.graph.name,
            "vertices": service.graph.num_vertices,
            "edges": service.graph.num_edges,
            "labels": service.graph.num_labels,
            "index_loaded": service.epoch.has_index,
            "default_algorithm": service.default_algorithm,
            "epoch": service.epoch.epoch_id,
        }


class TenantRegistry:
    """A thread-safe map of tenant ids to :class:`QueryService`\\ s."""

    def __init__(self, *, default_tenant: str = DEFAULT_TENANT) -> None:
        if not valid_tenant_name(default_tenant):
            raise ServiceConfigError(
                f"invalid default tenant name: {default_tenant!r}"
            )
        self.default_tenant = default_tenant
        self._lock = threading.Lock()
        self._entries: dict[str, _TenantEntry] = {}
        self._errors: dict[str, int] = {}
        #: Removed tenants that had a write-ahead log attached: their
        #: names are refused to :meth:`register_files`.
        self._logged: set[str] = set()

    @classmethod
    def for_service(
        cls, service: QueryService, name: str = DEFAULT_TENANT
    ) -> "TenantRegistry":
        """A registry hosting one live service as its default tenant."""
        registry = cls(default_tenant=name)
        registry.add(name, service)
        return registry

    def __repr__(self) -> str:
        return (
            f"TenantRegistry({len(self)} tenant(s), "
            f"default={self.default_tenant!r})"
        )

    # ------------------------------------------------------------------
    # add / remove / lookup
    # ------------------------------------------------------------------

    def add(self, name: str, service: QueryService) -> None:
        """Register a live service under ``name`` (must be free)."""
        self._insert(_TenantEntry(name, service=service))

    def register_files(
        self,
        name: str,
        graph_path: str | Path,
        index_path: str | Path | None = None,
        *,
        options: ServiceOptions | None = None,
        **keywords: Any,
    ) -> None:
        """Register a tenant to be warm-started lazily from files.

        The graph path and the options (``seed``, ``algorithm``,
        ``cache_size``, ... — keywords or one ``options=`` value, as for
        :meth:`QueryService.from_files`) are checked eagerly — a bad
        registration should fail the ``POST /tenants`` call, not every
        later query — but the graph load runs on first lookup, off the
        registry lock, and the index file is read by the tenant's first
        request naming ``ins``.

        The name of a removed tenant that had a write-ahead log attached
        is refused (:class:`TenantLoggedError`): loaded from its base
        graph it would serve epoch 0 without the logged updates or the
        log.  Recovery (``serve --wal``) brings such a tenant back.
        """
        if name in self._logged:
            raise TenantLoggedError(name)
        graph_path = Path(graph_path)
        if not graph_path.is_file():
            raise ServiceConfigError(f"graph file not found: {graph_path}")
        spec: dict[str, Any] = {
            "graph_path": graph_path,
            "index_path": Path(index_path) if index_path is not None else None,
            "options": resolve_options(options, keywords),
        }
        self._insert(_TenantEntry(name, spec=spec))

    def _insert(self, entry: _TenantEntry) -> None:
        if not valid_tenant_name(entry.name):
            raise BadRequestError(
                f"invalid tenant name {entry.name!r}: use 1-128 characters "
                "from [A-Za-z0-9._-], not starting with a dot"
            )
        with self._lock:
            if entry.name in self._entries:
                raise TenantExistsError(entry.name)
            self._entries[entry.name] = entry

    def remove(self, name: str) -> None:
        """Drop a tenant; in-flight requests holding its service finish.

        Raises :class:`UnknownTenantError` when absent.  The removed
        service is :meth:`~QueryService.close`\\ d to release its
        write-ahead log's segment;
        the name of a tenant with a log is then refused to
        :meth:`register_files`.
        """
        with self._lock:
            entry = self._entries.pop(name, None)
            service = entry.service if entry is not None else None
            if service is not None and service.wal is not None:
                self._logged.add(name)
        if entry is None:
            raise UnknownTenantError(name)
        if service is not None:
            service.close()

    def _entry(self, name: str | None) -> _TenantEntry:
        if name is None:
            name = self.default_tenant
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise UnknownTenantError(name)
        return entry

    def get(self, name: str | None = None) -> QueryService:
        """The service for ``name`` (default tenant when None), loading
        a lazily registered tenant on first use."""
        return self._entry(name).service_or_load()

    def names(self) -> list[str]:
        """Registered tenant ids, sorted."""
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def record_error(self, kind: str) -> None:
        """Count a request error not attributable to any tenant."""
        with self._lock:
            self._errors[kind] = self._errors.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # per-tenant documents (GET /t/<tenant>/healthz, /t/<tenant>/stats)
    # ------------------------------------------------------------------

    def tenant_health(self, name: str) -> dict:
        """One tenant's ``/healthz`` document, never forcing a lazy load."""
        entry = self._entry(name)
        service = entry.service
        if service is None:
            return {"status": "ok", "tenant": entry.name, **entry.describe()}
        return {"tenant": entry.name, "loaded": True, **service.health()}

    def tenant_stats(self, name: str) -> dict:
        """One tenant's ``/stats`` document, never forcing a lazy load."""
        entry = self._entry(name)
        service = entry.service
        if service is None:
            return {"tenant": entry.name, **entry.describe()}
        return {"tenant": entry.name, "loaded": True, **service.stats_snapshot()}

    # ------------------------------------------------------------------
    # aggregation (GET /tenants, /healthz, /stats)
    # ------------------------------------------------------------------

    def _snapshot_entries(self) -> list[_TenantEntry]:
        with self._lock:
            return list(self._entries.values())

    def describe(self) -> dict:
        """``GET /tenants``: every tenant's load state and sizes."""
        entries = self._snapshot_entries()
        return {
            "count": len(entries),
            "default_tenant": self.default_tenant,
            "tenants": {
                entry.name: entry.describe()
                for entry in sorted(entries, key=lambda e: e.name)
            },
        }

    def health(self) -> dict:
        """``GET /healthz``: aggregate liveness across tenants.

        Lazy tenants are reported as not loaded, never force-loaded —
        health checks must stay cheap.  The document keeps the PR 1
        single-graph keys when the default tenant is loaded, so old
        monitoring keeps reading it.
        """
        document: dict[str, Any] = {"status": "ok"}
        entries = self._snapshot_entries()
        tenants = {}
        for entry in sorted(entries, key=lambda e: e.name):
            tenants[entry.name] = entry.describe()
        loaded = [e.service for e in entries if e.service is not None]
        document["tenants"] = tenants
        document["tenant_count"] = len(entries)
        document["tenants_loaded"] = len(loaded)
        document["default_tenant"] = self.default_tenant
        document["totals"] = {
            "vertices": sum(s.graph.num_vertices for s in loaded),
            "edges": sum(s.graph.num_edges for s in loaded),
        }
        default = next(
            (
                e.service
                for e in entries
                if e.name == self.default_tenant and e.service is not None
            ),
            None,
        )
        if default is not None:
            document.update(default.health())
        return document

    def stats_snapshot(self) -> dict:
        """``GET /stats``: default tenant's document plus cross-tenant totals.

        The PR 1 top-level keys (``service``, ``result_cache``, ...) are
        kept — they describe the default tenant — and three aggregate
        sections are added: ``tenants`` (per-tenant service counters for
        every *loaded* tenant), ``totals`` (their merged counters) and
        ``registry`` (tenant counts plus request errors that never
        reached a tenant, e.g. unknown tenant ids).
        """
        entries = self._snapshot_entries()
        loaded = [
            (entry.name, entry.service)
            for entry in sorted(entries, key=lambda e: e.name)
            if entry.service is not None
        ]
        per_tenant = {name: service.stats.snapshot() for name, service in loaded}
        with self._lock:
            registry_errors = dict(self._errors)
        document: dict[str, Any] = {
            "tenants": per_tenant,
            "totals": merge_snapshots(per_tenant.values()),
            "registry": {
                "tenant_count": len(entries),
                "tenants_loaded": len(loaded),
                "default_tenant": self.default_tenant,
                "errors": registry_errors,
            },
        }
        default = next(
            (service for name, service in loaded if name == self.default_tenant),
            None,
        )
        if default is not None:
            document.update(default.stats_snapshot())
        return document

    # ------------------------------------------------------------------
    # observability (GET /metrics, /t/<tenant>/metrics, /debug/slow)
    # ------------------------------------------------------------------

    def metrics_text(self) -> str:
        """``GET /metrics``: every loaded tenant in Prometheus text form.

        Like every other aggregate document, a scrape never forces a
        lazy tenant to load — unloaded tenants simply contribute no
        samples (they are visible in the ``repro_tenants`` vs
        ``repro_tenants_loaded`` gap).
        """
        entries = self._snapshot_entries()
        loaded = [
            (entry.name, entry.service)
            for entry in sorted(entries, key=lambda e: e.name)
            if entry.service is not None
        ]
        documents = {
            name: service.stats_snapshot() for name, service in loaded
        }
        with self._lock:
            registry_errors = dict(self._errors)
        started = min(
            (service.stats.started_at for _, service in loaded), default=None
        )
        return render_metrics(
            documents,
            version=__version__,
            started_at=started,
            registry={
                "tenant_count": len(entries),
                "tenants_loaded": len(loaded),
                "errors": registry_errors,
            },
        )

    def tenant_metrics_text(self, name: str) -> str:
        """``GET /t/<tenant>/metrics``: one tenant's samples only.

        An unloaded lazy tenant renders just ``repro_build_info`` — the
        scrape stays cheap and the absence of tenant samples *is* the
        signal that nothing warmed it yet.
        """
        entry = self._entry(name)
        service = entry.service
        if service is None:
            return render_metrics({}, version=__version__)
        return render_metrics(
            {entry.name: service.stats_snapshot()},
            version=__version__,
            started_at=service.stats.started_at,
        )

    def slow_queries(self, name: str | None = None) -> dict:
        """``GET /debug/slow``: flight-recorder entries, JSON-ready.

        With ``name`` the single-tenant document; without, every
        registered tenant keyed by name.  Never forces a lazy load.
        """
        if name is not None:
            return self._tenant_slow(self._entry(name))
        entries = self._snapshot_entries()
        return {
            "tenants": {
                entry.name: self._tenant_slow(entry)
                for entry in sorted(entries, key=lambda e: e.name)
            }
        }

    @staticmethod
    def _tenant_slow(entry: _TenantEntry) -> dict:
        service = entry.service
        if service is None:
            return {"loaded": False, "summary": None, "entries": []}
        return {
            "loaded": True,
            "summary": service.flight.summary(),
            "entries": service.flight.snapshot(),
        }
