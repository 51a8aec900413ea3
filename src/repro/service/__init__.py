"""repro.service — a concurrent LSCR query service.

The serving layer the one-shot APIs (``LSCRSession.ask``,
``python -m repro query``) lack: load a graph once, then answer
sustained traffic from many threads.  It serves index-free: every
evaluator but INS may be named per request, and INS runs in
``python -m repro query --algorithm ins``.  The pieces compose in
one direction:

========================  =============================================
:mod:`~.planner`          canonical cache keys, trivial answers,
                          algorithm choice
:mod:`~.cache`            one bounded store: result, parse-once
                          constraint and ``V(S, G)`` caches
:mod:`~.executor`         order-preserving concurrent batch execution
:mod:`~.stats`            thread-safe service telemetry
:mod:`~.app`              :class:`QueryService` — planner + caches +
                          session pool + executor + stats
:mod:`~.registry`         :class:`TenantRegistry` — many tenants
                          (one graph each), lazy warm start,
                          cross-tenant aggregation
:mod:`~.http`             stdlib JSON endpoints (``POST /query``,
                          ``POST /batch``, ``GET /stats``,
                          ``GET /healthz``, ``/t/<tenant>/...``,
                          ``GET|POST /tenants``)
========================  =============================================

Start one from the CLI with ``python -m repro serve --graph g.tsv``
(add ``--tenant name=g2.tsv`` for more graphs) or embed it::

    from repro.service import QueryService, TenantRegistry, create_server

    registry = TenantRegistry()
    registry.add("default", QueryService.from_files("g.tsv"))
    registry.register_files("yago", "yago.tsv")    # lazy warm start
    server = create_server(registry, port=0)       # ephemeral port
    server.serve_forever()

Attribute access is lazy (PEP 562): :mod:`repro.session` imports the
cache/executor submodules while :mod:`~.app` imports the session back,
and a lazy package namespace keeps that cycle acyclic at import time.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

_EXPORTS = {
    "BatchExecutor": "repro.service.executor",
    "CacheStats": "repro.service.cache",
    "CandidateCache": "repro.service.cache",
    "CanonicalKey": "repro.service.planner",
    "ConstraintCache": "repro.service.cache",
    "GraphEpoch": "repro.service.epoch",
    "KeyedQuery": "repro.service.planner",
    "QueryPlan": "repro.service.planner",
    "QueryPlanner": "repro.service.planner",
    "QueryService": "repro.service.app",
    "ResultCache": "repro.service.cache",
    "ServiceHTTPServer": "repro.service.http",
    "ServiceStats": "repro.service.stats",
    "TenantRegistry": "repro.service.registry",
    "create_server": "repro.service.http",
    "merge_snapshots": "repro.service.stats",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.service' has no attribute {name!r}") from None
    return getattr(import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
