"""Span recording around the server's public entry points, and the
self-time arithmetic over the recorded spans.

The traced run wraps each layer boundary from *outside* the program
(``install`` monkey-patches the entry points listed in ``_METHODS`` /
``_FUNCTIONS``); nothing under ``src/`` knows about it.  A span is
``[name, start, end, id, parent, request, tag]``: times are
``time.perf_counter()`` (CLOCK_MONOTONIC, shared by every process on the
machine, so client and server spans are comparable), ``request`` is the
id the client sent in ``X-Ladder-Request`` (else the root span's id).
Spans stay in memory and are written once, at shutdown.

Work handed to a ``ThreadPoolExecutor`` (batch members, scatter rounds)
adopts the submitting thread's current span as its parent.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable

#: Carries the client's request id into the traced server, so the
#: server-side handler span can be joined to the client-side latency.
REQUEST_ID_HEADER = "X-Ladder-Request"

#: span name -> (module, class, method)
_METHODS = {
    "http.do_POST": ("repro.service.http", "ServiceRequestHandler", "do_POST"),
    "app.handle_query": ("repro.service.app", "QueryService", "handle_query"),
    "app.handle_batch": ("repro.service.app", "QueryService", "handle_batch"),
    "app.handle_updates": ("repro.service.app", "QueryService", "handle_updates"),
    "app.query": ("repro.service.app", "QueryService", "query"),
    "updates.apply": ("repro.service.app", "QueryService", "apply_updates"),
    "planner.plan": ("repro.service.planner", "QueryPlanner", "plan"),
    "result_cache.get": ("repro.service.cache", "ResultCache", "get"),
    "result_cache.put": ("repro.service.cache", "ResultCache", "put"),
    "candidate_cache.get": ("repro.service.cache", "CandidateCache", "get"),
    "constraints.vsg": (
        "repro.constraints.substructure", "SubstructureConstraint",
        "satisfying_vertices",
    ),
    "approx.decide": ("repro.approx.router", "ApproxRouter", "decide"),
    "approx.remember_witness": (
        "repro.approx.router", "ApproxRouter", "remember_witness"
    ),
    "core.answer": ("repro.session", "LSCRSession", "answer"),
    "graph.copy": ("repro.graph.labeled_graph", "KnowledgeGraph", "copy"),
    "index.repair": ("repro.index.local_index", "LocalIndex", "refresh_regions"),
    "shard.answer": ("repro.shard.coordinator", "ShardCoordinator", "answer"),
    "shard.expand": ("repro.shard.worker", "HttpShardWorker", "expand"),
    "shard.worker_expand": ("repro.shard.worker", "ShardWorker", "handle_expand"),
    "shard.worker_query": ("repro.shard.worker", "ShardWorker", "handle_query"),
    "executor.map": ("repro.service.executor", "BatchExecutor", "map"),
}

#: span name -> (defining module, function); every ``from m import f``
#: binding inside ``repro`` is rebound too.
_FUNCTIONS = {
    "graph.load": ("repro.graph.io", "load_tsv"),
    "graph.freeze": ("repro.graph.csr", "freeze_graph"),
    "index.build": ("repro.index.local_index", "build_local_index"),
    "approx.bounds_build": ("repro.approx.bounds", "build_bounds"),
    # The witness search is core's code even though approx calls it.
    "core.find_witness": ("repro.core.witness", "find_witness"),
}

class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self) -> tuple[int, int] | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def adopt(self, top: tuple[int, int]):
        """Run the block as a child of a span opened on another thread."""
        stack = self._stack()
        stack.append(top)
        try:
            yield
        finally:
            stack.pop()

    @contextmanager
    def span(self, name: str, request: int | None = None, tag: str = ""):
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (0, 0)
        span_id = next(self._ids)
        entry = (span_id, request or inherited or span_id)
        stack.append(entry)
        started = time.perf_counter()
        try:
            yield entry
        finally:
            ended = time.perf_counter()
            stack.pop()
            self.spans.append((name, started, ended, span_id, parent, entry[1], tag))

    def wrap(self, name: str, function: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return function(*args, **kwargs)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"missing": self.missing, "spans": self.spans}, handle)


def install(recorder: Recorder) -> None:
    """Wrap every entry point that still exists; note the ones that do not."""
    for name, (module_name, class_name, method) in _METHODS.items():
        try:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[method]
        except (ImportError, AttributeError, KeyError):
            recorder.missing.append(name)
            continue
        special = _SPECIAL_WRAPPERS.get(name)
        wrap = partial(special, recorder) if special else partial(recorder.wrap, name)
        setattr(owner, method, wrap(original))
    for name, (module_name, function) in _FUNCTIONS.items():
        try:
            original = getattr(importlib.import_module(module_name), function)
        except (ImportError, AttributeError):
            recorder.missing.append(name)
            continue
        wrapped = recorder.wrap(name, original)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapped)
    ThreadPoolExecutor.submit = _wrap_submit(  # type: ignore[method-assign]
        recorder, ThreadPoolExecutor.submit
    )


def _wrap_do_post(recorder: Recorder, original: Callable) -> Callable:
    def do_post(handler: Any) -> None:
        raw = handler.headers.get(REQUEST_ID_HEADER)
        request = int(raw) if raw and raw.isdigit() else None
        with recorder.span("http.do_POST", request, handler.path):
            original(handler)

    return do_post


def _wrap_executor_map(recorder: Recorder, original: Callable) -> Callable:
    def traced_map(executor: Any, function: Callable, items: Any) -> Any:
        member = recorder.wrap("executor.member", function)
        with recorder.span("executor.map"):
            return original(executor, member, items)

    return traced_map


def _wrap_submit(recorder: Recorder, original: Callable) -> Callable:
    def submit(pool: Any, function: Callable, /, *args: Any, **kwargs: Any) -> Any:
        top = recorder.top()
        if top is None:
            return original(pool, function, *args, **kwargs)

        def adopted(*inner: Any, **named: Any) -> Any:
            with recorder.adopt(top):
                return function(*inner, **named)

        return original(pool, adopted, *args, **kwargs)

    return submit


#: Entry points whose span needs more than a name: the request id and
#: path, the hand-off of batch members.
_SPECIAL_WRAPPERS = {"http.do_POST": _wrap_do_post, "executor.map": _wrap_executor_map}


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


class SpanTable:
    """Recorded spans of one process, with self times and ancestry."""

    def __init__(self, spans: list, missing: list[str] | None = None) -> None:
        self.missing = list(missing or [])
        self.rows = [tuple(row) for row in spans]
        self.by_id = {row[3]: row for row in self.rows}
        self._by_name: dict[str, list[tuple]] = defaultdict(list)
        for row in self.rows:
            self._by_name[row[0]].append(row)
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for row in self.rows:
            if row[4]:
                children[row[4]].append((row[1], row[2]))
        self.self_s = {
            row[3]: self_time(row[1], row[2], children.get(row[3], ()))
            for row in self.rows
        }

    @classmethod
    def load(cls, path: str) -> "SpanTable":
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        return cls(document["spans"], document["missing"])

    def named(self, name: str) -> list[tuple]:
        return self._by_name.get(name, [])

    def under(self, row: tuple, ancestor: str) -> bool:
        """Is some proper ancestor of ``row`` a span called ``ancestor``?"""
        parent = self.by_id.get(row[4])
        while parent is not None:
            if parent[0] == ancestor:
                return True
            parent = self.by_id.get(parent[4])
        return False


def self_time(start: float, end: float, children) -> float:
    """Duration minus the part of ``[start, end]`` the children cover.

    Children may overlap (parallel batch members) and may stick out of
    the parent (a pool thread finishing late); the union is clipped.
    """
    covered = 0.0
    reach = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, reach)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            reach = child_end
    return (end - start) - covered
