"""Order-preserving batch execution over a thread pool.

The paper's algorithms are pure functions of (graph, index, query):
per-query state (``close`` maps, checkers, heaps) is created inside each
``answer`` call and the graph/index are immutable after load, so the
members of a batch can run on a ``ThreadPoolExecutor`` with no locking
at all.  What the pool buys is *overlap of waiting*, not parallel
search: the evaluators are Python, and under the interpreter lock eight
searches on eight threads take as long as eight in a row — longer, in
fact, by the hand-offs.  A member waits when its answer is produced
elsewhere — a scatter round on shard workers — and while it waits
another member runs.  So only a sharded service
(:class:`~repro.shard.ShardedQueryService`) keeps a persistent pool for
its batch members; a plain :class:`~repro.service.app.QueryService`
holds a ``max_workers=1`` executor, which runs its members in the
request thread (its evaluators wait only on a ``V(S, G)`` leader,
which another thread could not use under the interpreter lock), and
settles the members the planner or the result cache can answer there
too (:meth:`QueryService.query_batch`).
:class:`BatchExecutor` packages the pattern:

* **order preservation** — results come back positionally aligned with
  the input batch, whatever order the workers finished in;
* **constraint amortisation** — :meth:`run` prepares raw
  ``(source, target, labels, constraint_text)`` specs through the
  session's shared constraint cache *before* handing them out, so each
  distinct constraint text in the batch is parsed exactly once;
* **degenerate batches stay serial** — empty and single-element
  batches, and ``max_workers=1`` (a plain service's executor), skip
  thread-pool setup entirely and trace as ``mode="serial"``, so
  :meth:`LSCRSession.answer_many` costs nothing extra for small inputs.

Exceptions raised by any query propagate to the caller (the service
layer validates requests up front, so a worker exception is a bug, not
traffic).
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import Any, TypeVar

from repro.core.query import LSCRQuery
from repro.core.result import QueryResult
from repro.obs.trace import span

__all__ = ["BatchExecutor", "DEFAULT_MAX_WORKERS"]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

#: Mirrors ``ThreadPoolExecutor``'s own default sizing rule.
DEFAULT_MAX_WORKERS = min(32, (os.cpu_count() or 1) + 4)


class BatchExecutor:
    """Run work on a thread pool, returning results in input order.

    ``persistent=True`` keeps one lazily created pool alive across
    calls — right for a long-lived service, where a pool per request
    would put thread creation/teardown on the hot path.  The default
    tears the pool down after each call, so throwaway executors (one
    ``answer_many`` invocation) leave no idle threads behind.
    """

    def __init__(
        self, max_workers: int | None = None, *, persistent: bool = False
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.persistent = persistent
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def __repr__(self) -> str:
        return (
            f"BatchExecutor(max_workers={self.max_workers}, "
            f"persistent={self.persistent})"
        )

    def map(
        self,
        fn: Callable[[_ItemT], _ResultT],
        items: Iterable[_ItemT],
    ) -> list[_ResultT]:
        """``[fn(item) for item in items]``, concurrently, order kept.

        Traced requests see the fan-out as an ``executor`` span (item
        count + serial/pool mode).  Worker threads do not inherit the
        request context, so per-item spans are the *caller's* job: pass
        ``rearm(fn)`` (:func:`repro.context.rearm`) to stitch item spans
        into the request's trace (the service's batch path does).
        """
        work = list(items)
        if len(work) <= 1 or self.max_workers == 1:
            with span("executor", items=len(work), mode="serial"):
                return [fn(item) for item in work]
        if self.persistent:
            with span("executor", items=len(work), mode="pool"):
                return list(self._shared_pool().map(fn, work))
        workers = min(self.max_workers or DEFAULT_MAX_WORKERS, len(work))
        with span("executor", items=len(work), mode="pool"):
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-batch"
            ) as pool:
                return list(pool.map(fn, work))

    def _shared_pool(self) -> ThreadPoolExecutor:
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = self._pool = ThreadPoolExecutor(
                        max_workers=self.max_workers or DEFAULT_MAX_WORKERS,
                        thread_name_prefix="repro-batch",
                    )
        return pool

    def shutdown(self) -> None:
        """Release the persistent pool (no-op otherwise; idempotent)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def run(
        self,
        session: Any,
        queries: Iterable[LSCRQuery | Sequence],
    ) -> list[QueryResult]:
        """Answer a batch on an :class:`~repro.session.LSCRSession`.

        Accepts prepared :class:`LSCRQuery` objects or raw
        ``(source, target, labels, constraint)`` tuples; raw specs are
        prepared serially first so the session's constraint cache parses
        each distinct constraint text once, then answering fans out.
        """
        prepared = [
            query if isinstance(query, LSCRQuery) else session.make_query(*query)
            for query in queries
        ]
        return self.map(session.answer, prepared)
