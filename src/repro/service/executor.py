"""Order-preserving batch execution, serial or on a thread pool.

The paper's algorithms are pure functions of (graph, index, query):
per-query state (``close`` maps, checkers, heaps) is created inside each
``answer`` call and the graph/index are immutable after load, so the
members of a batch can run on a ``ThreadPoolExecutor`` with no locking
at all.  What the pool buys is *overlap of waiting*, not parallel
search: the evaluators are Python, and under the interpreter lock eight
searches on eight threads take as long as eight in a row — longer, in
fact, by the hand-offs.  A member waits when its answer is produced
elsewhere — a scatter round on shard workers — and while it waits
another member runs.  So :class:`BatchExecutor` has two modes:

* **serial** — ``max_workers=1``: a plain
  :class:`~repro.service.app.QueryService` runs its members in the
  request thread (its evaluators wait only on a ``V(S, G)`` leader,
  which another thread could not use under the interpreter lock), and
  settles the members the planner or the result cache can answer there
  too (:meth:`QueryService.query_batch`).  Empty and single-element
  batches run serially in either mode;
* **pool** — otherwise: a sharded service
  (:class:`~repro.shard.ShardedQueryService`) keeps one lazily built
  pool for its batch members, alive across requests until
  :meth:`BatchExecutor.shutdown`, so thread creation stays off the
  request path.

Either way results come back positionally aligned with the input batch,
whatever order the workers finished in, and a traced request sees the
fan-out as an ``executor`` span whose ``mode`` is ``serial`` or
``pool``.  Exceptions raised by any member propagate to the caller (the
service layer validates requests up front, so a worker exception is a
bug, not traffic).

The shard coordinator starts its worker calls one at a time on the same
kind of pool (:meth:`BatchExecutor.submit`), at any ``max_workers``.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterable
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import TypeVar

from repro.obs.trace import span

__all__ = ["BatchExecutor", "DEFAULT_MAX_WORKERS"]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

#: Mirrors ``ThreadPoolExecutor``'s own default sizing rule.
DEFAULT_MAX_WORKERS = min(32, (os.cpu_count() or 1) + 4)


class BatchExecutor:
    """Run work in input order: serially when ``max_workers == 1``,
    otherwise on one lazily built pool that lives until :meth:`shutdown`.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def __repr__(self) -> str:
        return f"BatchExecutor(max_workers={self.max_workers})"

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
        with span("executor", items=len(work), mode="pool"):
            futures = [self.submit(partial(fn, item)) for item in work]
            try:
                return [future.result() for future in futures]
            finally:
                for future in futures:  # members not started when one raised
                    future.cancel()

    def submit(self, fn: Callable[[], _ResultT]) -> Future:
        """Start ``fn()`` on the shared pool; a pool shut down under the
        call (``shutdown`` racing a straggler) is replaced by a fresh one.
        """
        pool = self._shared_pool()
        try:
            return pool.submit(fn)
        except RuntimeError:
            with self._pool_lock:
                if self._pool is pool:
                    self._pool = None
            return self._shared_pool().submit(fn)

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
        """Release the pool, if one was built (idempotent).

        Does not wait: a call still running — a worker call the
        coordinator abandoned at its bound, say — finishes on its own
        thread, and members already queued still run.
        """
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
