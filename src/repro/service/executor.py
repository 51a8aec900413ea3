"""Order-preserving batch execution in the request thread.

The served evaluators are pure functions of (graph, query): per-query
state (``close`` maps, checkers, heaps) is created inside each
``answer`` call and the graph is immutable after load.  The
evaluators are Python, and under the interpreter lock eight searches on
eight threads take as long as eight in a row — longer, by the
hand-offs — and a member waits only on a ``V(S, G)`` leader, which
another thread could not use either.  So :class:`BatchExecutor` runs
the members :meth:`QueryService.query_batch
<repro.service.app.QueryService.query_batch>` could not settle from the
planner or the result cache one after another, in the request thread.

Results come back positionally aligned with the input batch, and a
traced request sees the loop as an ``executor`` span (item count, mode
``serial``).  Exceptions raised by any member propagate to the caller
(the service layer validates requests up front, so a member exception
is a bug, not traffic).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TypeVar

from repro.obs.trace import span

__all__ = ["BatchExecutor"]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


class BatchExecutor:
    """Run a batch's members in input order, in the calling thread."""

    def __repr__(self) -> str:
        return "BatchExecutor()"

    def map(
        self,
        fn: Callable[[_ItemT], _ResultT],
        items: Iterable[_ItemT],
    ) -> list[_ResultT]:
        """``[fn(item) for item in items]`` under one ``executor`` span."""
        work = list(items)
        with span("executor", items=len(work), mode="serial"):
            return [fn(item) for item in work]
