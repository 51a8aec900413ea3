"""UIS — the uninformed search of Algorithm 1.

UIS walks the label-feasible space once with a stack, evaluating ``SCck``
on each newly discovered vertex, and allows one *re-visit* per vertex:
when the frontier reaches ``v`` from a vertex already proved to lie on a
satisfying path (``close[u] = T``), ``v`` upgrades to ``T`` and is pushed
again (case 1); a vertex seen for the first time gets its own ``SCck``
verdict (case 2).  The search therefore traverses the graph at most
twice (Theorem 3.3: ``O(|V|·|S| + |E|)``) while still being able to
"recall" vertices — the capability plain DFS/BFS lacks (the
``v3 → v4 → v1 → v3 → v4`` example of Section 3).

UIS requires nothing beyond the graph itself — no SPARQL engine, no
index — which is why the paper positions it as the baseline for general
edge-labeled graphs.
"""

from __future__ import annotations

from repro.constraints.substructure import SubstructureChecker
from repro.core.base import LSCRAlgorithm
from repro.core.close import F, N, T
from repro.core.query import LSCRQuery
from repro.resilience.deadline import current_deadline

__all__ = ["UIS"]


class UIS(LSCRAlgorithm):
    """Algorithm 1: uninformed LSCR search with the ``close`` surjection."""

    name = "UIS"

    def _run(
        self,
        source: int,
        target: int,
        mask: int,
        query: LSCRQuery,
    ) -> tuple[bool, dict[str, float]]:
        graph = self.graph
        checker = SubstructureChecker(graph, query.constraint)
        # Allocation-free hot-loop state: the close surjection lives in a
        # bare bytearray (monotone by branch structure: case 1 only ever
        # raises to T, case 2 only writes over N) with passed_vertices
        # counted inline.  Expansion iterates flat target sequences —
        # contiguous CSR slices behind a vertex-mask pre-test on frozen
        # graphs.
        states = bytearray(graph.num_vertices)
        out_targets = graph.out_targets_masked
        # Request deadline: one ContextVar read up front; without a
        # deadline the loop pays a single `is not None` test per pop.
        deadline = current_deadline()

        stack = [source]                                   # line 1
        states[source] = T if checker(source) else F       # line 2
        passed = 1

        # Trivial path <s>: Q=(s,s,L,S) is true iff s satisfies S
        # (README.md, "the trivial path s = t"); cycles through
        # satisfying vertices are found by the main loop below.
        if source == target and states[source] == T:
            return True, self._telemetry(passed, checker)

        while stack:                                       # line 3
            if deadline is not None:
                deadline.check("uis", passed_vertices=passed)
            u = stack.pop()                                # line 4
            state_u = states[u]
            for v in out_targets(u, mask):                 # line 5
                state_v = states[v]
                if state_u == T and state_v != T:          # case 1 (line 6)
                    stack.append(v)
                    states[v] = T                          # line 7
                    if state_v == N:
                        passed += 1
                elif state_v == N:                         # case 2 (line 8)
                    stack.append(v)
                    states[v] = T if checker(v) else F     # line 9
                    passed += 1
                else:
                    continue
                if v == target and states[v] == T:         # lines 10-11
                    return True, self._telemetry(passed, checker)
        return False, self._telemetry(passed, checker)     # line 12

    @staticmethod
    def _telemetry(passed: int, checker: SubstructureChecker) -> dict[str, float]:
        return {
            "passed_vertices": passed,
            "scck_calls": checker.calls,
        }
