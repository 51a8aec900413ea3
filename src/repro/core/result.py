"""Query answers with the measurements the paper reports.

Section 6 evaluates two quantities per query group: the average running
time and the average number of vertices whose ``close`` state is not
``N`` ("passed vertices").  :class:`QueryResult` carries both, plus
secondary counters that the discussion sections refer to (``SCck``
invocations for UIS, |V(S,G)| and the subgraph-matching time for
UIS*/INS, index-pruning hits for INS).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.witness import WitnessPath

__all__ = ["QueryResult", "ResultAggregate"]


@dataclass(frozen=True)
class QueryResult:
    """The outcome of answering one LSCR query with one algorithm."""

    answer: bool
    algorithm: str
    #: Wall-clock seconds for the search itself (excludes index build,
    #: includes the V(S,G) computation for UIS*/INS, as in the paper).
    seconds: float
    #: Vertices whose ``close`` state differs from ``N`` on return.
    passed_vertices: int
    #: ``SCck`` invocations (UIS; zero for the V(S,G)-based algorithms).
    scck_calls: int = 0
    #: Size of ``V(S, G)`` (UIS*/INS/Meet; -1 when not computed).
    vsg_size: int = -1
    #: Seconds spent obtaining ``V(S, G)`` via the SPARQL engine.
    vsg_seconds: float = 0.0
    #: Invocations of the ``LCS`` subroutine (UIS*/INS); for Meet, the
    #: plain-LCR legs its legs plan ran (0: the meet plan).
    lcs_calls: int = 0
    #: Vertices resolved from the local index instead of traversal (INS:
    #: sum of ``Cut`` marks, ``Push`` enqueues and ``Check`` hits).
    index_resolutions: int = 0
    #: The path a True answer was proved by, when the evaluator walked
    #: one (UIS*, Meet); None otherwise.  Evidence, not part of the answer:
    #: excluded from equality and never serialised by the service.
    witness: WitnessPath | None = field(default=None, compare=False, repr=False)

    def __bool__(self) -> bool:
        return self.answer


@dataclass
class ResultAggregate:
    """Streaming mean of results for one (algorithm, query group) cell."""

    algorithm: str = ""
    count: int = 0
    total_seconds: float = 0.0
    total_passed: int = 0
    true_answers: int = 0
    results: list[QueryResult] = field(default_factory=list, repr=False)
    keep_results: bool = False

    def add(self, result: QueryResult) -> None:
        """Fold one result into the aggregate."""
        if not self.algorithm:
            self.algorithm = result.algorithm
        self.count += 1
        self.total_seconds += result.seconds
        self.total_passed += result.passed_vertices
        if result.answer:
            self.true_answers += 1
        if self.keep_results:
            self.results.append(result)

    @property
    def mean_seconds(self) -> float:
        """Average running time (the paper's first metric)."""
        return self.total_seconds / self.count if self.count else 0.0

    @property
    def mean_milliseconds(self) -> float:
        """Average running time in ms (the unit of Figures 10–15)."""
        return self.mean_seconds * 1000.0

    @property
    def mean_passed_vertices(self) -> float:
        """Average passed-vertex number (the paper's second metric)."""
        return self.total_passed / self.count if self.count else 0.0

    def merge(self, other: "ResultAggregate") -> None:
        """Fold another aggregate in.

        Used to combine aggregates accumulated independently into one
        cell without replaying individual results.
        """
        if not self.algorithm:
            self.algorithm = other.algorithm
        self.count += other.count
        self.total_seconds += other.total_seconds
        self.total_passed += other.total_passed
        self.true_answers += other.true_answers
        if self.keep_results and other.results:
            self.results.extend(other.results)

    def as_dict(self) -> dict[str, float | int | str]:
        """JSON-ready summary (the service's ``GET /stats`` payload)."""
        return {
            "algorithm": self.algorithm,
            "count": self.count,
            "true_answers": self.true_answers,
            "total_seconds": self.total_seconds,
            "mean_milliseconds": self.mean_milliseconds,
            "mean_passed_vertices": self.mean_passed_vertices,
        }
