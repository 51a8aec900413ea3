"""Descriptive statistics of a knowledge graph.

Used by the benchmark harness to print the dataset table (the |V| / |E| /
density columns of Table 2) and by tests asserting that the synthetic
generators produce the intended profiles (e.g. the YAGO substitute is
scale-free: a heavy-tailed degree distribution).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.labeled_graph import KnowledgeGraph

__all__ = ["GraphStats", "graph_stats", "label_histogram"]


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of one graph."""

    name: str
    num_vertices: int
    num_edges: int
    num_labels: int
    density: float
    max_out_degree: int
    max_in_degree: int
    mean_degree: float
    degree_gini: float
    label_counts: dict[str, int] = field(repr=False, default_factory=dict)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: |V|={self.num_vertices:,} |E|={self.num_edges:,} "
            f"|L|={self.num_labels} D={self.density:.2f} "
            f"max_deg(out/in)={self.max_out_degree}/{self.max_in_degree} "
            f"gini={self.degree_gini:.2f}"
        )


def graph_stats(graph: KnowledgeGraph) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph``."""
    n = graph.num_vertices
    out_degrees = [graph.out_degree(v) for v in graph.vertices()]
    in_degrees = [graph.in_degree(v) for v in graph.vertices()]
    totals = [o + i for o, i in zip(out_degrees, in_degrees)]
    label_counts = {
        graph.label_name(label_id): graph.label_frequency(label_id)
        for label_id in range(graph.num_labels)
    }
    return GraphStats(
        name=graph.name,
        num_vertices=n,
        num_edges=graph.num_edges,
        num_labels=graph.num_labels,
        density=graph.density(),
        max_out_degree=max(out_degrees, default=0),
        max_in_degree=max(in_degrees, default=0),
        mean_degree=(sum(totals) / n) if n else 0.0,
        degree_gini=_gini(totals),
        label_counts=label_counts,
    )


def label_histogram(graph: KnowledgeGraph) -> dict[str, int]:
    """Histogram ``label -> edge count`` sorted by decreasing count."""
    counts = {
        graph.label_name(label_id): graph.label_frequency(label_id)
        for label_id in range(graph.num_labels)
    }
    return dict(sorted(counts.items(), key=lambda item: (-item[1], item[0])))


def _gini(values: list[int]) -> float:
    """Gini coefficient of a degree sequence (0 = uniform, →1 = hub-heavy)."""
    if not values:
        return 0.0
    total = sum(values)
    if total == 0:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    cumulative = 0.0
    for rank, value in enumerate(ordered, start=1):
        cumulative += rank * value
    return (2.0 * cumulative) / (n * total) - (n + 1.0) / n
