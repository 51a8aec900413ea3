"""Tests for descriptive graph statistics."""

import pytest

from repro.datasets.synthetic import star_graph
from repro.graph.stats import graph_stats, label_histogram
from tests.helpers import graph_from_edges


@pytest.fixture()
def triangle():
    return graph_from_edges([("a", "x", "b"), ("b", "x", "c"), ("c", "y", "a")])


class TestGraphStats:
    def test_basic_counts(self, triangle):
        stats = graph_stats(triangle)
        assert stats.num_vertices == 3
        assert stats.num_edges == 3
        assert stats.num_labels == 2
        assert stats.density == pytest.approx(1.0)
        assert stats.mean_degree == pytest.approx(2.0)

    def test_max_degrees(self):
        g = star_graph(5)
        stats = graph_stats(g)
        assert stats.max_out_degree == 5
        assert stats.max_in_degree == 1

    def test_gini_zero_for_regular_graph(self, triangle):
        assert graph_stats(triangle).degree_gini == pytest.approx(0.0, abs=1e-9)

    def test_gini_positive_for_star(self):
        # hub degree 10 vs ten degree-1 leaves: clearly skewed
        assert graph_stats(star_graph(10)).degree_gini > 0.3

    def test_empty_graph(self):
        from repro.graph.labeled_graph import KnowledgeGraph

        stats = graph_stats(KnowledgeGraph())
        assert stats.num_vertices == 0
        assert stats.mean_degree == 0.0
        assert stats.degree_gini == 0.0

    def test_describe_mentions_name(self, triangle):
        assert "test" in graph_stats(triangle).describe()


class TestHistograms:
    def test_label_histogram_sorted_by_count(self, triangle):
        histogram = label_histogram(triangle)
        assert list(histogram.items()) == [("x", 2), ("y", 1)]
