"""Tests for the plain LCR primitives."""

from repro.core.lcr import (
    bfs_distance_ring,
    lcr_closure,
    lcr_reachable,
)
from repro.datasets.synthetic import cycle_graph, line_graph
from tests.helpers import graph_from_edges


def masked(graph, labels):
    return graph.label_mask(labels)


class TestReachable:
    def test_direct_edge(self):
        g = graph_from_edges([("a", "x", "b")])
        assert lcr_reachable(g, g.vid("a"), g.vid("b"), masked(g, ["x"]))

    def test_label_blocks_path(self):
        g = graph_from_edges([("a", "x", "b"), ("b", "y", "c")])
        assert not lcr_reachable(g, g.vid("a"), g.vid("c"), masked(g, ["x"]))
        assert lcr_reachable(g, g.vid("a"), g.vid("c"), masked(g, ["x", "y"]))

    def test_trivial_path(self):
        g = graph_from_edges([("a", "x", "b")])
        assert lcr_reachable(g, g.vid("a"), g.vid("a"), 0)

    def test_cycle(self):
        g = cycle_graph(5)
        mask = g.label_mask(["next"])
        assert lcr_reachable(g, g.vid("n0"), g.vid("n4"), mask)
        assert lcr_reachable(g, g.vid("n4"), g.vid("n0"), mask)

    def test_direction_matters(self):
        g = line_graph(3)
        mask = g.label_mask(["next"])
        assert lcr_reachable(g, g.vid("n0"), g.vid("n3"), mask)
        assert not lcr_reachable(g, g.vid("n3"), g.vid("n0"), mask)


class TestClosure:
    def test_closure_includes_source(self):
        g = graph_from_edges([("a", "x", "b")])
        assert g.vid("a") in lcr_closure(g, g.vid("a"), 0)

    def test_closure_respects_mask(self):
        g = graph_from_edges([("a", "x", "b"), ("a", "y", "c")])
        closure = lcr_closure(g, g.vid("a"), masked(g, ["x"]))
        assert closure == {g.vid("a"), g.vid("b")}

    def test_closure_full(self):
        g = cycle_graph(4)
        closure = lcr_closure(g, 0, g.labels.full_mask())
        assert len(closure) == 4


class TestDistanceRing:
    def test_rounds_limit_depth(self):
        g = line_graph(5)
        mask = g.label_mask(["next"])
        explored, frontier = bfs_distance_ring(g, g.vid("n0"), mask, 2)
        assert explored == {g.vid("n0"), g.vid("n1"), g.vid("n2")}
        assert frontier == [g.vid("n2")]

    def test_exhausted_frontier_is_empty(self):
        g = line_graph(2)
        mask = g.label_mask(["next"])
        explored, frontier = bfs_distance_ring(g, g.vid("n0"), mask, 10)
        assert frontier == []
        assert len(explored) == 3

    def test_zero_rounds(self):
        g = line_graph(3)
        explored, frontier = bfs_distance_ring(g, g.vid("n0"), 0, 0)
        assert explored == {g.vid("n0")}
        assert frontier == [g.vid("n0")]
