"""Tests for graph views (reverse)."""

from repro.graph.views import reverse
from tests.helpers import graph_from_edges


class TestReverse:
    def test_edges_flipped(self):
        g = graph_from_edges([("a", "x", "b"), ("b", "y", "c")])
        r = reverse(g)
        assert r.has_edge_named("b", "x", "a")
        assert r.has_edge_named("c", "y", "b")
        assert r.num_edges == 2

    def test_vertex_and_label_ids_preserved(self):
        g = graph_from_edges([("a", "x", "b"), ("c", "y", "a"), ("b", "z", "c")])
        r = reverse(g)
        for name in ("a", "b", "c"):
            assert r.vid(name) == g.vid(name)
        for label in ("x", "y", "z"):
            assert r.label_id(label) == g.label_id(label)

    def test_masks_transfer(self):
        g = graph_from_edges([("a", "x", "b"), ("b", "y", "c")])
        mask = g.label_mask(["y"])
        r = reverse(g)
        c = g.vid("c")
        assert [s for _l, s in r.out_masked(c, mask)] == [g.vid("b")]

    def test_double_reverse_restores(self):
        g = graph_from_edges([("a", "x", "b"), ("b", "y", "c"), ("c", "z", "a")])
        rr = reverse(reverse(g))
        assert set(rr.edges_named()) == set(g.edges_named())

