"""Tests for the core knowledge-graph structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import VertexNotFoundError
from repro.graph.labeled_graph import KnowledgeGraph
from tests.helpers import graph_from_edges


@pytest.fixture()
def small() -> KnowledgeGraph:
    return graph_from_edges(
        [
            ("a", "x", "b"),
            ("a", "y", "b"),
            ("b", "x", "c"),
            ("c", "z", "a"),
        ]
    )


class TestConstruction:
    def test_add_vertex_is_idempotent(self):
        g = KnowledgeGraph()
        first = g.add_vertex("v")
        assert g.add_vertex("v") == first
        assert g.num_vertices == 1

    def test_vertex_ids_are_dense(self):
        g = KnowledgeGraph()
        ids = [g.add_vertex(f"v{i}") for i in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_edge_set_semantics(self):
        g = KnowledgeGraph()
        assert g.add_edge("a", "x", "b") is True
        assert g.add_edge("a", "x", "b") is False  # E is a set
        assert g.num_edges == 1

    def test_parallel_edges_with_distinct_labels(self, small):
        assert small.has_edge_named("a", "x", "b")
        assert small.has_edge_named("a", "y", "b")
        assert small.num_edges == 4

    def test_self_loop_allowed(self):
        g = KnowledgeGraph()
        assert g.add_edge("a", "x", "a") is True
        assert g.has_edge_named("a", "x", "a")

    def test_add_edge_interns_vertices_and_labels(self):
        g = KnowledgeGraph()
        g.add_edge("s", "l", "t")
        assert g.num_vertices == 2
        assert g.num_labels == 1

    def test_repr_mentions_sizes(self, small):
        text = repr(small)
        assert "|V|=3" in text
        assert "|E|=4" in text


class TestLookup:
    def test_vid_roundtrip(self, small):
        for name in ("a", "b", "c"):
            assert small.name_of(small.vid(name)) == name

    def test_vid_unknown_raises(self, small):
        with pytest.raises(VertexNotFoundError):
            small.vid("zz")

    def test_name_of_out_of_range_raises(self, small):
        with pytest.raises(VertexNotFoundError):
            small.name_of(99)

    def test_contains(self, small):
        assert "a" in small
        assert "zz" not in small

    def test_label_mask(self, small):
        mask = small.label_mask(["x", "z"])
        assert mask == (1 << small.label_id("x")) | (1 << small.label_id("z"))


class TestIteration:
    def test_edges_cover_everything(self, small):
        edges = set(small.edges_named())
        assert edges == {
            ("a", "x", "b"),
            ("a", "y", "b"),
            ("b", "x", "c"),
            ("c", "z", "a"),
        }

    def test_out_edges(self, small):
        a = small.vid("a")
        targets = sorted(
            (small.label_name(l), small.name_of(t)) for l, t in small.out_edges(a)
        )
        assert targets == [("x", "b"), ("y", "b")]

    def test_in_edges(self, small):
        b = small.vid("b")
        sources = sorted(
            (small.label_name(l), small.name_of(s)) for l, s in small.in_edges(b)
        )
        assert sources == [("x", "a"), ("y", "a")]

    def test_out_masked_filters_labels(self, small):
        a = small.vid("a")
        mask = small.label_mask(["y"])
        edges = [(l, t) for l, t in small.out_masked(a, mask)]
        assert edges == [(small.label_id("y"), small.vid("b"))]

    def test_out_masked_empty_mask(self, small):
        assert list(small.out_masked(small.vid("a"), 0)) == []

    def test_in_masked(self, small):
        a = small.vid("a")
        mask = small.label_mask(["z"])
        assert [s for _l, s in small.in_masked(a, mask)] == [small.vid("c")]

    def test_edges_with_label(self, small):
        x = small.label_id("x")
        pairs = {(small.name_of(s), small.name_of(t)) for s, t in small.edges_with_label(x)}
        assert pairs == {("a", "b"), ("b", "c")}

    def test_out_labels(self, small):
        a = small.vid("a")
        names = {small.label_name(l) for l in small.out_labels(a)}
        assert names == {"x", "y"}


class TestDegreesAndStats:
    def test_degrees(self, small):
        a, b = small.vid("a"), small.vid("b")
        assert small.out_degree(a) == 2
        assert small.in_degree(a) == 1
        assert small.degree(b) == 3

    def test_label_frequency(self, small):
        assert small.label_frequency(small.label_id("x")) == 2
        assert small.label_frequency(small.label_id("z")) == 1

    def test_density(self, small):
        assert small.density() == pytest.approx(4 / 3)

    def test_density_of_empty_graph(self):
        assert KnowledgeGraph().density() == 0.0

    def test_labels_between(self, small):
        a, b = small.vid("a"), small.vid("b")
        mask = small.labels_between(a, b)
        assert set(small.mask_labels(mask)) == {"x", "y"}
        assert small.labels_between(b, a) == 0

    def test_has_edge_named_unknown_parts(self, small):
        assert not small.has_edge_named("zz", "x", "b")
        assert not small.has_edge_named("a", "nope", "b")
        assert not small.has_edge_named("a", "x", "zz")


class TestEdgeRemoval:
    def test_remove_edge_reverts_all_bookkeeping(self, small):
        a, b = small.vid("a"), small.vid("b")
        x = small.label_id("x")
        assert small.remove_edge("a", "x", "b") is True
        assert not small.has_edge(a, x, b)
        assert small.num_edges == 3
        assert small.out_degree(a) == 1
        assert small.in_degree(b) == 1
        assert b not in small.out_by_label(a, x)
        assert (a, b) not in small.edges_with_label(x)
        assert small.label_frequency(x) == 1
        assert set(small.mask_labels(small.labels_between(a, b))) == {"y"}

    def test_remove_absent_or_unknown_is_false(self, small):
        assert small.remove_edge("a", "x", "c") is False
        assert small.remove_edge("zz", "x", "b") is False
        assert small.remove_edge("a", "nope", "b") is False
        assert small.num_edges == 4

    def test_remove_then_readd_roundtrips(self, small):
        assert small.remove_edge("b", "x", "c")
        assert small.add_edge("b", "x", "c")
        assert small.has_edge_named("b", "x", "c")
        assert small.num_edges == 4

    def test_vertices_survive_removal(self, small):
        small.remove_edge("c", "z", "a")
        assert small.has_vertex("c")
        assert small.label_frequency(small.label_id("z")) == 0
        # Removing a label's last edge drops its per-label bookkeeping
        # entirely (no empty stubs left behind in either row).
        z = small.label_id("z")
        assert small.edges_with_label(z) == []
        assert small.out_label_count(small.vid("c"), z) == 0
        assert small.in_label_count(small.vid("a"), z) == 0
        assert not small.out_label_mask(small.vid("c")) >> z & 1
        assert not small.in_label_mask(small.vid("a")) >> z & 1


class TestMutationCount:
    def test_effective_mutations_bump_the_counter(self):
        g = KnowledgeGraph()
        assert g.mutation_count == 0
        g.add_edge("a", "x", "b")  # two vertex interns + one edge
        assert g.mutation_count == 3
        before = g.mutation_count
        g.add_edge("a", "x", "b")  # duplicate: no-op
        g.add_vertex("a")  # already interned: no-op
        assert g.mutation_count == before
        g.remove_edge("a", "x", "b")
        assert g.mutation_count == before + 1

    def test_copy_is_independent(self, small):
        clone = small.copy()
        assert clone.num_vertices == small.num_vertices
        assert clone.num_edges == small.num_edges
        assert [clone.vid(n) for n in small.vertex_names()] == list(
            small.vertices()
        )
        clone.add_edge("a", "x", "c")
        clone.add_edge("new", "w", "a")
        assert not small.has_edge_named("a", "x", "c")
        assert not small.has_vertex("new")
        assert "w" not in small.labels
        small.remove_edge("a", "y", "b")
        assert clone.has_edge_named("a", "y", "b")


class TestContentFingerprint:
    def test_equal_graphs_equal_fingerprints(self, small):
        other = graph_from_edges(
            [("a", "x", "b"), ("a", "y", "b"), ("b", "x", "c"), ("c", "z", "a")]
        )
        assert small.content_fingerprint() == other.content_fingerprint()
        assert small.copy().content_fingerprint() == small.content_fingerprint()

    def test_same_sizes_different_edges_differ(self):
        # Identical (|V|, |E|, |L|) but a different adjacency: exactly
        # the case the size-only snapshot identity used to wave through.
        first = graph_from_edges([("a", "x", "b"), ("b", "x", "c")])
        second = graph_from_edges([("a", "x", "b"), ("a", "x", "c")],
                                  vertices=["a", "b", "c"])
        assert first.num_vertices == second.num_vertices
        assert first.num_edges == second.num_edges
        assert first.num_labels == second.num_labels
        assert first.content_fingerprint() != second.content_fingerprint()

    def test_mutation_changes_fingerprint(self, small):
        before = small.content_fingerprint()
        small.remove_edge("a", "x", "b")
        small.add_edge("a", "x", "c")  # same sizes, different edges
        assert small.content_fingerprint() != before

    def test_single_edge_move_on_large_graph_detected(self):
        # Regression: the digest must cover *every* edge — a sampled
        # variant missed a one-edge move on a 2000-vertex chain and
        # false-accepted a stale warm-cache snapshot.
        def build(move_target):
            g = KnowledgeGraph("snap")
            for i in range(2000):
                g.add_vertex(f"n{i}")
            for i in range(1999):
                g.add_edge(f"n{i}", "l", f"n{i + 1}")
            g.remove_edge("n5", "l", "n6")
            g.add_edge("n5", "l", f"n{move_target}")
            return g

        original, moved = build(6), build(100)
        assert original.num_edges == moved.num_edges
        assert original.content_fingerprint() != moved.content_fingerprint()

    def test_fingerprint_is_edge_order_insensitive(self, small):
        # Same interning (vertex and label ids fixed up front), same
        # edge set, different insertion order: identical digest.
        reordered = KnowledgeGraph("test")
        for vertex in ("a", "b", "c"):
            reordered.add_vertex(vertex)
        for label in ("x", "y", "z"):
            reordered.labels.intern(label)
        for edge in [("c", "z", "a"), ("b", "x", "c"), ("a", "y", "b"),
                     ("a", "x", "b")]:
            reordered.add_edge(*edge)
        assert reordered.content_fingerprint() == small.content_fingerprint()


#: Vertex and label names the property adds edges between; 12 vertices,
#: so a fan from one of them is a group of more than 8 targets.
POOL = ["h", "k", "v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7", 0, 1]
POOL_LABELS = ["x", "y", "z"]
#: Names that are never interned: every probe of them is a miss.
GHOSTS = ["ghost", 2]
GHOST_LABELS = ["zz"]
#: Interns every pool name and label, in this order, through edges at a
#: reserved vertex and label that no operation touches — so a fresh
#: ``from_triples`` build of the model interns exactly as the graph does.
SPINE = [("@", "@", v) for v in POOL] + [("@", label, "@") for label in POOL_LABELS]

KINDS = ["add", "add_ids", "remove", "remove_ids", "remove_present",
         "duplicate", "fan_out", "fan_in"]


class TestEdgeBookkeepingAgainstASet:
    """The mutable graph keeps each edge in its two rows only; every
    membership, count, scan and fingerprint answer it gives must be the
    one a plain Python set of its edges gives."""

    @staticmethod
    def step(graph, model, kind, a, b, c):
        """Apply one drawn operation to the graph and the model; the
        graph's return values must be the model's."""
        vertices, labels = POOL + GHOSTS, POOL_LABELS + GHOST_LABELS
        source, label, target = POOL[a % 12], POOL_LABELS[b % 3], POOL[c % 12]
        if kind in ("remove_present", "duplicate") and not model - set(SPINE):
            return
        if kind == "add":
            expected = (source, label, target) not in model
            assert graph.add_edge(source, label, target) is expected
            model.add((source, label, target))
        elif kind == "add_ids":
            expected = (source, label, target) not in model
            ids = (graph.vid(source), graph.label_id(label), graph.vid(target))
            assert graph.add_edge_ids(*ids) is expected
            model.add((source, label, target))
        elif kind == "remove":
            # Misses on unknown names and labels included.
            edge = (vertices[a % 14], labels[b % 4], vertices[c % 14])
            assert graph.remove_edge(*edge) is (edge in model)
            model.discard(edge)
        elif kind == "remove_ids":
            expected = (source, label, target) in model
            ids = (graph.vid(source), graph.label_id(label), graph.vid(target))
            assert graph.remove_edge_ids(*ids) is expected
            model.discard((source, label, target))
        elif kind in ("remove_present", "duplicate"):
            present = sorted(model - set(SPINE), key=repr)
            edge = present[a % len(present)]
            if kind == "remove_present":
                assert graph.remove_edge(*edge) is True
                model.discard(edge)
            else:
                assert graph.add_edge(*edge) is False
        elif kind == "fan_out":
            for vertex in POOL:  # self-loop included
                expected = (source, label, vertex) not in model
                assert graph.add_edge(source, label, vertex) is expected
                model.add((source, label, vertex))
        else:  # fan_in
            for vertex in POOL:
                expected = (vertex, label, target) not in model
                assert graph.add_edge(vertex, label, target) is expected
                model.add((vertex, label, target))

    @staticmethod
    def check(graph, model):
        assert graph.num_edges == len(model)
        names, label_names = list(graph.vertex_names()), list(graph.labels.names())
        assert names == ["@", *POOL]
        assert label_names == ["@", *POOL_LABELS]
        for label_id, label in enumerate(label_names):
            pairs = {(graph.vid(s), graph.vid(t)) for s, l, t in model if l == label}
            assert graph.label_frequency(label_id) == len(pairs)
            found = graph.edges_with_label(label_id)
            assert len(found) == len(pairs) and set(found) == pairs
        for source in POOL + GHOSTS:
            for label in POOL_LABELS + GHOST_LABELS:
                for target in POOL + GHOSTS:
                    edge = (source, label, target)
                    assert graph.has_edge_named(*edge) is (edge in model)
                    if source in graph and target in graph and label in graph.labels:
                        s, t = graph.vid(source), graph.vid(target)
                        label_id = graph.label_id(label)
                        assert graph.has_edge(s, label_id, t) is (edge in model)
        for s in graph.vertices():
            for t in graph.vertices():
                expected = 0
                for label_id, label in enumerate(label_names):
                    if (names[s], label, names[t]) in model:
                        expected |= 1 << label_id
                assert graph.labels_between(s, t) == expected
        assert graph.content_fingerprint() == graph.scan_fingerprint()
        added = sorted(model - set(SPINE), key=repr)
        fresh = KnowledgeGraph.from_triples(SPINE + added)
        assert graph.content_fingerprint() == fresh.content_fingerprint()

    @settings(max_examples=max(100, settings().max_examples), deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(KINDS),
                st.integers(0, 2**8),
                st.integers(0, 2**8),
                st.integers(0, 2**8),
            ),
            max_size=25,
        )
    )
    def test_every_answer_is_the_set_models(self, operations):
        graph = KnowledgeGraph.from_triples(SPINE, name="model")
        model = set(SPINE)
        self.check(graph, model)
        for operation in operations:
            self.step(graph, model, *operation)
            self.check(graph, model)
