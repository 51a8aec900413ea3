"""FrozenGraph ↔ KnowledgeGraph agreement on every adjacency API.

The CSR snapshot must be observationally identical to the dict-backed
graph it was frozen from — same ids, same neighbors, same per-label
groups (including order: freezing is stable within a label), same
masks, same degrees — because every algorithm and the SPARQL evaluator
treat the two interchangeably.  The suite sweeps randomized graphs and
checks each API pairwise, plus the freeze-specific contracts: mutation
refusal, snapshot caching, and re-freezing after source mutations.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import random_labeled_graph
from repro.exceptions import FrozenGraphError
from repro.graph import FrozenGraph, KnowledgeGraph, freeze_graph

SEEDS = list(range(12))


def make_pair(seed: int, num_vertices: int = 28, density: float = 2.2,
              num_labels: int = 5):
    graph = random_labeled_graph(
        num_vertices, density, num_labels, rng=seed, name=f"frozen-{seed}"
    )
    return graph, graph.freeze()


def interesting_masks(graph, rng: random.Random):
    """Empty, full, single-label and random masks over the universe."""
    full = graph.labels.full_mask()
    masks = [0, full]
    for label_id in range(graph.num_labels):
        masks.append(1 << label_id)
    for _ in range(6):
        masks.append(rng.randrange(full + 1))
    return masks


class TestAdjacencyAgreement:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_masked_expansion_agrees(self, seed):
        graph, frozen = make_pair(seed)
        rng = random.Random(seed * 37 + 1)
        for mask in interesting_masks(graph, rng):
            for v in graph.vertices():
                expected = sorted(w for _l, w in graph.out_masked(v, mask))
                assert sorted(w for _l, w in frozen.out_masked(v, mask)) == expected
                assert sorted(frozen.out_targets_masked(v, mask)) == expected
                assert sorted(graph.out_targets_masked(v, mask)) == expected
                expected_in = sorted(w for _l, w in graph.in_masked(v, mask))
                assert sorted(w for _l, w in frozen.in_masked(v, mask)) == expected_in
                assert sorted(frozen.in_targets_masked(v, mask)) == expected_in

    @pytest.mark.parametrize("seed", SEEDS)
    def test_masked_expansion_pairs_carry_correct_labels(self, seed):
        graph, frozen = make_pair(seed)
        rng = random.Random(seed * 41 + 3)
        for mask in interesting_masks(graph, rng):
            for v in graph.vertices():
                assert sorted(graph.out_masked(v, mask)) == sorted(
                    frozen.out_masked(v, mask)
                )
                assert sorted(graph.in_masked(v, mask)) == sorted(
                    frozen.in_masked(v, mask)
                )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_by_label_groups_agree_in_order(self, seed):
        # Within one (vertex, label) group the CSR keeps the dict
        # graph's insertion order — lists must be equal, not just
        # equal-as-sets.
        graph, frozen = make_pair(seed)
        for v in graph.vertices():
            for label_id in range(graph.num_labels):
                assert list(frozen.out_by_label(v, label_id)) == list(
                    graph.out_by_label(v, label_id)
                )
                assert list(frozen.in_by_label(v, label_id)) == list(
                    graph.in_by_label(v, label_id)
                )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_edges_and_edge_iterators_agree(self, seed):
        graph, frozen = make_pair(seed)
        assert sorted(frozen.edges()) == sorted(graph.edges())
        assert sorted(frozen.edges_named()) == sorted(graph.edges_named())
        for v in graph.vertices():
            assert sorted(frozen.out_edges(v)) == sorted(graph.out_edges(v))
            assert sorted(frozen.in_edges(v)) == sorted(graph.in_edges(v))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_degrees_masks_and_labels_between_agree(self, seed):
        graph, frozen = make_pair(seed)
        for v in graph.vertices():
            assert frozen.out_degree(v) == graph.out_degree(v)
            assert frozen.in_degree(v) == graph.in_degree(v)
            assert frozen.degree(v) == graph.degree(v)
            assert frozen.out_label_mask(v) == graph.out_label_mask(v)
            assert frozen.in_label_mask(v) == graph.in_label_mask(v)
            assert sorted(frozen.out_labels(v)) == sorted(graph.out_labels(v))
            for label_id in range(graph.num_labels):
                assert frozen.out_label_count(v, label_id) == graph.out_label_count(
                    v, label_id
                )
                assert frozen.in_label_count(v, label_id) == graph.in_label_count(
                    v, label_id
                )
        for s in graph.vertices():
            for t in graph.vertices():
                assert frozen.labels_between(s, t) == graph.labels_between(s, t)

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_group_counts_agree(self, seed):
        # A count is read off the bounds; it must be the group's length,
        # for labels absent from the universe too.
        graph, frozen = make_pair(seed)
        for v in graph.vertices():
            for label_id in range(graph.num_labels + 1):
                expected_out = len(graph.out_by_label(v, label_id))
                expected_in = len(graph.in_by_label(v, label_id))
                for form in (graph, frozen):
                    assert form.out_label_count(v, label_id) == expected_out
                    assert form.in_label_count(v, label_id) == expected_in

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_membership_and_label_frequencies_agree(self, seed):
        graph, frozen = make_pair(seed)
        for s, label_id, t in graph.edges():
            assert frozen.has_edge(s, label_id, t)
        for label_id in range(graph.num_labels):
            assert frozen.label_frequency(label_id) == graph.label_frequency(label_id)
            assert frozen.edges_with_label(label_id) == graph.edges_with_label(label_id)


#: Enough names that one (vertex, label) group can outgrow 8 targets —
#: the size past which ``has_edge`` probes the other direction's group.
ROW_EDGES = st.lists(
    st.tuples(st.integers(0, 13), st.sampled_from("abcd"), st.integers(0, 13)),
    max_size=90,
)


class TestRowsAgainstTheDictGraph:
    """A row is two tuples; every question a search asks of it is
    answered as the dict graph it was frozen from answers it."""

    @settings(deadline=None)
    @given(
        edges=ROW_EDGES,
        masks=st.lists(st.integers(0, 15), min_size=1, max_size=6),
    )
    def test_masked_targets_groups_probes_and_labels_between(self, edges, masks):
        graph = KnowledgeGraph()
        for s, label, t in edges:
            graph.add_edge(s, label, t)
        frozen = graph.freeze()
        vertices, labels = graph.vertices(), range(graph.num_labels)
        for mask in masks:
            for v in vertices:
                for targets, by_label in (
                    (frozen.out_targets_masked, graph.out_by_label),
                    (frozen.in_targets_masked, graph.in_by_label),
                ):
                    # Label-major by ascending label, each group in the
                    # dict graph's order.
                    expected = [
                        w for label_id in labels if mask >> label_id & 1
                        for w in by_label(v, label_id)
                    ]
                    assert type(targets(v, mask)) is tuple
                    assert list(targets(v, mask)) == expected
        for v in vertices:
            for label_id in labels:
                out_group = graph.out_by_label(v, label_id)
                in_group = graph.in_by_label(v, label_id)
                assert list(frozen.out_by_label(v, label_id)) == out_group
                assert list(frozen.in_by_label(v, label_id)) == in_group
        for s in vertices:
            for t in vertices:
                for label_id in labels:
                    edge = (s, label_id, t)
                    assert frozen.has_edge(*edge) == graph.has_edge(*edge)
                assert frozen.labels_between(s, t) == graph.labels_between(s, t)


class TestRowShapesAreShared:
    def test_equal_wide_masks_and_bounds_are_one_object(self):
        # Labels 0..11: a row over labels 9 and 10 has a mask above 256.
        labels = [f"l{i}" for i in range(12)]
        triples = [(f"s{i}", labels[9], f"t{i}") for i in range(4)]
        triples += [(f"s{i}", labels[10], f"t{i + 1}") for i in range(4)]
        triples += [("s0", labels[0], "t9")]
        graph = KnowledgeGraph.from_triples(triples, labels=labels, frozen=True)
        out = graph._csr_out
        s = [graph.vid(f"s{i}") for i in range(4)]
        assert out.masks[s[1]] == (1 << 9 | 1 << 10) > 256
        assert all(out.masks[v] is out.masks[s[1]] for v in s[1:])
        assert all(out.bounds[v] is out.bounds[s[1]] for v in s[1:])
        assert out.bounds[s[0]] != out.bounds[s[1]]
        inward = graph._csr_in
        t = [graph.vid(f"t{i}") for i in (1, 2, 3)]
        assert all(inward.bounds[v] is inward.bounds[t[0]] for v in t)

    def test_a_derive_shares_within_the_rows_it_recuts(self):
        labels = [f"l{i}" for i in range(12)]
        graph = KnowledgeGraph.from_triples(
            [("a", labels[9], "b")], labels=labels, frozen=True
        )
        child, _, _ = graph.derive(
            [(f"n{i}", labels[9], f"m{i}", "add") for i in range(3)]
            + [(f"n{i}", labels[11], f"m{i}", "add") for i in range(3)]
        )
        out = child._csr_out
        rows = [child.vid(f"n{i}") for i in range(3)]
        assert out.masks[rows[0]] > 256
        assert all(out.masks[v] is out.masks[rows[0]] for v in rows)
        assert all(out.bounds[v] is out.bounds[rows[0]] for v in rows)


class TestFreezeSemantics:
    def test_shared_interning_and_schema(self):
        graph, frozen = make_pair(0)
        assert isinstance(frozen, FrozenGraph)
        assert isinstance(frozen, KnowledgeGraph)
        assert graph.shares_interning(frozen) and frozen.shares_interning(graph)
        assert not graph.shares_interning(graph.copy())
        assert not hasattr(frozen, "_out") and not hasattr(frozen, "_in")
        assert frozen.labels is graph.labels
        assert frozen.schema is graph.schema
        assert frozen.name == graph.name
        for name in graph.vertex_names():
            assert frozen.vid(name) == graph.vid(name)

    def test_freeze_is_cached_and_idempotent(self):
        graph, frozen = make_pair(1)
        assert graph.freeze() is frozen
        assert frozen.freeze() is frozen
        assert freeze_graph(frozen) is frozen
        assert freeze_graph(graph) is frozen

    def test_refreeze_after_mutation_builds_fresh_snapshot(self):
        graph, frozen = make_pair(2)
        graph.add_edge("brand-new", "l0", "n0")
        refrozen = graph.freeze()
        assert refrozen is not frozen
        assert refrozen.has_vertex("brand-new")
        assert refrozen.num_edges == graph.num_edges

    def test_refreeze_after_same_size_mutation_builds_fresh_snapshot(self):
        # The staleness regression: a removal followed by an insertion
        # leaves (|V|, |E|, |L|) identical, so the old size-keyed cache
        # returned the *stale* snapshot with the pre-mutation adjacency.
        # The mutation-counter key must re-freeze.
        graph, frozen = make_pair(6)
        sizes = (graph.num_vertices, graph.num_edges, graph.num_labels)
        removed = next(iter(graph.edges()))
        graph.remove_edge_ids(*removed)
        # Add a *different* absent edge over existing vertices and
        # labels: every size is back to exactly what the cached
        # snapshot was keyed on, but the adjacency differs.
        added = next(
            (s, l, t)
            for s in graph.vertices()
            for l in range(graph.num_labels)
            for t in graph.vertices()
            if (s, l, t) != removed and not graph.has_edge(s, l, t)
        )
        graph.add_edge_ids(*added)
        assert (graph.num_vertices, graph.num_edges, graph.num_labels) == sizes
        refrozen = graph.freeze()
        assert refrozen is not frozen
        assert sorted(refrozen.edges()) == sorted(graph.edges())

    def test_mutation_count_survives_freezing(self):
        graph, frozen = make_pair(7)
        assert frozen.mutation_count == graph.mutation_count
        assert graph.freeze() is frozen  # unchanged counter: cached

    def test_mutation_raises(self):
        _, frozen = make_pair(3)
        with pytest.raises(FrozenGraphError):
            frozen.add_vertex("nope")
        with pytest.raises(FrozenGraphError):
            frozen.add_edge("a", "l0", "b")
        with pytest.raises(FrozenGraphError):
            frozen.add_edge_ids(0, 0, 1)
        with pytest.raises(FrozenGraphError):
            frozen.remove_edge("a", "l0", "b")
        with pytest.raises(FrozenGraphError):
            frozen.remove_edge_ids(0, 0, 1)

    def test_copy_of_frozen_copies_the_source(self):
        graph, frozen = make_pair(8)
        clone = frozen.copy()
        assert not isinstance(clone, FrozenGraph)
        assert sorted(clone.edges()) == sorted(graph.edges())
        clone.add_edge("only-in-clone", "l0", "n0")
        assert not graph.has_vertex("only-in-clone")

    def test_empty_graph_freezes(self):
        empty = KnowledgeGraph("empty")
        frozen = empty.freeze()
        assert frozen.num_vertices == 0
        assert list(frozen.edges()) == []

    def test_every_mask_matches_the_dict_graph(self):
        graph, frozen = make_pair(5, num_vertices=12, num_labels=6)
        full = graph.labels.full_mask()
        for mask in range(full + 1):
            for v in graph.vertices():
                assert sorted(frozen.out_targets_masked(v, mask)) == sorted(
                    graph.out_targets_masked(v, mask)
                )
