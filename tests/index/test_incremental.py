"""Tests for incremental local-index maintenance (extension).

The invariant: after any sequence of edge insertions, each followed by
``refresh_after_edge``, the index tables must be identical to a fresh
``build_local_index`` over the final graph with the same landmarks.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ins import INS
from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.datasets.toy import figure3_constraint, figure3_graph
from repro.graph.labeled_graph import KnowledgeGraph
from repro.index.landmarks import NO_REGION
from repro.index.local_index import build_local_index
from tests.helpers import graph_from_edges


def tables_equal(a, b) -> bool:
    if set(a.ii) != set(b.ii):
        return False
    for u in a.ii:
        if {v: sorted(m) for v, m in a.ii[u].items()} != {
            v: sorted(m) for v, m in b.ii[u].items()
        }:
            return False
    if a.eit != b.eit or a.d != b.d:
        return False
    return True


class TestRefreshAfterEdge:
    def test_edge_inside_region_updates_ii(self):
        g = graph_from_edges([("L", "a", "p"), ("p", "a", "q")])
        index = build_local_index(g, landmarks=[g.vid("L")])
        # new shortcut L -b-> q inside the region
        g.add_edge("L", "b", "q")
        assert index.refresh_after_edge(g.vid("L"), g.label_id("b"), g.vid("q"))
        fresh = build_local_index(g, landmarks=[g.vid("L")])
        assert tables_equal(index, fresh)

    def test_border_edge_updates_eit_and_d(self):
        g = graph_from_edges([("L1", "a", "p"), ("L2", "a", "x")])
        index = build_local_index(g, landmarks=[g.vid("L1"), g.vid("L2")])
        g.add_edge("p", "b", "x")  # crosses from F(L1) into F(L2)
        assert index.refresh_after_edge(g.vid("p"), g.label_id("b"), g.vid("x"))
        fresh = build_local_index(g, landmarks=[g.vid("L1"), g.vid("L2")])
        assert tables_equal(index, fresh)
        assert index.correlation(g.vid("L1"), g.vid("L2")) == 1

    def test_edge_from_unassigned_vertex_is_noop(self):
        g = graph_from_edges([("L", "a", "p")], vertices=["island"])
        index = build_local_index(g, landmarks=[g.vid("L")])
        g.add_edge("island", "a", "p")
        assert not index.refresh_after_edge(
            g.vid("island"), g.label_id("a"), g.vid("p")
        )

    def test_new_vertex_gets_no_region(self):
        g = graph_from_edges([("L", "a", "p")])
        index = build_local_index(g, landmarks=[g.vid("L")])
        g.add_edge("p", "a", "brand_new")
        index.refresh_after_edge(g.vid("p"), g.label_id("a"), g.vid("brand_new"))
        assert index.region_of(g.vid("brand_new")) == NO_REGION

    def test_sync_vertices_counts(self):
        g = graph_from_edges([("L", "a", "p")])
        index = build_local_index(g, landmarks=[g.vid("L")])
        g.add_vertex("x1")
        g.add_vertex("x2")
        assert index.sync_vertices() == 2
        assert index.sync_vertices() == 0

    def test_ins_correct_after_refresh(self):
        g = figure3_graph()
        index = build_local_index(g, k=2, rng=0)
        # new edge creates a previously impossible path
        g.add_edge("v3", "follows", "v0")
        source_id = g.vid("v3")
        index.refresh_after_edge(source_id, g.label_id("follows"), g.vid("v0"))
        ins = INS(g, index)
        naive = NaiveTwoProcedure(g)
        query = LSCRQuery.create(
            "v3", "v2", ["follows", "likes"], figure3_constraint()
        )
        assert ins.decide(query) == naive.decide(query) is True


class TestIncrementalMatchesGroundTruth:
    """After refreshes, II[u] must equal the ground-truth CMS of the
    final graph restricted to the *snapshot* region (the partition is
    deliberately sticky — a fresh build may re-partition newly reachable
    vertices, which is a different-but-equally-valid index)."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_insertion_sequences(self, data):
        from tests.helpers import ground_truth_cms

        vertices = [f"v{i}" for i in range(8)]
        labels = ["a", "b", "c"]
        seed_edges = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(vertices),
                    st.sampled_from(labels),
                    st.sampled_from(vertices),
                ),
                min_size=1,
                max_size=10,
            )
        )
        g = KnowledgeGraph("inc")
        for v in vertices:
            g.add_vertex(v)
        for label in labels:
            g.labels.intern(label)
        for s, l, t in seed_edges:
            g.add_edge(s, l, t)
        landmark_names = data.draw(
            st.lists(st.sampled_from(vertices), min_size=1, max_size=3, unique=True)
        )
        landmarks = [g.vid(n) for n in landmark_names]
        index = build_local_index(g, landmarks=landmarks)
        additions = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(vertices),
                    st.sampled_from(labels),
                    st.sampled_from(vertices),
                ),
                max_size=6,
            )
        )
        for s, l, t in additions:
            if g.add_edge(s, l, t):
                index.refresh_after_edge(g.vid(s), g.label_id(l), g.vid(t))
        for u in index.partition.landmarks:
            region = set(index.partition.members[u])
            truth = ground_truth_cms(g, u, allowed=region)
            built = {v: set(masks) for v, masks in index.ii[u].items()}
            assert built == truth, f"landmark {g.name_of(u)}"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_ins_agrees_with_oracle_after_refreshes(self, seed):
        rng = random.Random(seed)
        vertices = [f"v{i}" for i in range(7)]
        labels = ["a", "b"]
        g = KnowledgeGraph("inc2")
        for v in vertices:
            g.add_vertex(v)
        for label in labels:
            g.labels.intern(label)
        for _ in range(8):
            g.add_edge(rng.choice(vertices), rng.choice(labels), rng.choice(vertices))
        index = build_local_index(g, k=2, rng=seed)
        for _ in range(4):
            s, l, t = rng.choice(vertices), rng.choice(labels), rng.choice(vertices)
            if g.add_edge(s, l, t):
                index.refresh_after_edge(g.vid(s), g.label_id(l), g.vid(t))
        from repro.constraints.substructure import SubstructureConstraint
        from repro.sparql.ast import TriplePattern, Var

        constraint = SubstructureConstraint(
            [TriplePattern(Var("x"), rng.choice(labels), rng.choice(vertices))]
        )
        query = LSCRQuery.create(
            rng.choice(vertices), rng.choice(vertices), labels, constraint
        )
        assert INS(g, index).decide(query) == NaiveTwoProcedure(g).decide(query)


class TestRefreshRegions:
    def test_batch_refresh_matches_fresh_build(self):
        g = graph_from_edges([("L1", "a", "p"), ("L2", "a", "x")])
        index = build_local_index(g, landmarks=[g.vid("L1"), g.vid("L2")])
        # One batch touching both regions: a crossing in each direction.
        g.add_edge("p", "b", "x")
        g.add_edge("x", "b", "p")
        touched = {index.region_of(g.vid("p")), index.region_of(g.vid("x"))}
        assert index.refresh_regions(touched) == 2
        fresh = build_local_index(g, landmarks=[g.vid("L1"), g.vid("L2")])
        assert tables_equal(index, fresh)

    def test_unknown_and_no_region_ids_ignored(self):
        g = graph_from_edges([("L", "a", "p")])
        index = build_local_index(g, landmarks=[g.vid("L")])
        assert index.refresh_regions({NO_REGION, 999}) == 0

    def test_refresh_invalidates_cut_push_memos(self):
        # Regression: the Cut/Push memos cache projections of the
        # tables a refresh replaces; serving them after a refresh would
        # answer for the pre-update region.
        g = graph_from_edges([("L", "a", "p"), ("p", "b", "q")])
        index = build_local_index(g, landmarks=[g.vid("L")])
        mask = 1 << g.label_id("a")
        stale = index.cut_targets(g.vid("L"), mask)
        assert g.vid("q") not in stale  # q only reachable via label b
        g.add_edge("p", "a", "q")  # q now reachable under {a} alone
        assert index.refresh_after_edge(g.vid("p"), g.label_id("a"), g.vid("q"))
        refreshed = index.cut_targets(g.vid("L"), mask)
        assert g.vid("q") in refreshed


class TestRemovalRepair:
    """Region refresh after edge *removals*.

    ``refresh_regions`` rebuilds a region's tables from the current
    graph, which makes the repair direction-agnostic — the same call
    the update path issues for insertions must also erase everything a
    retracted edge contributed (II paths inside the region, EIT border
    crossings out of it)."""

    def test_in_region_removal_matches_fresh_build(self):
        g = graph_from_edges([("L", "a", "p"), ("p", "a", "q"), ("L", "b", "q")])
        index = build_local_index(g, landmarks=[g.vid("L")])
        assert g.remove_edge("L", "b", "q")
        assert index.refresh_regions({index.region_of(g.vid("L"))}) == 1
        fresh = build_local_index(g, landmarks=[g.vid("L")])
        assert tables_equal(index, fresh)

    def test_border_removal_clears_eit_and_correlation(self):
        g = graph_from_edges([("L1", "a", "p"), ("L2", "a", "x")])
        index = build_local_index(g, landmarks=[g.vid("L1"), g.vid("L2")])
        g.add_edge("p", "b", "x")
        index.refresh_regions({index.region_of(g.vid("p"))})
        assert index.correlation(g.vid("L1"), g.vid("L2")) == 1
        assert g.remove_edge("p", "b", "x")
        assert index.refresh_regions({index.region_of(g.vid("p"))}) == 1
        fresh = build_local_index(g, landmarks=[g.vid("L1"), g.vid("L2")])
        assert tables_equal(index, fresh)
        assert index.correlation(g.vid("L1"), g.vid("L2")) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_ins_agrees_with_oracle_after_removals(self, seed):
        rng = random.Random(seed)
        vertices = [f"v{i}" for i in range(7)]
        labels = ["a", "b"]
        g = KnowledgeGraph("dec")
        for v in vertices:
            g.add_vertex(v)
        for label in labels:
            g.labels.intern(label)
        for _ in range(10):
            g.add_edge(rng.choice(vertices), rng.choice(labels),
                       rng.choice(vertices))
        index = build_local_index(g, k=2, rng=seed)
        for _ in range(4):
            if not g.num_edges:
                break
            s, lid, t = rng.choice(sorted(g.edges()))
            assert g.remove_edge_ids(s, lid, t)
            index.refresh_regions({index.region_of(s)})
        from repro.constraints.substructure import SubstructureConstraint
        from repro.sparql.ast import TriplePattern, Var

        constraint = SubstructureConstraint(
            [TriplePattern(Var("x"), rng.choice(labels), rng.choice(vertices))]
        )
        query = LSCRQuery.create(
            rng.choice(vertices), rng.choice(vertices), labels, constraint
        )
        assert INS(g, index).decide(query) == NaiveTwoProcedure(g).decide(query)

