"""Bounds-index soundness: the upper bound never lies about No.

The whole approx tier rests on one invariant: ``maybe_reachable(s, t)
== False`` implies no directed ``s -> t`` path exists at all — and
therefore no LSCR witness path either.  This suite checks it directly
against a label-blind BFS oracle and indirectly against the naive LSCR
oracle, across 50 random graphs, in both index modes (the exact bitset
closure and the GRAIL-style randomized intervals, the latter forced by
``closure_limit=0``).

An update epoch derives its bound from its parent's
(:meth:`BoundsIndex.derive`), so the properties at the end follow chains
of batches: a derived bound is never wrong about No after any mix of adds
and removes, is exact label-blind reachability after adds alone, and
is a fresh build wherever the rules say rebuild.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx.bounds import (
    DEFAULT_CLOSURE_LIMIT,
    REBUILD_REMOVED_FRACTION,
    BoundsIndex,
    build_bounds,
)
from repro.constraints.label_constraint import LabelConstraint
from repro.constraints.substructure import SubstructureConstraint
from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.datasets.synthetic import random_labeled_graph
from repro.graph.csr import freeze_graph
from repro.graph.labeled_graph import KnowledgeGraph
from repro.service.app import QueryService
from tests.helpers import graph_from_edges, label_blind_reach

SEEDS = list(range(50))


class TestToyGraphs:
    def test_chain_and_disconnected(self):
        graph = graph_from_edges(
            [("a", "go", "b"), ("b", "go", "c"), ("x", "go", "y")]
        )
        bounds = build_bounds(freeze_graph(graph))
        assert bounds.mode == "closure"
        a, b, c = graph.vid("a"), graph.vid("b"), graph.vid("c")
        x, y = graph.vid("x"), graph.vid("y")
        assert bounds.maybe_reachable(a, c)
        assert not bounds.maybe_reachable(c, a)
        assert not bounds.maybe_reachable(a, y)
        assert not bounds.maybe_reachable(x, c)
        assert bounds.maybe_reachable(x, y)

    def test_cycle_is_one_component(self):
        graph = graph_from_edges(
            [("a", "go", "b"), ("b", "go", "c"), ("c", "go", "a")]
        )
        bounds = build_bounds(freeze_graph(graph))
        assert bounds.component_count == 1
        a, c = graph.vid("a"), graph.vid("c")
        assert bounds.maybe_reachable(c, a)
        assert bounds.maybe_reachable(a, a)

    def test_interval_mode_forced(self):
        graph = graph_from_edges(
            [("a", "go", "b"), ("b", "go", "c"), ("x", "go", "y")]
        )
        bounds = BoundsIndex(freeze_graph(graph), closure_limit=0)
        assert bounds.mode == "interval"
        a, c = graph.vid("a"), graph.vid("c")
        # Necessary condition: the true pair always passes...
        assert bounds.maybe_reachable(a, c)
        # ...and a definitely-unreachable *reverse* pair is excluded by
        # the interval filter on this tiny DAG.
        assert not bounds.maybe_reachable(c, a)

    def test_describe_shape(self):
        graph = graph_from_edges([("a", "go", "b")])
        described = build_bounds(freeze_graph(graph)).describe()
        assert described["mode"] == "closure"
        assert described["vertices"] == 2
        assert described["components"] == 2
        assert described["build_seconds"] >= 0

    def test_unfrozen_graph_supported(self):
        graph = graph_from_edges([("a", "go", "b"), ("b", "go", "a")])
        bounds = build_bounds(graph)  # dict-backed adjacency fallback
        assert bounds.component_count == 1


class TestFiftySeedSoundness:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_upper_bound_covers_bfs_oracle(self, seed):
        graph = random_labeled_graph(
            12, 1.6, 3, rng=seed, name=f"bounds-{seed}"
        )
        frozen = freeze_graph(graph)
        closure = build_bounds(frozen, seed=seed)
        interval = BoundsIndex(frozen, closure_limit=0, seed=seed)
        assert closure.mode == "closure"
        assert interval.mode == "interval"
        for s in range(graph.num_vertices):
            reached = label_blind_reach(graph, s)
            for t in range(graph.num_vertices):
                truly = t in reached
                # Closure mode is exact label-blind reachability.
                assert closure.maybe_reachable(s, t) == truly
                if truly:
                    # Interval mode is a necessary-condition filter: it
                    # may say maybe on an unreachable pair, never No on
                    # a reachable one.
                    assert interval.maybe_reachable(s, t)

    @pytest.mark.parametrize("seed", SEEDS[::5])
    def test_never_no_when_naive_oracle_says_yes(self, seed):
        graph = random_labeled_graph(
            10, 1.8, 3, rng=seed, name=f"lscr-bounds-{seed}"
        )
        frozen = freeze_graph(graph)
        closure = build_bounds(frozen, seed=seed)
        interval = BoundsIndex(frozen, closure_limit=0, seed=seed)
        naive = NaiveTwoProcedure(graph)
        rng = random.Random(seed * 31 + 7)
        vertices = [f"n{i}" for i in range(graph.num_vertices)]
        for _ in range(12):
            source, target = rng.choice(vertices), rng.choice(vertices)
            label = f"l{rng.randrange(3)}"
            query = LSCRQuery(
                source=source,
                target=target,
                labels=LabelConstraint([label, "l0"]),
                constraint=SubstructureConstraint.from_sparql(
                    f"SELECT ?x WHERE {{ ?x <{label}> ?y . }}"
                ),
            )
            if naive.decide(query):
                s, t = graph.vid(source), graph.vid(target)
                assert closure.maybe_reachable(s, t)
                assert interval.maybe_reachable(s, t)


# ----------------------------------------------------------------------
# derivation across update batches
# ----------------------------------------------------------------------

#: A disconnected chain of this many links, each carried by every label
#: of ``PADDING``: over 200 edges, so one or two removals stay under the
#: 1 % rule, on few vertices, so an all-pairs check stays cheap.
BALLAST = 50
PADDING = ("pad0", "pad1", "pad2", "pad3")
REGION = [f"r{i}" for i in range(10)]
#: Names the graph does not hold until a batch adds them.
FRESH = [f"n{i}" for i in range(3)]
REGION_EDGES = st.tuples(
    st.sampled_from(REGION + FRESH),
    st.sampled_from(("a", "b")),
    st.sampled_from(REGION + FRESH),
)
#: ``(adds, removal picks)`` per batch; a pick indexes the region's edges.
BATCHES = st.lists(
    st.tuples(
        st.lists(REGION_EDGES, max_size=4),
        st.lists(st.integers(0, 10**6), max_size=2),
    ),
    min_size=1,
    max_size=5,
)


def ballasted(region_edges):
    graph = KnowledgeGraph("derive")
    for i in range(BALLAST):
        for label in PADDING:
            graph.add_edge(f"b{i}", label, f"b{i + 1}")
    for vertex in REGION:
        graph.add_vertex(vertex)
    for edge in region_edges:
        graph.add_edge(*edge)
    return graph


def step(graph, adds, picks):
    """``graph``'s patched copy after one batch, and the batch's net
    ``(added, removed)`` id triples."""
    new = graph.copy()
    region = sorted(
        edge for edge in new.edges_named() if not str(edge[0]).startswith("b")
    )
    for pick in picks:
        if region:
            new.remove_edge(*region.pop(pick % len(region)))
    for edge in adds:
        new.add_edge(*edge)
    return (new, *net(graph, new))


def net(old, new):
    """``(added, removed)``: the id triples only in ``new``, only in ``old``."""
    before, after = set(old.edges()), set(new.edges())
    return after - before, before - after


def answers(bounds, graph):
    vertices = range(graph.num_vertices)
    return [[bounds.maybe_reachable(s, t) for t in vertices] for s in vertices]


class TestDerive:
    @settings(deadline=None)
    @given(initial=st.lists(REGION_EDGES, max_size=12), batches=BATCHES)
    def test_never_no_for_a_reachable_pair(self, initial, batches):
        graph = ballasted(initial)
        bounds = build_bounds(freeze_graph(graph))
        for adds, picks in batches:
            graph, added, removed = step(graph, adds, picks)
            frozen = freeze_graph(graph)
            removed_since_build = bounds.removed_since_build + len(removed)
            bounds = bounds.derive(frozen, added, removed)
            kept = removed_since_build <= REBUILD_REMOVED_FRACTION * graph.num_edges
            assert bounds.derived is kept
            assert bounds.removed_since_build == (removed_since_build if kept else 0)
            assert bounds.vertex_count == graph.num_vertices
            for s in graph.vertices():
                for t in label_blind_reach(graph, s):
                    assert bounds.maybe_reachable(s, t), (s, t)

    @settings(deadline=None)
    @given(
        initial=st.lists(REGION_EDGES, max_size=12),
        batches=st.lists(st.lists(REGION_EDGES, max_size=4), min_size=1, max_size=5),
    )
    def test_insert_only_chains_are_exact(self, initial, batches):
        graph = ballasted(initial)
        bounds = build_bounds(freeze_graph(graph))
        for adds in batches:
            graph, added, removed = step(graph, adds, [])
            assert not removed
            frozen = freeze_graph(graph)
            bounds = bounds.derive(frozen, added, removed)
            assert bounds.derived and bounds.removed_since_build == 0
            assert answers(bounds, graph) == answers(build_bounds(frozen), graph)

    def test_an_add_that_closes_a_cycle_and_a_new_vertex(self):
        graph = ballasted([("r0", "a", "r1"), ("r1", "a", "r2")])
        bounds = build_bounds(freeze_graph(graph))
        graph, added, removed = step(
            graph, [("r2", "b", "r0"), ("r2", "a", "n0")], []
        )
        frozen = freeze_graph(graph)
        derived = bounds.derive(frozen, added, removed)
        # r0..r2 are one SCC now, but stay three components that reach
        # each other: derive does not re-condense.
        assert derived.component_count == bounds.component_count + 1
        assert build_bounds(frozen).component_count == bounds.component_count - 1
        assert answers(derived, graph) == answers(build_bounds(frozen), graph)
        n0, r1 = graph.vid("n0"), graph.vid("r1")
        assert derived.maybe_reachable(r1, n0)
        assert not derived.maybe_reachable(n0, r1)

    def test_removals_keep_the_closure_until_past_the_threshold(self):
        graph = ballasted([("r0", "a", "r1")])
        bounds = build_bounds(freeze_graph(graph), seed=3)
        r0, r1 = graph.vid("r0"), graph.vid("r1")
        graph, added, removed = step(graph, [], [0])
        kept = bounds.derive(freeze_graph(graph), added, removed)
        # Still a sound bound, only looser: the removed edge's pair stays.
        assert kept.derived and kept.removed_since_build == 1
        assert kept.maybe_reachable(r0, r1)
        # Past the threshold the next derive is a fresh build.
        removals = int(REBUILD_REMOVED_FRACTION * graph.num_edges) + 1
        chain = sorted(e for e in graph.edges_named() if str(e[0]).startswith("b"))
        old = graph
        graph = graph.copy()
        for edge in chain[:removals]:
            graph.remove_edge(*edge)
        frozen = freeze_graph(graph)
        rebuilt = kept.derive(frozen, *net(old, graph))
        assert not rebuilt.derived and rebuilt.removed_since_build == 0
        assert not rebuilt.maybe_reachable(r0, r1)
        fresh = build_bounds(frozen, seed=3)
        assert rebuilt.component_count == fresh.component_count
        assert answers(rebuilt, graph) == answers(fresh, graph)

    @pytest.mark.parametrize("closure_limit", [DEFAULT_CLOSURE_LIMIT, 0])
    @settings(deadline=None)
    @given(initial=st.lists(REGION_EDGES, max_size=12), batches=BATCHES)
    def test_a_rebuild_is_a_fresh_build(self, closure_limit, initial, batches):
        # closure_limit=0 forces interval mode, which rebuilds every time.
        graph = ballasted(initial)
        bounds = BoundsIndex(freeze_graph(graph), closure_limit=closure_limit, seed=5)
        for adds, picks in batches:
            graph, added, removed = step(graph, adds, picks)
            frozen = freeze_graph(graph)
            bounds = bounds.derive(frozen, added, removed)
            if closure_limit == 0:
                assert bounds.mode == "interval" and not bounds.derived
            if not bounds.derived:
                fresh = BoundsIndex(frozen, closure_limit=closure_limit, seed=5)
                assert (bounds.mode, bounds.component_count) == (
                    fresh.mode, fresh.component_count,
                )
                assert answers(bounds, graph) == answers(fresh, graph)

    def test_outgrowing_the_closure_limit_rebuilds(self):
        graph = ballasted([])
        frozen = freeze_graph(graph)
        limit = build_bounds(frozen).component_count
        bounds = BoundsIndex(frozen, closure_limit=limit)
        assert bounds.mode == "closure"
        graph, added, removed = step(graph, [("r0", "a", "n0")], [])
        derived = bounds.derive(freeze_graph(graph), added, removed)
        assert derived.mode == "interval" and not derived.derived


class TestServiceDerivation:
    """What an epoch swap does with the bounds, as ``/stats`` and the
    update's ``bounds`` span report it."""

    @staticmethod
    def swap(service, edges):
        summary = service.handle_updates({"edges": edges}, trace=True)
        (span,) = [
            child for child in summary["trace"]["children"]
            if child["name"] == "bounds"
        ]
        section = service.stats_snapshot()["approx"]["bounds"]
        return span["attrs"], section

    def test_stats_and_span_after_add_only_then_mixed_batches(self):
        service = QueryService(ballasted([("r0", "a", "r1")]), seed=0)
        try:
            assert service.stats_snapshot()["approx"]["bounds"]["derived"] is False
            attrs, section = self.swap(service, [["r1", "a", "r2"]])
            assert (section["derived"], section["removed_since_build"]) == (True, 0)
            assert (attrs["derived"], attrs["removed_since_build"]) == (True, 0)
            attrs, section = self.swap(
                service, [["r0", "a", "r1", "remove"], ["r2", "b", "n0"]]
            )
            assert (section["derived"], section["removed_since_build"]) == (True, 1)
            assert (attrs["derived"], attrs["removed_since_build"]) == (True, 1)
            r0, r2 = service.graph.vid("r0"), service.graph.vid("r2")
            assert service.epoch.bounds.maybe_reachable(r0, r2)  # looser, sound
        finally:
            service.close()

    def test_a_replaced_graph_gets_a_fresh_build(self):
        service = QueryService(ballasted([("r0", "a", "r1")]), seed=0)
        try:
            service.apply_updates([("r1", "a", "r2")])
            replacement = ballasted([("r1", "a", "r0")])
            service.replace_graph(replacement, 2)
            bounds = service.epoch.bounds
            assert not bounds.derived
            graph = service.graph
            assert answers(bounds, graph) == answers(build_bounds(graph), graph)
        finally:
            service.close()
