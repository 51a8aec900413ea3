"""One differential state machine over the service's lifecycle.

The first rung of ROADMAP item 1.  The per-feature agreement suites each
draw a fresh constraint per query and never compose events, so a value
that outlives the graph version it was derived from — a ``V(S, G)``
cache, an index, a bounds table — is invisible to them.  Here one
``hypothesis`` :class:`RuleBasedStateMachine` drives the public
operations of a service over a graph of at most 16 vertices mirrored in
a plain :class:`KnowledgeGraph`:

* rules — insert batch, retract batch, no-op batch, ``replace_graph``,
  ``reset_epoch``, and query: a sweep of every ordered pair of names under each
  text of a **fixed pool of three constraints** (so every swap is
  followed by repeats of a constraint whose ``V(S, G)`` it may have
  moved), with and without the result cache, on the default route and
  on each forced algorithm;
* invariants after every step — the answer equals ``core/naive.py`` on
  the mirror, ``meta["epoch"]`` is the epoch that was current, the
  service's graph is the mirror's, ``audit_fingerprint()`` passes, no
  counter of ``/stats`` ``result_cache`` / ``candidate_cache`` ever
  steps back, whatever was swapped underneath it, and the serving
  epoch's bounds (built, derived from the parent's, or shared) say
  maybe for every pair that label-blind BFS on its graph reaches;
* after every update batch — every ``V(S, G)`` the new epoch's candidate
  cache carried across the swap equals a from-scratch evaluation;
* whenever forced INS reads an epoch's index — epoch 0's, given at
  boot, or one a swap left to its first reader, whether or not an
  ancestor's was read — it is bound to that epoch's graph and its tables
  equal a fresh build over that graph from the service's landmark count
  and seed (:class:`~repro.service.epoch.IndexSource`).

Tier-1 runs it on a fixed, derandomised budget; the deeper
``differential`` profile
(``tests/conftest.py``; CI's ``differential`` job) multiplies the
examples and draws them from the seed given on the command line.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.constraints.substructure import SubstructureConstraint
from repro.core.algorithms import ALGORITHMS as REGISTERED
from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.graph.labeled_graph import KnowledgeGraph
from repro.index.local_index import LocalIndex, build_local_index
from repro.service.app import QueryService
from repro.service.epoch import IndexSource
from tests.helpers import cache_counters, label_blind_reach

LANDMARKS = 3
CHAIN = [(f"v{i}", "next", f"v{i + 1}") for i in range(5)]
POOL = [f"v{i}" for i in range(6)] + ["p", "q"]
NAMES = st.sampled_from(POOL)
LABELS = ("next", "other", "likes")
#: Any edge over the pool — half of the time one that moves the first
#: constraint's ``V(S, G)``.
EDGES = st.one_of(
    st.tuples(NAMES, st.just("likes"), st.just("p")),
    st.tuples(NAMES, st.sampled_from(LABELS), NAMES),
)
PICKS = st.lists(st.integers(0, 255), min_size=1, max_size=3)
CONSTRAINTS = {
    text: SubstructureConstraint.from_sparql(text)
    for text in (
        "SELECT ?x WHERE { ?x <likes> p . }",
        "SELECT ?x WHERE { ?x <likes> ?y . ?y <next> ?z . }",
        "SELECT ?x WHERE { v1 <other> ?x . }",
    )
}
#: The default route or, as often, one of the forced algorithms — every
#: registered evaluator, so none can be skipped by this machine.
ALGORITHMS = st.one_of(st.none(), st.sampled_from(sorted(REGISTERED)))

#: Tier-1's budget; the ``differential`` profile runs >= 10x the examples.
TIER1 = settings(
    max_examples=20, stateful_step_count=30, deadline=None, derandomize=True
)


class LifecycleMachine(RuleBasedStateMachine):
    def teardown(self) -> None:
        if hasattr(self, "service"):
            self.service.close()

    @initialize(extra=st.lists(EDGES, max_size=8))
    def boot(self, extra):
        self.mirror = KnowledgeGraph("lifecycle")
        for edge in CHAIN + extra:
            self.mirror.add_edge(*edge)
        graph = self.mirror.copy()
        # What a first read would build from the service's options.
        index = build_local_index(graph, k=LANDMARKS, rng=0)
        self.service = QueryService(graph, index, landmark_count=LANDMARKS, seed=0)
        self.epoch_id = 0
        self.cache_counters = {}

    # ------------------------------------------------------------------
    # swaps
    # ------------------------------------------------------------------

    def update(self, batch, applied: int):
        if applied:
            self.epoch_id += 1
        before = self.service.epoch
        summary = self.service.apply_updates(batch)
        assert summary["epoch"] == self.epoch_id
        if not applied:
            assert self.service.epoch is before
            return
        epoch = self.service.epoch
        for constraint, candidates in epoch.candidates.entries():
            assert set(candidates) == set(
                constraint.satisfying_vertices(epoch.graph)
            ), (constraint.to_sparql(), batch)

    def present(self, picks):
        edges = sorted(self.mirror.edges_named())
        return [edges[pick % len(edges)] for pick in picks] if edges else []

    @rule(batch=st.lists(EDGES, min_size=1, max_size=4))
    def insert(self, batch):
        self.update(batch, sum(self.mirror.add_edge(*edge) for edge in batch))

    @rule(picks=PICKS)
    def retract(self, picks):
        batch = [(*edge, "remove") for edge in self.present(picks)]
        batch.append(("v0", "likes", "never-added", "remove"))
        self.update(batch, sum(self.mirror.remove_edge(*e[:3]) for e in batch))

    @rule(picks=PICKS)
    def no_op(self, picks):
        batch = [(*edge, "add") for edge in self.present(picks)]
        batch.append(("q", "other", "never-added", "remove"))
        self.update(batch, 0)

    @rule(edits=st.lists(st.tuples(EDGES, st.booleans()), max_size=3),
          bump=st.integers(0, 3))
    def replace_graph(self, edits, bump):
        """``bump=0``: new content under the serving id — an epoch id
        names a version, it does not identify the content."""
        for edge, add in edits:
            (self.mirror.add_edge if add else self.mirror.remove_edge)(*edge)
        self.epoch_id += bump
        self.service.replace_graph(self.mirror.copy(), self.epoch_id)

    @rule(bump=st.integers(0, 3))
    def reset_epoch(self, bump):
        self.epoch_id += bump
        self.service.reset_epoch(self.epoch_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def oracle(self, source, target, labels, constraint) -> bool:
        if not (self.mirror.has_vertex(source) and self.mirror.has_vertex(target)):
            return False  # the planner's trivial verdict, mirrored
        return NaiveTwoProcedure(self.mirror).decide(
            LSCRQuery.create(source, target, labels, CONSTRAINTS[constraint])
        )

    @rule(
        labels=st.sets(st.sampled_from(LABELS), min_size=1),
        algorithm=ALGORITHMS,
        use_cache=st.booleans(),
    )
    def query(self, labels, algorithm, use_cache):
        """Every constraint of the pool and every ordered pair of names
        under one drawn ``L``, route and cache mode.  A wrong answer
        hides in few places — the same constraint on both sides of a
        swap that moved its ``V(S, G)``, a reachable target, a route
        that reads the drifted value — so single draws would need far
        more steps than tier-1 has."""
        labels = sorted(labels)
        for constraint in CONSTRAINTS:
            for source in POOL:
                for goal in POOL:
                    self.ask(source, goal, labels, constraint, algorithm, use_cache)
        if algorithm == "ins":
            self.index_is_a_fresh_build()

    @rule(
        labels=st.sets(st.sampled_from(LABELS), min_size=1),
        constraint=st.sampled_from(sorted(CONSTRAINTS)),
    )
    def uncached_ins(self, labels, constraint):
        """Forced INS, uncached, on whatever index the serving epoch
        reads — so a swap's first read follows it more often than the
        sweep's draw of algorithm alone would make it."""
        for source in POOL:
            for goal in POOL:
                self.ask(source, goal, sorted(labels), constraint, "ins", False)
        self.index_is_a_fresh_build()

    def index_is_a_fresh_build(self):
        epoch, options = self.service.epoch, self.service.options
        index = epoch.index
        fresh = IndexSource(None, options.landmark_count, options.seed).read(
            epoch.graph
        )
        assert index.graph.shares_interning(epoch.graph)
        assert tables(index) == tables(fresh), epoch

    def ask(self, source, goal, labels, constraint, algorithm, use_cache):
        result, meta = self.service.query(
            source, goal, labels, constraint,
            algorithm=algorithm, use_cache=use_cache,
        )
        expected = self.oracle(source, goal, labels, constraint)
        assert result.answer is expected, (source, goal, constraint, result, meta)
        assert meta["epoch"] == self.epoch_id

    # ------------------------------------------------------------------

    @invariant()
    def one_reference(self):
        if not hasattr(self, "service"):
            return  # before boot
        epoch = self.service.epoch
        assert epoch.epoch_id == self.epoch_id
        assert sorted(epoch.graph.edges_named()) == sorted(
            self.mirror.edges_named()
        )
        assert self.service.audit_fingerprint() == epoch.fingerprint

    @invariant()
    def bounds_are_sound(self):
        if not hasattr(self, "service"):
            return  # before boot
        epoch = self.service.epoch
        for s in epoch.graph.vertices():
            for t in label_blind_reach(epoch.graph, s):
                assert epoch.bounds.maybe_reachable(s, t), (s, t, epoch.bounds)

    @invariant()
    def cache_counters_only_count_up(self):
        if not hasattr(self, "service"):
            return  # before boot
        counters = cache_counters(self.service)
        for key, was in self.cache_counters.items():
            assert counters[key] >= was, (key, was, counters[key])
        self.cache_counters = counters


def tables(index: LocalIndex):
    """An index's region assignment and ``II / EIT / D`` tables."""
    return (
        index.partition.region,
        {u: sorted(table.items()) for u, table in index.ii.items()},
        index.eit,
        index.d,
    )


def test_lifecycle(request):
    deep = request.config.getoption("hypothesis_profile") == "differential"
    run_state_machine_as_test(
        LifecycleMachine, settings=settings() if deep else TIER1
    )
