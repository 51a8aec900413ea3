"""The bidirectional Meet kernel (``repro.core.meet``), both plans.

Which plan runs is decided by ``|V(S, G)|`` alone, so every case here
forces one by graph shape — how many vertices carry the ``mark`` edge —
and reads it back from the result (``lcs_calls`` counts legs; the meet
plan runs none).  The oracles of the verdict are the naive
two-procedure evaluator and ``find_witness``.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.substructure import SubstructureConstraint
from repro.context import RequestContext, activate
from repro.core.meet import LEGS_MAX_CANDIDATES, MeetSearch
from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.core.witness import find_witness
from repro.exceptions import DeadlineExceededError
from repro.graph.labeled_graph import KnowledgeGraph
from repro.resilience.deadline import Deadline
from repro.service.cache import CandidateCache
from tests.core.test_uis_star_linear import fan
from tests.helpers import graph_from_edges

MARKED = SubstructureConstraint.from_sparql("SELECT ?x WHERE { ?x <mark> flag . }")
VERTICES = [f"v{i}" for i in range(12)]
LABELS = ["a", "b", "c"]
#: Examples per property: tier-1's, or the ``differential`` profile's
#: when that is larger (CI's seeded deeper run).
EXAMPLES = max(150, settings.default.max_examples)
PLANS = {
    "legs": st.integers(0, LEGS_MAX_CANDIDATES),
    "meet": st.integers(LEGS_MAX_CANDIDATES + 1, len(VERTICES)),
}


def marked(*vertices):
    return [(v, "mark", "flag") for v in vertices]


def ran_plan(result) -> str:
    """Which plan produced ``result``, read off its telemetry."""
    legs = result.vsg_size <= LEGS_MAX_CANDIDATES
    assert (result.lcs_calls > 0) <= legs      # legs run on the legs plan only
    return "legs" if legs else "meet"


def checked(graph, query, plan=None):
    """Answer on the dict graph and its CSR snapshot, with and without a
    candidate cache; check verdict and plan every time."""
    expected = NaiveTwoProcedure(graph).decide(query)
    assert (find_witness(graph, query) is not None) is expected
    for form in (graph, graph.freeze()):
        for cache in (None, CandidateCache()):
            result = MeetSearch(form, candidate_cache=cache).answer(query)
            assert result.answer is expected
            assert plan is None or ran_plan(result) == plan
            if ran_plan(result) == "meet":
                # Marked at most once per side: Theorem 4.5's bound.
                assert result.passed_vertices <= form.num_vertices
    return result


@st.composite
def cases(draw, plan):
    graph = KnowledgeGraph(f"meet-{plan}")
    for vertex in VERTICES:
        graph.add_vertex(vertex)
    edge = st.tuples(
        st.sampled_from(VERTICES), st.sampled_from(LABELS), st.sampled_from(VERTICES)
    )
    for source, label, target in draw(st.lists(edge, max_size=30)):
        graph.add_edge(source, label, target)
    size = draw(PLANS[plan])
    satisfying = draw(
        st.lists(st.sampled_from(VERTICES), min_size=size, max_size=size, unique=True)
    )
    ends = [draw(st.sampled_from(VERTICES)), draw(st.sampled_from(VERTICES))]
    if satisfying and draw(st.booleans()):
        # An endpoint in V(S, G): the meet plan's plain-reachability case.
        endpoint = draw(st.sampled_from(ends))
        if endpoint not in satisfying:
            satisfying[0] = endpoint
    for source, label, target in marked(*satisfying):
        graph.add_edge(source, label, target)
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, unique=True))
    return graph, LSCRQuery.create(*ends, labels, MARKED)


class TestAgreesWithTheOracles:
    @pytest.mark.parametrize("plan", sorted(PLANS))
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_verdict_on_random_graphs(self, plan, data):
        graph, query = data.draw(cases(plan))
        checked(graph, query, plan)


    @pytest.mark.parametrize("plan", sorted(PLANS))
    @settings(max_examples=EXAMPLES * 2 // 5, deadline=None)
    @given(data=st.data())
    def test_router_pre_tests_are_the_empty_frontier_case(self, plan, data):
        """Where the router's O(1) tests say No — ``s`` has no out-edge
        or ``t`` no in-edge under the mask — the kernel says No too, and
        marks no vertex beyond the two ends and ``t``'s in-neighbours
        (or ``s``'s out-neighbours)."""
        graph, query = data.draw(cases(plan))
        frozen = graph.freeze()
        mask = query.labels.mask_for(frozen)
        kernel = MeetSearch(frozen)
        for source in VERTICES:
            for target in VERTICES:
                s, t = frozen.vid(source), frozen.vid(target)
                if s == t or (
                    frozen.out_label_mask(s) & mask and frozen.in_label_mask(t) & mask
                ):
                    continue
                result = kernel.answer(
                    LSCRQuery(source, target, query.labels, query.constraint)
                )
                assert result.answer is False
                if plan == "meet":
                    around = len(frozen.in_targets_masked(t, mask)) + len(
                        frozen.out_targets_masked(s, mask)
                    )
                    assert result.passed_vertices <= 2 + around


#: Vertices that satisfy S and touch no ``go`` edge: they only push
#: ``|V(S, G)|`` past the legs plan's limit.
BYSTANDERS = [f"x{i}" for i in range(LEGS_MAX_CANDIDATES + 1)]


@pytest.fixture(params=["legs", "meet"])
def shape(request):
    """``shape(edges, *satisfying)`` builds the graph for one plan."""

    def build(edges, *satisfying):
        extra = BYSTANDERS if request.param == "meet" else []
        graph = graph_from_edges([*edges, *marked(*satisfying, *extra)])
        return graph, request.param

    return build


def ask(built, source, target):
    graph, plan = built
    return checked(graph, LSCRQuery.create(source, target, ["go"], MARKED), plan)


class TestShapes:
    def test_trivial_path(self, shape):
        assert ask(shape([("s", "go", "a")], "s"), "s", "s").answer is True

    def test_cycle_through_a_satisfying_vertex(self, shape):
        built = shape([("s", "go", "c"), ("c", "go", "s")], "c")
        assert ask(built, "s", "s").answer is True

    def test_cycle_that_misses_every_satisfying_vertex(self, shape):
        built = shape([("s", "go", "a"), ("a", "go", "s"), ("c", "go", "s")], "c")
        assert ask(built, "s", "s").answer is False

    def test_source_is_the_satisfying_vertex(self, shape):
        assert ask(shape([("s", "go", "a"), ("a", "go", "t")], "s"), "s", "t").answer is True

    def test_target_is_the_satisfying_vertex(self, shape):
        assert ask(shape([("s", "go", "a"), ("a", "go", "t")], "t"), "s", "t").answer is True

    def test_forward_side_exhausts_first(self, shape):
        # F(s) = {s, v, a, t, c} is complete while t's other in-edges
        # still wait on the backward stack; only then is v met.
        edges = [("s", "go", "v"), ("v", "go", "a"), ("a", "go", "t"), ("s", "go", "c")]
        edges += [(f"d{i}", "go", "t") for i in range(6)]
        assert ask(shape(edges, "v"), "s", "t").answer is True
        # No candidate in the finished closure: False on the spot ...
        assert ask(shape(edges, "d0"), "s", "t").answer is False
        # ... one in it that the other side never gets to: False at the end.
        assert ask(shape(edges, "c"), "s", "t").answer is False

    def test_backward_side_exhausts_first(self, shape):
        edges = [("s", "go", "a"), ("a", "go", "v"), ("v", "go", "t"), ("c", "go", "t")]
        edges += [("s", "go", f"f{i}") for i in range(6)]
        assert ask(shape(edges, "v"), "s", "t").answer is True
        assert ask(shape(edges, "f0"), "s", "t").answer is False
        assert ask(shape(edges, "c"), "s", "t").answer is False

    def test_every_candidate_unreachable(self, shape):
        edges = [("s", "go", "a"), ("a", "go", "t"), ("c", "go", "c")]
        assert ask(shape(edges, "c"), "s", "t").answer is False

    def test_reached_candidate_that_cannot_reach_the_target(self, shape):
        edges = [("s", "go", "c"), ("s", "go", "a"), ("a", "go", "t")]
        assert ask(shape(edges, "c"), "s", "t").answer is False


class TestEndpointInVSG:
    """Meet plan, ``s`` or ``t`` in ``V(S, G)``: plain reachability.
    ``TestShapes`` holds ``s``, ``t`` and ``s == t`` alone; these are the
    rest."""

    EDGES = [("s", "go", "a"), ("a", "go", "t")]

    def ask(self, edges, *satisfying):
        graph = graph_from_edges([*edges, *marked(*satisfying, *BYSTANDERS)])
        return checked(graph, LSCRQuery.create("s", "t", ["go"], MARKED), "meet")

    def test_both_endpoints_satisfy(self):
        assert self.ask(self.EDGES, "s", "t").answer is True

    def test_the_sides_meet_outside_vsg(self):
        # Both fans are big; the sides meet at `a`, which does not
        # satisfy, before the backward side ever reaches `s`.
        edges = [*self.EDGES, *(("s", "go", f"f{i}") for i in range(6))]
        edges += [(f"d{i}", "go", "t") for i in range(6)]
        result = self.ask(edges, "s")
        assert result.answer is True
        # s, its seven out-neighbours and t.  Meeting only at V(S, G)
        # would walk every d_i too, before meeting at s: 15.
        assert result.passed_vertices == 9


class TestSingleCandidate:
    """``|V(S, G)| = 1`` — the shape the legs plan exists for."""

    EDGES = [("s", "go", "a"), ("a", "go", "b"), ("b", "go", "t")]

    @pytest.mark.parametrize("v", ["s", "t", "a"])
    def test_two_legs_through_the_candidate(self, v):
        graph = graph_from_edges([*self.EDGES, *marked(v)])
        result = checked(graph, LSCRQuery.create("s", "t", ["go"], MARKED), "legs")
        assert result.answer is True
        assert result.lcs_calls == 2 and result.vsg_size == 1

    def test_a_failed_first_leg_skips_the_second(self):
        graph = graph_from_edges([*self.EDGES, ("c", "go", "t"), *marked("c")])
        result = checked(graph, LSCRQuery.create("s", "t", ["go"], MARKED), "legs")
        assert result.answer is False and result.lcs_calls == 1


def two_fans(n: int):
    """``s`` fans out to ``n`` satisfying dead ends and ``n`` more fan in
    to ``t``: both closures are big, both hold candidates, none is in
    both — so the side left over has a whole frontier to discard."""
    graph = KnowledgeGraph(f"two-fans-{n}")
    for i in range(n):
        graph.add_edge("s", "go", f"c{i}")
        graph.add_edge(f"d{i}", "go", "t")
        graph.add_edge(f"c{i}", "mark", "flag")
        graph.add_edge(f"d{i}", "mark", "flag")
    return graph.freeze(), LSCRQuery.create("s", "t", ["go"], MARKED)


def search_seconds(graph, query) -> float:
    """Best of three in CPU time (the suite shares its machine), with
    ``V(S, G)`` already in the candidate cache."""
    cache = CandidateCache()
    cache.get(query.constraint, graph)
    kernel = MeetSearch(graph, candidate_cache=cache)
    best = float("inf")
    for _ in range(3):
        started = time.process_time()
        result = kernel.answer(query)
        best = min(best, time.process_time() - started)
        assert result.answer is False
        assert ran_plan(result) == "meet"
        assert result.passed_vertices <= 2 * graph.num_vertices
    return best


class TestLinear:
    """The twin of ``test_uis_star_linear.py``: one pass, Theorem 4.5."""

    @pytest.mark.parametrize("shape", [fan, two_fans])
    def test_four_times_the_graph_is_about_four_times_the_work(self, shape):
        small = search_seconds(*shape(6_250))
        large = search_seconds(*shape(25_000))
        assert large < 0.5
        assert large < 8 * small

    def test_fan_is_settled_by_the_small_backward_closure(self):
        graph, query = fan(1_000)
        result = MeetSearch(graph).answer(query)
        # s and its 1000 candidates, then t and `elsewhere`: B(t) is
        # complete, holds no candidate, and nothing else is looked at.
        assert result.passed_vertices == 1_003


class TestDeadline:
    def test_expiry_inside_the_kernel_is_a_structured_504(self):
        graph, query = fan(50_000)
        cache = CandidateCache()
        cache.get(query.constraint, graph)         # V(S, G) is not on the clock
        kernel = MeetSearch(graph, candidate_cache=cache)
        with activate(RequestContext(deadline=Deadline.after_ms(1))):
            with pytest.raises(DeadlineExceededError) as excinfo:
                kernel.answer(query)
        error = excinfo.value
        assert error.status == 504 and error.detail["where"] == "meet"
        partial = error.detail["partial"]
        assert 2 <= partial["passed_vertices"] <= graph.num_vertices
        assert partial["lcs_calls"] == 0

    def test_expiry_between_legs_counts_the_legs_run(self):
        graph = graph_from_edges([("s", "go", "v"), ("v", "go", "t"), *marked("v")])
        query = LSCRQuery.create("s", "t", ["go"], MARKED)
        expired = Deadline(5.0, started=time.perf_counter() - 1.0)
        with activate(RequestContext(deadline=expired)):
            with pytest.raises(DeadlineExceededError) as excinfo:
                MeetSearch(graph).answer(query)
        assert excinfo.value.detail["where"] == "meet"
        assert excinfo.value.detail["partial"]["lcs_calls"] == 1
