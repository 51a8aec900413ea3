"""Trace propagation across the shard wire: one stitched span tree.

The acceptance scenario: a 2-shard query served through *remote*
HTTP workers yields a single trace in which the coordinator span
parents every worker ``expand`` span (shipped back over the wire as a
dict and stitched in), round spans carry per-round frontier sizes, and
the span counts agree with the coordinator's own telemetry.
"""

from __future__ import annotations

import json
from contextlib import ExitStack

from repro.context import RequestContext, activate
from repro.core.query import LSCRQuery
from repro.datasets.synthetic import random_labeled_graph
from repro.obs.trace import Trace
from repro.shard.coordinator import ShardCoordinator
from tests.helpers import sharded_fleet

CONSTRAINT = "SELECT ?x WHERE { ?x <l0> ?y . }"


def _spans(node: dict, name: str) -> list[dict]:
    """Every span called ``name`` anywhere under ``node`` (dict tree)."""
    found = []
    for child in node.get("children", []):
        if child.get("name") == name:
            found.append(child)
        found.extend(_spans(child, name))
    return found


def _traced_answer(coordinator, query, epoch) -> dict:
    trace = Trace("query")
    with activate(RequestContext(trace)):
        coordinator.answer(query, epoch)
    return trace.finish().to_dict()


def _queries(graph):
    names = [f"n{i}" for i in range(graph.num_vertices)][:6]
    for source in names[:3]:
        for target in names[3:]:
            yield LSCRQuery.create(
                source, target, ["l0", "l1", "l2"], CONSTRAINT
            )


class TestRemoteTracePropagation:
    def test_two_shard_remote_query_yields_one_stitched_tree(self):
        graph = random_labeled_graph(24, 2.0, 4, rng=3, name="trace-remote")
        with ExitStack() as stack:
            sharded = stack.enter_context(
                sharded_fleet(graph, seed=3, shards=2, local_fast_path=False)
            )
            # A coordinator of its own over the fleet's stubs; rounds
            # gather in shard order, so the span tree is deterministic.
            remote = ShardCoordinator(sharded.workers, local_fast_path=False)
            stack.callback(remote.close)
            base = sharded.workers[0].base_url
            scattered = None
            for query in _queries(graph):
                document = _traced_answer(remote, query, sharded.epoch)
                coordinators = _spans(document, "coordinator")
                assert len(coordinators) == 1
                coordinator = coordinators[0]
                rounds = _spans(coordinator, "round")
                expands = _spans(coordinator, "expand")
                # Telemetry and the span tree must tell the same story.
                assert coordinator["attrs"]["rounds"] == len(rounds)
                assert coordinator["attrs"]["expand_calls"] == len(expands)
                # Every expand was parented under a round, not loose.
                assert sum(
                    len(_spans(round_span, "expand")) for round_span in rounds
                ) == len(expands)
                for round_span in rounds:
                    assert round_span["attrs"]["frontier_size"] >= 1
                    assert round_span["attrs"]["phase"] in ("phase1", "phase2")
                for expand in expands:
                    # The wire carried the trace id out and the span back.
                    assert expand["attrs"]["trace_id"] == (
                        document["trace_id"]
                    )
                    assert expand["attrs"]["remote"] == base
                    assert expand["attrs"]["shard"] in (0, 1)
                    assert expand["seconds"] >= 0.0
                if expands and {
                    expand["attrs"]["shard"] for expand in expands
                } == {0, 1}:
                    scattered = document
            # At least one of the probe queries genuinely fanned out to
            # both remote shards — the scenario the ISSUE names.
            assert scattered is not None

    def test_untraced_remote_query_ships_no_span(self):
        graph = random_labeled_graph(16, 2.0, 3, rng=1, name="untraced")
        with sharded_fleet(
            graph, seed=1, shards=2, local_fast_path=False
        ) as sharded:
            worker = sharded.workers[0]
            seeds = [
                vid for vid in range(sharded.graph.num_vertices)
                if sharded.shard_plan.shard_of[vid] == 0
            ][:2]
            mask = (1 << sharded.graph.num_labels) - 1
            result = worker.expand(seeds, mask)
            assert result.span is None          # no trace, no payload tax
            with activate(RequestContext(Trace("query", trace_id="abc123"))):
                traced = worker.expand(seeds, mask)
            assert traced.span is not None
            assert traced.span["attrs"]["trace_id"] == "abc123"
            assert traced.reached == result.reached


class TestServiceTrace:
    def test_sharded_handle_query_returns_stitched_trace(self):
        graph = random_labeled_graph(24, 2.0, 4, rng=3, name="trace-local")
        with sharded_fleet(
            graph, seed=3, shards=2, local_fast_path=False, slow_ms=0.0
        ) as service:
            names = [f"n{i}" for i in range(graph.num_vertices)]
            document = None
            for source in names[:4]:
                for target in names[-4:]:
                    candidate = json.loads(service.handle_query(
                        {
                            "source": source,
                            "target": target,
                            "labels": ["l0", "l1", "l2"],
                            "constraint": CONSTRAINT,
                        },
                        trace=True,
                    ))
                    if _spans(candidate["trace"], "expand"):
                        document = candidate
                        break
                if document:
                    break
            assert document is not None
            trace = document["trace"]
            assert trace["name"] == "query"
            coordinator = _spans(trace, "coordinator")[0]
            expands = _spans(coordinator, "expand")
            assert coordinator["attrs"]["expand_calls"] == len(expands)
            for expand in expands:
                assert expand["attrs"]["trace_id"] == trace["trace_id"]
                assert expand["attrs"]["remote"] == service.workers[0].base_url
