"""Randomized chaos suite: under injected faults, answers are exact,
soundly degraded, or structured errors — never wrong and never hung.

Each seed fully determines the graph, the fault plan, and the query mix
(fault rules are pure counter arithmetic), so a failing seed replays
deterministically.  Hang durations are kept short (0.3s) because
``coordinator.close()`` drains the scatter pool with ``wait=True``.
"""

from __future__ import annotations

import random
from contextlib import ExitStack
from time import perf_counter

from repro.context import RequestContext, activate
from repro.exceptions import (
    DeadlineExceededError,
    OverloadedError,
    ShardUnavailableError,
)
from repro.resilience.deadline import Deadline
from repro.resilience.faults import FaultRule, FaultyWorker
from repro.resilience.retry import RetryPolicy
from repro.service.app import QueryService
from tests.helpers import graph_from_edges, sharded_fleet

SEEDS = range(30)
VERTICES = 20
CONSTRAINT = "SELECT ?x WHERE { ?x <mark> ?y . }"

#: Structured refusals a faulted fleet may answer with.
STRUCTURED = (DeadlineExceededError, OverloadedError, ShardUnavailableError)

#: Per-query wall-clock ceiling: worst case is a hang (0.3s) absorbed by
#: the scatter timeout on both phases plus retries and bookkeeping.
MAX_QUERY_SECONDS = 5.0


def build_graph(rng: random.Random, seed: int):
    names = [f"v{i}" for i in range(VERTICES)]
    edges = []
    for name in names:
        for _ in range(rng.randint(1, 3)):
            edges.append((name, rng.choice(("go", "go", "mark")),
                          rng.choice(names)))
    # Guarantee both labels exist so no query is rejected outright.
    edges.append((names[0], "go", names[1]))
    edges.append((names[1], "mark", names[2]))
    return graph_from_edges(edges, name=f"chaos{seed}"), names


def random_rules(rng: random.Random) -> list[FaultRule]:
    rules = []
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(("slow", "drop", "error", "flap", "hang"))
        rules.append(
            FaultRule(
                kind,
                start=rng.randint(1, 3),
                every=rng.randint(1, 3),
                count=1 if kind == "hang" else rng.choice((1, 2, 3, None)),
                duration={"hang": 0.3, "slow": 0.02}.get(kind),
            )
        )
    return rules


def check_response(result, oracle_answer: bool) -> None:
    if result.degraded is None:
        assert result.answer == oracle_answer
    elif result.degraded["verdict"] == "reachable":
        # A degraded True must be a real True (edge-subset monotonicity).
        assert result.answer is True
        assert oracle_answer is True
    else:
        assert result.degraded["verdict"] == "unknown"
        assert result.answer is False


def run_seed(seed: int) -> dict:
    rng = random.Random(1000 + seed)
    graph, names = build_graph(rng, seed)
    oracle = QueryService(graph)
    outcomes = {"exact": 0, "degraded": 0, "refused": 0}
    with ExitStack() as stack:
        stack.callback(oracle.close)
        service = stack.enter_context(sharded_fleet(
            graph,
            shards=3,
            local_fast_path=bool(seed % 3),
            degraded_answers=bool(seed % 2),
            scatter_timeout=0.15,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.01, seed=seed, sleep=lambda _d: None
            ),
        ))
        for index in rng.sample(range(len(service.workers)),
                                rng.randint(1, 2)):
            wrapper = FaultyWorker(
                service.workers[index],
                random_rules(rng),
                name=f"shard{index}",
            )
            service.workers[index] = wrapper
            service.coordinator.workers[index] = wrapper
        for _ in range(4):
            source, target = rng.sample(names, 2)
            labels = rng.choice((["go"], ["go", "mark"]))
            spec = dict(
                source=source, target=target, labels=labels,
                constraint=CONSTRAINT,
            )
            expected, _ = oracle.query(**spec)
            budget_ms = rng.choice((None, 400.0))
            scope = activate(
                RequestContext(deadline=Deadline.after_ms(budget_ms))
                if budget_ms is not None
                else None
            )
            started = perf_counter()
            try:
                with scope:
                    result, _ = service.query(**spec, use_cache=False)
            except STRUCTURED:
                outcomes["refused"] += 1
            else:
                check_response(result, expected.answer)
                key = "exact" if result.degraded is None else "degraded"
                outcomes[key] += 1
            assert perf_counter() - started < MAX_QUERY_SECONDS
    return outcomes


class TestChaos:
    def test_thirty_seeds_never_answer_wrong(self):
        totals = {"exact": 0, "degraded": 0, "refused": 0}
        for seed in SEEDS:
            for key, value in run_seed(seed).items():
                totals[key] += value
        assert sum(totals.values()) == len(SEEDS) * 4
        # The suite is only meaningful if faults actually bite sometimes
        # AND plenty of queries still come back exact.
        assert totals["exact"] > 0
        assert totals["degraded"] + totals["refused"] > 0

    def test_failing_seed_replays_identically(self):
        assert run_seed(7) == run_seed(7)
