"""50-seed randomized properties of the short-circuit router.

Four claims, each against an independent oracle:

* **agreement** — the routed service answers every query
  bit-identically to the naive oracle (short-circuits are sound, never
  lossy);
* **witness validity** — every witness path the router caches verifies
  under :func:`repro.core.witness.verify_witness` on the current graph;
* **honest accounting** — the router's counters in ``/stats`` equal an
  exact recount of the tiers the responses carried;
* **every evaluated answer is cacheable** — a repeat is a result-cache
  hit carrying the oracle's answer and no tier.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.approx.router import BOUNDS_ALGORITHM, WITNESS_ALGORITHM
from repro.constraints.label_constraint import LabelConstraint
from repro.constraints.substructure import SubstructureConstraint
from repro.core.query import LSCRQuery
from repro.core.witness import verify_witness
from repro.service.app import QueryService

from tests.service.test_agreement_service import (
    make_graph,
    naive_answer,
    random_specs,
)

SEEDS = list(range(50))


class TestExactModeAgreement:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_to_oracle(self, seed):
        graph = make_graph(seed)
        routed = QueryService(graph, seed=seed)
        rng = random.Random(seed * 6151 + 11)
        parsed = {}
        try:
            # use_cache=False so repeats exercise the witness tier, not
            # the result cache — every answer is the router's own.
            for source, target, labels, text in random_specs(rng, 3, 9):
                expected = naive_answer(graph, source, target, labels,
                                        text, parsed)
                for _ in range(2):
                    mine, meta = routed.query(
                        source, target, labels, text, use_cache=False
                    )
                    assert mine.answer == expected, (
                        f"seed={seed} {source}->{target} L={labels} "
                        f"S={text!r}: routed={mine.answer} "
                        f"({mine.algorithm}) naive={expected} "
                        f"({meta['reason']})"
                    )
        finally:
            routed.close()


class TestWitnessValidity:
    @pytest.mark.parametrize("seed", SEEDS[::2])
    def test_every_cached_witness_verifies(self, seed):
        graph = make_graph(seed)
        service = QueryService(graph, seed=seed)
        rng = random.Random(seed * 13007 + 5)
        try:
            evaluated_true = 0
            for source, target, labels, text in random_specs(
                rng, 3, 9, count=12
            ):
                result, meta = service.query(
                    source, target, labels, text, use_cache=False
                )
                # Trivial answers (and short-circuits) never reach the
                # witness extractor; only evaluated True answers do.
                if (result.answer and not meta["trivial"]
                        and meta.get("tier") == "exact"):
                    evaluated_true += 1
            cache = service.approx.witnesses
            assert len(cache) > 0 or evaluated_true == 0, (
                f"seed={seed}: no witness cached despite "
                f"{evaluated_true} evaluated true answers"
            )
            for key, witness in list(cache._entries.items()):
                source, target, labels, text = key
                query = LSCRQuery(
                    source=source,
                    target=target,
                    labels=LabelConstraint(list(labels)),
                    constraint=SubstructureConstraint.from_sparql(text),
                )
                assert verify_witness(service.graph, query, witness), (
                    f"seed={seed}: cached witness for {key} fails "
                    f"verification: {witness}"
                )
        finally:
            service.close()


class TestRouterAccounting:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_counters_match_a_recount_of_the_tiers(self, seed):
        graph = make_graph(seed)
        service = QueryService(graph, seed=seed)
        rng = random.Random(seed * 21911 + 3)
        parsed = {}
        recount = Counter()
        try:
            for source, target, labels, text in random_specs(
                rng, 3, 9, count=10
            ):
                expected = naive_answer(graph, source, target, labels,
                                        text, parsed)
                # The repeat meets the witness cache, not the result
                # cache: every non-trivial answer is the router's own.
                for _ in range(2):
                    result, meta = service.query(
                        source, target, labels, text, use_cache=False
                    )
                    assert result.answer == expected, (
                        f"seed={seed} {source}->{target} L={labels} "
                        f"S={text!r}: tier {meta.get('tier')} answered "
                        f"{result.answer} != oracle {expected}"
                    )
                    if meta["trivial"]:
                        assert "tier" not in meta
                    elif meta["tier"] == "short-circuit":
                        recount[result.algorithm] += 1
                    else:
                        assert meta["tier"] == "exact"
                        recount["exact"] += 1
            stats = service.approx.stats()
            assert set(recount) <= {BOUNDS_ALGORITHM, WITNESS_ALGORITHM,
                                    "exact"}
            assert stats["short_circuit_no"] == recount[BOUNDS_ALGORITHM]
            assert stats["short_circuit_yes"] == recount[WITNESS_ALGORITHM]
            assert stats["exact_fallthrough"] == recount["exact"]
            assert stats["routed"] == sum(recount.values())
        finally:
            service.close()


class TestEvaluatedAnswersAreCached:
    @pytest.mark.parametrize("seed", SEEDS[::2])
    def test_repeat_is_a_cache_hit_with_the_oracle_answer(self, seed):
        graph = make_graph(seed)
        service = QueryService(graph, seed=seed)
        rng = random.Random(seed * 4099 + 7)
        parsed = {}
        try:
            for source, target, labels, text in random_specs(
                rng, 3, 9, count=12
            ):
                expected = naive_answer(graph, source, target, labels,
                                        text, parsed)
                first, first_meta = service.query(source, target, labels, text)
                repeat, meta = service.query(source, target, labels, text)
                assert first.answer == repeat.answer == expected, (
                    f"seed={seed} {source}->{target} L={labels} "
                    f"S={text!r}: first={first.answer} "
                    f"repeat={repeat.answer} naive={expected}"
                )
                if first_meta["trivial"]:
                    continue
                # Whatever tier settled the first answer, it was stored:
                # the repeat never reaches the router and carries no tier.
                assert meta["cached"] is True, (
                    f"seed={seed}: {first_meta.get('tier')} answer from "
                    f"{first.algorithm} was not cached"
                )
                assert "tier" not in meta
        finally:
            service.close()
