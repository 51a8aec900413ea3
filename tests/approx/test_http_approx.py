"""HTTP surface of the short-circuit router: /query, /stats, /metrics,
/debug/slow, /tenants."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.prometheus import parse_prometheus_text
from repro.service.app import QueryService
from tests.helpers import graph_from_edges, running_server

MARK = "SELECT ?x WHERE { ?x <mark> ?y . }"
TRUE_SPEC = {
    "source": "s", "target": "t", "labels": ["go"], "constraint": MARK,
}
NO_SPEC = {
    "source": "t", "target": "s", "labels": ["go"], "constraint": MARK,
}
GUESS_SPEC = {
    "source": "u", "target": "w", "labels": ["go"], "constraint": MARK,
}


def make_service(**kwargs):
    graph = graph_from_edges(
        [
            ("s", "go", "m"),
            ("m", "go", "t"),
            ("m", "mark", "m"),
            ("u", "go", "w"),
        ]
    )
    return QueryService(graph, seed=0, slow_ms=0.0, **kwargs)


@pytest.fixture()
def base_url():
    with running_server(make_service()) as url:
        yield url


def post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def get_text(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode()


class TestExactOnly:
    def test_mode_param_gets_the_exact_answer(self, base_url):
        # (u, w) is label-blind reachable but constraint-false: a guess
        # from the bounds would say True.  A ?mode= key is ignored like
        # any other unconsumed one, and the answer is the exact one.
        for path in ("/query", "/query?mode=approximate"):
            status, body = post(
                f"{base_url}{path}", {**GUESS_SPEC, "use_cache": False}
            )
            assert status == 200
            assert body["answer"] is False
            assert body["algorithm"] == "Meet"
            assert body["tier"] == "exact"

    def test_any_mode_value_is_ignored(self, base_url):
        status, body = post(f"{base_url}/query?mode=turbo", TRUE_SPEC)
        assert status == 200
        assert body["answer"] is True

    def test_batch_answers_exactly(self, base_url):
        status, body = post(
            f"{base_url}/batch?mode=approximate",
            {"queries": [GUESS_SPEC, NO_SPEC], "use_cache": False},
        )
        assert status == 200
        results = body["results"]
        assert [item["answer"] for item in results] == [False, False]
        assert [item["tier"] for item in results] == ["exact", "short-circuit"]

    @pytest.mark.parametrize(
        "option, value", [("approx_default", True), ("approx_recheck", 0.5)]
    )
    def test_removed_tenant_options_are_unknown(
        self, base_url, tmp_path, option, value
    ):
        graph_file = tmp_path / "dyn.tsv"
        graph_file.write_text("a\tgo\tb\n")
        status, body = post(
            f"{base_url}/tenants",
            {"name": "dyn", "graph": str(graph_file), option: value},
        )
        assert status == 400
        assert f"unknown option {option!r}" in body["error"]["message"]


class TestStatsAndMetrics:
    def test_stats_approx_section(self, base_url):
        post(f"{base_url}/query", NO_SPEC)
        post(f"{base_url}/query", GUESS_SPEC)
        status, document = get_json(f"{base_url}/stats")
        assert status == 200
        approx = document["approx"]
        assert approx["enabled"] is True
        assert approx["routed"] == 2
        assert approx["short_circuit_no"] == 1
        assert approx["exact_fallthrough"] == 1
        assert approx["bounds"]["mode"] == "closure"
        assert document["config"]["approx"] is True

    def test_metrics_families_strict_parse(self, base_url):
        post(f"{base_url}/query", NO_SPEC)
        post(f"{base_url}/query", TRUE_SPEC)
        post(f"{base_url}/query", GUESS_SPEC)
        status, text = get_text(f"{base_url}/metrics")
        assert status == 200
        # Strict parse: any malformed line or TYPE header raises.
        samples = parse_prometheus_text(text)
        names = {name for name, _labels in samples}
        for name in (
            "repro_approx_routed_total",
            "repro_approx_short_circuit_no_total",
            "repro_approx_short_circuit_yes_total",
            "repro_approx_exact_fallthrough_total",
            "repro_approx_short_circuit_rate",
            "repro_approx_witness_entries",
            "repro_approx_bounds_components",
        ):
            assert name in names, f"missing family {name}"
        routed = sum(
            value for (name, _labels), value in samples.items()
            if name == "repro_approx_routed_total"
        )
        assert routed >= 3

    def test_flight_recorder_records_tier(self, base_url):
        post(f"{base_url}/query", NO_SPEC)
        post(f"{base_url}/query", TRUE_SPEC)
        post(f"{base_url}/query", GUESS_SPEC)
        status, document = get_json(f"{base_url}/debug/slow")
        assert status == 200
        entries = document["tenants"]["default"]["entries"]
        tiers = {entry["tier"] for entry in entries}
        # slow_ms=0 records everything: both tiers show up.
        assert tiers == {"short-circuit", "exact"}

    def test_flight_recorder_tier_is_the_responses(self, base_url):
        # Neither a forced plan nor a result-cache hit meets the router:
        # the response carries no tier, and neither does its entry.
        _, forced = post(f"{base_url}/query", {**TRUE_SPEC, "algorithm": "uis"})
        post(f"{base_url}/query", NO_SPEC)
        _, cached = post(f"{base_url}/query", NO_SPEC)
        assert cached["cached"] is True
        assert "tier" not in forced and "tier" not in cached
        status, document = get_json(f"{base_url}/debug/slow")
        assert status == 200
        entries = document["tenants"]["default"]["entries"]
        untiered = [
            entry for entry in entries
            if entry["algorithm"] == forced["algorithm"]
            or entry["meta"]["cached"]
        ]
        assert len(untiered) == 2
        assert all(entry["tier"] is None for entry in untiered)


class TestTenantOptions:
    def test_register_tenant_with_approx_option(self, base_url, tmp_path):
        graph_file = tmp_path / "dyn.tsv"
        graph_file.write_text("a\tgo\tb\n")
        status, _ = post(
            f"{base_url}/tenants",
            {"name": "dyn", "graph": str(graph_file), "approx": True},
        )
        assert status == 201
        status, body = post(
            f"{base_url}/t/dyn/query",
            {"source": "a", "target": "b", "labels": ["go"],
             "constraint": "SELECT ?x WHERE { ?x <go> ?y . }"},
        )
        assert status == 200
        assert body["answer"] is True
        assert body["tier"] in ("exact", "short-circuit")
