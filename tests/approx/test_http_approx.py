"""HTTP surface of the approx tier: ?mode=, /stats, /metrics, /debug/slow."""

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
    with running_server(make_service(approx_recheck=1.0)) as url:
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


class TestModeParam:
    def test_exact_mode_is_default(self, base_url):
        status, body = post(f"{base_url}/query", GUESS_SPEC)
        assert status == 200
        assert body["answer"] is False
        assert body["tier"] == "exact"

    def test_approximate_mode(self, base_url):
        status, body = post(f"{base_url}/query?mode=approximate", GUESS_SPEC)
        assert status == 200
        assert body["answer"] is True
        assert body["algorithm"] == "approx"
        assert body["tier"] == "approximate"

    def test_short_circuit_stays_exact_in_approximate_mode(self, base_url):
        status, body = post(f"{base_url}/query?mode=approximate", NO_SPEC)
        assert status == 200
        assert body["answer"] is False
        assert body["tier"] == "short-circuit"

    def test_invalid_mode_400(self, base_url):
        status, body = post(f"{base_url}/query?mode=turbo", TRUE_SPEC)
        assert status == 400
        assert "mode" in body["error"]["message"]

    def test_batch_mode(self, base_url):
        status, body = post(
            f"{base_url}/batch?mode=approximate",
            {"queries": [GUESS_SPEC, NO_SPEC]},
        )
        assert status == 200
        tiers = [item["tier"] for item in body["results"]]
        assert tiers == ["approximate", "short-circuit"]


class TestStatsAndMetrics:
    def test_stats_approx_section(self, base_url):
        post(f"{base_url}/query", NO_SPEC)
        post(f"{base_url}/query?mode=approximate", GUESS_SPEC)
        status, document = get_json(f"{base_url}/stats")
        assert status == 200
        approx = document["approx"]
        assert approx["enabled"] is True
        assert approx["short_circuit_no"] >= 1
        assert approx["approximate_answers"] == 1
        assert approx["rechecks"] == 1  # recheck_rate=1.0 in the fixture
        assert approx["recheck_mismatches"] == 1
        assert approx["false_rate"] == 1.0
        assert approx["bounds"]["mode"] == "closure"
        assert document["config"]["approx"] is True

    def test_metrics_families_strict_parse(self, base_url):
        post(f"{base_url}/query", NO_SPEC)
        post(f"{base_url}/query", TRUE_SPEC)
        post(f"{base_url}/query?mode=approximate", GUESS_SPEC)
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
            "repro_approx_answers_total",
            "repro_approx_rechecks_total",
            "repro_approx_recheck_mismatches_total",
            "repro_approx_false_rate",
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
        post(f"{base_url}/query?mode=approximate", GUESS_SPEC)
        status, document = get_json(f"{base_url}/debug/slow")
        assert status == 200
        entries = document["tenants"]["default"]["entries"]
        tiers = {entry["tier"] for entry in entries}
        # slow_ms=0 records everything: all three tiers show up.
        assert {"short-circuit", "exact", "approximate"} <= tiers


class TestTenantOptions:
    def test_register_tenant_with_approx_options(self, base_url, tmp_path):
        graph_file = tmp_path / "dyn.tsv"
        graph_file.write_text("a\tgo\tb\n")
        status, _ = post(
            f"{base_url}/tenants",
            {
                "name": "dyn",
                "graph": str(graph_file),
                "approx": True,
                "approx_default": True,
                "approx_recheck": 0.5,
            },
        )
        assert status == 201
        status, body = post(
            f"{base_url}/t/dyn/query",
            {"source": "a", "target": "b", "labels": ["go"],
             "constraint": "SELECT ?x WHERE { ?x <go> ?y . }"},
        )
        assert status == 200
        # approx_default=True: no ?mode= needed for the approximate tier.
        assert body["tier"] in ("approximate", "short-circuit")

    def test_invalid_recheck_option_rejected(self, base_url, tmp_path):
        graph_file = tmp_path / "bad.tsv"
        graph_file.write_text("a\tgo\tb\n")
        status, _ = post(
            f"{base_url}/tenants",
            {
                "name": "bad",
                "graph": str(graph_file),
                "approx_recheck": 2.0,
            },
        )
        assert status == 400
