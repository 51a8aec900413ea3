"""The admission series render valid Prometheus text and strict-parse."""

from __future__ import annotations

from repro.obs.prometheus import parse_prometheus_text, render_metrics
from repro.service.app import QueryService
from tests.helpers import graph_from_edges


def make_graph():
    return graph_from_edges(
        [
            ("s", "go", "m"),
            ("m", "go", "t"),
            ("m", "mark", "m"),
            ("t", "go", "u"),
            ("u", "mark", "s"),
        ],
        name="tiny",
    )


QUERY = {
    "source": "s",
    "target": "t",
    "labels": ["go"],
    "constraint": "SELECT ?x WHERE { ?x <mark> ?y . }",
}


def render_names(service):
    samples = parse_prometheus_text(
        render_metrics({"default": service.stats_snapshot()}, version="test")
    )
    return samples, {name for (name, _labels) in samples}


class TestResilienceSeries:
    def test_admission_series_render(self):
        service = QueryService(make_graph(), max_concurrent=2, max_queue=1)
        try:
            service.handle_query(dict(QUERY))
            _samples, names = render_names(service)
            assert {
                "repro_admission_active",
                "repro_admission_queued",
                "repro_admission_max_concurrent",
                "repro_admission_admitted_total",
                "repro_admission_shed_total",
                "repro_requests_shed_total",
            } <= names
        finally:
            service.close()

    def test_plain_service_has_no_resilience_noise(self):
        service = QueryService(make_graph())
        try:
            service.handle_query(dict(QUERY))
            _samples, names = render_names(service)
            assert "repro_admission_active" not in names
        finally:
            service.close()
