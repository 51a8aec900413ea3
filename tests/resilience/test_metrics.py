"""The new resilience series render valid Prometheus text and strict-parse."""

from __future__ import annotations

from repro.obs.prometheus import parse_prometheus_text, render_metrics
from repro.resilience.faults import FaultRule, FaultyWorker
from repro.resilience.retry import RetryPolicy
from repro.service.app import QueryService
from tests.helpers import graph_from_edges, sharded_fleet


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
    def test_faulted_sharded_service_renders_breaker_series(self):
        with sharded_fleet(
            make_graph(),
            shards=3,
            local_fast_path=False,
            degraded_answers=True,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.001, seed=1),
        ) as service:
            for index, worker in enumerate(list(service.workers)):
                wrapper = FaultyWorker(
                    worker, [FaultRule("error")], name=f"shard{index}"
                )
                service.workers[index] = wrapper
                service.coordinator.workers[index] = wrapper
            result, _ = service.query(**QUERY)
            assert result.degraded is not None
            samples, names = render_names(service)
            assert {
                "repro_resilience_retries_total",
                "repro_resilience_worker_failures_total",
                "repro_resilience_degraded_answers_total",
                "repro_resilience_degraded_mode",
                "repro_resilience_breaker_state",
                "repro_degraded_answers_total",
            } <= names
            breaker_states = {
                labels: value
                for (name, labels), value in samples.items()
                if name == "repro_resilience_breaker_state"
            }
            assert len(breaker_states) == 3  # one gauge per shard
            failures = sum(
                value for (name, _l), value in samples.items()
                if name == "repro_resilience_worker_failures_total"
            )
            assert failures >= 1

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
            assert "repro_resilience_breaker_state" not in names
        finally:
            service.close()
