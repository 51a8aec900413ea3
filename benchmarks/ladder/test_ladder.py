"""Smoke tests of the ladder's own machinery (LUBM D0, in-process server).

The benchmark proper runs subprocess servers for tens of seconds; these
check the parts whose mistakes would silently bend every number: stream
determinism, percentile and self-time arithmetic, the correctness gate,
the writer's due times, the slow-down factor, and that ``BENCHMARK.json``
names what is emitted.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro.core.query import LSCRQuery
from repro.core.uis import UIS
from repro.datasets.lubm import ALL_CONSTRAINTS, generate_lubm
from repro.index.local_index import build_local_index
from repro.service.app import QueryService
from repro.service.http import create_server

from ladder import client, report, spans, spec, streams, workloads
from ladder.oracle import Oracle

D0_DEPARTMENTS = 2
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def graph():
    return generate_lubm(D0_DEPARTMENTS, rng=0)


@pytest.fixture(scope="module")
def pool(graph):
    return streams.build_pool(Oracle(graph, ALL_CONSTRAINTS), 0, "light", 22)


@pytest.fixture()
def server(graph):
    """An in-process server on an ephemeral port, updates allowed."""
    served = graph.copy()  # updates must not leak into the shared fixture
    service = QueryService(served, build_local_index(served, rng=0))
    httpd = create_server(service, port=0, allow_updates=True)
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    try:
        yield httpd.server_address[:2]
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _inputs(graph, pool, schedule=()):
    return workloads.Inputs(
        spec.WORKLOAD_BY_NAME["read_write" if schedule else "search"],
        0, graph, Path("unused"), pool, streams.once_stream(len(pool), 4),
        list(schedule), prep_s=0.0,
    )


def _requests(seed, graph):
    pool = streams.build_pool(Oracle(graph, ALL_CONSTRAINTS), seed, "light", 22)
    stream = streams.zipf_stream(seed, len(pool), 40, 4) + streams.once_stream(len(pool), 4)
    bodies = [streams.request_body(pool, request) for request in stream]
    updates = [streams.update_body(b) for b in streams.update_schedule(seed, graph, 3)]
    return bodies, updates


def test_same_seed_gives_byte_identical_requests(graph):
    assert _requests(5, graph) == _requests(5, graph)
    assert _requests(5, graph) != _requests(6, graph)


def test_cached_pool_round_trips(pool):
    document = json.loads(json.dumps(streams.pool_document(pool)))
    assert streams.load_pool(document) == pool


def test_streams_interleave_batches():
    stream = streams.once_stream(22, 4)
    assert [len(request) for request in stream] == [1, 1, 1, 8] * 2
    assert sorted(index for request in stream for index in request) == list(range(22))
    assert [len(request) for request in streams.once_stream(30, 16)] == [1] * 15 + [8]
    assert [len(r) for r in streams.zipf_stream(0, 22, 8, 4)] == [1, 1, 1, 8] * 2


def test_oracle_agrees_with_uis(graph, pool):
    uis = UIS(graph.freeze())
    hard = streams.build_pool(Oracle(graph, ALL_CONSTRAINTS), 0, "hard", 11)
    for query in pool + hard:
        asked = LSCRQuery.create(
            query.spec["source"], query.spec["target"], query.spec["labels"],
            query.spec["constraint"],
        )
        assert uis.answer(asked).answer == query.expected
    assert {query.expected for query in pool + hard} == {True, False}


def test_nearest_rank_percentile_and_sample_counts():
    values = [float(v) for v in range(1, 21)]
    assert report.percentile(values, 50) == 10.0
    assert report.percentile(values, 95) == 19.0
    assert report.percentile(values, 100) == 20.0
    assert report.percentile([7.0], 99) == 7.0
    assert report.percentile([], 50) == 0.0
    text = report.format_metrics(
        "t", spec.END_TO_END, {m.name: 1.0 for m in spec.END_TO_END},
        {"query_p50_ms": 20},
    )
    assert "query_p50_ms" in text and "n=20" in text and "bound 25%" in text


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] with children [1, 4], [3, 6] (overlapping: union 5) and
    # [8, 12] (sticks out: clipped to 2); the first child has a child [2, 3].
    rows = [
        ["root", 0.0, 10.0, 1, 0, 1, ""],
        ["a", 1.0, 4.0, 2, 1, 1, ""],
        ["b", 3.0, 6.0, 3, 1, 1, ""],
        ["c", 8.0, 12.0, 4, 1, 1, ""],
        ["leaf", 2.0, 3.0, 5, 2, 1, ""],
    ]
    table = spans.SpanTable(rows)
    assert table.self_s[1] == pytest.approx(3.0)
    assert table.self_s[2] == pytest.approx(2.0)
    assert table.self_s[5] == pytest.approx(1.0)
    assert table.under(tuple(rows[4]), "root") and not table.under(tuple(rows[1]), "a")


def test_recorder_parents_spans_across_threads():
    recorder = spans.Recorder()
    with recorder.span("outer", request=77):
        top = recorder.top()

        def member():
            with recorder.adopt(top), recorder.span("inner"):
                pass

        worker = threading.Thread(target=member)
        worker.start()
        worker.join(timeout=5)
    inner, outer = recorder.spans
    assert (inner[0], outer[0]) == ("inner", "outer")
    assert inner[4] == outer[3] and inner[5] == outer[5] == 77


def test_correctness_gate_passes_then_trips_on_a_flipped_answer(graph, pool, server):
    inputs = _inputs(graph, pool)
    log = client.drive(server, pool, inputs.requests, seconds=30)
    verdict = workloads.verify(inputs, log)
    assert (verdict.attempted, verdict.failed) == (len(inputs.requests), 0)
    assert verdict.correct_answers == verdict.answered == len(pool)

    flipped = list(pool)
    flipped[0] = streams.PoolQuery(pool[0].spec, pool[0].body, not pool[0].expected)
    verdict = workloads.verify(_inputs(graph, flipped), log)
    assert verdict.failed == 1 and verdict.correct_answers == len(pool) - 1
    assert "oracle says" in verdict.problems[0]


def test_dead_server_is_failed_operations_not_a_hang(graph, pool):
    inputs = _inputs(graph, pool)
    log = client.drive(("127.0.0.1", 9), pool, inputs.requests, seconds=30)
    assert log.samples == []  # nobody connected; the run is empty, not stuck
    connection = client.Connection(("127.0.0.1", 9))
    assert connection.post("/query", pool[0].body) == (0, b"")


def test_updates_fall_due_by_reader_progress_and_are_timed_from_then(
    graph, pool, server, monkeypatch
):
    monkeypatch.setattr(spec, "UPDATE_EVERY", 4)
    schedule = streams.update_schedule(0, graph, 4)
    inputs = _inputs(graph, pool, schedule)
    log = client.drive(
        server, pool, inputs.requests, limit=14, cycle=True,
        schedule=schedule, update_every=4,
    )
    # Due after the reader's 2nd, 6th and 10th reply (not the 14th: the
    # reader stops there, but it fell due), so four batches in all.
    assert [update.batch for update in log.updates] == [0, 1, 2, 3]
    assert [update.due for update in log.updates] == [
        log.samples[position].ended for position in (1, 5, 9, 13)
    ]
    for update in log.updates:
        assert update.sent >= update.due
        assert update.ack_ms == pytest.approx((update.ended - update.due) * 1000.0)
        assert update.ack_ms >= update.late_ms >= 0.0
    verdict = workloads.verify(inputs, log)
    assert verdict.failed == 0 and verdict.epoch_checks > 0
    # A schedule the server did not apply must trip the ack check, and an
    # update that fell due but was never sent is a failed operation.
    wrong = _inputs(graph, pool, streams.update_schedule(1, graph, 4))
    wrong.schedule[0] = wrong.schedule[0][:5]
    assert workloads.verify(wrong, log).failed >= 1
    log.updates.pop()
    assert workloads.verify(inputs, log).failed == 1


def test_times_are_divided_by_the_slowdown_of_their_phase():
    calibrator = client.Calibrator()
    nominal = client.CALIBRATION_NOMINAL_S
    calibrator._samples = [(1.0, nominal), (2.0, 2 * nominal), (3.0, 3 * nominal)]
    assert calibrator.slowdown(0.0, 10.0) == pytest.approx(2.0)
    assert calibrator.slowdown(2.5, 10.0) == pytest.approx(3.0)
    assert calibrator.slowdown(5.0, 10.0) == 1.0  # no sample: leave times alone

    sample = client.Sample((0,), "/query", 10.0, 10.004, 200, b"")
    log = client.RunLog(samples=[sample], started=10.0)
    verdict = workloads.Verdict(attempted=1, correct_answers=1, answered=1)
    server = {"cpu_s": 0.003, "peak_rss_mb": 50.0}
    metrics, samples, measured = workloads.end_to_end_metrics(
        log, server, verdict, setup_s=0.5, slowdown=2.0
    )
    assert measured["query_p50_ms"] == pytest.approx(4.0)
    assert metrics["query_p50_ms"] == pytest.approx(2.0)
    assert metrics["qps"] == pytest.approx(2.0 * measured["qps"]) == pytest.approx(500.0)
    assert metrics["server_cpu_ms_per_query"] == pytest.approx(1.5)
    assert (metrics["setup_s"], metrics["peak_rss_mb"]) == (0.5, 50.0)
    assert sorted(metrics) == sorted(metric.name for metric in spec.END_TO_END)


def test_calibrator_samples_in_cpu_time_and_stops():
    calibrator = client.Calibrator()
    calibrator.start()
    began = time.perf_counter()
    while len(calibrator._samples) < 3 and time.perf_counter() - began < 5:
        time.sleep(0.01)
    calibrator.stop()
    assert not calibrator.is_alive() and len(calibrator._samples) >= 3
    assert 0.1 < calibrator.slowdown(began, time.perf_counter()) < 100


def test_benchmark_json_lists_exactly_what_the_runner_emits():
    document = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert document == spec.benchmark_document()
    assert all(0 < metric.bound <= 0.25 for metric in spec.END_TO_END)
    for traced, definitions in ((False, spec.END_TO_END), (True, spec.PER_LAYER)):
        outcome = workloads.Outcome(
            workloads.Verdict(attempted=3),
            {metric.name: 1.5 for metric in definitions}, {},
        )
        emitted = json.loads(report.result_line(traced, outcome))
        assert sorted(emitted) == ["attempted", "correct", "failed", "metrics"]
        listed = document["per_layer" if traced else "end_to_end"]
        assert list(emitted["metrics"]) == [entry["name"] for entry in listed]
        assert all(
            emitted["metrics"][entry["name"]]["unit"] == entry["unit"] for entry in listed
        )
