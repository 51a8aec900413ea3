"""Chaos under real concurrent HTTP load (the CI ``chaos`` job's scenario).

Cut a graph into three slices (``repro cut``), serve each from a
``serve --worker`` process, and boot a sharded server attached to them
whose worker stubs misbehave on schedule (one hangs, one flaps, on the
co-located probe as on every expand), hammer
it with the load generator sending ``?deadline_ms=``
on every request, and verify (a) the generator saw only clean answers
and structured refusals, (b) replaying every spec against an unsharded
oracle finds zero wrong answers, and (c) the breaker/degradation series
strict-parse off ``/metrics``.

Run from anywhere: ``PYTHONPATH=src python tests/e2e/chaos_http.py``.
The exit code is the verdict.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

from contract import ROOT, boot_workers, get, replay_against_oracle, stop

from repro.datasets.synthetic import random_labeled_graph
from repro.graph.io import dump_tsv, load_tsv
from repro.obs.prometheus import parse_prometheus_text
from repro.resilience.faults import FaultRule, FaultyWorker
from repro.resilience.retry import RetryPolicy
from repro.service.app import QueryService
from repro.service.http import create_server
from repro.shard import ShardedQueryService


def main(scratch: Path) -> None:
    graph = random_labeled_graph(120, 4.0, 3, rng=0, name="chaos")
    graph_file = str(scratch / "chaos.tsv")
    dump_tsv(graph, graph_file)
    oracle = QueryService(graph, seed=0)
    workers, urls = boot_workers(graph_file, scratch / "slices", 3)
    try:
        run(graph_file, urls, oracle, scratch)
    finally:
        oracle.close()
        stop(workers)


def run(graph_file: str, urls: list[str], oracle, scratch: Path) -> None:
    service = ShardedQueryService(
        load_tsv(graph_file), seed=0, shards=3, worker_urls=urls,
        degraded_answers=True, scatter_timeout=0.25,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.01, seed=0))
    # "*": the co-located probe meets the faults too, not only expand.
    plans = {0: [FaultRule("hang", operation="*", every=7, duration=0.4)],
             1: [FaultRule("flap", operation="*", every=2)]}
    for index, rules in plans.items():
        wrapper = FaultyWorker(service.workers[index], rules,
                               name=f"shard{index}")
        service.workers[index] = wrapper
        service.coordinator.workers[index] = wrapper

    server = create_server(service, "127.0.0.1", 0, default_deadline_ms=2000)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"

    specs = []
    for position in range(32):
        specs.append({
            "source": f"n{(position * 7) % 120}",
            "target": f"n{(position * 13 + 5) % 120}",
            "labels": ["l0", "l1"],
            "constraint": "SELECT ?x WHERE { ?x <l0> ?y . }",
            "use_cache": False,
        })

    try:
        spec_file = scratch / "chaos-specs.json"
        spec_file.write_text(json.dumps(specs))
        generator = subprocess.run(
            [sys.executable, str(ROOT / "examples" / "load_generator.py"),
             "--url", base, "--spec-file", str(spec_file),
             "--clients", "4", "--duration", "8",
             "--batch-every", "0", "--deadline-ms", "1000"],
            capture_output=True, text=True, timeout=300)
        print(generator.stdout)
        print(generator.stderr, file=sys.stderr)
        assert generator.returncode == 0, "load generator failed"

        exact, degraded, refused = replay_against_oracle(
            base, "/query?deadline_ms=1000", specs, oracle)
        print(f"verification: {exact} exact, {degraded} degraded, "
              f"{refused} refused — zero wrong answers")
        assert exact > 0, "no query ever came back exact"

        samples = parse_prometheus_text(get(base, "/metrics"))
        names = {name for name, _ in samples}
        for family in ("repro_resilience_breaker_state",
                       "repro_resilience_retries_total",
                       "repro_resilience_worker_failures_total",
                       "repro_resilience_degraded_mode"):
            assert family in names, f"missing family {family}"
        breaker_gauges = [key for key in samples
                          if key[0] == "repro_resilience_breaker_state"]
        assert len(breaker_gauges) == 3, breaker_gauges
        probe_errors = sum(
            value for (name, _labels), value in samples.items()
            if name == "repro_resilience_fast_path_errors_total")
        assert probe_errors > 0, "no co-located probe met a fault"
        print(f"{probe_errors:g} co-located probes failed into the scatter")
        print("chaos OK:", len(samples), "samples strict-parsed")
    finally:
        server.shutdown()
        server.server_close()
        service.close()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch_dir:
        main(Path(scratch_dir))
