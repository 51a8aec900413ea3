"""Overload under real concurrent HTTP load (the CI ``chaos`` job's scenario).

Boot a plain ``serve`` process with a small admission window
(``--max-concurrent 1 --max-queue 2``), hammer it with the load
generator sending ``?deadline_ms=`` on every request — single queries
and batches, so requests queue behind each other and some budgets lapse
in the queue — and verify (a) the generator saw only clean answers and
structured refusals (429 shed, 504 deadline exceeded), (b) replaying
every spec against an in-process oracle finds zero wrong answers, and
(c) the shed and deadline series strict-parse off ``/metrics``.

Run from anywhere: ``PYTHONPATH=src python tests/e2e/chaos_http.py``.
The exit code is the verdict.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from contract import ROOT, boot, get, replay_against_oracle, stop

from repro.datasets.synthetic import random_labeled_graph
from repro.graph.io import dump_tsv
from repro.obs.prometheus import parse_prometheus_text
from repro.service.app import QueryService

VERTICES = 400


def main(scratch: Path) -> None:
    graph = random_labeled_graph(VERTICES, 4.0, 3, rng=0, name="chaos")
    graph_file = str(scratch / "chaos.tsv")
    dump_tsv(graph, graph_file)
    oracle = QueryService(graph, seed=0)
    server, base = boot(
        "--graph", graph_file, "--max-concurrent", "1", "--max-queue", "2"
    )
    try:
        run(base, oracle, scratch)
    finally:
        oracle.close()
        stop([server])


def run(base: str, oracle, scratch: Path) -> None:
    # Named evaluator, no result cache: every member runs a search, so a
    # batch holds the one slot long enough for the queue behind it to
    # fill and for queued budgets to lapse.
    specs = [
        {
            "source": f"n{(position * 7) % VERTICES}",
            "target": f"n{(position * 13 + 5) % VERTICES}",
            "labels": ["l0", "l1"],
            "constraint": "SELECT ?x WHERE { ?x <l0> ?y . }",
            "algorithm": "naive",
            "use_cache": False,
        }
        for position in range(32)
    ]
    spec_file = scratch / "chaos-specs.json"
    spec_file.write_text(json.dumps(specs))
    generator = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "load_generator.py"),
         "--url", base, "--spec-file", str(spec_file),
         "--clients", "8", "--duration", "6",
         "--batch-every", "2", "--batch-size", "16", "--deadline-ms", "20"],
        capture_output=True, text=True, timeout=300)
    print(generator.stdout)
    print(generator.stderr, file=sys.stderr)
    assert generator.returncode == 0, "load generator failed"
    # (a) every request was answered or refused with a structure.
    assert re.search(r" 0 error\(s\)", generator.stdout), "unstructured failures"
    refusals = re.search(r"structured refusals: (.*)", generator.stdout)
    assert refusals, "nothing was ever refused: the window never filled"
    print(f"refused under load: {refusals.group(1)}")

    # (b) zero wrong answers, replayed one request at a time.
    exact, refused = replay_against_oracle(
        base, "/query?deadline_ms=1000", specs, oracle)
    print(f"verification: {exact} exact, {refused} refused — zero wrong answers")
    assert exact > 0, "no query ever came back exact"

    # (c) the shed and deadline series strict-parse and counted the load.
    samples = parse_prometheus_text(get(base, "/metrics"))

    def total(name: str, **labels: str) -> float:
        return sum(
            value for (family, pairs), value in samples.items()
            if family == name and set(labels.items()) <= set(pairs)
        )

    shed = total("repro_requests_shed_total")
    lapsed = total("repro_errors_total", kind="deadline-exceeded")
    assert shed > 0, "repro_requests_shed_total never counted a 429"
    assert lapsed > 0, "repro_errors_total never counted a 504"
    assert ("repro_admission_max_concurrent", (("tenant", "default"),)) in samples
    print(f"shed {shed:g}, deadline exceeded {lapsed:g}")
    print("chaos OK:", len(samples), "samples strict-parsed")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch_dir:
        main(Path(scratch_dir))
