"""Cross-host sharding as a black box (the CI ``cross-host`` job's scenario).

Cut slice files, boot two real ``serve --worker`` processes plus a
coordinator attached by URL, drive mixed load, ``POST /edges`` (the
two-phase slice push), ``/admin/rebalance``, SIGKILL one worker mid-run
(every response must stay exact, soundly degraded, or a structured
refusal), restart it from its now-stale slice file and require the probe
loop to re-handshake it back to the fleet's slice epoch — with
``/metrics`` strict-parsing throughout.

Run from anywhere: ``PYTHONPATH=src python tests/e2e/cross_host.py``.
The exit code is the verdict.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from contract import ENV, ROOT, boot, get, post, replay_against_oracle, repro_cli

from repro.obs.prometheus import parse_prometheus_text
from repro.service.app import QueryService


def worker_epochs(base: str) -> dict:
    samples = parse_prometheus_text(get(base, "/metrics"))
    return {
        dict(labels)["shard"]: value
        for (name, labels), value in samples.items()
        if name == "repro_shard_worker_slice_epoch"
    }


def main(scratch: Path) -> None:
    graph_file = str(scratch / "xhost.tsv")
    slices = scratch / "slices"
    spec_file = scratch / "xhost-specs.json"

    subprocess.run(
        repro_cli("generate", "--random", "80", "3", "4", "--seed", "0",
                  "--output", graph_file),
        check=True, env=ENV)
    subprocess.run(
        repro_cli("cut", graph_file, "--shards", "2", "--out", str(slices),
                  "--seed", "0"),
        check=True, env=ENV)

    def boot_worker(shard_id: int, port: int = 0):
        return boot(
            "--worker", str(slices / f"shard-{shard_id}.slice.json"),
            port=port)

    workers = {0: boot_worker(0), 1: boot_worker(1)}
    coordinator, base = boot(
        "--graph", graph_file, "--shards", "2",
        "--worker-url", workers[0][1], "--worker-url", workers[1][1],
        "--allow-updates", "--degraded-answers",
        "--shard-timeout", "1.0", "--worker-probe-interval", "0.5")

    oracle = QueryService.from_files(graph_file, seed=0)

    specs = []
    for position in range(24):
        specs.append({
            "source": f"n{(position * 7) % 80}",
            "target": f"n{(position * 13 + 5) % 80}",
            "labels": ["l0", "l1"],
            "constraint": "SELECT ?x WHERE { ?x <l0> ?y . }",
            "use_cache": False,
        })
    spec_file.write_text(json.dumps(specs))

    def assert_exact():
        for spec in specs:
            expected, _ = oracle.query(
                spec["source"], spec["target"], spec["labels"],
                spec["constraint"], use_cache=False)
            document = post(base, "/query", spec)
            assert "degraded" not in document, document
            assert document["answer"] == expected.answer, spec

    try:
        # Phase 1: fresh fleet answers exactly; both worker gauges
        # strict-parse at slice epoch 0.
        assert_exact()
        epochs = worker_epochs(base)
        assert epochs == {"0": 0, "1": 0}, epochs

        # Phase 2: POST /edges runs the two-phase slice push and
        # every process converges on the bumped slice epoch.
        batch = [["n0", "l0", "n41"], ["fresh", "l1", "n3"]]
        summary = post(base, "/edges", {"edges": batch})
        assert summary["slice_epoch"] == 1, summary
        assert "shards_unpublished" not in summary, summary
        oracle.apply_updates([tuple(edge) for edge in batch])
        assert_exact()
        epochs = worker_epochs(base)
        assert epochs == {"0": 1, "1": 1}, epochs

        # Phase 3: D-guided rebalance over live crossing counters.
        outcome = post(base, "/admin/rebalance", {})
        tip = json.loads(get(base, "/healthz"))["slice_epoch"]
        if outcome["rebalanced"]:
            assert outcome["regions_moved"] > 0, outcome
            assert tip == outcome["slice_epoch"] == 2, outcome
        assert_exact()

        # Phase 4: SIGKILL worker 0 under load.  The generator and
        # the replay below must see only exact answers, soundly
        # degraded answers, or structured refusals — never a wrong
        # answer, never an unstructured 500.
        generator = subprocess.Popen(
            [sys.executable, str(ROOT / "examples" / "load_generator.py"),
             "--url", base, "--spec-file", str(spec_file),
             "--clients", "4", "--duration", "8",
             "--batch-every", "0", "--deadline-ms", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=ENV)
        time.sleep(2)
        workers[0][0].send_signal(signal.SIGKILL)
        workers[0][0].wait(timeout=30)
        output, _ = generator.communicate(timeout=300)
        print(output)
        assert generator.returncode == 0, "load generator failed"

        exact, degraded, refused = replay_against_oracle(
            base, "/query", specs, oracle)
        print(f"worker down: {exact} exact, {degraded} degraded, "
              f"{refused} refused — zero wrong answers")

        # Phase 5: restart worker 0 from its (stale, epoch-0)
        # slice file on the SAME port the coordinator attached —
        # a process supervisor restart.  The health probe must
        # detect the stale epoch, re-push the current slice, and
        # the fleet goes back to answering everything exactly.
        old_port = int(workers[0][1].rsplit(":", 1)[1])
        workers[0] = boot_worker(0, port=old_port)
        tip = json.loads(get(base, "/healthz"))["slice_epoch"]
        deadline = time.time() + 60
        while time.time() < deadline:
            epochs = worker_epochs(base)
            if epochs.get("0") == tip:
                break
            time.sleep(0.5)
        assert epochs.get("0") == tip, epochs
        # The slice is current; now drive scatter traffic until
        # the shard-0 breaker has half-opened and closed again (a
        # full pass with no degraded answers), then hold the
        # fleet to exactness.
        deadline = time.time() + 60
        while time.time() < deadline:
            if all("degraded" not in post(base, "/query", spec)
                   for spec in specs):
                break
            time.sleep(0.5)
        assert_exact()

        samples = parse_prometheus_text(get(base, "/metrics"))
        names = {name for name, _ in samples}
        for family in ("repro_shard_slice_epoch",
                       "repro_shard_worker_slice_epoch",
                       "repro_shard_worker_consecutive_failures",
                       "repro_shard_worker_resyncs_total",
                       "repro_shard_worker_connection_reuses_total",
                       "repro_resilience_breaker_state"):
            assert family in names, f"missing family {family}"
        print("cross-host OK:", len(samples),
              "samples strict-parsed; fleet at slice epoch", tip)
    finally:
        coordinator.terminate()
        coordinator.wait(timeout=10)
        for proc, _ in workers.values():
            if proc.poll() is None:
                proc.terminate()
                proc.wait(timeout=10)
        oracle.close()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch_dir:
        main(Path(scratch_dir))
