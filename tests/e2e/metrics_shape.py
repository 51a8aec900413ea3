"""The observability surface as a black box (the CI ``metrics-shape``
job's scenario).

Boot a real server — a default tenant plus a second one that takes an
update batch — drive every endpoint, then validate the scrape with the
strict parser: Prometheus line format, monotone cumulative buckets,
``+Inf == _count``, no ``counter`` sample lower after the epoch swap
than before it, the short-circuit router's families, a ``query``
latency histogram that counts every answered query, and a well-formed
``/debug/slow`` document whose every entry's tier is exact or absent.
Guards the surface against format drift that Prometheus itself would
reject at scrape time.

Run from anywhere: ``PYTHONPATH=src python tests/e2e/metrics_shape.py``.
The exit code is the verdict.
"""

from __future__ import annotations

import json
import subprocess
import tempfile
from pathlib import Path

from contract import (
    ENV,
    boot,
    decreased_counters,
    get,
    post,
    repro_cli,
    stop,
)

from repro.obs.prometheus import parse_prometheus_text

FAMILIES = (
    "repro_build_info", "repro_tenants", "repro_tenants_loaded",
    "repro_queries_total", "repro_queries_cached_total",
    "repro_batches_total", "repro_update_batches_total",
    "repro_cache_hits_total", "repro_epoch_id", "repro_slow_queries_kept",
    "repro_request_latency_seconds_bucket", "repro_approx_routed_total", "repro_approx_short_circuit_no_total",
    "repro_approx_exact_fallthrough_total", "repro_approx_witness_entries",
    "repro_approx_bounds_components",
)
SLOW_ENTRY_KEYS = {"seconds", "recorded_at", "query", "algorithm", "answer",
                   "meta", "trace_id", "trace"}
#: ``tier`` is None for answers the router never saw (cache hits,
#: trivial and forced plans); every answer it did see is exact.
SLOW_TIERS = {None, "exact", "short-circuit"}


def main(scratch: Path) -> None:
    main_graph, dyn_graph = str(scratch / "main.tsv"), str(scratch / "dyn.tsv")
    for path, vertices, labels, seed in ((main_graph, "60", "4", "0"),
                                         (dyn_graph, "40", "3", "1")):
        subprocess.run(
            repro_cli("generate", "--random", vertices, "3", labels,
                      "--seed", seed, "--output", path),
            check=True, env=ENV)
    server, base = boot(
        "--graph", main_graph, "--tenant", f"dyn={dyn_graph}",
        "--allow-updates", "--slow-ms", "0", "--trace-sample", "1")
    try:
        spec = {"source": "n0", "target": "n30", "labels": ["l0", "l1", "l2"],
                "constraint": "SELECT ?x WHERE { ?x <l0> ?y . }"}
        post(base, "/query", spec)
        traced = post(base, "/query?trace=1", {**spec, "target": "n31"})
        assert traced["trace"]["trace_id"], "no trace for ?trace=1"
        post(base, "/batch", {"queries": [spec, {**spec, "source": "n5"}]})
        # Twice per cache on dyn, so its hit and miss counters are both
        # above zero when the update swaps the epoch under them.
        for target in ("n20", "n21", "n21"):
            post(base, "/t/dyn/query",
                 {**spec, "target": target, "labels": ["l0", "l1"],
                  "constraint": "SELECT ?x WHERE { ?x <l1> ?y . }"})
        before_swap = get(base, "/metrics")
        updated = post(base, "/t/dyn/edges", {"edges": [
            {"source": "n0", "label": "l0", "target": "ci-added-vertex"}]})
        assert updated["epoch"] == 1, updated

        scrape = get(base, "/metrics")
        lower = decreased_counters(before_swap, scrape)
        assert not lower, f"counters stepped back across the swap: {lower}"
        samples = parse_prometheus_text(scrape)
        names = {name for name, _ in samples}
        for family in FAMILIES:
            assert family in names, f"missing family {family}"
        default, dyn = (("tenant", "default"),), (("tenant", "dyn"),)
        assert samples[("repro_queries_total", default)] >= 4
        assert samples[("repro_queries_total", dyn)] >= 3
        assert samples[("repro_update_batches_total", dyn)] == 1
        assert samples[("repro_epoch_id", dyn)] == 1
        for tenant in (default, dyn):
            # Every answered query, single or batch member, folds its
            # latency into the ``query`` histogram as it is counted.
            answered = (("endpoint", "query"), *tenant)
            assert (
                samples[("repro_request_latency_seconds_count", answered)]
                == samples[("repro_queries_total", tenant)]
            ), tenant

        parse_prometheus_text(get(base, "/t/default/metrics"))
        parse_prometheus_text(get(base, "/t/dyn/metrics"))

        slow = json.loads(get(base, "/debug/slow"))
        assert set(slow["tenants"]) == {"default", "dyn"}
        for tenant, document in slow["tenants"].items():
            assert document["loaded"] is True
            assert document["summary"]["kept"] >= 1, tenant
            for entry in document["entries"]:
                assert SLOW_ENTRY_KEYS <= set(entry)
                assert entry["tier"] in SLOW_TIERS, (tenant, entry["tier"])
        print("metrics-shape OK:", len(samples), "samples")
    finally:
        stop([server])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch_dir:
        main(Path(scratch_dir))
