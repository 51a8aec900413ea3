"""End-to-end demo of the multi-tenant LSCR query service over real HTTP.

Generates two datasets — a LUBM-like graph and a small random graph —
hosts both in one process behind a :class:`TenantRegistry` (the LUBM
graph as the default tenant, started from TSV with an index file that
the first request naming ``ins`` would read; the random graph registered
lazily by path), binds the stdlib
HTTP server to an ephemeral port, and exercises every endpoint the way
an external client would: ``GET /healthz`` and ``GET /tenants`` for the
cross-tenant view, ``POST /query`` (twice, to show the result cache),
``POST /t/<tenant>/query`` for the second tenant, a third tenant
registered at runtime via ``POST /tenants``, ``POST /batch``, and
``GET /stats`` with its aggregated totals.

Run:  python examples/service_client.py
"""

from __future__ import annotations

import json
import math
import tempfile
import threading
import urllib.request
from pathlib import Path

from repro.datasets.lubm import generate_dataset
from repro.datasets.lubm.queries import S1
from repro.datasets.synthetic import random_labeled_graph
from repro.graph.io import dump_tsv
from repro.service.app import QueryService
from repro.service.http import create_server
from repro.service.registry import TenantRegistry

PROFESSOR = "Department0.University0/FullProfessor0"
UNIVERSITY = "University0"
LABELS = ["ub:worksFor", "ub:subOrganizationOf"]
HEAD_OF = "SELECT ?x WHERE { ?x <ub:headOf> ?y . }"


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (fraction in (0, 1])."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(f"{base}{path}", timeout=10) as response:
        return json.loads(response.read())


def post(base: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-service-"))
    graph_path = workdir / "d0.tsv"
    index_path = workdir / "d0.index.json"
    random_path = workdir / "random.tsv"
    extra_path = workdir / "extra.tsv"

    print("generating LUBM-like dataset D0 + a random tenant graph ...")
    dump_tsv(generate_dataset("D0", rng=0), graph_path)
    dump_tsv(random_labeled_graph(60, 2.0, 4, rng=1, name="random"), random_path)
    dump_tsv(random_labeled_graph(40, 1.5, 3, rng=2, name="extra"), extra_path)

    print(f"starting default tenant from {graph_path.name} "
          f"(index read by the first 'ins' request) ...")
    registry = TenantRegistry()
    registry.add("default", QueryService.from_files(graph_path, index_path, seed=0))
    # The second tenant is registered by path only: its graph loads
    # lazily, on the first request that names the tenant.
    registry.register_files("random", random_path, seed=0)
    server = create_server(registry, "127.0.0.1", 0)  # ephemeral port
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    print(f"service listening on {base}\n")

    tenants = get(base, "/tenants")
    print(f"GET /tenants -> {tenants['count']} tenant(s), "
          f"default={tenants['default_tenant']}")
    for name, entry in tenants["tenants"].items():
        print(f"  {name}: loaded={entry['loaded']}")

    query = {
        "source": PROFESSOR,
        "target": UNIVERSITY,
        "labels": LABELS,
        "constraint": HEAD_OF,
    }
    first = post(base, "/query", query)
    print(f"\nPOST /query  {PROFESSOR} -> {UNIVERSITY}   (default tenant)")
    print(f"  answer={first['answer']} algorithm={first['algorithm']} "
          f"cached={first['cached']} ({first['seconds'] * 1000:.2f} ms)")
    second = post(base, "/query", query)
    print(f"  repeated:  answer={second['answer']} cached={second['cached']}")

    # The same process answers for a completely different graph, with a
    # different label alphabet, behind /t/random/ — first query triggers
    # the lazy warm start.
    random_query = {
        "source": "n0", "target": "n1",
        "labels": ["l0", "l1", "l2", "l3"],
        "constraint": "SELECT ?x WHERE { ?x <l0> ?y . }",
    }
    entry = post(base, "/t/random/query", random_query)
    print(f"\nPOST /t/random/query  n0 -> n1   (lazy tenant)")
    print(f"  answer={entry['answer']} algorithm={entry['algorithm']} "
          f"({entry['reason']})")

    registered = post(base, "/tenants", {"name": "extra", "graph": str(extra_path)})
    print(f"\nPOST /tenants -> registered {registered['registered']!r} at runtime")
    entry = post(base, "/t/extra/query", {**random_query, "labels": ["l0", "l1"]})
    print(f"  POST /t/extra/query -> answer={entry['answer']}")

    batch = post(base, "/batch", {
        "queries": [
            query,
            # Same endpoints, Table 3's S1 as the substructure constraint.
            {**query, "constraint": S1},
            # A label set the LUBM graph lacks: trivially false, no search.
            {**query, "labels": ["no-such-label"]},
            # An unknown vertex: also trivially false.
            {**query, "source": "Nowhere0"},
        ]
    })
    print(f"\nPOST /batch ({batch['count']} queries, default tenant)")
    for position, item in enumerate(batch["results"]):
        print(f"  [{position}] answer={item['answer']} cached={item['cached']} "
              f"trivial={item['trivial']} ({item['reason']})")

    # Manual load probe: a larger batch cycling the specs above with the
    # result cache bypassed, so every answer is a real execution and the
    # per-query `seconds` telemetry gives a latency distribution.
    probe_specs = [
        spec
        for _ in range(12)
        for spec in (query, {**query, "constraint": S1})
    ]
    probe = post(base, "/batch", {"queries": probe_specs, "use_cache": False})
    latencies = [item["seconds"] * 1000.0 for item in probe["results"]]
    print(f"\nPOST /batch load probe ({probe['count']} uncached queries)")
    print(
        f"  per-query latency: p50={percentile(latencies, 0.50):.2f} ms  "
        f"p90={percentile(latencies, 0.90):.2f} ms  "
        f"p99={percentile(latencies, 0.99):.2f} ms  "
        f"max={max(latencies):.2f} ms"
    )

    health = get(base, "/healthz")
    print(f"\nGET /healthz -> status={health['status']} "
          f"tenants={health['tenant_count']} loaded={health['tenants_loaded']} "
          f"total |V|={health['totals']['vertices']}")

    stats = get(base, "/stats")
    queries = stats["service"]["queries"]            # the default tenant
    totals = stats["totals"]["queries"]              # every tenant merged
    cache = stats["result_cache"]
    print("GET /stats")
    print(f"  default tenant: total={queries['total']} "
          f"executed={queries['executed']} cached={queries['cached']} "
          f"trivial={queries['trivial']}")
    print(f"  cross-tenant totals: total={totals['total']} "
          f"executed={totals['executed']}")
    print(f"  result cache: hits={cache['hits']} misses={cache['misses']} "
          f"hit_rate={cache['hit_rate']:.2f}")
    for name, cell in stats["totals"]["algorithms"].items():
        print(f"  {name}: {cell['count']} queries, "
              f"mean {cell['mean_milliseconds']:.2f} ms")

    server.shutdown()
    server.server_close()
    print("\ndone; server stopped.")


if __name__ == "__main__":
    main()
