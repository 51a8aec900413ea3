"""Configurable load driver for a running LSCR query service.

Hammers an HTTP endpoint with ``--clients`` concurrent threads for
``--duration`` seconds, then prints per-endpoint throughput and
client-side latency percentiles (p50/p90/p99) — the numbers that size
a deployment's admission window (``serve --max-concurrent N
--max-queue Q``).  Each client alternates ``POST /query`` and
``POST /batch`` requests (ratio set by ``--batch-every``), cycling a
workload of specs with the result cache bypassed so every request does
real work.

Two ways to point it at a server:

* **self-contained** (default) — generates a random graph, starts an
  in-process server on an ephemeral port, drives it, and shuts it
  down:

      python examples/load_generator.py --clients 8 --duration 5

* **external** — drive an already-running server (the specs must match
  its graph; ``--spec-file`` takes a JSON array of query specs, e.g.
  written by your own tooling):

      python -m repro serve --graph g.tsv --port 8080 --max-concurrent 8 &
      python examples/load_generator.py --url http://127.0.0.1:8080 \\
          --spec-file specs.json --clients 16 --duration 10
"""

from __future__ import annotations

import argparse
import json
import math
import re
import threading
import time
import urllib.error
import urllib.request
from collections import defaultdict

PERCENTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))

_LE_LABEL = re.compile(r'le="([^"]+)"')
_ENDPOINT_QUERY = re.compile(r'endpoint="query"')
_RESULT_CACHE = re.compile(r'cache="result"')


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (fraction in (0, 1])."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def post(base: str, path: str, payload: dict, timeout: float = 30.0) -> dict:
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def scrape_metrics(base: str) -> dict[str, float] | None:
    """``GET /metrics`` → ``{sample-key: value}``, or None when the
    server has no metrics route (pre-observability builds).

    Kept deliberately tiny and inline — ``--url`` mode drives servers on
    other machines, so the script must not depend on the repro package.
    The key is the raw ``name{labels}`` prefix of each sample line,
    which is stable across scrapes of the same server.
    """
    try:
        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as response:
            text = response.read().decode("utf-8")
    except Exception:
        return None
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.rpartition(" ")
        if not key:
            continue
        try:
            samples[key] = math.inf if raw == "+Inf" else float(raw)
        except ValueError:
            continue
    return samples


def _metric_delta(delta: dict[str, float], name: str) -> float:
    """Sum the delta across every label set of one metric family."""
    return sum(
        value for key, value in delta.items()
        if key == name or key.startswith(name + "{")
    )


def _histogram_p99(delta: dict[str, float]) -> float | None:
    """p99 (ms) of the query-endpoint latency histogram *delta* — the
    distribution of just this run's requests, not the server's lifetime."""
    buckets: dict[float, float] = defaultdict(float)
    for key, value in delta.items():
        if not key.startswith("repro_request_latency_seconds_bucket{"):
            continue
        if not _ENDPOINT_QUERY.search(key):
            continue
        match = _LE_LABEL.search(key)
        if match is None:
            continue
        le = match.group(1)
        bound = math.inf if le == "+Inf" else float(le)
        buckets[bound] += value
    if not buckets:
        return None
    ordered = sorted(buckets.items())
    total = ordered[-1][1]          # the +Inf bucket is cumulative: all
    if total <= 0:
        return None
    rank = math.ceil(0.99 * total)
    for bound, cumulative in ordered:
        if cumulative >= rank:
            return bound * 1000.0 if bound != math.inf else float("inf")
    return None


def report_server_delta(
    before: dict[str, float] | None, after: dict[str, float] | None
) -> None:
    """Server-side numbers for this run, from the /metrics scrape pair."""
    if before is None or after is None:
        print("\nserver-side: /metrics unavailable — skipping server report")
        return
    delta = {key: after[key] - before.get(key, 0.0) for key in after}
    queries = _metric_delta(delta, "repro_queries_total")
    cached = _metric_delta(delta, "repro_queries_cached_total")
    hits = sum(
        value for key, value in delta.items()
        if key.startswith("repro_cache_hits_total{")
        and _RESULT_CACHE.search(key)
    )
    misses = sum(
        value for key, value in delta.items()
        if key.startswith("repro_cache_misses_total{")
        and _RESULT_CACHE.search(key)
    )
    probes = hits + misses
    hit_ratio = hits / probes if probes else 0.0
    p99 = _histogram_p99(delta)
    p99_text = f"{p99:.2f} ms" if p99 is not None else "n/a"
    print(
        f"\nserver-side (from /metrics deltas): {queries:.0f} queries, "
        f"{cached:.0f} cache-answered, result-cache hit ratio "
        f"{hit_ratio:.1%}, query p99={p99_text}"
    )
    routed = _metric_delta(delta, "repro_approx_routed_total")
    if routed:
        # The router's share of this run, not the server's lifetime.
        no = _metric_delta(delta, "repro_approx_short_circuit_no_total")
        print(
            f"  short-circuit router: {routed:.0f} routed, "
            f"short-circuit rate {no / routed:.1%} (No={no:.0f})"
        )


def default_specs(num_vertices: int, num_labels: int) -> list[dict]:
    """A mixed workload over the self-contained random graph."""
    labels = [f"l{i}" for i in range(num_labels)]
    constraints = [
        "SELECT ?x WHERE { ?x <l0> ?y . }",
        "SELECT ?x WHERE { ?x <l1> ?y . ?x <l0> ?z . }",
        f"SELECT ?x WHERE {{ ?x <l0> n{num_vertices // 2} . }}",
    ]
    specs = []
    for position in range(48):
        specs.append(
            {
                "source": f"n{(position * 7) % num_vertices}",
                "target": f"n{(position * 13 + 5) % num_vertices}",
                "labels": labels[: 2 + position % (num_labels - 1)],
                "constraint": constraints[position % len(constraints)],
            }
        )
    return specs


class LoadStats:
    """Latency samples per endpoint, merged across client threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.requests: dict[str, int] = defaultdict(int)
        self.queries: dict[str, int] = defaultdict(int)
        self.rejected: dict[str, int] = defaultdict(int)
        self.errors = 0

    def record(self, endpoint: str, seconds: float, queries: int) -> None:
        with self._lock:
            self.latencies[endpoint].append(seconds)
            self.requests[endpoint] += 1
            self.queries[endpoint] += queries

    def record_rejected(self, kind: str) -> None:
        """A structured refusal (504/429) — expected under overload."""
        with self._lock:
            self.rejected[kind] += 1

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1


def client_loop(
    base: str,
    specs: list[dict],
    stats: LoadStats,
    stop_at: float,
    batch_every: int,
    batch_size: int,
    offset: int,
    deadline_ms: float | None = None,
) -> None:
    position = offset  # stagger clients so they don't lockstep the cache
    suffix = f"?deadline_ms={deadline_ms:g}" if deadline_ms else ""
    while time.perf_counter() < stop_at:
        if batch_every and position % batch_every == 0:
            chunk = [
                specs[(position + i) % len(specs)] for i in range(batch_size)
            ]
            payload = {"queries": chunk, "use_cache": False}
            endpoint, path, count = "batch", "/batch", len(chunk)
        else:
            payload = {**specs[position % len(specs)], "use_cache": False}
            endpoint, path, count = "query", "/query", 1
        started = time.perf_counter()
        try:
            post(base, path + suffix, payload)
        except urllib.error.HTTPError as error:
            # Structured refusals — deadline-exceeded, overloaded — are
            # the server shedding load as designed; count
            # them by kind instead of lumping them with real failures.
            kind = None
            if error.code in (429, 504):
                try:
                    body = json.loads(error.read())
                    kind = body["error"]["type"]
                except Exception:
                    kind = None
            if kind is not None:
                stats.record_rejected(kind)
            else:
                stats.record_error()
        except Exception:
            stats.record_error()
        else:
            stats.record(endpoint, time.perf_counter() - started, count)
        position += 1


def run_load(
    base: str,
    specs: list[dict],
    clients: int,
    duration: float,
    batch_every: int,
    batch_size: int,
    deadline_ms: float | None = None,
) -> LoadStats:
    stats = LoadStats()
    stop_at = time.perf_counter() + duration
    threads = [
        threading.Thread(
            target=client_loop,
            args=(base, specs, stats, stop_at, batch_every, batch_size,
                  position * 17, deadline_ms),
            daemon=True,
        )
        for position in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats.wall = time.perf_counter() - started  # type: ignore[attr-defined]
    return stats


def report(stats: LoadStats, clients: int) -> None:
    wall = getattr(stats, "wall", 0.0) or 1e-9
    total_requests = sum(stats.requests.values())
    total_queries = sum(stats.queries.values())
    print(
        f"\n{clients} client(s), {wall:.1f}s wall: "
        f"{total_requests} requests ({total_requests / wall:.1f} req/s), "
        f"{total_queries} queries ({total_queries / wall:.1f} q/s), "
        f"{stats.errors} error(s)"
    )
    if stats.rejected:
        rejected = ", ".join(
            f"{kind}={count}" for kind, count in sorted(stats.rejected.items())
        )
        print(f"  structured refusals: {rejected}")
    for endpoint in sorted(stats.latencies):
        samples = [value * 1000.0 for value in stats.latencies[endpoint]]
        line = "  ".join(
            f"{name}={percentile(samples, fraction):.2f} ms"
            for name, fraction in PERCENTILES
        )
        print(
            f"  {endpoint:6s} {stats.requests[endpoint]:6d} requests   "
            f"{line}  max={max(samples):.2f} ms"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None,
                        help="drive a running server instead of self-hosting")
    parser.add_argument("--spec-file", default=None,
                        help="JSON array of query specs (required with --url)")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--duration", type=float, default=5.0,
                        help="seconds of sustained load")
    parser.add_argument("--batch-every", type=int, default=4,
                        help="every Nth request is a batch (0 = never)")
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--vertices", type=int, default=400,
                        help="self-contained mode: graph size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="send ?deadline_ms= with every request and "
                        "count structured 504/429 refusals separately")
    args = parser.parse_args(argv)

    if args.url is not None:
        if args.spec_file is None:
            parser.error("--url needs --spec-file (specs must match its graph)")
        with open(args.spec_file) as handle:
            specs = json.load(handle)
        print(f"driving {args.url} with {len(specs)} specs ...")
        before = scrape_metrics(args.url)
        stats = run_load(args.url, specs, args.clients, args.duration,
                         args.batch_every, args.batch_size,
                         deadline_ms=args.deadline_ms)
        report(stats, args.clients)
        report_server_delta(before, scrape_metrics(args.url))
        return 0

    # Self-contained: generate, serve in-process, drive, tear down.
    from repro.datasets.synthetic import random_labeled_graph
    from repro.service.app import QueryService
    from repro.service.http import create_server

    num_labels = 6
    print(f"generating random graph (|V|={args.vertices}, |L|={num_labels}) ...")
    graph = random_labeled_graph(args.vertices, 4.0, num_labels, rng=args.seed,
                                 name="loadgen")
    service = QueryService(graph, seed=args.seed)
    server = create_server(service, "127.0.0.1", 0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    print(f"server on {base}; driving {args.clients} client(s) "
          f"for {args.duration:.1f}s ...")
    try:
        before = scrape_metrics(base)
        stats = run_load(base, default_specs(args.vertices, num_labels),
                         args.clients, args.duration,
                         args.batch_every, args.batch_size,
                         deadline_ms=args.deadline_ms)
        report(stats, args.clients)
        # The server's own view of the same run, for cross-checking the
        # client-side numbers — scraped over /metrics like production
        # monitoring would, not read from in-process state.
        report_server_delta(before, scrape_metrics(base))
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
