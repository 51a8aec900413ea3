"""What the e2e scenarios share: booting the real CLI, JSON over HTTP,
and the contract — every response is exact or a structured refusal."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.obs.prometheus import parse_prometheus_text

ROOT = Path(__file__).resolve().parents[2]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def repro_cli(*argv: str) -> list[str]:
    return [sys.executable, "-m", "repro", *argv]


def boot(*argv: str, port: int = 0) -> tuple[subprocess.Popen, str]:
    """Start ``repro serve`` and wait for its ready line; (process, url)."""
    proc = subprocess.Popen(
        repro_cli("serve", "--port", str(port), *argv),
        stdout=subprocess.PIPE, text=True, env=ENV)
    deadline = time.time() + 60
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        print(line, end="")
        match = re.search(r"listening on (http://\S+)", line)
        if match:
            return proc, match.group(1)
    proc.kill()
    raise AssertionError("server never printed its ready line")


def stop(processes: list[subprocess.Popen]) -> None:
    for proc in processes:
        proc.terminate()
    for proc in processes:
        proc.wait(timeout=10)


def post(base: str, path: str, payload: object) -> dict:
    request = urllib.request.Request(
        f"{base}{path}", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST")
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def get(base: str, path: str) -> str:
    with urllib.request.urlopen(f"{base}{path}", timeout=30) as response:
        return response.read().decode()


def replay_against_oracle(base, path, specs, oracle) -> tuple[int, int]:
    """POST every spec to ``path``; returns (exact, refused).

    Asserts the contract on the way: a refusal is a structured 429
    (shed) or 504 (deadline exceeded), anything else is the oracle's
    answer.
    """
    exact = refused = 0
    for spec in specs:
        expected, _ = oracle.query(
            spec["source"], spec["target"], spec["labels"],
            spec["constraint"], use_cache=False)
        try:
            document = post(base, path, spec)
        except urllib.error.HTTPError as error:
            kind = json.loads(error.read())["error"]["type"]
            assert (error.code, kind) in (
                (429, "overloaded"), (504, "deadline-exceeded")), kind
            refused += 1
            continue
        assert document["answer"] == expected.answer, spec
        exact += 1
    return exact, refused


def decreased_counters(before: str, after: str) -> list[tuple]:
    """``(sample, was, now)`` for every sample of a ``counter``-typed
    family that reads lower — or is gone — in the ``after`` scrape of
    ``/metrics`` than in the ``before`` one.  A counter only ever counts
    up, whatever the server did in between (an epoch swap included)."""
    counters = set(re.findall(r"^# TYPE (\S+) counter$", before, re.MULTILINE))
    was, now = parse_prometheus_text(before), parse_prometheus_text(after)
    return sorted(
        (key, value, now.get(key))
        for key, value in was.items()
        if key[0] in counters and not now.get(key, -1) >= value
    )
