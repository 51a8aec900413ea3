"""The first read of an epoch's index is the only place a service gets one.

``serve --index P`` and :meth:`QueryService.from_files` hand epoch 0 an
:class:`~repro.service.epoch.IndexSource` and do no index work: the
first request naming ``ins`` loads ``P``, or builds the index and saves
it there, once, under the epoch's own lock.  An epoch over another
graph — derived before that read or after it — builds its own index in
memory and never touches ``P``, which describes the booted graph.  Every answer INS gives on the way must
equal the naive evaluator's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
import repro.index.storage as storage
from repro.datasets.synthetic import random_labeled_graph
from repro.graph.io import dump_tsv, load_tsv
from repro.index.local_index import build_local_index
from repro.index.storage import save_local_index
from repro.service.app import QueryService
from repro.wal import UpdateWal, recover_service
from tests.helpers import running_server

CONSTRAINT = "SELECT ?x WHERE { ?x <l0> ?y . }"
LABELS = ["l0", "l1"]
PAIRS = [(f"n{s}", f"n{t}") for s in range(0, 40, 3) for t in range(1, 40, 4)]
NEW_EDGES = [(f"n{i}", "l1", f"n{(i * 7 + 3) % 40}") for i in range(0, 40, 2)]


@pytest.fixture()
def graph_path(tmp_path):
    path = tmp_path / "g.tsv"
    dump_tsv(random_labeled_graph(40, 1.5, 3, rng=5, name="g"), path)
    return path


@pytest.fixture()
def index_path(tmp_path):
    return tmp_path / "g.index.json"


def answers(service, algorithm):
    return [
        service.query(
            source, target, LABELS, CONSTRAINT,
            algorithm=algorithm, use_cache=False,
        )[0].answer
        for source, target in PAIRS
    ]


def agree_with_naive(service):
    ins = answers(service, "ins")
    assert ins == answers(service, "naive")
    assert any(ins) and not all(ins)


@pytest.fixture()
def count_builds(monkeypatch):
    """Count the index builds the service makes (by storage's binding)."""
    builds = []
    original = storage.build_local_index

    def counted(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(storage, "build_local_index", counted)
    return builds


class TestServe:
    def test_boot_and_default_requests_read_no_index(
        self, graph_path, index_path
    ):
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--graph", str(graph_path),
             "--index", str(index_path), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True,
        )
        try:
            lines = []
            for line in process.stdout:
                lines.append(line)
                if "listening on" in line:
                    break
            assert "index: configured, not read yet" in "".join(lines)
            url = lines[-1].split()[-1]
            spec = {"source": "n0", "target": "n5", "labels": LABELS,
                    "constraint": CONSTRAINT}
            naive = post(f"{url}/query", {**spec, "algorithm": "naive"})
            post(f"{url}/query", spec)
            post(f"{url}/batch", {"queries": [spec, {**spec, "target": "n9"}]})
            assert not index_path.exists()
            assert get_json(f"{url}/stats")["index"] == {
                "loaded": False, "configured": True,
            }
            assert "repro_index_landmarks" not in get_text(f"{url}/metrics")

            ins = post(
                f"{url}/query", {**spec, "algorithm": "ins", "use_cache": False}
            )
            assert index_path.is_file()
            assert (ins["algorithm"], ins["answer"]) == ("INS", naive["answer"])
            assert get_json(f"{url}/stats")["index"]["loaded"] is True
            assert "repro_index_landmarks" in get_text(f"{url}/metrics")
        finally:
            process.terminate()
            process.wait(timeout=10)
            process.stdout.close()


class TestFirstRead:
    def test_first_ins_request_builds_and_saves_then_a_reboot_loads(
        self, graph_path, index_path, count_builds
    ):
        cold = QueryService.from_files(graph_path, index_path, seed=0)
        answers(cold, None)
        cold.query_batch(
            [{"source": s, "target": t, "labels": LABELS,
              "constraint": CONSTRAINT} for s, t in PAIRS[:4]]
        )
        assert not index_path.exists() and count_builds == []
        agree_with_naive(cold)
        assert index_path.is_file() and len(count_builds) == 1

        warm = QueryService.from_files(graph_path, index_path, seed=0)
        assert answers(warm, "ins") == answers(cold, "ins")
        assert len(count_builds) == 1               # loaded, not built
        assert (
            warm.index.partition.landmarks == cold.index.partition.landmarks
        )

    def test_concurrent_first_reads_build_once_while_the_default_route_answers(
        self, graph_path, index_path, monkeypatch
    ):
        started, release, builds = threading.Event(), threading.Event(), []
        original = storage.build_local_index

        def slow(*args, **kwargs):
            builds.append(1)
            started.set()
            release.wait(timeout=5)
            return original(*args, **kwargs)

        monkeypatch.setattr(storage, "build_local_index", slow)
        service = QueryService.from_files(graph_path, index_path, seed=0)
        assert builds == []
        results = {}

        def ask(position, algorithm):
            source, target = PAIRS[position]
            results[position] = service.query(
                source, target, LABELS, CONSTRAINT, algorithm=algorithm
            )[0]

        readers = [
            threading.Thread(target=ask, args=(position, "ins"))
            for position in range(8)
        ]
        for reader in readers:
            reader.start()
        assert started.wait(timeout=5)
        default = threading.Thread(target=ask, args=(8, None))
        default.start()
        default.join(timeout=5)
        answered_during_build = not default.is_alive() and not release.is_set()
        release.set()
        for reader in readers:
            reader.join(timeout=30)
        assert answered_during_build
        assert builds == [1]
        assert [results[p].algorithm for p in range(8)] == ["INS"] * 8
        naive = QueryService.from_files(graph_path, seed=0)
        for position in range(9):
            source, target = PAIRS[position]
            expected = naive.query(
                source, target, LABELS, CONSTRAINT, algorithm="naive"
            )[0].answer
            assert results[position].answer == expected

    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    @pytest.mark.parametrize("saved", [False, True], ids=["absent", "present"])
    def test_first_read_after_an_update_builds_in_memory(
        self, graph_path, index_path, saved, read_first, count_builds
    ):
        if saved:
            save_local_index(
                build_local_index(load_tsv(graph_path), rng=0), index_path
            )
        service = QueryService.from_files(graph_path, index_path, seed=0)
        booted = service.index if read_first else None  # loads, or builds and saves
        before = index_path.read_bytes() if index_path.exists() else None
        count_builds.clear()
        summary = service.apply_updates(NEW_EDGES)
        assert summary["edges_added"] > 0 and summary["index"] == "deferred"
        agree_with_naive(service)
        assert len(count_builds) == 1               # over the new epoch's graph
        assert service.index.graph is service.graph
        assert service.index is not booted
        if before is None:
            assert not index_path.exists()
        else:
            assert index_path.read_bytes() == before

    def test_a_stale_file_fails_the_ins_request_and_nothing_else(
        self, graph_path, index_path
    ):
        stale = load_tsv(graph_path)
        save_local_index(build_local_index(stale, rng=0), index_path)
        with open(graph_path, "a", encoding="utf-8") as handle:
            handle.write("n0\tl2\tn1\n")            # same |V|, one more edge
        service = QueryService.from_files(graph_path, index_path, seed=0)
        spec = {"source": "n0", "target": "n5", "labels": LABELS,
                "constraint": CONSTRAINT}
        with running_server(service) as url:
            for _ in range(2):                       # the slot stays unread
                status, body = post_status(
                    f"{url}/query", {**spec, "algorithm": "ins"}
                )
                assert status == 400
                assert body["error"]["type"] == "IndexingError"
                assert "repro index" in body["error"]["message"]
            status, body = post_status(f"{url}/query", spec)
            assert status == 200 and body["algorithm"] != "INS"
        assert service.epoch.describe_index() == {
            "loaded": False, "configured": True,
        }
        index_path.unlink()
        agree_with_naive(service)                    # the next read builds


class TestRecovery:
    def test_snapshot_recovery_builds_in_memory_on_first_read(
        self, graph_path, index_path, tmp_path, count_builds
    ):
        wal = UpdateWal(tmp_path / "wal", compact_every=1)
        leader, _ = recover_service(
            wal.tenant("default"), graph_path=graph_path, seed=0
        )
        leader.apply_updates(NEW_EDGES)
        leader.close()
        wal.close()

        wal = UpdateWal(tmp_path / "wal", compact_every=1)
        service, _ = recover_service(
            wal.tenant("default"), graph_path=graph_path,
            index_path=index_path, seed=0,
        )
        try:
            assert count_builds == []
            assert service.epoch.describe_index()["configured"] is True
            agree_with_naive(service)
            assert len(count_builds) == 1 and not index_path.exists()
        finally:
            service.close()
            wal.close()


def post_status(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.load(reply)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def post(url, payload):
    status, body = post_status(url, payload)
    assert status == 200, body
    return body


def get_json(url):
    with urllib.request.urlopen(url, timeout=30) as reply:
        return json.load(reply)


def get_text(url):
    with urllib.request.urlopen(url, timeout=30) as reply:
        return reply.read().decode()
