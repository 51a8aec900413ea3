"""Server processes: launch exactly as users do, find the port, account
CPU and memory, and always stop and reap.

Each server is a ``python -m repro serve ...`` subprocess (or, for the
traced run, ``traced_serve.py serve ...`` with the same arguments).  The
ephemeral port is parsed from the ``listening on`` ready line.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

from ladder import spec

LADDER_DIR = Path(__file__).resolve().parent
SRC_DIR = LADDER_DIR.parents[1] / "src"
READY_PREFIX = "listening on http://"
#: A server that has not printed its ready line by then is a failure.
BOOT_TIMEOUT_S = 120.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: The cores this process may use, read before anything is pinned.
_CORES = sorted(os.sched_getaffinity(0))


def _core(shard_worker: bool) -> set[int] | None:
    """The core a process is confined to, or None on a single core, where
    nothing is pinned: the last core for the front server *and* the load
    generator, the first for the shard workers.

    Every process here is bound by one GIL, so it cannot use a second
    core; left unpinned, the kernel spreads a server's threads over both
    and the cross-core GIL hand-offs cost 0-25 % more CPU per query from
    one run of the same requests to the next.

    The one reader is closed loop, so client and front server never run
    at the same moment.  On separate cores each request would wake two
    idle virtual CPUs, and how long that takes is the host's business:
    the same cached query took 0.30 ms in one run and 0.48 ms in the
    next.  On one core the hand-off is a context switch (0.21 ms, every
    run), and the core never goes idle during the measured phase.
    """
    if len(_CORES) < 2:
        return None
    return {_CORES[0] if shard_worker else _CORES[-1]}


def pin_client() -> None:
    """Confine this process (the load generator) to the front's core."""
    core = _core(False)
    if core is not None:
        os.sched_setaffinity(0, core)


class ServerDied(RuntimeError):
    """A server exited (or never became ready) while it was needed."""


def _command(traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(LADDER_DIR / "traced_serve.py")]
    return [sys.executable, "-m", "repro"]


def _environment(span_file: Path | None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    # String hashing is randomised per process and the index build and
    # the searches iterate hash-ordered sets: the same 150 queries cost
    # INS 23-31 ms each depending on the seed a server happened to draw.
    env["PYTHONHASHSEED"] = "0"
    # Users boot with their byte code cached.  Where the benchmark's own
    # environment forbids writing it (this sandbox does), every boot in a
    # fresh checkout would compile all of ``repro`` again: a fifth of
    # ``setup_s``, growing with every line of source added.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if span_file is not None:
        env["LADDER_SPAN_FILE"] = str(span_file)
    return env


class ServerProcess:
    """One ``serve`` subprocess and the thread draining its output."""

    def __init__(
        self,
        name: str,
        arguments: list[str],
        run_dir: Path,
        *,
        shard_worker: bool = False,
        traced: bool = False,
    ) -> None:
        self.name = name
        self.span_file = run_dir / f"{name}.spans.json" if traced else None
        self.ready_at: float | None = None
        self.address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self._log = open(run_dir / f"{name}.log", "w", encoding="utf-8")
        self._process = subprocess.Popen(
            [*_command(traced), "serve", *arguments],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=_environment(self.span_file),
            text=True,
        )
        core = _core(shard_worker)
        if core is not None:
            # Still single-threaded this early; later threads inherit it.
            os.sched_setaffinity(self._process.pid, core)
        self._drain = threading.Thread(
            target=self._read_output, name=f"drain-{name}", daemon=True
        )
        self._drain.start()

    @property
    def pid(self) -> int:
        return self._process.pid

    def _read_output(self) -> None:
        assert self._process.stdout is not None
        for line in self._process.stdout:
            self._log.write(line)
            if self.address is None and line.startswith(READY_PREFIX):
                host, _, port = line[len(READY_PREFIX):].strip().rpartition(":")
                self.ready_at = time.perf_counter()
                self.address = (host, int(port))
                self._ready.set()
        self._ready.set()  # EOF: wake a waiter so it can see the death

    def wait_ready(self) -> tuple[str, int]:
        if not self._ready.wait(BOOT_TIMEOUT_S) or self.address is None:
            raise ServerDied(f"{self.name} never printed its ready line")
        return self.address

    def cpu_seconds(self) -> float:
        """user+sys CPU of the process so far (``/proc/<pid>/stat``)."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerDied(f"{self.name}: no VmHWM in /proc status")

    def stop(self) -> None:
        """Terminate, escalate to kill, reap; idempotent.

        SIGTERM, not SIGINT: a benchmark started in the background
        inherits an ignored SIGINT and so would its servers.  The traced
        launcher turns SIGTERM into the clean shutdown that dumps spans.
        """
        if self._process.poll() is None:
            self._process.send_signal(signal.SIGTERM)
            try:
                self._process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self._process.kill()
        self._process.wait()
        self._drain.join(timeout=5)
        if self._process.stdout is not None:
            self._process.stdout.close()
        self._log.close()


class Topology:
    """The server processes of one set-up; ``front`` takes the requests."""

    def __init__(self) -> None:
        self.processes: list[ServerProcess] = []
        self.front: ServerProcess | None = None
        self.setup_s = 0.0
        self.cut_s = 0.0
        self.worker_boot_s = 0.0

    @property
    def address(self) -> tuple[str, int]:
        assert self.front is not None and self.front.address is not None
        return self.front.address

    def cpu_seconds(self) -> float:
        return sum(process.cpu_seconds() for process in self.processes)

    def peak_rss_mb(self) -> float:
        return sum(process.peak_rss_mb() for process in self.processes)

    def stop(self) -> None:
        for process in reversed(self.processes):
            process.stop()

    def get_json(self, path: str) -> dict:
        """One GET on the front server, decoded."""
        host, port = self.address
        with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=30) as reply:
            return json.load(reply)


def launch(
    workload: spec.Workload, graph_path: Path, run_dir: Path, *, traced: bool = False
) -> Topology:
    """Boot the workload's topology; returns once the front is listening.

    The index is built by the server at boot (``--index`` names a file
    that does not exist yet); nothing is fsynced in any workload (no
    ``--wal``).
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    topology = Topology()
    started = time.perf_counter()
    arguments = [
        "--graph", str(graph_path),
        "--index", str(run_dir / "index.json"),
        "--port", "0",
    ]
    try:
        if workload.updates:
            arguments.append("--allow-updates")
        if workload.sharded:
            cut = subprocess.run(
                [*_command(False), "cut", str(graph_path),
                 "--shards", str(spec.SHARDS), "--out", str(run_dir / "slices")],
                env=_environment(None), stdin=subprocess.DEVNULL,
                capture_output=True, text=True, timeout=BOOT_TIMEOUT_S,
            )
            if cut.returncode != 0:
                raise ServerDied(f"repro cut failed: {cut.stderr.strip()}")
            topology.cut_s = time.perf_counter() - started
            workers_started = time.perf_counter()
            for shard in range(spec.SHARDS):
                slice_file = run_dir / "slices" / f"shard-{shard}.slice.json"
                topology.processes.append(ServerProcess(
                    f"worker{shard}", ["--worker", str(slice_file), "--port", "0"],
                    run_dir, shard_worker=True, traced=traced,
                ))
            # Index-free on both sides: `cut` without --index derives the
            # same plan `serve --shards` derives without one, so the
            # handshake needs no resync.
            arguments = ["--graph", str(graph_path), "--port", "0",
                         "--shards", str(spec.SHARDS)]
            for worker in topology.processes:
                host, port = worker.wait_ready()
                arguments += ["--worker-url", f"http://{host}:{port}"]
            topology.worker_boot_s = time.perf_counter() - workers_started
        topology.front = ServerProcess(
            "front", arguments, run_dir, traced=traced
        )
        topology.processes.append(topology.front)
        topology.front.wait_ready()
    except BaseException:
        topology.stop()
        raise
    assert topology.front.ready_at is not None
    topology.setup_s = topology.front.ready_at - started
    return topology
