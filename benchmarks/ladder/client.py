"""The load generator: one closed-loop reader, the writer, and the
calibration thread.

Reader and writer live in this one process, one thread and one
persistent HTTP/1.1 connection each.  The reader sends its next request
only after the previous reply (closed loop).  The writer's schedule is
counted in the reader's requests, not in seconds — a batch falls due
every so many completed requests — so that the mix of work is the same
on a fast and on a disturbed machine; every update is timed from when
it fell *due*, so a server still busy with the previous one is charged
for the wait.

The transport is a bare socket speaking just enough HTTP/1.1 (one POST,
one ``Content-Length`` reply) and replies are kept as bytes until the
measured phase is over: with ``http.client`` and ``json.loads`` in the
loop the client cost more per cached query than the server did, and the
benchmark measured itself.
"""

from __future__ import annotations

import json
import queue
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field

from ladder import streams
from ladder.spans import REQUEST_ID_HEADER

#: Per-request socket timeout: a dead or wedged server surfaces as failed
#: operations, never as a hang.
REQUEST_TIMEOUT_S = 30.0
#: Traced requests carry the id ``TAG_STRIDE * (1 reader, 2 writer) +
#: position``; untagged (warm-up) requests fall below the first stride.
TAG_STRIDE = 10_000_000
#: The reader gives up after this many transport errors in a row: its
#: server is gone, and the failures so far already fail the run.
_GIVE_UP_AFTER = 20


class Connection:
    """One persistent HTTP/1.1 connection."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.address = address
        self._socket: socket.socket | None = None
        self._unread = b""

    def connect(self) -> None:
        self._socket = socket.create_connection(self.address, timeout=REQUEST_TIMEOUT_S)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._unread = b""

    def close(self) -> None:
        if self._socket is not None:
            self._socket.close()
            self._socket = None

    def post(
        self,
        path: str,
        body: bytes,
        request_id: int | None = None,
        *,
        quick_ack: bool = True,
    ) -> tuple[int, bytes]:
        """One POST; ``(0, b"")`` on a transport error.

        After an error the connection is closed and the next call
        reconnects, so one reset costs one failed operation.

        ``quick_ack`` re-arms ``TCP_QUICKACK`` once the request is sent.
        The server writes a reply's headers and body as two segments with
        Nagle's algorithm on, so the body waits until the client has
        acknowledged the headers; a default client delays that
        acknowledgement by ~40 ms on a kept-alive connection, which
        would bury every server-side cost the workloads exist to show.
        The stall is tracked on its own as the per-layer metric
        ``http.keepalive_stall_ms`` (measured with ``quick_ack=False``).
        """
        tag = f"{REQUEST_ID_HEADER}: {request_id}\r\n" if request_id is not None else ""
        head = (
            f"POST {path} HTTP/1.1\r\nHost: ladder\r\n"
            f"Content-Type: application/json\r\n{tag}"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        try:
            if self._socket is None:
                self.connect()
            assert self._socket is not None
            self._socket.sendall(head + body)
            if quick_ack:
                self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            return self._read_reply()
        except (OSError, ValueError):
            self.close()
            return 0, b""

    def _read_reply(self) -> tuple[int, bytes]:
        data = self._unread
        while (end := data.find(b"\r\n\r\n")) < 0:
            data += self._receive()
        head = data[:end].lower()
        status = int(head[9:12])
        at = head.index(b"content-length:") + len(b"content-length:")
        length = int(head[at:].split(b"\r\n", 1)[0])
        data = data[end + 4:]
        while len(data) < length:
            data += self._receive()
        self._unread = data[length:]
        return status, data[:length]

    def _receive(self) -> bytes:
        assert self._socket is not None
        chunk = self._socket.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk


@dataclass
class Sample:
    """One request as the client saw it."""

    request: streams.Request
    path: str
    started: float
    ended: float
    status: int  # 0 = transport error
    body: bytes
    request_id: int = 0

    @property
    def latency_ms(self) -> float:
        return (self.ended - self.started) * 1000.0


@dataclass
class UpdateSample:
    batch: int
    due: float
    sent: float
    ended: float
    status: int
    body: bytes

    @property
    def ack_ms(self) -> float:
        return (self.ended - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


def parse_reply(body: bytes) -> object:
    """A reply body as JSON (None when it is not)."""
    try:
        return json.loads(body)
    except ValueError:
        return None


@dataclass
class RunLog:
    samples: list[Sample] = field(default_factory=list)
    updates: list[UpdateSample] = field(default_factory=list)
    started: float = 0.0

    @property
    def wall_s(self) -> float:
        """Start of the phase to the reader's last reply."""
        return max((s.ended for s in self.samples), default=self.started) - self.started


def _connect_and_wait(connection: Connection, start: threading.Barrier) -> bool:
    """Connect, then line up with the other threads; False if any of them
    could not connect (the barrier is aborted so nobody waits forever)."""
    try:
        connection.connect()
        start.wait()
    except OSError:
        start.abort()
        return False
    except threading.BrokenBarrierError:
        return False
    return True


def _reader(
    address: tuple[str, int],
    pool: list[streams.PoolQuery],
    requests: list[streams.Request],
    *,
    start: threading.Barrier,
    deadline_s: float | None,
    limit: int | None,
    cycle: bool,
    tag: int | None,
    update_every: int,
    dues: queue.SimpleQueue,
    out: list[Sample],
) -> None:
    connection = Connection(address)
    try:
        if not _connect_and_wait(connection, start) or not requests:
            return
        began = time.perf_counter()
        position = 0
        errors_in_a_row = 0
        while (limit is None or position < limit) and errors_in_a_row < _GIVE_UP_AFTER:
            if position >= len(requests) and not cycle:
                break
            request = requests[position % len(requests)]
            path, body = streams.request_body(pool, request)
            request_id = None if tag is None else tag + position
            started = time.perf_counter()
            if deadline_s is not None and started - began >= deadline_s:
                break
            status, reply = connection.post(path, body, request_id)
            ended = time.perf_counter()
            errors_in_a_row = 0 if status else errors_in_a_row + 1
            out.append(Sample(request, path, started, ended, status, reply, request_id or 0))
            position += 1
            if position % update_every == update_every // 2:
                dues.put(ended)
    finally:
        dues.put(None)
        connection.close()


def _writer(
    address: tuple[str, int],
    schedule: list[streams.EdgeBatch],
    *,
    start: threading.Barrier,
    tag: int | None,
    dues: queue.SimpleQueue,
    out: list[UpdateSample],
) -> None:
    connection = Connection(address)
    bodies = [streams.update_body(batch) for batch in schedule]
    try:
        if not _connect_and_wait(connection, start):
            return
        for number, body in enumerate(bodies):
            due = dues.get()
            if due is None:
                break
            sent = time.perf_counter()
            status, reply = connection.post(
                "/edges", body, None if tag is None else tag + number
            )
            out.append(UpdateSample(
                number, due, sent, time.perf_counter(), status, reply
            ))
    finally:
        connection.close()


#: CPU time the calibration kernel takes on the machine all reported
#: times are normalised to.
CALIBRATION_NOMINAL_S = 100e-6
_CALIBRATION_INTERVAL_S = 0.01


def _calibration_kernel() -> None:
    """A fixed piece of interpreter work of the kind the server does
    (dict, set and list traffic): about 0.1 ms."""
    table: dict[int, int] = {}
    seen: set[int] = set()
    stack: list[int] = []
    for i in range(600):
        key = (i * 7919) % 251
        table[key] = table.get(key, 0) + i
        if key not in seen:
            seen.add(key)
            stack.append(key)
    while stack:
        seen.discard(stack.pop())


class Calibrator(threading.Thread):
    """Measures how fast this core is, a hundred times a second.

    The benchmark's cores are virtual CPUs of a shared host.  At any
    moment a core runs at full speed or, while a neighbour keeps its
    sibling hardware thread busy, about 1.7 times slower; the slow share
    of the time drifts between 5 % and 50 % over minutes, and everything
    CPU-bound — all of this benchmark — drifts with it, by up to 40 %
    from one run of the same requests to the next.  This thread runs on
    the core the servers run on and times the same kernel again and
    again in CPU time, so being preempted does not count; the mean over
    a phase, as a share of ``CALIBRATION_NOMINAL_S``, is the factor by
    which that phase ran slow, and the phase's times are divided by it.
    It costs the core 1 %.
    """

    def __init__(self) -> None:
        super().__init__(name="calibrator", daemon=True)
        self._samples: list[tuple[float, float]] = []  # (when, kernel CPU seconds)
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(_CALIBRATION_INTERVAL_S):
            before = time.thread_time()
            _calibration_kernel()
            self._samples.append((time.perf_counter(), time.thread_time() - before))

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def slowdown(self, since: float, until: float) -> float:
        """The slow-down factor of the interval (1.0 if it was too short
        to hold a sample)."""
        inside = [cost for when, cost in self._samples if since <= when <= until]
        if not inside:
            return 1.0
        return statistics.fmean(inside) / CALIBRATION_NOMINAL_S


def drive(
    address: tuple[str, int],
    pool: list[streams.PoolQuery],
    requests: list[streams.Request],
    *,
    seconds: float | None = None,
    limit: int | None = None,
    cycle: bool = False,
    traced: bool = False,
    schedule: list[streams.EdgeBatch] | None = None,
    update_every: int = 1,
) -> RunLog:
    """Run one measured phase: the reader, plus the writer if ``schedule``.

    The reader stops at ``seconds`` (checked before each send), at
    ``limit`` requests (for replaying a prefix), or at the end of
    ``requests`` unless ``cycle``.  The next batch of ``schedule`` falls
    due each time the reader has completed another ``update_every``
    requests (first halfway through the first ``update_every``).
    """
    samples: list[Sample] = []
    updates: list[UpdateSample] = []
    dues: queue.SimpleQueue = queue.SimpleQueue()
    barrier = threading.Barrier(3 if schedule else 2)
    reader = threading.Thread(
        target=_reader,
        args=(address, pool, requests),
        kwargs=dict(
            start=barrier, deadline_s=seconds, limit=limit, cycle=cycle,
            tag=TAG_STRIDE if traced else None,
            update_every=update_every, dues=dues, out=samples,
        ),
        name="reader",
    )
    threads = [reader]
    if schedule:
        threads.append(threading.Thread(
            target=_writer, args=(address, schedule),
            kwargs=dict(
                start=barrier, tag=2 * TAG_STRIDE if traced else None,
                dues=dues, out=updates,
            ),
            name="writer",
        ))
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a client could not connect: the empty log reports it
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    return RunLog(samples=samples, updates=updates, started=started)
