"""The repository's service benchmark: one seeded, traced harness.

    python3 perfbench/run.py --workload frames-bulk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each run launches the quantile service as its own process
(``perfbench/server.py``, the system under test) and drives it over
loopback from this single-threaded asyncio load generator, with at most
two connections.  All traffic is generated from ``--seed`` before any
clock starts: a seeded pool of distinct pre-encoded frames and NDJSON lines
replayed in a seeded order, so the server receives only bytes and the
exact multiset of acknowledged values is known.

Phases of one run: set-up (the server is launched several times; each
launch is timed until its first ok ``ping``), warm-up, the measured window
of ``--seconds``, and a verification query scored against exact ground
truth with the interval rank ``[#(<v), #(<=v)]``.  A rank error above
epsilon fails the run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with the layer tracer (``tracer.py``)
installed in the server, and prints per-layer metrics plus the tracing
overhead.  The last stdout line is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with host
and config metadata is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import asyncio
import importlib.util
import json
import math
import os
import platform
import random
import selectors
import signal
import statistics
import subprocess
import sys
from collections import deque
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns, time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(SRC))
try:
    import numpy as np
    from repro.service import frames
except ImportError as missing:  # run outside a checkout of the package
    np = frames = None
    IMPORT_ERROR = missing

EPSILON = 0.01
SHARDS = 2
#: Server launches per run; ``setup_s`` is their median.
LAUNCHES = 7
WARMUP_S = 2.0
#: Fewest samples a one-second slice needs before percentiles are sliced.
SLICE_SAMPLES = 1000
#: A half-window throughput ratio outside this band flags drift.
DRIFT_BAND = (0.85, 1.15)
HOST = "127.0.0.1"

QUERY_PHIS = 5
RANK_VALUES = 8
NDJSON_VALUES = 100
NDJSON_RANGE = 1_000_000_000
FRAME_RANGE = 1 << 40
VERIFY_PHIS = [0.001, 0.01] + [step / 20 for step in range(1, 20)] + [0.99, 0.999]
VERIFY_RANKS = 32


#: Every workload's service config: loopback, ephemeral port, defaults else.
SERVICE = {"host": HOST, "port": 0}


def _engine(
    summary: str, lane: str, executor: str = "serial", workers: int = 1, **extra
) -> dict:
    return {
        "summary": summary,
        "epsilon": EPSILON,
        "shards": SHARDS,
        "workers": workers,
        "executor": executor,
        "lane": lane,
        "seed": 0,
        **extra,
    }


WORKLOADS: dict[str, dict] = {
    "frames-bulk": {
        "why": (
            "2 connections pipeline 16384-value int64 frames (window 16), a read "
            "after each frame on one: GK columnar serial, the fast path's ceiling "
            "(decode, routing, native GK, fold, publish)"
        ),
        "engine": _engine("gk", "columnar"),
        "service": SERVICE,
        "traffic": "frames_closed",
        "frame_values": 16384,
        "pool": 32,
        "window": 16,
    },
    "ndjson-mixed": {
        "why": (
            "2 NDJSON connections, closed loop, 70% inserts of 100 values, 15% query,"
            " 15% rank, GK items lane: the comparison-model path (JSON, Fraction/Item"
            " kernels, index compiles)"
        ),
        "engine": _engine("gk", "items"),
        "service": SERVICE,
        "traffic": "ndjson_closed",
        "mix": (0.70, 0.15, 0.15),
        "pool": 256,
    },
    "reads-under-ingest": {
        "why": (
            "open loop: 4096-value frames at 200/s on one connection, query/rank at "
            "200/s on the other; reads wait behind the synchronous flush and publish "
            "on the event loop"
        ),
        "engine": _engine("gk", "columnar"),
        "service": SERVICE,
        "traffic": "open_loop",
        "frame_values": 4096,
        "pool": 64,
        "frame_rate": 200.0,
        "read_rate": 200.0,
        # Each read is due this long after a frame, so it lands while that
        # frame's flush runs; equal due times made it a race which went first.
        "read_lag_ms": 0.5,
    },
    "processes-kll": {
        "why": (
            "frames-bulk traffic with KLL on the processes executor (2 workers): the "
            "only workload through IPC, worker apply, collect and persistence decode"
        ),
        # delta=1e-9 sizes k so the eps guarantee holds with a wide margin;
        # at the default delta=0.01 a 2-shard fold was seen at 0.0125 > eps.
        "engine": _engine(
            "kll", "columnar", executor="processes", workers=2,
            summary_kwargs={"delta": 1e-9},
        ),
        "service": SERVICE,
        "traffic": "frames_closed",
        "frame_values": 16384,
        "pool": 32,
        "window": 16,
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_items_per_s": "1/s",
    "ops_per_s": "1/s",
    "insert_ack_p50_ms": "ms",
    "insert_ack_p99_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "server_rss_mb": "MB",
    "summary_stored_items": "count",
}


class BenchError(Exception):
    """The benchmark cannot run (missing source, server failed to start)."""


# -- small statistics helpers ------------------------------------------------------


def percentile(values, phi: float) -> float:
    """Nearest-rank percentile of raw samples (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(phi * len(ordered)))
    return float(ordered[rank - 1])


def _ms(ns: int) -> float:
    return ns / 1e6


# -- traffic: seeded pools, generated before the clock starts ------------------------


@dataclass
class Traffic:
    """Everything a run sends, plus what is needed to score its answers."""

    frames: list[bytes] = field(default_factory=list)
    insert_lines: list[bytes] = field(default_factory=list)
    pool_values: list = field(default_factory=list)
    query_lines: list[bytes] = field(default_factory=list)
    rank_lines: list[bytes] = field(default_factory=list)
    verify_ranks: list[int] = field(default_factory=list)
    seed: int = 0

    def order(self, stream: int, size: int):
        """An endless seeded replay order over ``size`` pool entries."""
        rng = random.Random(self.seed * 1_000_003 + stream)
        while True:
            yield rng.randrange(size)


def _line(record: dict) -> bytes:
    return (json.dumps(record, separators=(",", ":")) + "\n").encode()


def build_traffic(spec: dict, seed: int) -> Traffic:
    rng = np.random.default_rng(seed)
    traffic = Traffic(seed=seed)
    if "frame_values" in spec:
        for index in range(spec["pool"]):
            values = rng.integers(0, FRAME_RANGE, spec["frame_values"], dtype=np.int64)
            traffic.pool_values.append(values)
            traffic.frames.append(frames.encode_insert(index, values.tolist()))
        high = FRAME_RANGE
    else:
        for index in range(spec["pool"]):
            values = rng.integers(0, NDJSON_RANGE, NDJSON_VALUES, dtype=np.int64)
            traffic.pool_values.append(values)
            traffic.insert_lines.append(
                _line({"id": index, "op": "insert", "values": values.tolist()})
            )
        high = NDJSON_RANGE
    grid = [step / 100 for step in range(1, 100)]
    pick = random.Random(seed)
    for index in range(64):
        phis = sorted(pick.sample(grid, QUERY_PHIS))
        traffic.query_lines.append(_line({"id": index, "op": "query", "phis": phis}))
        probes = [pick.randrange(high) for _ in range(RANK_VALUES)]
        traffic.rank_lines.append(_line({"id": index, "op": "rank", "values": probes}))
    traffic.verify_ranks = [pick.randrange(high) for _ in range(VERIFY_RANKS)]
    return traffic


class Truth:
    """The exact multiset of acknowledged values, as pool-entry multiplicities."""

    def __init__(self, pool_values: list) -> None:
        self.pool_values = pool_values
        self.counts = np.zeros(len(pool_values), dtype=np.int64)

    def add(self, index: int) -> None:
        self.counts[index] += 1

    @property
    def n(self) -> int:
        return int(sum(int(count) * len(values)
                       for count, values in zip(self.counts, self.pool_values)))

    def interval_ranks(self, probes: list[float]) -> list[tuple[int, int]]:
        """``(#(<v), #(<=v))`` for each probe value."""
        values = np.concatenate(self.pool_values).astype(np.float64)
        weights = np.repeat(self.counts, [len(part) for part in self.pool_values])
        order = np.argsort(values, kind="stable")
        values = values[order]
        cumulative = np.concatenate([[0], np.cumsum(weights[order])])
        probes = np.asarray(probes, dtype=np.float64)
        below = cumulative[np.searchsorted(values, probes, side="left")]
        at_or_below = cumulative[np.searchsorted(values, probes, side="right")]
        return [(int(lo), int(hi)) for lo, hi in zip(below, at_or_below)]


# -- recording --------------------------------------------------------------------


@dataclass
class Phase:
    """Raw samples of one phase (prime, warm-up or measured window)."""

    start_ns: int = 0
    end_ns: int = 0
    attempted: int = 0
    failed: int = 0
    errors: dict = field(default_factory=dict)
    # (completion ns, latency ns, items) of every ok insert
    acks: list = field(default_factory=list)
    # (completion ns, latency ns) of every ok read
    reads: list = field(default_factory=list)
    # how late each scheduled send left, open loop only
    late_ns: list = field(default_factory=list)

    def fail(self, code: str) -> None:
        self.failed += 1
        self.errors[code] = self.errors.get(code, 0) + 1

    def slices(self, count: int) -> list[tuple[int, int]]:
        span = self.end_ns - self.start_ns
        return [
            (self.start_ns + span * part // count, self.start_ns + span * (part + 1) // count)
            for part in range(count)
        ]


def rate(phase: Phase, events: list, amount) -> float:
    """Amount completed in the phase per second, over the span from the phase
    start to its last completion (events start with their completion time)."""
    inside = [event for event in events if phase.start_ns <= event[0] < phase.end_ns]
    if not inside:
        return 0.0
    last = max(event[0] for event in inside)
    return sum(amount(event) for event in inside) / ((last - phase.start_ns) / 1e9)


def latency_ms(phase: Phase, events: list, phi: float) -> float:
    """A latency percentile, as the median of its per-second values.

    The phase is cut into one-second slices, fewer if a slice would hold
    under :data:`SLICE_SAMPLES` samples, and the percentile of each slice
    is medianed.  A rare stall (a garbage collection, a long fold) then
    moves one slice's value instead of sitting right on the pooled p99.
    """
    seconds = (phase.end_ns - phase.start_ns) / 1e9
    count = max(1, min(int(seconds), len(events) // SLICE_SAMPLES))
    values = []
    for low, high in phase.slices(count):
        inside = [event[1] for event in events if low <= event[0] < high]
        if inside:
            values.append(_ms(percentile(inside, phi)))
    return statistics.median(values) if values else 0.0


# -- the wire ---------------------------------------------------------------------


class Connection:
    """One client socket; optionally upgraded to the binary frame wire."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int, frames_wire: bool) -> "Connection":
        reader, writer = await asyncio.open_connection(HOST, port, limit=1 << 24)
        connection = cls(reader, writer)
        if frames_wire:
            writer.write(_line({"id": 0, "op": "hello", "wire": "frames"}))
            reply = json.loads(await reader.readline())
            if not reply.get("ok") or reply.get("wire") != "frames":
                raise BenchError(f"frame wire refused: {reply}")
        return connection

    async def request(self, line: bytes) -> dict:
        self.writer.write(line)
        return json.loads(await self.read_line())

    async def read_line(self) -> bytes:
        line = await self.reader.readline()
        if not line:
            raise BenchError("server closed the connection")
        return line

    async def read_any(self):
        """``("frame", kind, request_id, payload)`` or ``("line", record)``."""
        first = await self.reader.readexactly(1)
        if first == frames.MAGIC[:1]:
            header = first + await self.reader.readexactly(frames.HEADER_SIZE - 1)
            kind, _mode, request_id, length = frames.decode_header(header)
            payload = await self.reader.readexactly(length)
            return "frame", kind, request_id, payload
        line = first + await self.reader.readline()
        return "line", json.loads(line)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _error_code(record: dict) -> str:
    return record.get("error", {}).get("code", "bad_reply")


def _check_frame_ack(reply, index: int, expected: int, phase: Phase) -> bool:
    if reply[0] != "frame":
        phase.fail("unexpected_line")
        return False
    _, kind, request_id, payload = reply
    if kind == frames.KIND_ERROR:
        code, _message = frames.decode_error(payload)
        phase.fail(code)
        return False
    items = frames.ACK_BODY.unpack(payload)[0] if kind == frames.KIND_ACK else -1
    if request_id != index or items != expected:
        phase.fail("bad_ack")
        return False
    return True


# -- traffic drivers ----------------------------------------------------------------


async def frames_closed(conn, traffic, order, window, until_ns, phase, truth, sizes, probe):
    """Pipeline frames with ``window`` in flight until ``until_ns``; drain.

    With ``probe``, a read (alternating query and rank) follows every frame
    on the same connection.  The server answers in order, so each read
    waits for the inserts admitted before it: read-your-writes latency
    under bulk ingest.
    """
    inflight: deque = deque()
    frames_out = 0
    reads = 0
    while True:
        while frames_out < window and perf_counter_ns() < until_ns:
            index = next(order)
            conn.writer.write(traffic.frames[index])
            inflight.append((perf_counter_ns(), index))
            frames_out += 1
            phase.attempted += 1
            if probe:
                pool = traffic.query_lines if reads % 2 == 0 else traffic.rank_lines
                conn.writer.write(pool[(reads // 2) % len(pool)])
                inflight.append((perf_counter_ns(), None))
                reads += 1
                phase.attempted += 1
        if not inflight:
            return
        await conn.writer.drain()
        reply = await conn.read_any()
        done = perf_counter_ns()
        sent, index = inflight.popleft()
        if index is None:
            record = reply[1] if reply[0] == "line" else {}
            if record.get("ok"):
                phase.reads.append((done, done - sent))
            else:
                phase.fail(_error_code(record))
            continue
        frames_out -= 1
        if _check_frame_ack(reply, index, sizes[index], phase):
            truth.add(index)
            phase.acks.append((done, done - sent, sizes[index]))


async def ndjson_closed(conn, traffic, order, kinds, mix, until_ns, phase, truth):
    """One request at a time: inserts, queries and ranks in a seeded mix."""
    insert_share, query_share, _rank = mix
    while perf_counter_ns() < until_ns:
        draw = kinds.random()
        index = next(order)
        if draw < insert_share:
            kind, line = "insert", traffic.insert_lines[index]
        elif draw < insert_share + query_share:
            kind, line = "read", traffic.query_lines[index % len(traffic.query_lines)]
        else:
            kind, line = "read", traffic.rank_lines[index % len(traffic.rank_lines)]
        sent = perf_counter_ns()
        phase.attempted += 1
        reply = await conn.request(line)
        done = perf_counter_ns()
        if not reply.get("ok"):
            phase.fail(_error_code(reply))
            continue
        if kind == "insert":
            if reply.get("items") != NDJSON_VALUES:
                phase.fail("bad_ack")
                continue
            truth.add(index)
            phase.acks.append((done, done - sent, NDJSON_VALUES))
        else:
            phase.reads.append((done, done - sent))


async def _scheduled(conn, next_request, rate, start_ns, until_ns, phase, on_reply):
    """Send on a fixed schedule while a receiver task matches replies FIFO.

    The receiver blocks on the socket, never polls; once the sender is done
    it returns after the last expected reply (or is cancelled when none is
    outstanding).
    """
    inflight: deque = deque()
    state = {"sending": True}

    async def receive():
        while state["sending"] or inflight:
            reply = await conn.read_any()
            due, index = inflight.popleft()
            on_reply(reply, perf_counter_ns() - due, index)

    receiver = asyncio.create_task(receive())
    period = 1e9 / rate
    tick = 0
    try:
        while True:
            due = start_ns + int(tick * period)
            if due >= until_ns:
                break
            delay = (due - perf_counter_ns()) / 1e9
            if delay > 0:
                await asyncio.sleep(delay)
            index, payload = next_request(tick)
            conn.writer.write(payload)
            phase.late_ns.append(perf_counter_ns() - due)
            inflight.append((due, index))
            phase.attempted += 1
            tick += 1
            await conn.writer.drain()
    finally:
        state["sending"] = False
        if not inflight:
            receiver.cancel()
    try:
        await receiver
    except asyncio.CancelledError:
        if not receiver.cancelled():
            raise


async def open_loop(conns, traffic, frame_order, spec, start_ns, until_ns, phase, truth, sizes):
    """Frames on one connection and reads on the other, each on a schedule.

    Latency is timed from each request's due time, so a stall also charges
    the requests queued behind it.
    """
    frame_conn, read_conn = conns
    read_lines = traffic.query_lines + traffic.rank_lines
    half = len(traffic.query_lines)

    def next_frame(_tick):
        index = next(frame_order)
        return index, traffic.frames[index]

    def next_read(tick):
        index = (tick // 2) % half + (0 if tick % 2 == 0 else half)
        return index, read_lines[index]

    def on_ack(reply, latency_ns, index):
        if _check_frame_ack(reply, index, sizes[index], phase):
            truth.add(index)
            phase.acks.append((perf_counter_ns(), latency_ns, sizes[index]))

    def on_read(reply, latency_ns, _index):
        record = reply[1] if reply[0] == "line" else {}
        if record.get("ok"):
            phase.reads.append((perf_counter_ns(), latency_ns))
        else:
            phase.fail(_error_code(record))

    read_start = start_ns + int(spec["read_lag_ms"] * 1e6)
    await asyncio.gather(
        _scheduled(frame_conn, next_frame, spec["frame_rate"], start_ns, until_ns, phase, on_ack),
        _scheduled(read_conn, next_read, spec["read_rate"], read_start, until_ns, phase, on_read),
    )


# -- the server process --------------------------------------------------------------


def _server_env() -> dict:
    env = dict(os.environ)
    env["REPRO_NATIVE_CACHE"] = str(STATE / "native")
    env["TMPDIR"] = str(STATE / "tmp")
    return env


class Server:
    """One launched service process (its own session, so workers die with it)."""

    def __init__(self, spec: dict, trace_out: Path | None) -> None:
        payload = json.dumps({"engine": spec["engine"], "service": spec["service"]})
        command = [sys.executable, str(HERE / "server.py"), "--spec", payload]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.started_ns = perf_counter_ns()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            env=_server_env(),
            cwd=ROOT,
            start_new_session=True,
        )
        self.port = 0
        self.pid = self.process.pid

    async def ready(self) -> float:
        """Seconds from launch until the first ok ``ping``."""
        loop = asyncio.get_running_loop()
        line = await loop.run_in_executor(None, self.process.stdout.readline)
        if not line:
            raise BenchError(f"server exited with {self.process.wait()} before binding")
        self.port = json.loads(line)["port"]
        conn = await Connection.open(self.port, frames_wire=False)
        try:
            reply = await conn.request(_line({"id": 1, "op": "ping"}))
        finally:
            await conn.close()
        if not reply.get("ok"):
            raise BenchError(f"ping failed: {reply}")
        return (perf_counter_ns() - self.started_ns) / 1e9

    def send(self, signum: int) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signum)

    def stop(self, timeout: float = 60.0) -> None:
        """Drain gracefully, then kill whatever is left of the session."""
        self.send(signal.SIGTERM)
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        self.kill()

    def kill(self) -> None:
        """Kill the server and any stray worker in its session; reap it."""
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        self.process.stdout.close()

    def rss_mb(self) -> float:
        """Peak RSS (VmHWM) of the server plus every descendant, in MB."""
        total_kb = 0
        for pid in [self.pid, *_descendants(self.pid)]:
            try:
                with open(f"/proc/{pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields_ = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields_[1]), []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, []):
            found.append(child)
            frontier.append(child)
    return found


async def fetch_metrics(port: int) -> dict[str, float]:
    """Sum every un-quantiled sample of ``GET /metrics`` by metric name."""
    reader, writer = await asyncio.open_connection(HOST, port)
    writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
    body = await reader.read()
    writer.close()
    totals: dict[str, float] = {}
    text = body.split(b"\r\n\r\n", 1)[-1].decode()
    for line in text.splitlines():
        if not line or line.startswith("#") or 'quantile="' in line:
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        try:
            totals[name] = totals.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return totals


# -- verification -------------------------------------------------------------------


async def verify(conn: Connection, truth: Truth, traffic: Traffic):
    """Score a final query and rank against the exact acknowledged multiset."""

    async def ask(record: dict) -> dict:
        conn.writer.write(_line(record))
        kind, *rest = await conn.read_any()
        return rest[0] if kind == "line" else {}

    query = await ask({"id": 9001, "op": "query", "phis": VERIFY_PHIS})
    rank = await ask({"id": 9002, "op": "rank", "values": traffic.verify_ranks})
    stats = await ask({"id": 9003, "op": "stats"})
    n = truth.n
    problems = []
    if not (query.get("ok") and rank.get("ok") and stats.get("ok")):
        problems.append("verification request failed")
        return {"ok": False, "problems": problems, "n": n, "max_error": None}, stats
    if query.get("n") != n:
        problems.append(f"server n={query.get('n')} but {n} values were acknowledged")
    answers = [float(Fraction(item["value"])) for item in query["results"]]
    estimates = [item["rank"] for item in rank["results"]]
    intervals = truth.interval_ranks(answers + [float(v) for v in traffic.verify_ranks])
    worst = 0.0
    for phi, (lo, hi) in zip(VERIFY_PHIS, intervals[: len(answers)]):
        target = phi * n
        worst = max(worst, (max(0.0, lo - target, target - hi)) / n)
    for estimate, (lo, hi) in zip(estimates, intervals[len(answers):]):
        worst = max(worst, max(0, lo - estimate, estimate - hi) / n)
    if worst > EPSILON:
        problems.append(f"rank error {worst:.5f} exceeds epsilon {EPSILON}")
    return {"ok": not problems, "problems": problems, "n": n, "max_error": worst}, stats


async def _prime(conn, traffic, truth, phase) -> None:
    """One acknowledged insert before any read, so no read meets an empty summary."""
    phase.attempted += 1
    if traffic.frames:
        conn.writer.write(traffic.frames[0])
        reply = await conn.read_any()
        if _check_frame_ack(reply, 0, len(traffic.pool_values[0]), phase):
            truth.add(0)
        return
    reply = await conn.request(traffic.insert_lines[0])
    if reply.get("ok"):
        truth.add(0)
    else:
        phase.fail(_error_code(reply))


# -- one run ------------------------------------------------------------------------


@dataclass
class Streams:
    """Per-connection seeded replay orders, kept across a run's phases."""

    orders: list
    kinds: list


async def _drive(spec, traffic, conns, streams, truth, sizes, seconds) -> Phase:
    """Run the workload's traffic for ``seconds``; returns the phase record."""
    phase = Phase()
    phase.start_ns = perf_counter_ns()
    until = phase.start_ns + int(seconds * 1e9)
    kind = spec["traffic"]
    if kind == "frames_closed":
        await asyncio.gather(
            *(
                frames_closed(
                    conn, traffic, streams.orders[stream], spec["window"], until,
                    phase, truth, sizes, probe=stream == 0,
                )
                for stream, conn in enumerate(conns)
            )
        )
    elif kind == "ndjson_closed":
        await asyncio.gather(
            *(
                ndjson_closed(
                    conn, traffic, streams.orders[stream], streams.kinds[stream],
                    spec["mix"], until, phase, truth,
                )
                for stream, conn in enumerate(conns)
            )
        )
    else:
        await open_loop(
            conns, traffic, streams.orders[0], spec, phase.start_ns, until, phase,
            truth, sizes,
        )
    phase.end_ns = until
    return phase


async def run_once(name: str, seed: int, seconds: float, traced: bool, launches: int) -> dict:
    """Set up, warm up, measure, verify and tear down one workload run."""
    spec = WORKLOADS[name]
    traffic = build_traffic(spec, seed)
    truth = Truth(traffic.pool_values)
    sizes = [len(values) for values in traffic.pool_values]
    pool_size = len(traffic.pool_values)
    streams = Streams(
        orders=[traffic.order(stream, pool_size) for stream in range(2)],
        kinds=[random.Random(seed * 7919 + stream) for stream in range(2)],
    )
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    trace_out = STATE / f"trace-{name}-{seed}.jsonl" if traced else None

    setup: list[float] = []
    server = None
    try:
        for launch in range(launches):
            last = launch == launches - 1
            server = Server(spec, trace_out if last else None)
            setup.append(await asyncio.wait_for(server.ready(), 60))
            if not last:
                server.stop()
                server = None
        wires = [True, False] if spec["traffic"] == "open_loop" else (
            [spec["traffic"] == "frames_closed"] * 2
        )
        conns = [await Connection.open(server.port, wire) for wire in wires]

        prime = Phase()
        await _prime(conns[0], traffic, truth, prime)
        warm = await _drive(spec, traffic, conns, streams, truth, sizes, WARMUP_S)
        before = await fetch_metrics(server.port) if traced else {}
        if traced:
            server.send(signal.SIGUSR1)
            await asyncio.sleep(0.05)
        window = await _drive(spec, traffic, conns, streams, truth, sizes, seconds)
        if traced:
            server.send(signal.SIGUSR2)
            await asyncio.sleep(0.05)
        after = await fetch_metrics(server.port) if traced else {}
        check, stats = await verify(conns[0], truth, traffic)
        rss = server.rss_mb()
        for conn in conns:
            await conn.close()
        server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()

    phases = [prime, warm, window]
    errors: dict[str, int] = {}
    for phase in phases:
        for code, count in phase.errors.items():
            errors[code] = errors.get(code, 0) + count
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "setup": setup,
        "check": check,
        "attempted": sum(phase.attempted for phase in phases) + 3,
        "failed": sum(phase.failed for phase in phases) + (0 if check["ok"] else 1),
        "errors": errors,
        "metrics": _end_to_end(window, setup, rss, stats),
        "pooled_ms": {
            "insert_ack_p99": _ms(percentile([ack[1] for ack in window.acks], 0.99)),
            "insert_ack_max": _ms(max((ack[1] for ack in window.acks), default=0)),
            "read_p99": _ms(percentile([read[1] for read in window.reads], 0.99)),
        },
        "drift": _drift(window),
        "samples": {"insert_acks": len(window.acks), "reads": len(window.reads)},
        "late_ns": window.late_ns,
        "metrics_before": before,
        "metrics_after": after,
        "trace_file": str(trace_out) if traced else None,
    }


def _end_to_end(window: Phase, setup, rss, stats) -> dict:
    engine = stats.get("engine", {}) if stats.get("ok") else {}
    return {
        "setup_s": statistics.median(setup),
        "ingest_items_per_s": rate(window, window.acks, lambda ack: ack[2]),
        "ops_per_s": rate(window, window.acks + window.reads, lambda _event: 1),
        "insert_ack_p50_ms": latency_ms(window, window.acks, 0.50),
        "insert_ack_p99_ms": latency_ms(window, window.acks, 0.99),
        "read_p50_ms": latency_ms(window, window.reads, 0.50),
        "read_p99_ms": latency_ms(window, window.reads, 0.99),
        "server_rss_mb": rss,
        # The paper's space measure: each shard's most stored items, summed.
        "summary_stored_items": sum(
            shard.get("peak_stored", 0) for shard in engine.get("shards", [])
        ),
    }


def _drift(window: Phase) -> dict:
    first, second = (
        sum(ack[2] for ack in window.acks if low <= ack[0] < high) / ((high - low) / 1e9)
        for low, high in window.slices(2)
    )
    ratio = second / first if first else 0.0
    return {
        "first_half_items_per_s": first,
        "second_half_items_per_s": second,
        "ratio": ratio,
        "flagged": not DRIFT_BAND[0] <= ratio <= DRIFT_BAND[1],
    }


# -- the traced-run report ------------------------------------------------------------

PER_LAYER_UNITS = {
    "frames.decode_ns_per_item": "ns",
    "frames.decoded_items": "count",
    "protocol.decode_ns_per_item": "ns",
    "protocol.requests": "count",
    "queue.wait_ms_p50": "ms",
    "queue.wait_ms_p99": "ms",
    "queue.depth_max": "count",
    "queue.shed": "count",
    "flush.count": "count",
    "flush.jobs_per_flush": "count",
    "flush.self_ms_p99": "ms",
    "flush.self_s_total": "s",
    "audit.observe_s_total": "s",
    "engine.ingest_s_total": "s",
    "engine.batches": "count",
    "executor.apply_s_total": "s",
    "executor.sync_wait_s_total": "s",
    "executor.collect_s_total": "s",
    "executor.collects": "count",
    "worker.batch_s_total": "s",
    "worker.items": "count",
    "worker.restarts": "count",
    "persistence.load_s_total": "s",
    "persistence.load_ms_p99": "ms",
    "kernel.ns_per_item": "ns",
    "fold.count": "count",
    "fold.s_total": "s",
    "publish.count": "count",
    "publish.ms_p99": "ms",
    "publish.s_total": "s",
    "index.compiles": "count",
    "index.compile_ms_p99": "ms",
    "index.hit_ratio": "ratio",
    "read.query_us_p50": "us",
    "read.rank_us_p50": "us",
    "gen.late_ms_p99": "ms",
    "trace.busy_s": "s",
    "trace.coverage": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
    "drift.ratio": "ratio",
}


def _layer_metrics(traced: dict, reference: dict) -> tuple[dict, dict]:
    """Per-layer metrics and the layer self-time table of one traced run."""
    with open(traced["trace_file"]) as handle:
        report = json.loads(handle.readline())
    totals = report["totals"]
    counts = report["counts"]
    samples = report["samples"]
    durations = report["durations"]
    self_durations = report["self_durations"]

    def calls(hook):
        return totals.get(hook, [0, 0, 0])[0]

    def own_s(*hooks):
        return sum(totals.get(hook, [0, 0, 0])[1] for hook in hooks) / 1e9

    def inclusive_s(*hooks):
        return sum(totals.get(hook, [0, 0, 0])[2] for hook in hooks) / 1e9

    before, after = traced["metrics_before"], traced["metrics_after"]

    def delta(metric):
        return after.get(metric, 0.0) - before.get(metric, 0.0)

    layer_self: dict[str, float] = {}
    for hook, (_calls, own, _inclusive) in totals.items():
        layer = report["layers"].get(hook, "unknown")
        layer_self[layer] = layer_self.get(layer, 0.0) + own / 1e9
    busy = (report["region_ns"] - report["idle_ns"]) / 1e9
    named = sum(seconds for layer, seconds in layer_self.items() if layer != "asyncio")
    worker_s = delta("worker_batch_seconds_sum")
    worker_items = delta("worker_items_total")
    kernel_s = inclusive_s("kernel.numeric", "kernel.items_lane") + worker_s
    kernel_items = counts.get("kernel.items", 0) + worker_items
    hits = delta("service_read_index_hits_total")
    misses = delta("service_read_index_misses_total")
    frames_items = counts.get("frames.items", 0)
    protocol_items = counts.get("protocol.items", 0)
    untraced = reference["metrics"]["ingest_items_per_s"]
    traced_rate = traced["metrics"]["ingest_items_per_s"]
    metrics = {
        "frames.decode_ns_per_item": (
            own_s("frames.decode_header", "frames.decode_insert", "frames.all_finite")
            * 1e9 / frames_items if frames_items else 0.0
        ),
        "frames.decoded_items": frames_items,
        "protocol.decode_ns_per_item": (
            own_s("protocol.decode_line", "protocol.parse_request") * 1e9 / protocol_items
            if protocol_items else 0.0
        ),
        "protocol.requests": counts.get("protocol.requests", 0),
        "queue.wait_ms_p50": _ms(percentile(samples.get("queue.wait_ns", []), 0.50)),
        "queue.wait_ms_p99": _ms(percentile(samples.get("queue.wait_ns", []), 0.99)),
        "queue.depth_max": counts.get("queue.depth_max", 0),
        "queue.shed": delta("service_shed_total"),
        "flush.count": calls("flush"),
        "flush.jobs_per_flush": (
            statistics.fmean(samples["flush.jobs"]) if samples.get("flush.jobs") else 0.0
        ),
        "flush.self_ms_p99": _ms(percentile(self_durations.get("flush", []), 0.99)),
        "flush.self_s_total": own_s("flush", "flush.combine"),
        "audit.observe_s_total": inclusive_s("audit.observe"),
        "engine.ingest_s_total": inclusive_s("engine.ingest"),
        "engine.batches": calls("engine.ingest_batch"),
        "executor.apply_s_total": inclusive_s("executor.apply", "executor.apply_serial"),
        "executor.sync_wait_s_total": inclusive_s("executor.sync"),
        "executor.collect_s_total": inclusive_s("executor.collect"),
        "executor.collects": calls("executor.collect"),
        "worker.batch_s_total": worker_s,
        "worker.items": worker_items,
        "worker.restarts": delta("worker_restarts_total"),
        "persistence.load_s_total": inclusive_s("persistence.load"),
        "persistence.load_ms_p99": _ms(percentile(durations.get("persistence.load", []), 0.99)),
        "kernel.ns_per_item": kernel_s * 1e9 / kernel_items if kernel_items else 0.0,
        "fold.count": calls("fold"),
        "fold.s_total": inclusive_s("fold"),
        "publish.count": calls("publish"),
        "publish.ms_p99": _ms(percentile(durations.get("publish", []), 0.99)),
        "publish.s_total": inclusive_s("publish"),
        "index.compiles": calls("index.compile"),
        "index.compile_ms_p99": _ms(percentile(durations.get("index.compile", []), 0.99)),
        "index.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "read.query_us_p50": percentile(durations.get("read.query", []), 0.50) / 1e3,
        "read.rank_us_p50": percentile(durations.get("read.rank", []), 0.50) / 1e3,
        "gen.late_ms_p99": _ms(percentile(traced["late_ns"], 0.99)),
        "trace.busy_s": busy,
        "trace.coverage": named / busy if busy > 0 else 0.0,
        "trace.unattributed_s": busy - named,
        "trace.overhead_pct": (untraced - traced_rate) / untraced * 100 if untraced else 0.0,
        "drift.ratio": traced["drift"]["ratio"],
    }
    breakdown = {
        scope: {hook: own / 1e9 for hook, own in charged.items()}
        for scope, charged in report["breakdown"].items()
    }
    table = {
        "busy_s": busy,
        "layers": dict(sorted(layer_self.items(), key=lambda item: -item[1])),
        "breakdown": breakdown,
        "missing_hooks": report["missing_hooks"],
        "span_records": report["span_records"],
    }
    return metrics, table


# -- metadata ---------------------------------------------------------------------


def host_metadata(seed: int) -> dict:
    """Host, toolchain and commit facts stamped on every record."""
    cpus = None
    bench_engine = ROOT / "benchmarks" / "bench_engine.py"
    if bench_engine.exists():
        module_spec = importlib.util.spec_from_file_location("bench_engine", bench_engine)
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        cpus = module.effective_cpu_count()
    from repro.native import native_disabled

    return {
        "effective_cpu_count": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native": not native_disabled(),
        "machine": platform.machine(),
        "commit": _commit(),
        "seed": seed,
        "timestamp": time(),
    }


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _effective_config(spec: dict) -> dict:
    """The full engine/service config the server was built with."""
    from server import build_configs

    engine_config, service_config = build_configs(spec)
    return {"engine": asdict(engine_config), "service": asdict(service_config)}


# -- reporting ------------------------------------------------------------------------


def _print_end_to_end(result: dict) -> None:
    metrics = result["metrics"]
    samples = result["samples"]
    pooled = result["pooled_ms"]
    notes = {
        "setup_s": f"median of {len(result['setup'])} launches",
        "insert_ack_p50_ms": f"n={samples['insert_acks']}",
        "insert_ack_p99_ms": f"n={samples['insert_acks']}; pooled p99 "
        f"{pooled['insert_ack_p99']:.3f}, max {pooled['insert_ack_max']:.3f}",
        "read_p50_ms": f"n={samples['reads']}",
        "read_p99_ms": f"n={samples['reads']}; pooled p99 "
        f"{pooled['read_p99']:.3f}",
    }
    print(f"[{result['workload']} seed={result['seed']}] end to end, "
          f"{result['seconds']:g} s window, untraced")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<24} {metrics[name]:>16.4f} {unit:<6} {notes.get(name, '')}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<24} {failed_frac:>16.6f} ratio  "
          f"{result['failed']} of {result['attempted']} ops {result['errors'] or ''}")
    check = result["check"]
    worst = check["max_error"]
    print(f"  correctness: {'ok' if check['ok'] else 'FAILED'}; max rank error "
          f"{'n/a' if worst is None else f'{worst:.6f}'} (epsilon {EPSILON}) over "
          f"{len(VERIFY_PHIS)} quantiles + {VERIFY_RANKS} ranks, n={check['n']}"
          + "".join(f"; {problem}" for problem in check["problems"]))
    drift = result["drift"]
    print(f"  drift: first half {drift['first_half_items_per_s']:.0f}/s, second half "
          f"{drift['second_half_items_per_s']:.0f}/s, ratio {drift['ratio']:.3f}"
          + ("  <- FLAGGED: throughput is not steady over the window"
             if drift["flagged"] else ""))


def _print_layers(name: str, metrics: dict, table: dict) -> None:
    busy = table["busy_s"]
    print(f"[{name}] traced run: layer self time over {busy:.3f} s of server busy wall time")
    for layer, seconds in table["layers"].items():
        share = seconds / busy if busy > 0 else 0.0
        print(f"  {layer:<24} {seconds:>10.4f} s {share:>8.1%}")
    print(f"  coverage by named layers: {metrics['trace.coverage']:.1%} "
          f"(target >= 90%); tracing overhead {metrics['trace.overhead_pct']:.2f}% "
          "of untraced ingest_items_per_s")
    for scope in ("publish", "flush"):
        charged = table["breakdown"].get(scope, {})
        total = sum(charged.values())
        if total <= 0:
            continue
        ranked = sorted(charged.items(), key=lambda item: -item[1])
        parts = ", ".join(f"{hook} {seconds / total:.0%}" for hook, seconds in ranked[:5])
        print(f"  {scope} time {total:.3f} s is held by: {parts}")
        if scope == "publish":
            print(f"  publish stage holding most time: {ranked[0][0]}")
    if table["missing_hooks"]:
        print(f"  hooks not found in this version: {', '.join(table['missing_hooks'])}")
    for metric, unit in PER_LAYER_UNITS.items():
        print(f"  {metric:<30} {metrics[metric]:>16.4f} {unit}")


def _record(result: dict, spec: dict, meta: dict, extra: dict) -> None:
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "host": meta,
        "workload": result["workload"],
        "why": spec["why"],
        "config": _effective_config(spec),
        "traffic": {key: value for key, value in spec.items()
                    if key not in ("why", "engine", "service")},
        "result": {key: value for key, value in result.items()
                   if key not in ("late_ns", "metrics_before", "metrics_after")},
        **extra,
    }
    path = results_dir / (
        f"{result['workload']}-seed{result['seed']}-trace{int(result['traced'])}.json"
    )
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")


async def _run_workload(name: str, args, meta: dict) -> dict:
    spec = WORKLOADS[name]
    if not args.trace:
        result = await run_once(name, args.seed, args.seconds, False, LAUNCHES)
        _print_end_to_end(result)
        _record(result, spec, meta, {})
        values = result["metrics"]
        units = END_TO_END_UNITS
        runs = [result]
    else:
        reference = await run_once(name, args.seed, args.seconds, False, 1)
        traced = await run_once(name, args.seed, args.seconds, True, 1)
        _print_end_to_end(reference)
        values, table = _layer_metrics(traced, reference)
        _print_layers(name, values, table)
        _record(traced, spec, meta, {"layers": values, "table": table,
                                     "reference": reference["metrics"]})
        units = PER_LAYER_UNITS
        runs = [reference, traced]
    return {
        "correct": all(run["check"]["ok"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if frames is None or not Path(frames.__file__).resolve().is_relative_to(SRC):
        print(f"error: the package must be imported from {SRC}: "
              f"{IMPORT_ERROR if frames is None else frames.__file__}", file=sys.stderr)
        return 2
    meta = host_metadata(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    try:
        for name in names:
            # select() takes microsecond timeouts where epoll rounds up to
            # whole milliseconds, which would make open-loop sends late.
            with asyncio.Runner(
                loop_factory=lambda: asyncio.SelectorEventLoop(selectors.SelectSelector())
            ) as runner:
                outcomes[name] = runner.run(
                    asyncio.wait_for(_run_workload(name, args, meta), 170)
                )
    except (BenchError, OSError, asyncio.TimeoutError) as error:
        print(f"error: benchmark run failed: {error!r}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = outcomes[names[0]]
    else:
        final = {
            "correct": all(outcome["correct"] for outcome in outcomes.values()),
            "attempted": sum(outcome["attempted"] for outcome in outcomes.values()),
            "failed": sum(outcome["failed"] for outcome in outcomes.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, outcome in outcomes.items()
                        for metric, value in outcome["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
