"""The asyncio quantile-serving server.

Architecture (one event loop, one writer)::

    connections --parse--> [BoundedQueue] --micro-batch--> ingest loop
         |                                                     |
         |  query/rank ----> engine.read_index() <-----fold----+
         |  GET /metrics --> Prometheus exposition of the shared registry

* **Single-writer ingest.**  Connection handlers never touch the engine;
  an ``insert`` becomes an :class:`IngestJob` on a :class:`BoundedQueue`
  and the connection's responder awaits the job's future.  One
  ingest-loop task drains the queue in micro-batches, feeds all values to
  :meth:`ShardedQuantileEngine.ingest` in a single call, folds the shards,
  bumps the wire ``epoch``, and only then resolves the futures — an
  acknowledged insert is therefore always visible to the acknowledging
  client's next query.
* **Non-blocking reads.**  ``query``/``rank`` run on the loop between
  flushes, through :meth:`ShardedQuantileEngine.quantiles` and
  :meth:`~ShardedQuantileEngine.rank_many`: the engine's read index is
  keyed on its ingest generation, so the first read of an epoch compiles
  the flush's fold and every later read reuses it.  Reads never wait on
  the ingest queue.
* **Explicit load shedding.**  A full queue answers ``overloaded``; a
  request whose deadline expired (at admission or while queued) answers
  ``deadline_exceeded``; inserts during drain answer ``shutting_down``.
  Nothing is ever dropped without a response.
* **Graceful drain.**  :meth:`QuantileService.stop` stops accepting
  connections, closes the queue, waits for the ingest loop to flush every
  admitted job (resolving every future) and for every connection to answer
  what it admitted, optionally checkpoints the engine, and only then
  closes client sockets.
* **Two wire dialects, one connection loop.**  Any connection may mix
  NDJSON lines with binary insert frames (:mod:`repro.service.frames`);
  one sniffed byte tells them apart.  Frames carry contiguous
  int64/float64 buffers that flow through :class:`IngestJob` into the
  engine's columnar lane without a single per-value ``Fraction``.  Every
  connection is *pipelined*: a reader task admits requests while an
  ordered responder answers them strictly FIFO, so one client can keep a
  window of inserts in flight and reads still observe every previously
  acknowledged insert.
* **Observability.**  Every stage records to a shared
  :class:`~repro.obs.registry.MetricRegistry` (the engine's telemetry
  included) and emits :mod:`repro.obs.spans` spans; ``GET /metrics`` on
  the same port serves the Prometheus text exposition (version 0.0.4).
"""

from __future__ import annotations

import asyncio
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

from repro.engine import EngineConfig, ShardedQuantileEngine, Telemetry
from repro.engine.engine import as_fraction
from repro.errors import (
    EmptySummaryError,
    EngineError,
    MalformedRecordError,
    RankEstimationUnsupportedError,
    ReproError,
    ServiceError,
)
from repro.obs import spans as obs_spans
from repro.obs.export import to_prometheus
from repro.obs.registry import MetricRegistry
from repro.service import frames, protocol
from repro.service.audit import AccuracyAuditor, AuditConfig
from repro.service.limits import BoundedQueue, Deadline

SERVICE_NAMESPACE = "service_"

#: Percentiles exposed for GK histograms on ``GET /metrics`` — p95/p99 are
#: scrapeable without the JSON exporter.
METRICS_QUANTILES = (0.5, 0.9, 0.95, 0.99)

#: Requests one connection may have admitted but not yet answered; past
#: this the reader stops reading and the TCP socket pushes back.
WINDOW = 32
#: How long stop() gives connection handlers to return once their sockets
#: close, past the drain budget, and again after aborting the sockets of
#: peers that stopped reading.
UNWIND_S = 0.5


@dataclass
class ServiceConfig:
    """Operational knobs of the serving layer (engine knobs live in
    :class:`~repro.engine.config.EngineConfig`)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port from `service.port`
    max_queue_jobs: int = 256
    max_batch_jobs: int = 64
    #: Values per insert, whether it arrives as a line or as a frame.
    max_values_per_insert: int = 65536
    default_deadline_ms: float = 5000.0
    linger_ms: float = 0.0
    #: Budget for a graceful drain: flushing admitted inserts and answering
    #: every admitted request before the sockets close.
    drain_timeout_s: float = 30.0
    checkpoint_path: str | None = None
    #: Fraction of query responses the online accuracy auditor samples
    #: (:mod:`repro.service.audit`); 0 disables auditing entirely.
    audit_fraction: float = 0.1
    audit_reservoir: int = 2048
    audit_seed: int = 0

    def effective_line_limit(self) -> int:
        """The asyncio stream limit: every legal insert line must fit.

        ``max_values_per_insert`` JSON int values cost at most ~22 bytes
        each (``-9007199254740991,``); anything longer than the computed
        bound is answered with ``line_too_long``, never a dead socket.
        """
        return max(protocol.MAX_LINE_BYTES, 24 * self.max_values_per_insert + 4096)

    def validate(self) -> "ServiceConfig":
        if self.max_queue_jobs < 1:
            raise ServiceError(
                f"max_queue_jobs must be positive, got {self.max_queue_jobs}"
            )
        if self.max_batch_jobs < 1:
            raise ServiceError(
                f"max_batch_jobs must be positive, got {self.max_batch_jobs}"
            )
        if self.max_values_per_insert < 1:
            raise ServiceError(
                "max_values_per_insert must be positive, got "
                f"{self.max_values_per_insert}"
            )
        if self.default_deadline_ms <= 0:
            raise ServiceError(
                "default_deadline_ms must be positive, got "
                f"{self.default_deadline_ms}"
            )
        if self.linger_ms < 0:
            raise ServiceError(f"linger_ms must be >= 0, got {self.linger_ms}")
        if self.drain_timeout_s <= 0:
            raise ServiceError(
                f"drain_timeout_s must be positive, got {self.drain_timeout_s}"
            )
        AuditConfig(
            fraction=self.audit_fraction,
            reservoir=self.audit_reservoir,
            seed=self.audit_seed,
        ).validate()
        return self


@dataclass
class IngestJob:
    """One admitted insert, waiting for the single-writer loop.

    ``values`` is lane-agnostic: NDJSON inserts carry exact rationals
    (``list[Fraction]``); insert frames carry the raw ``array('q')``/
    ``array('d')`` buffer straight off the wire — no per-value Fraction is
    ever built on the frame path, and :meth:`QuantileService._flush` feeds
    either shape to the engine (which keeps int-faithful batches raw end
    to end on its columnar lane).
    """

    values: "list[Fraction] | array"
    deadline: Deadline
    future: asyncio.Future
    enqueued_ns: int = field(default_factory=perf_counter_ns)


def _combine_payloads(payloads: list):
    """One engine-feedable batch from a micro-batch of job payloads.

    All-buffer flushes of one typecode concatenate into a single
    contiguous buffer (a C-level ``memcpy`` per job); anything mixed
    flattens to a list the engine routes value by value.  The engine
    reads the lane off the combined batch itself, so integral rationals
    and raw ints need no conversion here.
    """
    if len(payloads) == 1:
        return payloads[0]
    first = payloads[0]
    if isinstance(first, array) and all(
        isinstance(payload, array) and payload.typecode == first.typecode
        for payload in payloads
    ):
        combined = array(first.typecode)
        for payload in payloads:
            combined.extend(payload)
        return combined
    merged: list = []
    for payload in payloads:
        merged.extend(payload)
    return merged


class QuantileService:
    """A :class:`ShardedQuantileEngine` behind an asyncio TCP socket."""

    def __init__(
        self,
        engine_config: EngineConfig | None = None,
        config: ServiceConfig | None = None,
        *,
        engine: ShardedQuantileEngine | None = None,
        registry: MetricRegistry | None = None,
    ) -> None:
        self.config = (config if config is not None else ServiceConfig()).validate()
        self.registry = registry if registry is not None else MetricRegistry()
        if engine is not None:
            self.engine = engine
        else:
            self.engine = ShardedQuantileEngine(
                engine_config if engine_config is not None else EngineConfig(),
                telemetry=Telemetry(registry=self.registry),
            )
        # The wire epoch counts flushes that grew the engine; a restored
        # engine serves its checkpointed data at once, as epoch 1.
        self._epoch = 1 if self.engine.items_ingested else 0
        self._queue = BoundedQueue(self.config.max_queue_jobs)
        self._server: asyncio.AbstractServer | None = None
        self._ingest_task: asyncio.Task | None = None
        #: Each live connection's writer and its queue of admitted requests.
        self._connections: dict[asyncio.StreamWriter, asyncio.Queue] = {}
        #: The connection handler tasks, which stop() waits out.
        self._handlers: set[asyncio.Task] = set()
        #: Futures of admitted inserts that no flush has answered yet.
        self._unflushed: set[asyncio.Future] = set()
        self._draining = False
        self._stopped = False

        reg = self.registry
        self._latency = {
            op: reg.histogram(
                SERVICE_NAMESPACE + "request_latency_ns",
                help="wall time from request parse to response write",
                op=op,
            )
            for op in protocol.OPS
        }
        self._flush_items = reg.histogram(
            SERVICE_NAMESPACE + "ingest_flush_items",
            help="values ingested per micro-batch flush",
        )
        self._queue_depth = reg.gauge(
            SERVICE_NAMESPACE + "queue_depth", help="ingest jobs waiting"
        )
        self._open_connections = reg.gauge(
            SERVICE_NAMESPACE + "open_connections", help="live client sockets"
        )
        self._epoch_gauge = reg.gauge(
            SERVICE_NAMESPACE + "snapshot_epoch",
            help="wire epoch: flushes that grew the engine",
        )
        self.auditor = AccuracyAuditor(
            reg,
            epsilon=self.engine.config.epsilon,
            config=AuditConfig(
                fraction=self.config.audit_fraction,
                reservoir=self.config.audit_reservoir,
                seed=self.config.audit_seed,
            ),
        )

    # -- metric helpers ------------------------------------------------------------

    def _count_request(self, op: str) -> None:
        self.registry.counter(
            SERVICE_NAMESPACE + "requests_total",
            help="requests received, by operation",
            op=op,
        ).inc()

    def _count_response(self, code: str) -> None:
        self.registry.counter(
            SERVICE_NAMESPACE + "responses_total",
            help="responses sent, by outcome code ('ok' or an error code)",
            code=code,
        ).inc()

    def _count_shed(self, reason: str) -> None:
        self.registry.counter(
            SERVICE_NAMESPACE + "shed_total",
            help="requests refused by backpressure, by reason",
            reason=reason,
        ).inc()

    # -- lifecycle -----------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (only valid after :meth:`start`)."""
        if self._server is None:
            raise ServiceError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def epoch(self) -> int:
        """The wire epoch reported by acks, reads and ``ping``."""
        return self._epoch

    async def start(self) -> None:
        """Bind the socket and start the single-writer ingest loop."""
        if self._server is not None:
            raise ServiceError("service is already started")
        self._ingest_task = asyncio.create_task(
            self._ingest_loop(), name="service-ingest"
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.effective_line_limit(),
        )

    async def stop(self) -> None:
        """Graceful drain: refuse new work, answer admitted work, then close.

        Ordering (the contract ``docs/service.md`` documents):

        1. stop accepting connections and mark the service draining
           (new inserts answer ``shutting_down``);
        2. close the ingest queue and wait for the ingest loop to flush
           every admitted job — every pending future resolves;
        3. wait until every connection has answered what it admitted, so
           no ack is lost with its socket and no read runs against a
           closed engine;
        4. checkpoint the engine if configured, then close it (releasing
           its thread pool when ``workers > 1``);
        5. close remaining client sockets and wait for every connection
           handler to return, so none is left for the loop's teardown to
           cancel (:meth:`_unwind_handlers`).

        Steps 2, 3 and 5 share one ``drain_timeout_s`` budget; step 5 gets
        at least :data:`UNWIND_S` of it, and :data:`UNWIND_S` more once it
        aborts the sockets of peers that stopped reading.  If the ingest
        loop misses the budget, every admitted insert it did not flush
        answers ``shutting_down``.
        """
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        if self._server is not None:
            self._server.close()
        self._queue.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout_s
        if self._ingest_task is not None:
            try:
                await asyncio.wait_for(
                    self._ingest_task, timeout=self.config.drain_timeout_s
                )
            except asyncio.TimeoutError:
                self._ingest_task.cancel()
                for future in list(self._unflushed):
                    self._count_shed("shutdown")
                    future.set_exception(
                        _Shed(
                            protocol.ERR_SHUTTING_DOWN,
                            "service drained before this insert was flushed",
                        )
                    )
        answered = asyncio.gather(
            *(queue.join() for queue in self._connections.values())
        )
        try:
            await asyncio.wait_for(answered, timeout=max(0.0, deadline - loop.time()))
        except asyncio.TimeoutError:
            pass
        if self.config.checkpoint_path:
            self.engine.checkpoint(Path(self.config.checkpoint_path))
        self.engine.close()
        for writer in list(self._connections):
            writer.close()
        await self._unwind_handlers(max(UNWIND_S, deadline - loop.time()))
        if self._server is not None:
            await self._server.wait_closed()

    async def _unwind_handlers(self, timeout: float) -> None:
        """Wait for every connection handler to return after its socket closed.

        A closed socket first flushes what it holds, and only then does its
        handler read EOF; a peer that stopped reading never lets it flush.
        Sockets still open after ``timeout`` are aborted, unflushed, which
        ends their reads and their pending writes (:meth:`_respond` then
        answers nothing more).  A handler still running :data:`UNWIND_S`
        later is cancelled.
        """
        if not self._handlers:
            return
        _, stuck = await asyncio.wait(list(self._handlers), timeout=timeout)
        if stuck:
            for writer in list(self._connections):
                writer.transport.abort()
            _, stuck = await asyncio.wait(stuck, timeout=UNWIND_S)
        for handler in stuck:
            handler.cancel()
        if stuck:
            await asyncio.wait(stuck)

    async def serve_until(self, stop_event: asyncio.Event) -> None:
        """Run until ``stop_event`` fires, then drain gracefully."""
        if self._server is None:
            await self.start()
        await stop_event.wait()
        await self.stop()

    # -- the single-writer ingest loop ---------------------------------------------

    async def _ingest_loop(self) -> None:
        while True:
            jobs = await self._queue.get_batch(
                self.config.max_batch_jobs, linger_s=self.config.linger_ms / 1000.0
            )
            if jobs is None:
                return
            self._queue_depth.set(self._queue.depth)
            self._flush(jobs)

    def _flush(self, jobs: list[IngestJob]) -> None:
        """Ingest one micro-batch and resolve its futures (in the loop thread)."""
        live: list[IngestJob] = []
        for job in jobs:
            if job.deadline.expired():
                self._count_shed("deadline")
                if not job.future.done():
                    job.future.set_exception(
                        _Shed(protocol.ERR_DEADLINE, "deadline expired in queue")
                    )
            else:
                live.append(job)
        if not live:
            return
        payloads = [job.values for job in live]
        total = sum(len(payload) for payload in payloads)
        feed = _combine_payloads(payloads)
        with obs_spans.span(
            "service.ingest_flush", jobs=len(live), items=total
        ):
            try:
                report = self.engine.ingest(feed, batch_size=max(total, 1))
                if report.items:
                    # Fold on the flush; the first read compiles the fold.
                    self.engine.merged_summary()
                    self._epoch += 1
            except ReproError as error:
                for job in live:
                    if not job.future.done():
                        job.future.set_exception(
                            _Shed(protocol.ERR_INTERNAL, str(error))
                        )
                return
        self._flush_items.observe(total)
        self.registry.counter(
            SERVICE_NAMESPACE + "items_inserted_total",
            help="values accepted into the engine",
        ).inc(total)
        self._epoch_gauge.set(self._epoch)
        for payload in payloads:
            # Lane-agnostic: the reservoir samples raw buffers and exact
            # rationals alike (it only ever compares float keys).
            self.auditor.observe_batch(payload)
        n = self.engine.items_ingested
        for job in live:
            if not job.future.done():
                job.future.set_result(
                    {"items": len(job.values), "n": n, "epoch": self._epoch}
                )

    # -- connection handling -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: pipelined frames and NDJSON lines.

        A reader loop *admits* requests while an ordered responder task
        answers them strictly FIFO through a bounded queue, so one client
        keeps up to :data:`WINDOW` inserts in flight.  Frames and lines
        interleave freely; because a line is answered only after every
        insert admitted before it, read-your-writes holds on both wires.
        """
        handler = asyncio.current_task()
        self._handlers.add(handler)
        queue: asyncio.Queue = asyncio.Queue(maxsize=WINDOW)
        self._connections[writer] = queue
        self._open_connections.set(len(self._connections))
        responder = asyncio.create_task(
            self._respond(queue, writer), name="service-responder"
        )
        try:
            try:
                first = True
                while await self._read_request(reader, writer, queue, first):
                    first = False
            except (ConnectionResetError, BrokenPipeError):
                pass
            await queue.put(None)
            await responder
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Torn down mid-drain (loop shutdown): never leak the task.
            responder.cancel()
            raise
        finally:
            self._handlers.discard(handler)
            del self._connections[writer]
            self._open_connections.set(len(self._connections))
            writer.close()

    async def _read_request(self, reader, writer, queue, first: bool) -> bool:
        """Admit one frame or line into the response queue; False to close.

        One sniffed byte tells them apart: the frame magic opens a frame,
        anything else a line (:meth:`_admit_line`).

        Recovery contract (what :data:`protocol.ERR_BAD_FRAME` promises):
        a structurally bad frame whose payload bytes can still be consumed
        — unknown kind or mode, misaligned or empty or over-cap payload —
        answers an error frame and the connection keeps serving.  Only a
        corrupt length prefix (bad magic, or a declared payload past
        :data:`frames.MAX_DRAIN_BYTES`) ends the stream's framing, and
        even then the error frame goes out before the socket closes.
        """
        try:
            head = await reader.readexactly(1)
        except asyncio.IncompleteReadError:
            return False  # clean EOF between requests
        if head != frames.MAGIC[:1]:
            return await self._admit_line(head, reader, writer, queue, first)
        try:
            header = head + await reader.readexactly(frames.HEADER_SIZE - 1)
        except asyncio.IncompleteReadError:
            return False  # EOF mid-header: the peer vanished, nobody to answer
        try:
            kind, mode, request_id, length = frames.decode_header(header)
        except frames.FrameError as error:
            await self._admit_error_frame(queue, None, protocol.ERR_BAD_FRAME, str(error))
            return await self._drain_line_tail(reader)  # resync heuristically
        if length > frames.MAX_DRAIN_BYTES:
            await self._admit_error_frame(
                queue,
                request_id,
                protocol.ERR_BAD_FRAME,
                f"frame declares a {length}-byte payload; the wire cap is "
                f"{frames.MAX_DRAIN_BYTES} bytes",
            )
            return False  # too big to drain: answer, then close
        try:
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return False  # truncated at EOF: nobody left to answer
        started = perf_counter_ns()
        try:
            buffer = frames.decode_insert(
                kind, mode, payload, max_values=self.config.max_values_per_insert
            )
        except frames.FrameError as error:
            await self._admit_error_frame(
                queue, request_id, protocol.ERR_BAD_FRAME, str(error)
            )
            return True
        self._count_request("insert")
        if not frames.all_finite(buffer):
            await self._admit_error_frame(
                queue,
                request_id,
                protocol.ERR_BAD_VALUE,
                "f64 frame carries non-finite values (nan/inf)",
            )
            return True
        try:
            job = self._admit(buffer, Deadline(self.config.default_deadline_ms))
        except _Shed as shed:
            await self._admit_error_frame(queue, request_id, shed.code, shed.message)
            return True
        await queue.put(("job", request_id, job, started))
        return True

    async def _admit_line(
        self, head: bytes, reader, writer, queue, first: bool
    ) -> bool:
        """Queue one NDJSON line for the responder; a first line may be HTTP."""
        try:
            line = head + await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as eof:
            line = head + eof.partial
        except asyncio.LimitOverrunError:
            # The rest of the oversized line is drained off the stream so
            # the next request parses cleanly; the connection keeps serving.
            error = protocol.error_response(
                None,
                protocol.ERR_LINE_TOO_LONG,
                f"line exceeds {self.config.effective_line_limit()} bytes; "
                "split the insert into smaller batches or use insert frames",
            )
            await queue.put(
                ("error", protocol.encode_line(error), protocol.ERR_LINE_TOO_LONG)
            )
            return await self._drain_line_tail(reader)
        if first and line.split(b" ", 1)[0] in (b"GET", b"HEAD"):
            await self._serve_http(line, reader, writer)
            return False
        if line.strip():
            await queue.put(("line", line))
        return line.endswith(b"\n")  # a partial final line still gets answered

    async def _admit_error_frame(
        self, queue: asyncio.Queue, request_id: int | None, code: str, message: str
    ) -> None:
        await queue.put(
            ("error", frames.encode_error(request_id, code, message), code)
        )

    async def _respond(self, queue: asyncio.Queue, writer) -> None:
        """Answer admitted requests strictly in admission order.

        Once the socket is closing (the peer reset it, or stop() closed it
        after the drain), no answer reaches the peer: lines still queued
        are skipped, so none reads an engine stop() has closed, and
        nothing more is written (:meth:`_write`).
        """
        while True:
            item = await queue.get()
            if item is None:
                queue.task_done()
                return
            tag = item[0]
            if tag == "line":
                if not writer.transport.is_closing():
                    await self._handle_line(item[1], writer)
            elif tag == "error":  # refused at admission, already encoded
                self._count_response(item[2])
                await self._write(writer, item[1])
            else:
                _, request_id, job, started = item
                try:
                    result = await job.future
                except _Shed as shed:
                    code = shed.code
                    frame = frames.encode_error(request_id, shed.code, shed.message)
                else:
                    code = "ok"
                    frame = frames.encode_ack(
                        request_id, result["items"], result["n"], result["epoch"]
                    )
                self._count_response(code)
                self._latency["insert"].observe(perf_counter_ns() - started)
                await self._write(writer, frame)
            queue.task_done()

    async def _drain_line_tail(self, reader) -> bool:
        """Discard stream bytes up to the next newline; False at EOF.

        Built on ``readuntil``, which — unlike ``readline`` — leaves the
        buffer untouched when it overruns, so the drain consumes *exactly*
        the oversized line and never a byte of the request behind it.
        (``readline`` silently eats through the separator before raising
        when the newline is already buffered, which would make a blind
        "drain until newline" loop swallow the next legitimate request.)
        """
        while True:
            try:
                await reader.readuntil(b"\n")
                return True
            except asyncio.IncompleteReadError:
                return False
            except asyncio.LimitOverrunError as overrun:
                try:
                    discarded = await reader.readexactly(overrun.consumed + 1)
                except asyncio.IncompleteReadError:
                    return False
                if discarded.endswith(b"\n"):
                    return True

    async def _send(self, writer: asyncio.StreamWriter, record: dict) -> None:
        await self._write(writer, protocol.encode_line(record))

    async def _write(self, writer: asyncio.StreamWriter, data: bytes) -> None:
        if writer.transport.is_closing():
            return
        writer.write(data)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _handle_line(self, line: bytes, writer) -> None:
        """Answer one NDJSON line."""
        started = perf_counter_ns()
        try:
            request = protocol.parse_request(
                protocol.decode_line(
                    line, max_bytes=self.config.effective_line_limit()
                )
            )
        except ServiceError as error:
            self._count_response(protocol.ERR_BAD_REQUEST)
            await self._send(
                writer,
                protocol.error_response(
                    None, protocol.ERR_BAD_REQUEST, str(error)
                ),
            )
            return
        self._count_request(request.op)
        deadline = Deadline(
            request.deadline_ms
            if request.deadline_ms is not None
            else self.config.default_deadline_ms
        )
        with obs_spans.span("service.request", op=request.op, id=request.id):
            try:
                response = await self._dispatch(request, deadline)
            except _Shed as shed:
                response = protocol.error_response(request.id, shed.code, shed.message)
            except EmptySummaryError as error:
                response = protocol.error_response(
                    request.id, protocol.ERR_EMPTY, str(error)
                )
            except RankEstimationUnsupportedError as error:
                response = protocol.error_response(
                    request.id, protocol.ERR_RANK_UNSUPPORTED, str(error)
                )
            except MalformedRecordError as error:
                response = protocol.error_response(
                    request.id, protocol.ERR_MALFORMED_RECORD, str(error)
                )
            except EngineError as error:
                response = protocol.error_response(
                    request.id, protocol.ERR_BAD_VALUE, str(error)
                )
            except ReproError as error:
                response = protocol.error_response(
                    request.id, protocol.ERR_INTERNAL, str(error)
                )
        code = "ok" if response.get("ok") else response["error"]["code"]
        self._count_response(code)
        self._latency[request.op].observe(perf_counter_ns() - started)
        await self._send(writer, response)

    async def _dispatch(self, request: protocol.Request, deadline: Deadline) -> dict:
        if deadline.expired():
            self._count_shed("deadline")
            raise _Shed(protocol.ERR_DEADLINE, "deadline expired before dispatch")
        op = request.op
        if op == "ping":
            return protocol.ok_response(
                request.id,
                epoch=self._epoch,
                n=self.engine.items_ingested,
                draining=self._draining,
            )
        if op == "hello":
            # A capability probe: any connection may send frames.
            return protocol.ok_response(
                request.id,
                wire=request.wire,
                max_frame_values=self.config.max_values_per_insert,
                window=WINDOW,
            )
        if op == "insert":
            return await self._op_insert(request, deadline)
        if op == "query":
            return self._op_query(request)
        if op == "rank":
            return self._op_rank(request)
        if op == "stats":
            return self._op_stats(request)
        raise _Shed(protocol.ERR_BAD_REQUEST, f"unhandled op {op!r}")

    async def _op_insert(self, request: protocol.Request, deadline: Deadline) -> dict:
        if len(request.values) > self.config.max_values_per_insert:
            raise _Shed(
                protocol.ERR_BAD_REQUEST,
                f"insert carries {len(request.values)} values; the cap is "
                f"{self.config.max_values_per_insert} per request",
            )
        values = [as_fraction(value) for value in request.values]  # EngineError -> bad_value
        job = self._admit(values, deadline)
        result = await job.future  # the ingest loop always resolves this
        return protocol.ok_response(request.id, **result)

    def _admit(self, values, deadline: Deadline) -> IngestJob:
        """Queue one insert (a line's or a frame's) for the ingest loop.

        Raises :class:`_Shed` with ``shutting_down`` during drain and with
        ``overloaded`` when the ingest queue is full; the caller answers.
        """
        if self._draining:
            self._count_shed("shutdown")
            raise _Shed(
                protocol.ERR_SHUTTING_DOWN, "service is draining; retry elsewhere"
            )
        job = IngestJob(
            values=values,
            deadline=deadline,
            future=asyncio.get_running_loop().create_future(),
        )
        if not self._queue.try_put(job):
            self._count_shed("queue_full")
            raise _Shed(
                protocol.ERR_OVERLOADED,
                f"ingest queue is full ({self.config.max_queue_jobs} jobs); "
                "retry with backoff",
            )
        self._unflushed.add(job.future)
        job.future.add_done_callback(self._unflushed.discard)
        self._queue_depth.set(self._queue.depth)
        return job

    def _require_items(self) -> None:
        # The engine's index answers rank 0 on an empty ``exact`` summary;
        # the wire promises ``empty`` for every type instead.
        if not self.engine.items_ingested:
            raise EmptySummaryError(
                "the service has not ingested any items yet (epoch 0)"
            )

    def _op_query(self, request: protocol.Request) -> dict:
        phis = [float(phi) for phi in request.phis]
        self._require_items()
        # One index pass answers the whole list, in input order.
        values = self.engine.quantiles(phis)
        self.auditor.maybe_audit(list(zip(phis, values)))
        results = [
            {"phi": phi, "value": str(value), "approx": float(value)}
            for phi, value in zip(phis, values)
        ]
        return protocol.ok_response(
            request.id,
            epoch=self._epoch,
            n=self.engine.items_ingested,
            results=results,
        )

    def _op_rank(self, request: protocol.Request) -> dict:
        values = [as_fraction(raw) for raw in request.values]
        self._require_items()
        ranks = self.engine.rank_many(values)
        results = [
            {"value": str(value), "rank": rank}
            for value, rank in zip(values, ranks)
        ]
        return protocol.ok_response(
            request.id,
            epoch=self._epoch,
            n=self.engine.items_ingested,
            results=results,
        )

    def _op_stats(self, request: protocol.Request) -> dict:
        return protocol.ok_response(
            request.id,
            service={
                "epoch": self._epoch,
                "queue_depth": self._queue.depth,
                "connections": len(self._connections),
                "draining": self._draining,
            },
            engine=self.engine.stats(),
        )

    # -- the HTTP-ish /metrics endpoint --------------------------------------------

    def _combined_registry(self) -> MetricRegistry:
        """Service + engine metrics on one page (merged, never mutated)."""
        combined = MetricRegistry()
        combined.merge(self.registry)
        if self.engine.telemetry.registry is not self.registry:
            combined.merge(self.engine.telemetry.registry)
        return combined

    async def _serve_http(self, first_line: bytes, reader, writer) -> None:
        """Answer one ``GET /metrics`` (or 404) and close, HTTP/1.0-style."""
        try:
            target = first_line.split(b" ")[1].decode("latin-1")
        except (IndexError, UnicodeDecodeError):
            target = ""
        # Swallow request headers until the blank line; ignore their content.
        while True:
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break
        if target.split("?")[0] == "/metrics":
            body = to_prometheus(
                self._combined_registry(), quantiles=METRICS_QUANTILES
            ).encode()
            status = b"200 OK"
            content_type = b"text/plain; version=0.0.4; charset=utf-8"
        else:
            body = f"no such path {target!r}; try /metrics\n".encode()
            status = b"404 Not Found"
            content_type = b"text/plain; charset=utf-8"
        writer.write(
            b"HTTP/1.0 " + status + b"\r\n"
            b"Content-Type: " + content_type + b"\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"Connection: close\r\n\r\n" + body
        )
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass


class _Shed(ServiceError):
    """Internal: carries a wire error code from a handler to the responder."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
