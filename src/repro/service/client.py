"""Asyncio client for the quantile service: reuse, timeouts, backoff.

:class:`QuantileClient` keeps one TCP connection open and reuses it across
requests (ids are matched, so pipelining is safe), applies a per-request
timeout, and — on connection failures — retries with exponential backoff
plus deterministic jitter drawn from a seeded RNG, so test runs and load
generations replay identically.

Two failure channels are kept distinct on purpose:

* transport failures (refused/reset connections, timeouts) are retried up
  to ``max_retries`` times and then raise
  :class:`~repro.errors.ServiceUnavailable`;
* *explicit* server errors arrive as responses and raise
  :class:`~repro.errors.RequestFailed` carrying the wire ``code``.  Shed
  codes (:data:`repro.service.protocol.RETRYABLE_CODES`) are retried too
  when ``retry_shed`` is set — the server guarantees a shed request was
  never applied, so the retry cannot double-ingest.

With ``wire="frames"`` the client probes the server with ``hello`` at
connect time, learns its frame cap and in-flight window, and then uses the
binary frame lane (:mod:`repro.service.frames`):

* :meth:`QuantileClient.insert` sends faithfully frameable batches as one
  binary frame and awaits the ack (values a frame cannot carry exactly —
  huge ints, strings, non-finite floats — ride the NDJSON line as before);
* :meth:`QuantileClient.pipeline_insert` keeps a *window* of inserts in
  flight, matching acknowledgements strictly FIFO — the throughput mode
  the load generator uses;
* NDJSON ops (query/rank/stats/ping) still work on the same connection:
  the client drains in-flight inserts first, so read-your-writes holds.

A server that does not grant frames (an older release without ``hello``
answers it ``bad_request``) degrades the client to plain NDJSON silently.

``fetch_metrics`` speaks the other dialect of the same port: it issues an
HTTP/1.0 ``GET /metrics`` on a fresh connection and returns the Prometheus
text exposition body.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from time import perf_counter_ns

from repro.errors import RequestFailed, ServiceError, ServiceUnavailable
from repro.service import frames, protocol

_TRANSPORT_ERRORS = (
    ConnectionError,
    asyncio.IncompleteReadError,
    asyncio.TimeoutError,
    OSError,
)


def backoff_schedule(
    attempts: int,
    base_s: float = 0.05,
    cap_s: float = 2.0,
    seed: int | None = 0,
) -> list[float]:
    """The sleep (seconds) before each retry: ``base * 2^i`` capped, jittered.

    Jitter is drawn from ``random.Random(seed)`` so a given seed always
    produces the same schedule — deterministic load tests stay deterministic.
    """
    rng = random.Random(seed)
    delays = []
    for attempt in range(attempts):
        delay = min(cap_s, base_s * (2 ** attempt))
        delays.append(delay + rng.uniform(0, delay))
    return delays


class QuantileClient:
    """One reusable connection to a :class:`~repro.service.server.QuantileService`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout_s: float = 10.0,
        max_retries: int = 3,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        jitter_seed: int | None = 0,
        retry_shed: bool = False,
        deadline_ms: float | None = None,
        wire: str = "ndjson",
        window: int = 8,
    ) -> None:
        if wire not in protocol.WIRES:
            raise ServiceError(
                f"wire must be one of {protocol.WIRES}, got {wire!r}"
            )
        if window < 1:
            raise ServiceError(f"window must be positive, got {window}")
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.deadline_ms = deadline_ms
        self.retry_shed = retry_shed
        self.wire = wire
        self.window = window
        self._delays = backoff_schedule(
            max_retries, base_s=backoff_base_s, cap_s=backoff_cap_s, seed=jitter_seed
        )
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._next_id = 0
        self.requests_sent = 0
        self.retries_used = 0
        self._frames_active = False
        self._server_window = window
        #: In-flight pipelined inserts, oldest first: (masked id, count, t0).
        self._pending: deque[tuple[int, int, int]] = deque()
        self._completed: list[dict] = []

    async def __aenter__(self) -> "QuantileClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- connection management -----------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._writer is not None

    @property
    def frames_active(self) -> bool:
        """Whether the server granted frames to this connection's ``hello``."""
        return self._frames_active

    @property
    def pending_inserts(self) -> int:
        """Pipelined inserts sent but not yet acknowledged."""
        return len(self._pending)

    async def connect(self) -> None:
        if self._writer is not None:
            return
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), timeout=self.timeout_s
        )
        if self.wire == "frames":
            await self._negotiate_frames()

    async def _negotiate_frames(self) -> None:
        """``hello`` the server; degrade to NDJSON unless frames are granted."""
        self._next_id += 1
        request = protocol.Request(id=self._next_id, op="hello", wire="frames")
        self._writer.write(protocol.encode_line(request.to_record()))
        await self._writer.drain()
        line = await asyncio.wait_for(
            self._reader.readline(), timeout=self.timeout_s
        )
        if not line:
            raise ConnectionResetError("server closed the connection during hello")
        response = protocol.parse_response(protocol.decode_line(line))
        self._frames_active = bool(response.get("ok")) and (
            response.get("wire") == "frames"
        )
        if not self._frames_active:
            return  # an older or frames-refusing server: plain NDJSON
        granted = response.get("window")
        self._server_window = (
            min(self.window, granted)
            if isinstance(granted, int) and granted > 0
            else self.window
        )

    def _reset(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None
        self._frames_active = False
        # In-flight acks died with the socket; their inserts may or may not
        # have been applied — the operation that observes the reset raises.
        self._pending.clear()

    async def aclose(self) -> None:
        self._pending.clear()
        if self._writer is not None:
            writer = self._writer
            self._reader = self._writer = None
            writer.close()
            try:
                await writer.wait_closed()
            except _TRANSPORT_ERRORS:
                pass

    # -- the request core ----------------------------------------------------------

    async def _roundtrip(self, request: protocol.Request) -> dict:
        await self.connect()
        if self._pending:
            # The server answers strictly FIFO: collect every in-flight
            # insert ack first so this line's response is the next read
            # (and the line observes every previously pipelined insert).
            await self._drain_pending()
        self._writer.write(protocol.encode_line(request.to_record()))
        await self._writer.drain()
        line = await asyncio.wait_for(
            self._reader.readline(), timeout=self.timeout_s
        )
        if not line:
            raise ConnectionResetError("server closed the connection")
        response = protocol.parse_response(protocol.decode_line(line))
        if response["id"] not in (request.id, None):
            raise ServiceError(
                f"response id {response['id']!r} does not match request "
                f"id {request.id}"
            )
        return response

    async def _call(self, op: str, **fields) -> dict:
        self._next_id += 1
        deadline_ms = fields.pop("deadline_ms", None)
        if deadline_ms is None:
            deadline_ms = self.deadline_ms
        request = protocol.Request(
            id=self._next_id, op=op, deadline_ms=deadline_ms, **fields
        )
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.retries_used += 1
                await asyncio.sleep(self._delays[attempt - 1])
            try:
                self.requests_sent += 1
                response = await self._roundtrip(request)
            except _TRANSPORT_ERRORS as error:
                last_error = error
                self._reset()
                continue
            if response["ok"]:
                return response
            error_body = response["error"]
            failure = RequestFailed(
                error_body["code"], error_body.get("message", "")
            )
            if self.retry_shed and failure.code in protocol.RETRYABLE_CODES:
                last_error = failure
                continue
            raise failure
        raise ServiceUnavailable(
            f"{op} to {self.host}:{self.port} failed after "
            f"{self.max_retries + 1} attempt(s): {last_error}"
        )

    # -- operations ----------------------------------------------------------------

    async def ping(self) -> dict:
        return await self._call("ping")

    async def insert(self, values, deadline_ms: float | None = None) -> dict:
        """Insert values (numbers or numeric strings); returns ``{items, n, epoch}``.

        On a frames-wire connection a faithfully frameable batch travels
        as one binary frame (ack awaited — same semantics, ~none of the
        JSON cost); anything a frame cannot carry exactly falls back to
        the NDJSON line, so exactness never depends on the wire.
        """
        values = tuple(values)
        if self.wire == "frames":
            await self.connect()
            if self._frames_active:
                result = await self._framed_insert(values)
                if result is not None:
                    return result
        return await self._call("insert", values=values, deadline_ms=deadline_ms)

    # -- the binary frame lane -------------------------------------------------------

    async def insert_frame(self, values) -> dict:
        """Insert one batch as a binary frame and await its ack.

        Unlike :meth:`insert` this never falls back: it raises
        :class:`~repro.errors.ServiceError` when the server did not grant
        frames or the values are not faithfully frameable.
        """
        await self.connect()
        if not self._frames_active:
            raise ServiceError(
                "insert_frame needs a frames-wire connection; construct the "
                "client with wire='frames' against a server that offers it"
            )
        result = await self._framed_insert(tuple(values))
        if result is None:
            raise ServiceError(
                "values are not faithfully frameable (int64 overflow, "
                "strings, or non-finite floats); use insert(), which "
                "falls back to the exact NDJSON line"
            )
        return result

    async def pipeline_insert(self, values) -> bool:
        """Send one insert without awaiting its ack; True when framed.

        Up to ``window`` inserts ride in flight; past that the oldest ack
        is collected first.  Results accumulate for
        :meth:`take_completed`; :meth:`flush_inserts` collects the rest.
        A batch frames cannot carry exactly degrades to an *awaited*
        NDJSON insert (still recorded), so the stream stays exact.
        """
        values = tuple(values)
        await self.connect()
        if self._frames_active:
            frame = frames.encode_insert(self._next_id + 1, values)
            if frame is not None:
                self._next_id += 1
                if len(self._pending) >= self._server_window:
                    await self._read_one_ack()
                self.requests_sent += 1
                self._writer.write(frame)
                await self._writer.drain()
                self._pending.append(
                    (self._next_id & frames.ID_MASK, len(values), perf_counter_ns())
                )
                return True
        self._completed.append(await self.insert(values))
        return False

    async def flush_inserts(self) -> list[dict]:
        """Collect every in-flight ack; return (and clear) completed results."""
        await self._drain_pending()
        return self.take_completed()

    def take_completed(self) -> list[dict]:
        """Results of pipelined inserts acknowledged so far (clears the list)."""
        done, self._completed = self._completed, []
        return done

    async def _framed_insert(self, values: tuple) -> dict | None:
        """One awaited frame insert, with the standard retry discipline.

        Returns ``None`` when ``values`` are not frameable (the caller
        owns the NDJSON fallback) — including after a reconnect that
        lands on a frames-refusing server.
        """
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.retries_used += 1
                await asyncio.sleep(self._delays[attempt - 1])
            try:
                await self.connect()
                if not self._frames_active:
                    return None
                await self._drain_pending()
                self._next_id += 1
                frame = frames.encode_insert(self._next_id, values)
                if frame is None:
                    return None
                self.requests_sent += 1
                self._writer.write(frame)
                await self._writer.drain()
                self._pending.append(
                    (self._next_id & frames.ID_MASK, len(values), perf_counter_ns())
                )
                await self._read_one_ack()
                return self._completed.pop()
            except _TRANSPORT_ERRORS as error:
                last_error = error
                self._reset()
                continue
            except RequestFailed as failure:
                if self.retry_shed and failure.code in protocol.RETRYABLE_CODES:
                    last_error = failure
                    continue
                raise
        raise ServiceUnavailable(
            f"framed insert to {self.host}:{self.port} failed after "
            f"{self.max_retries + 1} attempt(s): {last_error}"
        )

    async def _drain_pending(self) -> None:
        while self._pending:
            await self._read_one_ack()

    async def _read_one_ack(self) -> None:
        """Consume exactly one framed response, matched strict-FIFO."""
        expected_id, _count, started = self._pending[0]
        header = await asyncio.wait_for(
            self._reader.readexactly(frames.HEADER_SIZE), timeout=self.timeout_s
        )
        kind, _mode, response_id, length = frames.decode_header(header)
        payload = await asyncio.wait_for(
            self._reader.readexactly(length), timeout=self.timeout_s
        )
        if response_id not in (expected_id, frames.UNKNOWN_ID):
            raise ServiceError(
                f"ack frame id {response_id} does not match the oldest "
                f"in-flight insert {expected_id} (acks are strictly FIFO)"
            )
        self._pending.popleft()
        if kind == frames.KIND_ERROR:
            code, message = frames.decode_error(payload)
            raise RequestFailed(code, message)
        if kind != frames.KIND_ACK or length != frames.ACK_BODY.size:
            raise ServiceError(
                f"unexpected frame kind 0x{kind:02x} ({length}-byte payload) "
                "where an insert ack was due"
            )
        items, n, epoch = frames.ACK_BODY.unpack(payload)
        self._completed.append(
            {
                "id": expected_id,
                "ok": True,
                "items": items,
                "n": n,
                "epoch": epoch,
                "latency_ns": perf_counter_ns() - started,
            }
        )

    async def query(self, phis, deadline_ms: float | None = None) -> dict:
        """Quantile answers for each phi: ``results`` of ``{phi, value, approx}``."""
        return await self._call("query", phis=tuple(phis), deadline_ms=deadline_ms)

    async def rank(self, values, deadline_ms: float | None = None) -> dict:
        """Rank estimates for each value: ``results`` of ``{value, rank}``."""
        return await self._call(
            "rank", values=tuple(values), deadline_ms=deadline_ms
        )

    async def stats(self) -> dict:
        """Server-side service + engine stats (the engine's ``stats()`` dict)."""
        return await self._call("stats")

    # -- metrics over the HTTP-ish dialect -------------------------------------------

    async def fetch_metrics(self) -> str:
        """GET /metrics on a fresh connection; return the Prometheus body."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), timeout=self.timeout_s
        )
        try:
            writer.write(
                b"GET /metrics HTTP/1.0\r\nHost: " + self.host.encode() + b"\r\n\r\n"
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(-1), timeout=self.timeout_s)
        finally:
            writer.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        status_line = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
        if " 200 " not in status_line + " ":
            raise ServiceError(f"/metrics answered {status_line!r}")
        return body.decode()
