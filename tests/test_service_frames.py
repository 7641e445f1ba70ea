"""The binary frame wire: codec, hello, recovery, cross-wire identity.

Covers the frame lane's contract end to end: the codec round-trips the
full int64/float64 range (property-tested), unframeable values are refused
at the source, malformed frames come back as stable error codes *without*
killing the connection, truncation at EOF closes cleanly, and — the
faithfulness guarantee — a workload driven over frames leaves the engine
in a state whose checkpoint core is byte-identical to the same workload
over NDJSON, answering queries identically.
"""

import asyncio
import json
import struct
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig
from repro.errors import ServiceError
from repro.service import (
    QuantileClient,
    QuantileService,
    ServiceConfig,
    frames,
    protocol,
)
from repro.service.server import WINDOW

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def run(coroutine):
    return asyncio.run(coroutine)


def make_service(**service_kwargs) -> QuantileService:
    return QuantileService(
        engine_config=EngineConfig(summary="gk", epsilon=0.02, shards=2),
        config=ServiceConfig(port=0, **service_kwargs),
    )


async def started(service: QuantileService) -> int:
    await service.start()
    return service.port


# -- the codec ---------------------------------------------------------------------


class TestCodec:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
            min_size=1,
            max_size=64,
        )
    )
    def test_i64_round_trip(self, values):
        mode, payload = frames.pack_values(values)
        assert mode == frames.MODE_I64
        decoded = frames.decode_insert(
            frames.KIND_INSERT, mode, payload, max_values=len(values)
        )
        assert decoded.typecode == "q"
        assert decoded.tolist() == values

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, width=64),
            min_size=1,
            max_size=64,
        )
    )
    def test_f64_round_trip(self, values):
        mode, payload = frames.pack_values(values)
        assert mode == frames.MODE_F64
        decoded = frames.decode_insert(
            frames.KIND_INSERT, mode, payload, max_values=len(values)
        )
        assert decoded.typecode == "d"
        assert decoded.tolist() == values

    def test_int64_boundaries_stay_exact(self):
        values = [INT64_MIN, -1, 0, 1, INT64_MAX]
        mode, payload = frames.pack_values(values)
        assert mode == frames.MODE_I64
        decoded = frames.decode_insert(
            frames.KIND_INSERT, mode, payload, max_values=5
        )
        assert decoded.tolist() == values

    def test_unframeable_values_are_refused(self):
        # Every refusal keeps exactness: these ride the NDJSON line instead.
        assert frames.pack_values([INT64_MAX + 1]) is None
        assert frames.pack_values([INT64_MIN - 1]) is None
        assert frames.pack_values(["7"]) is None
        assert frames.pack_values([Fraction(1, 3)]) is None
        assert frames.pack_values([float("nan")]) is None
        assert frames.pack_values([2**63]) is None  # not exactly a float64
        assert frames.pack_values([]) is None

    def test_mixed_int_float_packs_as_f64(self):
        mode, payload = frames.pack_values([1, 2.5])
        assert mode == frames.MODE_F64
        decoded = frames.decode_insert(
            frames.KIND_INSERT, mode, payload, max_values=2
        )
        assert decoded.tolist() == [1.0, 2.5]

    def test_decode_insert_validates_structure(self):
        with pytest.raises(frames.FrameError):
            frames.decode_insert(frames.KIND_ACK, frames.MODE_I64, b"\0" * 8,
                                 max_values=10)
        with pytest.raises(frames.FrameError):
            frames.decode_insert(frames.KIND_INSERT, 0x7F, b"\0" * 8,
                                 max_values=10)
        with pytest.raises(frames.FrameError):
            frames.decode_insert(frames.KIND_INSERT, frames.MODE_I64, b"",
                                 max_values=10)
        with pytest.raises(frames.FrameError):  # not a multiple of 8
            frames.decode_insert(frames.KIND_INSERT, frames.MODE_I64, b"\0" * 9,
                                 max_values=10)
        with pytest.raises(frames.FrameError):  # over the per-frame cap
            frames.decode_insert(frames.KIND_INSERT, frames.MODE_I64, b"\0" * 16,
                                 max_values=1)

    def test_header_rejects_bad_magic_only(self):
        good = frames.HEADER.pack(frames.MAGIC, frames.KIND_INSERT,
                                  frames.MODE_I64, 7, 8)
        assert frames.decode_header(good) == (frames.KIND_INSERT,
                                              frames.MODE_I64, 7, 8)
        bad = frames.HEADER.pack(b"{Q", frames.KIND_INSERT, frames.MODE_I64, 7, 8)
        with pytest.raises(frames.FrameError):
            frames.decode_header(bad)

    def test_ack_and_error_frames_round_trip(self):
        ack = frames.encode_ack(0x1_0000_0002, 10, 100, 3)
        kind, mode, request_id, length = frames.decode_header(
            ack[: frames.HEADER_SIZE]
        )
        assert kind == frames.KIND_ACK and request_id == 2  # id is masked u32
        assert frames.ACK_BODY.unpack(ack[frames.HEADER_SIZE :]) == (10, 100, 3)

        error = frames.encode_error(None, protocol.ERR_BAD_FRAME, "nope")
        kind, _, request_id, _ = frames.decode_header(error[: frames.HEADER_SIZE])
        assert kind == frames.KIND_ERROR and request_id == frames.UNKNOWN_ID
        assert frames.decode_error(error[frames.HEADER_SIZE :]) == (
            protocol.ERR_BAD_FRAME,
            "nope",
        )


# -- negotiation -------------------------------------------------------------------


class TestNegotiation:
    def test_hello_grants_frames_when_enabled(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            try:
                async with QuantileClient(
                    "127.0.0.1", port, wire="frames"
                ) as client:
                    assert client.frames_active
                    acked = await client.insert_frame([1, 2, 3])
                    assert acked["items"] == 3 and acked["ok"]
            finally:
                await service.stop()

        run(scenario())

    def test_ndjson_only_server_degrades_client_silently(self, monkeypatch):
        # A release without ``hello`` answers it with bad_request.
        monkeypatch.setattr(
            protocol, "OPS", tuple(op for op in protocol.OPS if op != "hello")
        )

        async def scenario():
            service = make_service()
            port = await started(service)
            try:
                async with QuantileClient(
                    "127.0.0.1", port, wire="frames"
                ) as client:
                    assert not client.frames_active
                    # insert still works — over the NDJSON line.
                    acked = await client.insert([1, 2, 3])
                    assert acked["items"] == 3
                    with pytest.raises(ServiceError):
                        await client.insert_frame([1, 2, 3])
            finally:
                await service.stop()

        run(scenario())

    def test_frames_need_no_hello(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(frames.encode_insert(7, [5, 6, 7, 8]))
                writer.write((json.dumps({"op": "ping", "id": 8}) + "\n").encode())
                await writer.drain()
                kind, request_id, payload = await read_frame(reader)
                assert kind == frames.KIND_ACK and request_id == 7
                assert frames.ACK_BODY.unpack(payload)[:2] == (4, 4)
                pong = json.loads(await reader.readline())
                assert pong["ok"] and pong["id"] == 8 and pong["n"] == 4
                writer.close()
            finally:
                await service.stop()

        run(scenario())

    def test_hello_reports_the_frame_cap_and_window(self):
        async def scenario():
            service = make_service(max_values_per_insert=1000)
            port = await started(service)
            try:
                _, writer, granted = await hello_connection(port)
                writer.close()
                return granted
            finally:
                await service.stop()

        granted = run(scenario())
        assert granted["max_frame_values"] == 1000
        assert granted["window"] == WINDOW == 32


# -- raw connections --------------------------------------------------------------


async def hello_connection(port: int):
    """A raw (reader, writer) and the server's answer to a frames ``hello``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    hello = {"op": "hello", "id": 1, "wire": "frames"}
    writer.write((json.dumps(hello) + "\n").encode())
    await writer.drain()
    granted = json.loads(await reader.readline())
    assert granted["ok"] and granted["wire"] == "frames"
    return reader, writer, granted


async def read_frame(reader):
    header = await reader.readexactly(frames.HEADER_SIZE)
    kind, mode, request_id, length = frames.decode_header(header)
    payload = await reader.readexactly(length)
    return kind, request_id, payload


class TestRecovery:
    def test_misaligned_payload_is_refused_and_connection_survives(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            try:
                reader, writer, _ = await hello_connection(port)
                writer.write(
                    frames.HEADER.pack(
                        frames.MAGIC, frames.KIND_INSERT, frames.MODE_I64, 5, 9
                    )
                    + b"\0" * 9
                )
                await writer.drain()
                kind, request_id, payload = await read_frame(reader)
                assert kind == frames.KIND_ERROR and request_id == 5
                code, _ = frames.decode_error(payload)
                assert code == protocol.ERR_BAD_FRAME
                # The connection is still serving: a framed insert lands.
                writer.write(frames.encode_insert(6, [1, 2, 3]))
                await writer.drain()
                kind, request_id, payload = await read_frame(reader)
                assert kind == frames.KIND_ACK and request_id == 6
                items, n, _ = frames.ACK_BODY.unpack(payload)
                assert items == 3 and n == 3
                writer.close()
            finally:
                await service.stop()

        run(scenario())

    def test_unknown_kind_and_bad_magic_are_recoverable(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            try:
                reader, writer, _ = await hello_connection(port)
                # Unknown kind: declared payload is drained, error answered.
                writer.write(
                    frames.HEADER.pack(frames.MAGIC, 0x7E, 0, 8, 16) + b"\0" * 16
                )
                await writer.drain()
                kind, request_id, payload = await read_frame(reader)
                assert kind == frames.KIND_ERROR and request_id == 8
                assert frames.decode_error(payload)[0] == protocol.ERR_BAD_FRAME
                # Bad magic starting with 0xF5: resyncs at the next newline.
                writer.write(b"\xf5garbage-not-a-frame\n")
                await writer.drain()
                kind, request_id, payload = await read_frame(reader)
                assert kind == frames.KIND_ERROR
                assert frames.decode_error(payload)[0] == protocol.ERR_BAD_FRAME
                # Still alive — and NDJSON lines still interleave.
                ping = {"op": "ping", "id": 2}
                writer.write((json.dumps(ping) + "\n").encode())
                await writer.drain()
                pong = json.loads(await reader.readline())
                assert pong["ok"]
                writer.close()
            finally:
                await service.stop()

        run(scenario())

    def test_oversized_declaration_errors_then_closes(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            try:
                reader, writer, _ = await hello_connection(port)
                writer.write(
                    frames.HEADER.pack(
                        frames.MAGIC,
                        frames.KIND_INSERT,
                        frames.MODE_I64,
                        9,
                        frames.MAX_DRAIN_BYTES + 8,
                    )
                )
                await writer.drain()
                kind, request_id, payload = await read_frame(reader)
                assert kind == frames.KIND_ERROR and request_id == 9
                assert frames.decode_error(payload)[0] == protocol.ERR_BAD_FRAME
                assert await reader.read() == b""  # server closed
                writer.close()
            finally:
                await service.stop()

        run(scenario())

    def test_truncated_frame_at_eof_closes_cleanly(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            try:
                reader, writer, _ = await hello_connection(port)
                complete = frames.encode_insert(3, [10, 20, 30])
                writer.write(complete[:-4])  # half a value, then EOF
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                # The truncated batch was never applied.
                async with QuantileClient("127.0.0.1", port) as client:
                    stats = await client.stats()
                    assert stats["engine"]["items_ingested"] == 0
            finally:
                await service.stop()

        run(scenario())

    def test_non_finite_f64_frame_is_a_bad_value(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            try:
                reader, writer, _ = await hello_connection(port)
                payload = struct.pack("<2d", 1.0, float("inf"))
                writer.write(
                    frames.HEADER.pack(
                        frames.MAGIC,
                        frames.KIND_INSERT,
                        frames.MODE_F64,
                        4,
                        len(payload),
                    )
                    + payload
                )
                await writer.drain()
                kind, request_id, body = await read_frame(reader)
                assert kind == frames.KIND_ERROR and request_id == 4
                assert frames.decode_error(body)[0] == protocol.ERR_BAD_VALUE
                writer.close()
            finally:
                await service.stop()

        run(scenario())

    def test_oversize_ndjson_line_reports_line_too_long(self):
        async def scenario():
            # One value per insert: the line limit is MAX_LINE_BYTES (1 MiB).
            service = make_service(max_values_per_insert=1)
            assert service.config.effective_line_limit() == protocol.MAX_LINE_BYTES
            port = await started(service)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                request = {"op": "insert", "id": 1,
                           "values": list(range(200000))}
                writer.write((json.dumps(request) + "\n").encode())
                await writer.drain()
                response = json.loads(await reader.readline())
                assert not response["ok"]
                assert response["error"]["code"] == protocol.ERR_LINE_TOO_LONG
                # The connection resynced at the newline and still serves.
                writer.write((json.dumps({"op": "ping", "id": 2}) + "\n").encode())
                await writer.drain()
                pong = json.loads(await reader.readline())
                assert pong["ok"] and pong["id"] == 2
                writer.close()
            finally:
                await service.stop()

        run(scenario())


# -- pipelining --------------------------------------------------------------------


class TestPipelining:
    def test_acks_come_back_fifo_and_read_your_writes_holds(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            try:
                async with QuantileClient(
                    "127.0.0.1", port, wire="frames", window=4
                ) as client:
                    batches = [[i * 10 + j for j in range(10)] for i in range(8)]
                    for batch in batches:
                        await client.pipeline_insert(batch)
                    results = await client.flush_inserts()
                    assert [r["items"] for r in results] == [10] * 8
                    assert client.pending_inserts == 0
                    # n grows monotonically in submission order.
                    ns = [r["n"] for r in results]
                    assert ns == sorted(ns) and ns[-1] == 80
                    # Read-your-writes: a query after the flush sees all 80.
                    answers = await client.query([0.5])
                    assert answers["n"] == 80
            finally:
                await service.stop()

        run(scenario())

    def test_unframeable_batch_falls_back_mid_pipeline(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            try:
                async with QuantileClient(
                    "127.0.0.1", port, wire="frames", window=4
                ) as client:
                    framed = await client.pipeline_insert([1, 2, 3])
                    assert framed
                    # An exact-rational batch ("1/3" on the wire) is not
                    # frameable: it awaits the exact NDJSON line (draining
                    # the window first) and lands in the completed list
                    # like any other ack.
                    framed = await client.pipeline_insert(["1/3"])
                    assert not framed
                    results = await client.flush_inserts()
                    assert [r["items"] for r in results] == [3, 1]
                    answers = await client.query([0.5])
                    assert answers["n"] == 4
            finally:
                await service.stop()

        run(scenario())


# -- cross-wire faithfulness -------------------------------------------------------


def checkpoint_core(path: Path) -> list[bytes]:
    """Every checkpoint line except the wall-clock telemetry record."""
    lines = []
    for line in path.read_bytes().splitlines():
        if line and json.loads(line).get("kind") != "telemetry":
            lines.append(line)
    return lines


class TestCrossWireIdentity:
    def test_frames_and_ndjson_leave_identical_engine_state(self, tmp_path):
        batches = [
            [seed * 977 + offset * 13 for offset in range(500)]
            for seed in range(12)
        ]
        phis = [0.1, 0.5, 0.9, 0.99]
        answers = {}
        checkpoints = {}

        async def drive(wire: str) -> None:
            path = tmp_path / f"{wire}.ckpt"
            service = make_service(checkpoint_path=str(path))
            port = await started(service)
            try:
                async with QuantileClient(
                    "127.0.0.1", port, wire=wire
                ) as client:
                    assert client.frames_active == (wire == "frames")
                    for batch in batches:  # awaited: same flush boundaries
                        acked = await client.insert(batch)
                        assert acked["items"] == len(batch)
                    answers[wire] = await client.query(phis)
            finally:
                await service.stop()
            checkpoints[wire] = checkpoint_core(path)

        run(drive("ndjson"))
        run(drive("frames"))

        assert answers["ndjson"]["results"] == answers["frames"]["results"]
        assert checkpoints["ndjson"], "checkpoint core must not be empty"
        assert checkpoints["ndjson"] == checkpoints["frames"]

    def test_auditor_observes_array_batches_identically(self):
        from repro.obs.registry import MetricRegistry
        from repro.service.audit import AccuracyAuditor, AuditConfig

        values = list(range(1000))
        as_list = AccuracyAuditor(MetricRegistry(), 0.02, AuditConfig(seed=5))
        as_array = AccuracyAuditor(MetricRegistry(), 0.02, AuditConfig(seed=5))
        as_list.observe_batch(values)
        as_array.observe_batch(array("q", values))
        assert as_list.sample == as_array.sample
        assert as_list.seen == as_array.seen == 1000
