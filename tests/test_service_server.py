"""Loopback end-to-end tests for the asyncio quantile service.

Covers the acceptance criteria: >= 8 concurrent clients of mixed traffic
with every answered quantile within epsilon of the exact rank, explicit
shedding for expired deadlines and full queues, drain-before-close
shutdown, and /metrics output that parses as Prometheus text exposition
format 0.0.4.
"""

import asyncio
import logging
import re
import socket
from bisect import bisect_right
from fractions import Fraction

import pytest

from repro.engine import EngineConfig, ShardedQuantileEngine
from repro.errors import RequestFailed
from repro.service import (
    LoadConfig,
    QuantileClient,
    QuantileService,
    ServiceConfig,
    frames,
    protocol,
    run_load,
)
from repro.service.server import UNWIND_S

EPSILON = 0.02


def make_service(summary="gk", shards=2, **service_kwargs) -> QuantileService:
    return QuantileService(
        engine_config=EngineConfig(summary=summary, epsilon=EPSILON, shards=shards),
        config=ServiceConfig(port=0, **service_kwargs),
    )


def run(coroutine):
    return asyncio.run(coroutine)


async def started(service: QuantileService) -> int:
    await service.start()
    return service.port


# -- Prometheus text exposition 0.0.4 ----------------------------------------------

_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" [-+]?([0-9.eE+-]+|[Ii]nf|[Nn]a[Nn])$"
)
_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")


def assert_prometheus_004(text: str) -> dict:
    """Validate text exposition 0.0.4; return {family: type}."""
    families: dict[str, str] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            assert len(line.split(" ", 3)) >= 3
        elif line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ", 3)
            assert kind in _TYPES, f"unknown TYPE {kind!r}"
            assert family not in families, f"duplicate TYPE for {family}"
            families[family] = kind
        else:
            assert _SAMPLE.match(line), f"unparseable sample line: {line!r}"
            name = re.split(r"[{ ]", line, 1)[0]
            base = re.sub(r"_(sum|count)$", "", name)
            assert name in families or base in families, (
                f"sample {name!r} has no preceding TYPE"
            )
    assert families, "no metric families rendered"
    return families


class TestBasicOperations:
    def test_insert_query_rank_round_trip(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            async with QuantileClient("127.0.0.1", port) as client:
                pong = await client.ping()
                assert pong["epoch"] == 0 and not pong["draining"]
                acked = await client.insert(list(range(1, 1001)))
                assert acked["items"] == 1000 and acked["n"] == 1000
                answer = await client.query([0.5])
                rank = await client.rank([250])
            await service.stop()
            return answer, rank

        answer, rank = run(scenario())
        served = Fraction(answer["results"][0]["value"])
        assert abs(int(served) - 500) <= EPSILON * 1000
        assert abs(rank["results"][0]["rank"] - 250) <= EPSILON * 1000

    def test_exact_rationals_survive_the_wire(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            async with QuantileClient("127.0.0.1", port) as client:
                await client.insert(
                    ["1/3"] * 10 + ["1/2"] * 80 + ["2/3"] * 10
                )
                answer = await client.query([0.5])
            await service.stop()
            return answer

        answer = run(scenario())
        assert Fraction(answer["results"][0]["value"]) == Fraction(1, 2)

    def test_query_before_any_insert_is_an_explicit_empty_error(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            async with QuantileClient("127.0.0.1", port) as client:
                with pytest.raises(RequestFailed) as excinfo:
                    await client.query([0.5])
            await service.stop()
            return excinfo.value.code

        assert run(scenario()) == protocol.ERR_EMPTY

    @pytest.mark.parametrize("summary", ["gk", "exact"])
    def test_reads_before_any_insert_answer_empty(self, summary):
        # The exact index answers rank 0 on an empty summary; only the
        # service's own guard turns that into `empty` on the wire.
        async def scenario():
            service = make_service(summary=summary)
            port = await started(service)
            async with QuantileClient("127.0.0.1", port) as client:
                with pytest.raises(RequestFailed) as query_error:
                    await client.query([0.5])
                with pytest.raises(RequestFailed) as rank_error:
                    await client.rank([1])
            await service.stop()
            return query_error.value.code, rank_error.value.code

        assert run(scenario()) == (protocol.ERR_EMPTY, protocol.ERR_EMPTY)

    def test_epoch_counts_flushes_that_grew_the_engine(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            epochs = []
            async with QuantileClient("127.0.0.1", port) as client:
                epochs.append((await client.ping())["epoch"])
                for start in (0, 100):
                    acked = await client.insert(list(range(start, start + 100)))
                    epochs.append(acked["epoch"])
                    epochs.append((await client.ping())["epoch"])
            await service.stop()
            return epochs

        assert run(scenario()) == [0, 1, 1, 2, 2]

    def test_one_shard_reads_follow_ingest(self):
        # With one shard the fold is the live shard itself: a read index
        # compiled before an insert must not answer after it.
        near = list(range(1, 501))
        far = list(range(10_000, 20_000))
        phis = [0.1, 0.5, 0.9]
        probes = [250, 15_000]

        async def scenario():
            service = make_service(shards=1)
            port = await started(service)
            async with QuantileClient("127.0.0.1", port) as client:
                await client.insert(near)
                first = await client.query(phis)
                await client.insert(far)
                second = await client.query(phis)
                ranks = await client.rank(probes)
            await service.stop()
            return first, second, ranks

        first, second, ranks = run(scenario())
        fresh = ShardedQuantileEngine(
            EngineConfig(summary="gk", epsilon=EPSILON, shards=1)
        )
        fresh.ingest(near)
        fresh.ingest(far)
        served = [Fraction(entry["value"]) for entry in second["results"]]
        assert served == fresh.quantiles(phis)
        assert served != [Fraction(entry["value"]) for entry in first["results"]]
        assert [entry["rank"] for entry in ranks["results"]] == fresh.rank_many(probes)
        assert second["n"] == ranks["n"] == fresh.items_ingested

    def test_malformed_values_answer_malformed_record_not_a_dropped_connection(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            codes = []
            async with QuantileClient("127.0.0.1", port) as client:
                for bad in (["abc"], ["1/0"]):
                    with pytest.raises(RequestFailed) as excinfo:
                        await client.insert(bad)
                    codes.append(excinfo.value.code)
                # The connection survives and the next request works.
                acked = await client.insert([1, 2, 3])
            await service.stop()
            return codes, acked

        codes, acked = run(scenario())
        assert codes == [
            protocol.ERR_MALFORMED_RECORD,
            protocol.ERR_MALFORMED_RECORD,
        ]
        assert acked["items"] == 3

    def test_malformed_json_line_answers_bad_request(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await service.stop()
            return protocol.decode_line(line)

        response = run(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.ERR_BAD_REQUEST


class TestDeadlinesAndShedding:
    def test_expired_deadline_is_shed_with_an_explicit_code(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            codes = []
            async with QuantileClient("127.0.0.1", port) as client:
                await client.insert([1, 2, 3])
                for call in (
                    client.insert([4], deadline_ms=0),
                    client.query([0.5], deadline_ms=0),
                ):
                    with pytest.raises(RequestFailed) as excinfo:
                        await call
                    codes.append(excinfo.value.code)
            shed = service.registry.get("service_shed_total", reason="deadline")
            await service.stop()
            return codes, shed.value

        codes, shed_count = run(scenario())
        assert codes == [protocol.ERR_DEADLINE, protocol.ERR_DEADLINE]
        assert shed_count >= 2

    def test_full_queue_sheds_with_overloaded(self):
        async def scenario():
            service = make_service(max_queue_jobs=2, drain_timeout_s=0.2)
            port = await started(service)

            # Wedge the consumer so admitted jobs stay queued.
            async def never_consume(*args, **kwargs):
                await asyncio.Event().wait()

            service._queue.get_batch = never_consume
            service._ingest_task.cancel()
            service._ingest_task = asyncio.create_task(service._ingest_loop())

            clients = [QuantileClient("127.0.0.1", port) for _ in range(3)]
            for client in clients:
                await client.connect()
            stuck = [
                asyncio.create_task(client.insert([index]))
                for index, client in enumerate(clients[:2])
            ]
            await asyncio.sleep(0.05)  # let both jobs be admitted
            with pytest.raises(RequestFailed) as excinfo:
                await clients[2].insert([99])
            shed = service.registry.get("service_shed_total", reason="queue_full")
            for task in stuck:
                task.cancel()
            for client in clients:
                await client.aclose()
            await service.stop()
            return excinfo.value.code, shed.value

        code, shed_count = run(scenario())
        assert code == protocol.ERR_OVERLOADED
        assert shed_count >= 1


async def pipelined_frames(port: int, first: int, count: int):
    """Write ``count`` 100-value insert frames on a fresh connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for index in range(first, first + count):
        writer.write(
            frames.encode_insert(index, list(range(index * 100, (index + 1) * 100)))
        )
    await writer.drain()
    return reader, writer


async def frame_outcomes(reader, writer) -> list:
    """Every answer until the server closes: ack dicts or ``RequestFailed``."""
    outcomes = []
    while True:
        try:
            header = await reader.readexactly(frames.HEADER_SIZE)
        except asyncio.IncompleteReadError:
            writer.close()
            return outcomes
        kind, _, _, length = frames.decode_header(header)
        payload = await reader.readexactly(length)
        if kind == frames.KIND_ACK:
            items, n, _ = frames.ACK_BODY.unpack(payload)
            outcomes.append({"items": items, "n": n})
        else:
            outcomes.append(RequestFailed(*frames.decode_error(payload)))


def admitted_inserts(service: QuantileService) -> int:
    counter = service.registry.get("service_requests_total", op="insert")
    return 0 if counter is None else counter.value


async def until_admitted(service: QuantileService, count: int) -> None:
    while admitted_inserts(service) < count:
        await asyncio.sleep(0.001)


def error_records(caplog) -> list:
    return [
        record.getMessage()
        for record in caplog.records
        if record.levelno >= logging.ERROR
    ]


class TestGracefulDrain:
    @pytest.mark.parametrize("wire", ["ndjson", "frames"])
    def test_drain_flushes_admitted_inserts_before_the_socket_closes(self, wire):
        async def ndjson(service, port):
            clients = [QuantileClient("127.0.0.1", port) for _ in range(4)]
            for client in clients:
                await client.connect()
            inserts = []
            for i, client in enumerate(clients):
                values = list(range(i * 100, (i + 1) * 100))
                inserts.append(asyncio.create_task(client.insert(values)))
                if i == 0:
                    # The consumer takes the first insert alone and lingers.
                    await until_admitted(service, 1)
                    await asyncio.sleep(0.01)
            await until_admitted(service, 4)
            # All four are admitted and none is flushed: the drain must.
            assert service.engine.items_ingested == 0
            await service.stop()
            outcomes = await asyncio.gather(*inserts, return_exceptions=True)
            for client in clients:
                await client.aclose()
            return outcomes

        async def framed(service, port):
            # Each client pipelines 8 frames before the drain starts.
            streams = [await pipelined_frames(port, i * 8, 8) for i in range(4)]
            await service.stop()
            answers = await asyncio.gather(*(frame_outcomes(*s) for s in streams))
            return [outcome for answer in answers for outcome in answer]

        async def scenario():
            if wire == "ndjson":
                service, drive = make_service(linger_ms=1000), ndjson
            else:
                service, drive = make_service(), framed
            port = await started(service)
            return service, await asyncio.wait_for(drive(service, port), 20)

        service, outcomes = run(scenario())
        acked = sum(
            outcome["items"]
            for outcome in outcomes
            if isinstance(outcome, dict)
        )
        assert acked > 0
        explicit_errors = [
            outcome
            for outcome in outcomes
            if not isinstance(outcome, dict)
        ]
        # Every insert either made it into the engine or failed explicitly.
        for error in explicit_errors:
            assert isinstance(error, RequestFailed)
            assert error.code in protocol.RETRYABLE_CODES
        assert service.engine.items_ingested == acked
        served = [outcome["n"] for outcome in outcomes if isinstance(outcome, dict)]
        assert max(served, default=0) == acked
        # Every insert the server read was answered before its socket closed.
        admitted = service.registry.get("service_requests_total", op="insert")
        assert len(outcomes) == admitted.value

    def test_stop_unwinds_every_connection_without_error_logs(self, caplog):
        async def scenario():
            service = make_service()
            port = await started(service)
            client = QuantileClient("127.0.0.1", port)
            await client.connect()
            await client.insert([1, 2, 3])
            reader, writer = await pipelined_frames(port, 0, 4)
            await service.stop()
            # asyncio.run ends right here: no handler may still be running.
            await client.aclose()
            writer.close()
            return service

        with caplog.at_level(logging.ERROR):
            service = run(scenario())
        assert error_records(caplog) == []
        assert not service._connections

    def test_a_peer_that_stops_reading_cannot_stretch_the_drain(self, caplog):
        """A client that sends reads but never reads the answers wedges its
        socket; stop() aborts it once the drain budget is spent, instead of
        waiting out a second budget and cancelling its handler."""

        def wedged(service: QuantileService) -> bool:
            return any(
                writer.transport.get_write_buffer_size()
                > writer.transport.get_write_buffer_limits()[1]
                for writer in service._connections
            )

        async def scenario():
            service = make_service(drain_timeout_s=2.0)
            port = await started(service)
            client = QuantileClient("127.0.0.1", port)
            await client.connect()
            await client.insert(list(range(1000)))
            await client.aclose()
            loop = asyncio.get_running_loop()
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await loop.sock_connect(sock, ("127.0.0.1", port))
            # Each answer is ~100 KB: together far past every socket buffer.
            phis = [step / 2000 for step in range(2000)]
            reads = b"".join(
                protocol.encode_line({"op": "query", "id": i, "phis": phis})
                for i in range(100)
            )
            sender = asyncio.create_task(loop.sock_sendall(sock, reads))
            while not wedged(service):
                await asyncio.sleep(0.01)
            began = loop.time()
            await service.stop()
            elapsed = loop.time() - began
            sender.cancel()
            sock.close()
            return service, elapsed

        with caplog.at_level(logging.ERROR):
            service, elapsed = run(asyncio.wait_for(scenario(), 30))
        assert error_records(caplog) == []
        assert not service._connections
        # The budget, the unwind floor and the post-abort wait, with slack;
        # a second full budget would take twice drain_timeout_s.
        assert elapsed < service.config.drain_timeout_s + 2 * UNWIND_S + 0.5

    @pytest.mark.parametrize("stall", ["wedged-queue", "long-linger"])
    def test_drain_timeout_answers_unflushed_inserts(self, stall, caplog):
        async def scenario():
            if stall == "wedged-queue":
                # The consumer never takes the admitted jobs.
                service = make_service(drain_timeout_s=0.2)

                async def never_consume(*args, **kwargs):
                    await asyncio.Event().wait()

                service._queue.get_batch = never_consume
            else:
                # The consumer holds the jobs past the drain budget.
                service = make_service(drain_timeout_s=0.2, linger_ms=60_000)
            port = await started(service)
            clients = [QuantileClient("127.0.0.1", port) for _ in range(2)]
            for client in clients:
                await client.connect()
            inserts = []
            for index, client in enumerate(clients):
                # One at a time: a lingering consumer holds the first job
                # in its batch while the second waits in the queue.
                inserts.append(asyncio.create_task(client.insert([index])))
                await until_admitted(service, index + 1)
                await asyncio.sleep(0.01)
            await service.stop()
            outcomes = await asyncio.gather(*inserts, return_exceptions=True)
            for client in clients:
                await client.aclose()
            return outcomes

        with caplog.at_level(logging.ERROR):
            outcomes = run(scenario())
        assert [error.code for error in outcomes] == [protocol.ERR_SHUTTING_DOWN] * 2
        assert error_records(caplog) == []

    def test_inserts_after_drain_get_shutting_down(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            async with QuantileClient("127.0.0.1", port) as client:
                await client.insert([1, 2, 3])
                service._draining = True  # what stop() sets first
                with pytest.raises(RequestFailed) as excinfo:
                    await client.insert([4])
            service._draining = False
            await service.stop()
            return excinfo.value.code

        assert run(scenario()) == protocol.ERR_SHUTTING_DOWN

    def test_restored_engine_serves_immediately(self, tmp_path):
        checkpoint = tmp_path / "service.jsonl"

        async def first_life():
            service = make_service(checkpoint_path=str(checkpoint))
            port = await started(service)
            async with QuantileClient("127.0.0.1", port) as client:
                await client.insert(list(range(1, 2001)))
            await service.stop()

        async def second_life():
            from repro.engine import ShardedQuantileEngine

            engine = ShardedQuantileEngine.restore(checkpoint)
            service = QuantileService(engine=engine, config=ServiceConfig(port=0))
            port = await started(service)
            async with QuantileClient("127.0.0.1", port) as client:
                pong = await client.ping()
                answer = await client.query([0.5])
            await service.stop()
            return pong, answer

        run(first_life())
        pong, answer = run(second_life())
        assert pong["n"] == 2000
        assert pong["epoch"] == answer["epoch"] == 1
        assert abs(int(Fraction(answer["results"][0]["value"])) - 1000) <= (
            EPSILON * 2000
        )


class TestConcurrentAccuracy:
    """The acceptance loopback test: 8 concurrent clients, answers within eps."""

    def test_eight_concurrent_clients_mixed_traffic_within_epsilon(self):
        config = LoadConfig(
            clients=8,
            ops_per_client=25,
            insert_ratio=0.6,
            values_per_insert=80,
            deadline_ms=10_000,
            seed=11,
        )

        async def scenario():
            service = make_service()
            port = await started(service)
            report = await run_load("127.0.0.1", port, config)
            async with QuantileClient("127.0.0.1", port) as client:
                answers = await client.query(config.phis)
                sample_ranks = await client.rank([100_000, 500_000, 900_000])
                stats = await client.stats()
            await service.stop()
            return service, report, answers, sample_ranks, stats

        service, report, answers, sample_ranks, stats = run(scenario())

        # Mixed traffic actually happened, and nothing was silently dropped:
        # every op is either ok or an explicit, coded error.
        assert report.ops == 8 * 25
        assert report.ok + sum(report.errors.values()) == report.ops
        assert set(report.errors) <= set(protocol.ERROR_CODES)
        assert report.inserted, "the workload must have inserted data"
        assert service.engine.items_ingested == len(report.inserted)

        # Every answered quantile is within epsilon of the exact rank.
        assert report.max_rank_error(answers) <= EPSILON

        # Rank answers check out against ground truth too.
        ordered = sorted(Fraction(v) for v in report.inserted)
        n = len(ordered)
        for entry in sample_ranks["results"]:
            exact = bisect_right(ordered, Fraction(entry["value"]))
            assert abs(entry["rank"] - exact) <= EPSILON * n

        # Stats reflect the run.
        assert stats["engine"]["items_ingested"] == n
        assert stats["service"]["epoch"] >= 1


class TestMetricsEndpoint:
    def test_metrics_parses_as_prometheus_004(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            async with QuantileClient("127.0.0.1", port) as client:
                await client.insert(list(range(500)))
                await client.query([0.5])
                text = await client.fetch_metrics()
            await service.stop()
            return text

        text = run(scenario())
        families = assert_prometheus_004(text)
        assert families["service_requests_total"] == "counter"
        assert families["service_snapshot_epoch"] == "gauge"
        assert families["service_request_latency_ns"] == "summary"
        # The engine's telemetry rides along on the same page.
        assert "engine_latency_ns" in families
        assert 'op="insert"' in text and 'op="query"' in text

    def test_unknown_http_path_is_a_404(self):
        async def scenario():
            service = make_service()
            port = await started(service)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /nope HTTP/1.0\r\n\r\n")
            await writer.drain()
            raw = await reader.read(-1)
            writer.close()
            await service.stop()
            return raw

        raw = run(scenario())
        assert raw.startswith(b"HTTP/1.0 404")
