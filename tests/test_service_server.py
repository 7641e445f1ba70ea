"""Loopback end-to-end tests for the asyncio quantile service.

Covers the acceptance criteria: >= 8 concurrent clients of mixed traffic
with every answered quantile within epsilon of the exact rank, explicit
shedding for expired deadlines and full queues, drain-before-close
shutdown, and /metrics output that parses as Prometheus text exposition
format 0.0.4.
"""

import asyncio
import re
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


class TestGracefulDrain:
    @pytest.mark.parametrize("wire", ["ndjson", "frames"])
    def test_drain_flushes_admitted_inserts_before_the_socket_closes(self, wire):
        async def ndjson(service, port):
            clients = [QuantileClient("127.0.0.1", port) for _ in range(4)]
            for client in clients:
                await client.connect()
            inserts = [
                asyncio.create_task(client.insert(list(range(i * 100, (i + 1) * 100))))
                for i, client in enumerate(clients)
            ]
            await asyncio.sleep(0)  # let the inserts hit the queue
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
            service = make_service()
            port = await started(service)
            drive = ndjson if wire == "ndjson" else framed
            return service, await drive(service, port)

        service, outcomes = run(scenario())
        acked = sum(
            outcome["items"]
            for outcome in outcomes
            if isinstance(outcome, dict)
        )
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
