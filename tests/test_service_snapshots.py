"""Epoch snapshots as the service serves them: numbering, isolation from ingest.

A snapshot is what one wire epoch answers from: the shard fold made by the
flush that opened the epoch, compiled by the engine into a frozen read
index on the first read of the epoch.
"""

import asyncio
from fractions import Fraction

import pytest

from repro.engine import EngineConfig, ShardedQuantileEngine
from repro.errors import RequestFailed
from repro.service import QuantileClient, QuantileService, ServiceConfig, protocol

EPSILON = 0.05


def make_engine(shards: int = 2) -> ShardedQuantileEngine:
    return ShardedQuantileEngine(
        EngineConfig(summary="gk", epsilon=EPSILON, shards=shards)
    )


def make_service(shards: int = 2) -> QuantileService:
    return QuantileService(
        engine_config=EngineConfig(summary="gk", epsilon=EPSILON, shards=shards),
        config=ServiceConfig(port=0),
    )


def serve(service: QuantileService, talk):
    """Run ``talk(client)`` against a started ``service``; return its result."""

    async def scenario():
        await service.start()
        try:
            async with QuantileClient("127.0.0.1", service.port) as client:
                return await talk(client)
        finally:
            await service.stop()

    return asyncio.run(scenario())


def compiles(service: QuantileService) -> int:
    return service.engine.stats()["telemetry"]["counters"].get(
        "read_index_compiles", 0
    )


class TestEmptySnapshot:
    def test_store_starts_at_the_empty_epoch(self):
        service = make_service()
        assert service.epoch == 0

        async def talk(client):
            return await client.ping()

        pong = serve(service, talk)
        assert (pong["epoch"], pong["n"]) == (0, 0)

    def test_empty_snapshot_refuses_queries_explicitly(self):
        async def talk(client):
            errors = []
            for read in (client.query([0.5]), client.rank([1])):
                with pytest.raises(RequestFailed) as excinfo:
                    await read
                errors.append(excinfo.value)
            return errors

        errors = serve(make_service(), talk)
        assert [error.code for error in errors] == [protocol.ERR_EMPTY] * 2
        assert all("epoch 0" in str(error) for error in errors)

    def test_publish_of_an_empty_engine_stays_empty(self):
        # Serving an engine that holds no items opens no epoch.
        service = QuantileService(engine=make_engine(), config=ServiceConfig(port=0))
        assert service.epoch == 0

        async def talk(client):
            pong = await client.ping()
            with pytest.raises(RequestFailed) as excinfo:
                await client.query([0.5])
            return pong, excinfo.value.code

        pong, code = serve(service, talk)
        assert pong["epoch"] == 0
        assert code == protocol.ERR_EMPTY


class TestPublishing:
    def test_epochs_increase_per_publish(self):
        async def talk(client):
            seen = []
            for start in (0, 100):
                acked = await client.insert(list(range(start, start + 100)))
                answer = await client.query([0.5])
                seen.append((acked["epoch"], answer["epoch"], answer["n"]))
            return seen

        assert serve(make_service(), talk) == [(1, 1, 100), (2, 2, 200)]

    def test_publish_without_growth_reuses_the_snapshot(self):
        service = make_service()

        async def talk(client):
            await client.insert(list(range(100)))
            first = await client.query([0.5])
            index = service.engine.read_index()
            await client.ping()
            second = await client.query([0.5])
            await client.rank([50])
            return first, second, service.engine.read_index() is index

        first, second, reused = serve(service, talk)
        assert second == {**first, "id": second["id"]}
        assert reused
        assert compiles(service) == 1

    def test_snapshot_answers_match_the_engine_at_publish_time(self):
        service = make_service()

        async def talk(client):
            await client.insert(list(range(1, 1001)))
            served = await client.query([0.5]), await client.rank([500])
            return served, (service.engine.query(0.5), service.engine.rank(500))

        (answer, rank), (value, estimate) = serve(service, talk)
        assert Fraction(answer["results"][0]["value"]) == value
        assert rank["results"][0]["rank"] == estimate
        assert answer["n"] == rank["n"] == 1000


class TestIsolation:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_old_snapshot_is_frozen_while_ingest_continues(self, shards):
        # The single-shard case is the trap: the fold is the live shard
        # itself, so the compiled index must not be a view of it.
        service = make_service(shards=shards)

        async def talk(client):
            await client.insert(list(range(1, 501)))
            await client.query([0.5])
            frozen = service.engine.read_index()
            before = (frozen.quantile(0.5), frozen.rank(Fraction(100)))
            await client.insert(list(range(10_000, 20_000)))
            await client.query([0.5])
            return frozen, before, service.engine.read_index()

        frozen, before, current = serve(service, talk)
        assert (frozen.quantile(0.5), frozen.rank(Fraction(100))) == before
        assert frozen.n == 500
        assert current is not frozen and current.n == 10_500

    def test_new_snapshot_sees_the_new_data(self):
        async def talk(client):
            await client.insert(list(range(1, 501)))
            old = await client.rank([25_000])
            await client.insert(list(range(10_000, 20_000)))
            new = await client.rank([25_000])
            return old, new

        old, new = serve(make_service(), talk)
        assert new["epoch"] == old["epoch"] + 1
        assert new["n"] == 10_500
        assert new["results"][0]["rank"] == 10_500
        assert old["results"][0]["rank"] == 500
