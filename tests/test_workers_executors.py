"""The engine's ``workers`` axis: inline feeding, thread pool, bit-identity.

The load-bearing property here is the determinism contract: a shard is a
deterministic function of the value subsequence routed to it, so an engine
with ``workers > 1`` — one pool task per busy shard — must leave the
byte-identical shard state that ``workers=1`` (the calling thread) leaves.
Every test in this file is some projection of that claim: identical
checkpoint records, identical answers.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, ShardedQuantileEngine, read_checkpoint
from repro.engine import engine as engine_module


def _values(n, seed=7, bound=10**6):
    rng = random.Random(seed)
    return [rng.randint(0, bound) for _ in range(n)]


def _shard_records(path):
    return read_checkpoint(path)["shard_payloads"]


class TestExecutorFactory:
    def test_serial_is_the_default(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 must not build a thread pool")

        monkeypatch.setattr(engine_module, "ThreadPoolExecutor", no_pool)
        with ShardedQuantileEngine(EngineConfig(summary="gk")) as engine:
            assert engine.config.workers == 1
            engine.ingest(_values(100))


class TestThreadBitIdentity:
    @pytest.mark.parametrize("summary", ["gk", "kll"])
    def test_checkpoints_are_byte_identical_to_serial(self, tmp_path, summary):
        values = _values(4000)
        paths = {}
        for workers in (1, 3):
            config = EngineConfig(
                summary=summary, epsilon=0.05, shards=4,
                workers=workers, seed=3, batch_size=512,
            )
            with ShardedQuantileEngine(config) as engine:
                engine.ingest(values)
                path = tmp_path / f"workers-{workers}.jsonl"
                engine.checkpoint(path)
                paths[workers] = path
        assert _shard_records(paths[1]) == _shard_records(paths[3])

    def test_mixed_value_types_land_identically(self, tmp_path):
        values = []
        rng = random.Random(11)
        for _ in range(1500):
            values.append(rng.randint(0, 10**6))
            values.append(Fraction(rng.randint(0, 100), rng.randint(1, 7)))
            values.append(rng.random())
        paths = {}
        for workers in (1, 2):
            config = EngineConfig(
                summary="gk", epsilon=0.05, shards=3,
                workers=workers, batch_size=700,
            )
            with ShardedQuantileEngine(config) as engine:
                engine.ingest(values)
                path = tmp_path / f"workers-{workers}.jsonl"
                engine.checkpoint(path)
                paths[workers] = path
        assert _shard_records(paths[1]) == _shard_records(paths[2])

    def test_queries_match_serial_between_ingests(self):
        values = _values(6000)
        serial = ShardedQuantileEngine(
            EngineConfig(summary="gk", shards=4, epsilon=0.02)
        )
        config = EngineConfig(summary="gk", shards=4, epsilon=0.02, workers=2)
        with ShardedQuantileEngine(config) as pooled:
            serial.ingest(values[:3000])
            pooled.ingest(values[:3000])
            phis = [0.05, 0.25, 0.5, 0.75, 0.95]
            assert serial.quantiles(phis) == pooled.quantiles(phis)
            probes = [values[1], values[100], values[2999]]
            assert serial.rank_many(probes) == pooled.rank_many(probes)
            # A second ingest after the mid-run read must keep agreeing:
            # the fold never mutates a shard.
            serial.ingest(values[3000:])
            pooled.ingest(values[3000:])
            assert serial.quantiles(phis) == pooled.quantiles(phis)
            assert serial.rank_many(probes) == pooled.rank_many(probes)

    def test_restore_then_ingest_matches_a_straight_run(self, tmp_path):
        values = _values(3000)
        config = EngineConfig(summary="kll", shards=3, seed=9, workers=2)
        path = tmp_path / "ckpt.jsonl"
        with ShardedQuantileEngine(config) as engine:
            engine.ingest(values[:2000])
            engine.checkpoint(path)
        with ShardedQuantileEngine.restore(path) as resumed:
            assert resumed.config.workers == 2
            resumed.ingest(values[2000:])
            straight = ShardedQuantileEngine(
                EngineConfig(summary="kll", shards=3, seed=9)
            )
            straight.ingest(values)
            assert resumed.quantiles([0.1, 0.5, 0.9]) == straight.quantiles(
                [0.1, 0.5, 0.9]
            )

    @pytest.mark.parametrize(
        "kind, lane",
        [
            ("ints", "columnar"),
            ("int-valued floats", "columnar"),
            ("integral fractions", "columnar"),
            ("halves", "items"),
        ],
    )
    def test_input_kind_picks_the_shard_lane(self, kind, lane):
        values = {
            "ints": _values(3000),
            "int-valued floats": [float(v) for v in _values(3000)],
            "integral fractions": [Fraction(v) for v in _values(3000)],
            "halves": [Fraction(v, 2) for v in _values(3000, bound=10**4)],
        }[kind]
        for workers in (1, 2):
            config = EngineConfig(summary="kll", shards=2, seed=5, workers=workers)
            with ShardedQuantileEngine(config) as engine:
                engine.ingest(values, batch_size=700)
                lanes = [entry["lane"] for entry in engine.stats()["shards"]]
            assert lanes == [lane, lane], workers

    @settings(max_examples=8, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=30, max_size=150
        ),
        shards=st.integers(min_value=1, max_value=4),
    )
    def test_executor_axis_preserves_every_answer(self, values, shards):
        answers = []
        for workers in (1, 2):
            config = EngineConfig(
                summary="gk", epsilon=0.1, shards=shards,
                workers=workers, batch_size=32,
            )
            with ShardedQuantileEngine(config) as engine:
                engine.ingest(values)
                answers.append(
                    (
                        engine.quantiles([0.1, 0.5, 0.9]),
                        engine.rank_many(values[:5]),
                        [entry["items"] for entry in engine.stats()["shards"]],
                    )
                )
        assert answers[0] == answers[1]


class TestThreadPool:
    def test_one_pool_per_executor_then_inline_after_close(
        self, tmp_path, monkeypatch
    ):
        pools = []
        maps = []

        class CountingPool(engine_module.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

            def map(self, *args, **kwargs):
                maps.append(self)
                return super().map(*args, **kwargs)

        monkeypatch.setattr(engine_module, "ThreadPoolExecutor", CountingPool)
        engines = {
            workers: ShardedQuantileEngine(
                EngineConfig(summary="gk", epsilon=0.05, shards=4, workers=workers)
            )
            for workers in (1, 2)
        }
        values = _values(5000)
        for start in range(0, 4000, 200):  # 20 ingest calls
            for engine in engines.values():
                engine.ingest(values[start : start + 200])
        assert len(pools) == 1
        assert len(maps) == 20
        engines[2].close()
        engines[2].close()  # idempotent
        for engine in engines.values():
            engine.ingest(values[4000:])
        assert len(pools) == 1
        assert len(maps) == 20  # a closed engine feeds its shards inline
        for workers, engine in engines.items():
            engine.checkpoint(tmp_path / f"workers-{workers}.jsonl")
        assert _shard_records(tmp_path / "workers-1.jsonl") == _shard_records(
            tmp_path / "workers-2.jsonl"
        )
