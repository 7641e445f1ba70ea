"""The shard-worker subsystem: executor factory, codec, bit-identity.

The load-bearing property here is the determinism contract: a shard is a
deterministic function of the value subsequence routed to it, so the
``processes`` executor — for all its pipelining, codec encodings and
int-lane routing — must leave byte-identical shard state behind.  Every
test in this file is some projection of that claim: identical checkpoint
records, identical answers, identical routing buckets.
"""

import random
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    EngineConfig,
    ShardedQuantileEngine,
    as_fraction,
    create_executor,
    executor_kinds,
    read_checkpoint,
    route_batch,
)
from repro.engine.routing import fast_int_buckets
from repro.engine.workers import inline
from repro.engine.workers.ipc import (
    MODE_INTS,
    MODE_PAIRS,
    decode_values,
    encode_fractions,
)
from repro.errors import EngineError


def _values(n, seed=7, bound=10**6):
    rng = random.Random(seed)
    return [rng.randint(0, bound) for _ in range(n)]


def _shard_records(path):
    return read_checkpoint(path)["shard_payloads"]


class TestExecutorFactory:
    def test_kinds_cover_the_config_choices(self):
        assert set(executor_kinds()) == {"serial", "thread", "processes"}

    def test_unknown_kind_raises_engine_error(self):
        config = EngineConfig(summary="gk")
        config.executor = "gpu"
        with pytest.raises(EngineError, match="gpu"):
            create_executor(config)

    def test_serial_is_the_default(self):
        engine = ShardedQuantileEngine(EngineConfig(summary="gk"))
        assert engine.executor.kind == "serial"
        assert engine.executor.remote is False


class TestCodec:
    def test_int_bucket_ships_bare_numerators(self):
        mode, payload = encode_fractions([Fraction(3), Fraction(-7)])
        assert (mode, payload) == (MODE_INTS, [3, -7])
        assert decode_values(mode, payload) == [Fraction(3), Fraction(-7)]

    def test_mixed_bucket_ships_pairs(self):
        values = [Fraction(3), Fraction(1, 2)]
        mode, payload = encode_fractions(values)
        assert mode == MODE_PAIRS
        assert payload == [(3, 1), (1, 2)]
        assert decode_values(mode, payload) == values

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="encoding"):
            decode_values("utf-8", [1])

    def test_vectorised_buckets_match_the_reference(self):
        # Negatives and the full int64 range in play, as an int list and
        # as an ``array('q')``; bools and int-valued floats are accepted
        # because their Fraction image is identical.
        rng = random.Random(5)
        ints = [rng.randint(-(2**63), 2**63 - 1) for _ in range(3000)]
        expected = route_batch([Fraction(v) for v in ints], 5, 42)
        for values in (ints, array("q", ints)):
            fast = fast_int_buckets(values, 5, 42)
            assert all(type(b) is array and b.typecode == "q" for b in fast)
            assert [[Fraction(v) for v in b] for b in fast] == expected
        values = ints + [True, False, 7.0]
        fast = fast_int_buckets(values, 5, 42)
        expected = route_batch([Fraction(v) for v in values], 5, 42)
        assert [[Fraction(v) for v in b] for b in fast] == expected

    def test_vectorised_buckets_reject_unfaithful_values(self):
        assert fast_int_buckets([1.5] * 3000, 3, 0) is None
        assert fast_int_buckets(["2"] * 3000, 3, 0) is None

    @pytest.mark.parametrize(
        "kind, accepted",
        [
            ("ints", True),
            ("bools", True),
            ("int-valued floats", True),
            ("integral fractions", True),
            ("huge ints", True),
            ("non-integral floats", False),
            ("non-integral fractions", False),
            ("numeric strings", False),
            ("nan", False),
        ],
    )
    def test_int_faithfulness_does_not_depend_on_batch_length(self, kind, accepted):
        def make(length):
            rng = random.Random(length)
            draw = {
                "ints": lambda: rng.randint(-(10**9), 10**9),
                "bools": lambda: rng.random() < 0.5,
                "int-valued floats": lambda: float(rng.randint(-(10**9), 10**9)),
                "integral fractions": lambda: Fraction(rng.randint(-50, 50) * 6, 3),
                "huge ints": lambda: 2**70 + rng.randint(0, 10**6),
                "non-integral floats": lambda: rng.randint(0, 99) + 0.5,
                "non-integral fractions": lambda: Fraction(rng.randint(0, 99), 7),
                "numeric strings": lambda: str(rng.randint(0, 99)),
                "nan": lambda: float("nan"),
            }[kind]
            # Lead with plain ints so a refusal is decided by the kind alone.
            return [1, 2, 3] + [draw() for _ in range(length - 3)]

        for length in (10, 2000):
            values = make(length)
            buckets = fast_int_buckets(values, 3, 17)
            assert (buckets is not None) is accepted, length
            if buckets is not None:
                expected = route_batch([as_fraction(v) for v in values], 3, 17)
                assert [[Fraction(v) for v in b] for b in buckets] == expected

    def test_huge_ints_fall_back_to_the_pure_python_path(self):
        values = [2**70 + i for i in range(2000)]
        fast = fast_int_buckets(values, 3, 0)
        expected = route_batch([Fraction(v) for v in values], 3, 0)
        assert [[Fraction(v) for v in b] for b in fast] == expected


class TestProcessPoolBitIdentity:
    @pytest.mark.parametrize("summary", ["gk", "kll"])
    def test_checkpoints_are_byte_identical_to_serial(self, tmp_path, summary):
        values = _values(4000)
        paths = {}
        for executor, workers in (("serial", 1), ("processes", 3)):
            config = EngineConfig(
                summary=summary, epsilon=0.05, shards=4,
                executor=executor, workers=workers, seed=3, batch_size=512,
            )
            with ShardedQuantileEngine(config) as engine:
                engine.ingest(values)
                path = tmp_path / f"{executor}.jsonl"
                engine.checkpoint(path)
                paths[executor] = path
        assert _shard_records(paths["serial"]) == _shard_records(
            paths["processes"]
        )

    def test_mixed_value_types_take_the_pairs_path_identically(self, tmp_path):
        values = []
        rng = random.Random(11)
        for _ in range(1500):
            values.append(rng.randint(0, 10**6))
            values.append(Fraction(rng.randint(0, 100), rng.randint(1, 7)))
            values.append(rng.random())
        paths = {}
        for executor in ("serial", "processes"):
            config = EngineConfig(
                summary="gk", epsilon=0.05, shards=3,
                executor=executor, workers=2, batch_size=700,
            )
            with ShardedQuantileEngine(config) as engine:
                engine.ingest(values)
                path = tmp_path / f"{executor}.jsonl"
                engine.checkpoint(path)
                paths[executor] = path
        assert _shard_records(paths["serial"]) == _shard_records(
            paths["processes"]
        )

    def test_queries_match_serial_between_ingests(self):
        values = _values(6000)
        serial = ShardedQuantileEngine(
            EngineConfig(summary="gk", shards=4, epsilon=0.02)
        )
        config = EngineConfig(
            summary="gk", shards=4, epsilon=0.02,
            executor="processes", workers=2,
        )
        with ShardedQuantileEngine(config) as pooled:
            serial.ingest(values[:3000])
            pooled.ingest(values[:3000])
            phis = [0.05, 0.25, 0.5, 0.75, 0.95]
            assert serial.quantiles(phis) == pooled.quantiles(phis)
            probes = [values[1], values[100], values[2999]]
            assert serial.rank_many(probes) == pooled.rank_many(probes)
            # A second ingest after the mid-run read must keep agreeing:
            # collected state flows back out to the workers' coordinator
            # copy without forking history.
            serial.ingest(values[3000:])
            pooled.ingest(values[3000:])
            assert serial.quantiles(phis) == pooled.quantiles(phis)
            assert serial.rank_many(probes) == pooled.rank_many(probes)

    def test_restore_round_trips_through_worker_state(self, tmp_path):
        values = _values(3000)
        config = EngineConfig(
            summary="kll", shards=3, seed=9,
            executor="processes", workers=2,
        )
        path = tmp_path / "ckpt.jsonl"
        with ShardedQuantileEngine(config) as engine:
            engine.ingest(values[:2000])
            engine.checkpoint(path)
        with ShardedQuantileEngine.restore(path) as resumed:
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
    def test_collected_shards_keep_the_engine_lane(self, kind, lane):
        # The input picks the lane.  Collected payloads decode into the items
        # lane, so the mirror must be promoted the way a restore is, or
        # every read folds Item keys; non-integral state must stay put.
        values = {
            "ints": _values(3000),
            "int-valued floats": [float(v) for v in _values(3000)],
            "integral fractions": [Fraction(v) for v in _values(3000)],
            "halves": [Fraction(v, 2) for v in _values(3000, bound=10**4)],
        }[kind]
        for executor in ("serial", "thread", "processes"):
            config = EngineConfig(
                summary="kll", shards=2, seed=5, executor=executor, workers=2,
            )
            with ShardedQuantileEngine(config) as engine:
                engine.ingest(values, batch_size=700)
                lanes = [entry["lane"] for entry in engine.stats()["shards"]]
            assert lanes == [lane, lane], executor

    @settings(max_examples=8, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=30, max_size=150
        ),
        shards=st.integers(min_value=1, max_value=4),
    )
    def test_executor_axis_preserves_every_answer(self, values, shards):
        answers = []
        for executor in ("serial", "processes"):
            config = EngineConfig(
                summary="gk", epsilon=0.1, shards=shards,
                executor=executor, workers=2, batch_size=32,
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


class TestThreadExecutor:
    def test_one_pool_per_executor_then_inline_after_close(
        self, tmp_path, monkeypatch
    ):
        pools = []

        class CountingPool(inline.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(inline, "ThreadPoolExecutor", CountingPool)
        engines = {
            executor: ShardedQuantileEngine(
                EngineConfig(
                    summary="gk", epsilon=0.05, shards=4,
                    executor=executor, workers=2,
                )
            )
            for executor in ("serial", "thread")
        }
        values = _values(5000)
        for start in range(0, 4000, 200):  # 20 ingest calls
            for engine in engines.values():
                engine.ingest(values[start : start + 200])
        assert len(pools) == 1
        engines["thread"].close()
        for engine in engines.values():
            engine.ingest(values[4000:])
        assert len(pools) == 1
        for executor, engine in engines.items():
            engine.checkpoint(tmp_path / f"{executor}.jsonl")
        assert _shard_records(tmp_path / "serial.jsonl") == _shard_records(
            tmp_path / "thread.jsonl"
        )


class TestWorkerTelemetry:
    def test_worker_metrics_merge_on_drain(self):
        config = EngineConfig(
            summary="gk", shards=2, executor="processes", workers=2,
        )
        with ShardedQuantileEngine(config) as engine:
            engine.ingest(_values(2000))
            engine.stats()  # drains worker state + telemetry deltas
            registry = engine.telemetry.registry
            applied = sum(
                metric.value
                for metric in registry
                if metric.name == "worker_items_total"
            )
            assert applied == 2000
            seconds = [
                metric
                for metric in registry
                if metric.name == "worker_batch_seconds"
            ]
            assert seconds and all(
                metric.observations > 0 for metric in seconds
            )

    def test_executor_stats_shape(self):
        config = EngineConfig(
            summary="gk", shards=4, executor="processes", workers=2,
        )
        with ShardedQuantileEngine(config) as engine:
            engine.ingest(_values(500))
            description = engine.stats()["executor"]
            assert description["kind"] == "processes"
            assert description["workers"] == 2
            assert description["restarts"] == 0
            assert len(description["pids"]) == 2
            assert all(isinstance(pid, int) for pid in description["pids"])

    def test_health_check_reports_every_worker(self):
        config = EngineConfig(
            summary="gk", shards=3, executor="processes", workers=3,
        )
        with ShardedQuantileEngine(config) as engine:
            engine.ingest(_values(300))
            report = engine.executor.health_check()
            assert [entry["worker"] for entry in report] == [0, 1, 2]
            assert all(entry["restarted"] is False for entry in report)
            assert sorted(
                index
                for entry in report
                for index in entry["shards"]
            ) == [0, 1, 2]
