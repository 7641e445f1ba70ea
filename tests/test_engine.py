"""The sharded quantile-aggregation engine (repro.engine)."""

import json
import random
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    EngineConfig,
    ShardedQuantileEngine,
    Telemetry,
    fold_shards,
    read_checkpoint,
    route_batch,
)
from repro.engine.engine import as_fraction
from repro.engine.routing import fast_int_buckets
from repro.errors import CheckpointError, EngineError
from repro.model.registry import create_summary
from repro.universe.item import key_of
from repro.universe.universe import Universe


def _values(n, seed=7, bound=10**6):
    rng = random.Random(seed)
    return [rng.randint(0, bound) for _ in range(n)]


class TestConfig:
    def test_defaults_validate(self):
        config = EngineConfig()
        assert config.validate() is config

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"summary": "nope"}, "unknown summary"),
            ({"summary": "qdigest"}, "no registered merge"),
            ({"shards": 0}, "shards"),
            ({"workers": -1}, "workers"),
            ({"batch_size": 0}, "batch_size"),
            ({"epsilon": 0.0}, "epsilon"),
            ({"epsilon": 1.5}, "epsilon"),
            ({"workers": 0}, "workers"),
        ],
    )
    def test_bad_config_raises_engine_error(self, kwargs, fragment):
        with pytest.raises(EngineError, match=fragment):
            EngineConfig(**kwargs).validate()

    def test_payload_round_trip(self):
        config = EngineConfig(
            summary="kll", epsilon=0.02, shards=3, workers=2,
            seed=9, batch_size=128,
        )
        assert EngineConfig.from_payload(config.to_payload()) == config

    def test_retired_processes_executor_builds_as_thread(self):
        # A ``processes`` config kept its ``workers``: it restores onto a
        # pool of that many threads, and writes no executor key again.
        payload = EngineConfig(summary="kll", workers=2).to_payload()
        payload["executor"] = "processes"
        config = EngineConfig.from_payload(payload)
        assert config == EngineConfig(summary="kll", workers=2)
        assert "executor" not in config.to_payload()

    def test_seeded_summaries_get_distinct_shard_seeds(self):
        config = EngineConfig(summary="kll", seed=100)
        assert config.shard_kwargs(0)["seed"] == 100
        assert config.shard_kwargs(3)["seed"] == 103

    def test_unseeded_summaries_get_no_seed_kwarg(self):
        config = EngineConfig(summary="gk", seed=100)
        assert "seed" not in config.shard_kwargs(0)


class TestRouting:
    def test_round_robin_continues_across_batches(self):
        values = [Fraction(v) for v in range(10)]
        whole = route_batch(values, 3, 0)
        assert whole == [values[0::3], values[1::3], values[2::3]]
        first = route_batch(values[:4], 3, 0)
        second = route_batch(values[4:], 3, 4)
        combined = [a + b for a, b in zip(first, second)]
        assert combined == whole

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


class TestMergeTree:
    def _shards(self, count, per_shard=200):
        shards = []
        for index in range(count):
            universe = Universe()
            summary = create_summary("gk", 1 / 16)
            summary.process_all(
                universe.items(_values(per_shard, seed=index))
            )
            shards.append(summary)
        return shards

    def test_fold_preserves_total_count(self):
        for count in (1, 2, 3, 5, 8):
            shards = self._shards(count)
            total = sum(shard.n for shard in shards)
            assert fold_shards(shards).n == total

    def test_single_shard_is_returned_unmerged(self):
        (shard,) = self._shards(1)
        assert fold_shards([shard]) is shard

    def test_merge_callback_counts_merges(self):
        shards = self._shards(5)
        calls = []
        fold_shards(shards, on_merge=lambda: calls.append(1))
        assert len(calls) == 4  # k summaries always need k-1 merges

    def test_empty_fold_raises(self):
        with pytest.raises(ValueError):
            fold_shards([])


class TestTelemetry:
    def test_counters_and_latency_quantiles(self):
        telemetry = Telemetry()
        telemetry.count("widgets", 3)
        telemetry.count("widgets")
        for ns in range(1000, 2000, 10):
            telemetry.record_latency("op", ns)
        assert telemetry.counters["widgets"] == 4
        quantiles = telemetry.latency_quantiles("op")
        assert set(quantiles) == {"p50", "p90", "p99"}
        assert 1.0 <= quantiles["p50"] <= 2.0  # microseconds

    def test_snapshot_is_json_compatible(self):
        telemetry = Telemetry()
        telemetry.record_batch_size(100)
        telemetry.record_latency("ingest", 5000)
        json.dumps(telemetry.snapshot())

    def test_empty_operation_reports_empty(self):
        assert Telemetry().latency_quantiles("never") == {}

    def test_payload_round_trip_preserves_distributions(self):
        telemetry = Telemetry()
        telemetry.count("items", 42)
        for ns in range(0, 100_000, 97):
            telemetry.record_latency("op", ns)
            telemetry.record_batch_size(ns % 512)
        restored = Telemetry.from_payload(telemetry.to_payload())
        assert restored.counters == telemetry.counters
        assert restored.snapshot() == telemetry.snapshot()

    def test_timed_context_manager_records(self):
        telemetry = Telemetry()
        with telemetry.timed("block"):
            pass
        assert telemetry.snapshot()["latency_us"]["block"]["observations"] == 1


class TestEngineIngestAndQuery:
    def test_serial_ingest_partitions_every_item(self):
        engine = ShardedQuantileEngine(EngineConfig(summary="gk", shards=4))
        report = engine.ingest(_values(5000))
        assert report.items == 5000
        assert sum(report.shard_counts) == 5000
        assert engine.items_ingested == 5000

    def test_executors_agree_exactly(self):
        values = _values(6000)
        answers = []
        for workers in (1, 4):
            with ShardedQuantileEngine(
                EngineConfig(
                    summary="kll", shards=4, workers=workers,
                    seed=5, batch_size=1000,
                )
            ) as engine:
                engine.ingest(values)
                answers.append(engine.quantiles([0.1, 0.5, 0.9]))
        assert answers[0] == answers[1]

    def test_reruns_are_bit_identical(self):
        values = _values(3000)

        def fingerprints():
            engine = ShardedQuantileEngine(
                EngineConfig(summary="kll", shards=3, seed=2)
            )
            engine.ingest(values)
            return [shard.fingerprint() for shard in engine.shard_summaries]

        assert fingerprints() == fingerprints()

    def test_round_robin_balances_exactly(self):
        engine = ShardedQuantileEngine(EngineConfig(summary="gk", shards=4))
        report = engine.ingest(_values(1000))
        assert report.shard_counts == [250, 250, 250, 250]

    def test_query_matches_unsharded_epsilon_bound(self):
        values = _values(8000)
        epsilon = 1 / 32
        engine = ShardedQuantileEngine(
            EngineConfig(summary="gk", epsilon=epsilon, shards=4)
        )
        engine.ingest(values)
        n = len(values)
        for phi in (0.01, 0.25, 0.5, 0.75, 0.99):
            answer = engine.query(phi)
            # the answer's exact rank is the interval [#(v < a) + 1, #(v <= a)]
            # under ties; an eps-approximate quantile's interval must come
            # within eps*n of phi*n
            below = sum(1 for v in values if v < answer)
            at_most = sum(1 for v in values if v <= answer)
            assert below - epsilon * n <= phi * n <= at_most + epsilon * n + 1, phi

    def test_rank_estimates_within_bound(self):
        values = _values(4000)
        n = len(values)
        engine = ShardedQuantileEngine(
            EngineConfig(summary="gk", epsilon=1 / 16, shards=4)
        )
        engine.ingest(values)
        for probe in (0, 250_000, 500_000, 999_999):
            below = sum(1 for v in values if v < probe)
            at_most = sum(1 for v in values if v <= probe)
            estimate = engine.rank(probe)
            assert below - n / 16 - 1 <= estimate <= at_most + n / 16 + 1

    def test_merged_summary_cache_invalidated_by_ingest(self):
        engine = ShardedQuantileEngine(EngineConfig(summary="gk", shards=2))
        engine.ingest(_values(100))
        first = engine.merged_summary()
        assert engine.merged_summary() is first
        engine.ingest(_values(100, seed=8))
        assert engine.merged_summary() is not first

    def test_float_and_string_inputs_are_normalised(self):
        engine = ShardedQuantileEngine(EngineConfig(summary="exact", shards=2))
        engine.ingest([0.1, "1/3", 2, Fraction(5, 7)])
        assert engine.items_ingested == 4
        assert as_fraction(0.1) == Fraction(1, 10)

    def test_bad_batch_size_raises(self):
        engine = ShardedQuantileEngine()
        with pytest.raises(EngineError, match="batch_size"):
            engine.ingest([1, 2, 3], batch_size=0)

    def test_stats_shape(self):
        engine = ShardedQuantileEngine(EngineConfig(summary="gk", shards=2))
        engine.ingest(_values(500))
        engine.query(0.5)
        stats = engine.stats()
        json.dumps(stats)
        assert stats["items_ingested"] == 500
        assert len(stats["shards"]) == 2
        assert stats["telemetry"]["counters"]["queries_answered"] == 1
        assert "ingest_batch" in stats["telemetry"]["latency_us"]


class TestCheckpointRestore:
    def _engine(self, tmp_path, summary="kll"):
        engine = ShardedQuantileEngine(
            EngineConfig(summary=summary, shards=4, seed=3, batch_size=512)
        )
        engine.ingest(_values(4000))
        return engine

    @pytest.mark.parametrize("summary", ["gk", "kll", "exact"])
    def test_restore_answers_identically(self, tmp_path, summary):
        engine = self._engine(tmp_path, summary)
        path = tmp_path / "ck.jsonl"
        engine.checkpoint(path)
        restored = ShardedQuantileEngine.restore(path)
        phis = [0.05, 0.25, 0.5, 0.75, 0.95]
        assert restored.quantiles(phis) == engine.quantiles(phis)
        assert restored.items_ingested == engine.items_ingested
        assert [s.fingerprint() for s in restored.shard_summaries] == [
            s.fingerprint() for s in engine.shard_summaries
        ]
        # checkpoint -> restore -> checkpoint leaves the shard records as
        # they were, epsilon included.
        again = tmp_path / "again.jsonl"
        restored.checkpoint(again)
        assert read_checkpoint(again)["shard_payloads"] == read_checkpoint(
            path
        )["shard_payloads"]

    def test_mid_run_checkpoint_then_resume_matches_straight_run(self, tmp_path):
        values = _values(6000)
        straight = ShardedQuantileEngine(
            EngineConfig(summary="kll", shards=4, seed=3)
        )
        straight.ingest(values)

        interrupted = ShardedQuantileEngine(
            EngineConfig(summary="kll", shards=4, seed=3)
        )
        interrupted.ingest(values[:2500])
        path = tmp_path / "mid.jsonl"
        interrupted.checkpoint(path)
        resumed = ShardedQuantileEngine.restore(path)
        resumed.ingest(values[2500:])
        phis = [0.1, 0.5, 0.9]
        assert resumed.quantiles(phis) == straight.quantiles(phis)

    def test_checkpoint_preserves_telemetry(self, tmp_path):
        engine = self._engine(tmp_path)
        engine.query(0.5)
        path = tmp_path / "ck.jsonl"
        engine.checkpoint(path)
        restored = ShardedQuantileEngine.restore(path)
        assert restored.telemetry.counters["items_ingested"] == 4000
        assert restored.telemetry.counters["restores"] == 1
        assert restored.telemetry.latency_quantiles("ingest_batch")

    def test_telemetry_snapshot_survives_the_checkpoint_file_exactly(self, tmp_path):
        engine = self._engine(tmp_path)
        engine.query(0.5)
        before = engine.telemetry.snapshot()
        path = tmp_path / "ck.jsonl"
        engine.checkpoint(path)
        reloaded = read_checkpoint(path)["telemetry"]
        assert reloaded.snapshot() == before
        # ... and re-serialising the reloaded state is byte-stable.
        assert json.dumps(reloaded.to_payload()) == json.dumps(
            Telemetry.from_payload(reloaded.to_payload()).to_payload()
        )

    def test_checkpoint_write_is_atomic(self, tmp_path):
        engine = self._engine(tmp_path)
        path = tmp_path / "ck.jsonl"
        engine.checkpoint(path)
        assert not path.with_name(path.name + ".tmp").exists()
        parts = read_checkpoint(path)
        assert parts["items_ingested"] == 4000

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            ShardedQuantileEngine.restore(tmp_path / "absent.jsonl")

    def test_truncated_checkpoint_raises(self, tmp_path):
        engine = self._engine(tmp_path)
        path = tmp_path / "ck.jsonl"
        engine.checkpoint(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")  # drop shards 2,3 + telemetry
        with pytest.raises(CheckpointError, match="missing shards"):
            read_checkpoint(path)

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(CheckpointError, match="JSONL"):
            read_checkpoint(path)

    def test_wrong_header_raises(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text(json.dumps({"kind": "something-else"}) + "\n")
        with pytest.raises(CheckpointError, match="header"):
            read_checkpoint(path)


class TestShardedGuaranteeProperty:
    """Satellite property: sharded answers stay within the merged bound.

    The engine's rank estimates must stay within ``epsilon * n`` of exact
    offline ranks (GK's merge keeps the max input epsilon), for any shard
    count, including odd ones whose balanced fold carries a shard up a level
    unmerged.
    """

    @settings(max_examples=15, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=50, max_size=400
        ),
        shards=st.integers(min_value=1, max_value=6),
    )
    def test_rank_within_epsilon_of_exact(self, values, shards):
        epsilon = 1 / 8
        n = len(values)
        ordered = sorted(values)
        probes = [ordered[0], ordered[n // 4], ordered[n // 2], ordered[-1]]
        engine = ShardedQuantileEngine(
            EngineConfig(
                summary="gk", epsilon=epsilon, shards=shards, batch_size=64,
            )
        )
        engine.ingest(values)
        for probe in probes:
            # under ties the exact rank is an interval; the estimate
            # must come within eps*n of it
            below = sum(1 for v in values if v < probe)
            at_most = sum(1 for v in values if v <= probe)
            estimate = engine.rank(probe)
            assert below - epsilon * n - 1 <= estimate, (probe, estimate, below)
            assert estimate <= at_most + epsilon * n + 1, (probe, estimate, at_most)

    @settings(max_examples=10, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=5_000), min_size=60, max_size=300
        ),
        shards=st.integers(min_value=2, max_value=5),
    )
    def test_quantile_answers_within_epsilon_rank_window(self, values, shards):
        epsilon = 1 / 8
        n = len(values)
        engine = ShardedQuantileEngine(
            EngineConfig(summary="gk", epsilon=epsilon, shards=shards)
        )
        engine.ingest(values)
        for phi in (0.1, 0.5, 0.9):
            answer = engine.query(phi)
            # an eps-approximate phi-quantile's exact rank interval (ties!)
            # must come within eps*n of phi*n (allow ceil slack for tiny n)
            below = sum(1 for v in values if v < answer)
            at_most = sum(1 for v in values if v <= answer)
            assert below - epsilon * n - 1 <= phi * n <= at_most + epsilon * n + 1

    def test_odd_shard_fold_preserves_the_guarantee(self):
        # five shards: the balanced fold carries the last shard up a level
        # unmerged, and every answer must still sit inside the eps window
        values = _values(2000)
        n = len(values)
        epsilon = 1 / 16
        engine = ShardedQuantileEngine(
            EngineConfig(summary="gk", epsilon=epsilon, shards=5)
        )
        engine.ingest(values)
        assert engine.merged_summary().n == n
        for phi in (0.1, 0.3, 0.5, 0.7, 0.9):
            answer = engine.query(phi)
            below = sum(1 for v in values if v < answer)
            at_most = sum(1 for v in values if v <= answer)
            assert below - epsilon * n <= phi * n <= at_most + epsilon * n + 1
