"""Checkpoint → restore → continued ingest, plus input-validation hardening.

The centrepiece is the round-robin resumption guarantee: an engine restored
from a checkpoint must route every subsequent item to the *same* shard the
uninterrupted engine would have chosen, because routing continues from the
persisted lifetime item count.  The final shard states must be bit-identical
(compared via their persistence payloads) to a run that never stopped.
"""

import json
import math
from dataclasses import replace

import pytest

from repro.engine import EngineConfig, ShardedQuantileEngine
from repro.engine.engine import as_fraction
from repro.errors import EngineError
from repro.persistence import dump as dump_summary


def make_engine(shards: int = 3) -> ShardedQuantileEngine:
    return ShardedQuantileEngine(
        EngineConfig(summary="gk", epsilon=0.05, shards=shards)
    )


def shard_payloads(engine: ShardedQuantileEngine) -> list[str]:
    """Canonical JSON per shard — the bit-identity yardstick."""
    return [
        json.dumps(dump_summary(summary), sort_keys=True)
        for summary in engine.shard_summaries
    ]


class TestRestoreContinuesRoundRobin:
    @pytest.mark.parametrize("split", [1, 250, 499, 500])
    def test_interrupted_run_matches_uninterrupted(self, tmp_path, split):
        values = list(range(1, 501))

        straight = make_engine()
        straight.ingest(values)

        interrupted = make_engine()
        interrupted.ingest(values[:split])
        path = tmp_path / "mid.jsonl"
        interrupted.checkpoint(path)

        restored = ShardedQuantileEngine.restore(path)
        assert restored.items_ingested == split
        restored.ingest(values[split:])

        assert restored.items_ingested == straight.items_ingested == 500
        assert shard_payloads(restored) == shard_payloads(straight)

    def test_restore_resumes_shard_assignment_from_lifetime_count(self, tmp_path):
        # 7 items over 3 shards: item 8 (index 7) must land on shard 1,
        # exactly as if ingest had never paused.
        engine = make_engine()
        engine.ingest(range(7))
        path = tmp_path / "seven.jsonl"
        engine.checkpoint(path)

        restored = ShardedQuantileEngine.restore(path)
        before = [summary.n for summary in restored.shard_summaries]
        restored.ingest([999])
        after = [summary.n for summary in restored.shard_summaries]
        grew = [i for i, (a, b) in enumerate(zip(before, after)) if b > a]
        assert grew == [7 % 3]

    def test_restored_engine_answers_identically(self, tmp_path):
        straight = make_engine()
        straight.ingest(range(1, 1001))

        interrupted = make_engine()
        interrupted.ingest(range(1, 401))
        path = tmp_path / "answers.jsonl"
        interrupted.checkpoint(path)
        restored = ShardedQuantileEngine.restore(path)
        restored.ingest(range(401, 1001))

        for phi in (0.01, 0.25, 0.5, 0.75, 0.99):
            assert restored.query(phi) == straight.query(phi)
        assert restored.rank(500) == straight.rank(500)


def rewrite_config(path, **changes) -> None:
    """Edit a checkpoint's header config in place, as an older writer would."""
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["config"].update(changes)
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")


class TestLegacyCheckpoints:
    """Checkpoints naming retired settings: a lane, an executor (``serial``,
    ``thread``, ``process`` or ``processes``), a routing or a merge
    strategy.  Each restores with ``workers`` as written, then routes by
    arrival and folds balanced.
    """

    @pytest.mark.parametrize(
        "changes",
        [
            {"lane": "items"},
            {"lane": "columnar"},
            {"executor": "process"},
            {"executor": "process", "lane": "items"},
            {"routing": "hash"},
            {"routing": "round-robin"},
            {"merge_strategy": "left"},
            {"executor": "processes", "workers": 2},
            {"executor": "serial", "workers": 3},
            {"executor": "thread", "workers": 1},
        ],
    )
    def test_legacy_config_restores_to_the_same_answers(self, tmp_path, changes):
        values = [v * 7919 % 100_003 for v in range(3000)]
        straight = make_engine()
        straight.ingest(values)

        interrupted = make_engine()
        interrupted.ingest(values[:1000])
        path = tmp_path / "legacy.jsonl"
        interrupted.checkpoint(path)
        rewrite_config(path, **changes)

        restored = ShardedQuantileEngine.restore(path)
        # Shard payloads do not depend on the thread that built them, so
        # every retired executor restores with its ``workers`` as written.
        assert restored.config == replace(
            interrupted.config,
            workers=changes.get("workers", interrupted.config.workers),
        )
        restored.ingest(values[1000:])
        assert shard_payloads(restored) == shard_payloads(straight)
        phis = [0.01, 0.25, 0.5, 0.75, 0.99]
        assert restored.quantiles(phis) == straight.quantiles(phis)

        # Writing the restored engine out again drops the legacy keys.
        again = tmp_path / "again.jsonl"
        restored.checkpoint(again)
        header = json.loads(again.read_text().splitlines()[0])
        for retired in ("lane", "routing", "merge_strategy", "executor"):
            assert retired not in header["config"]
        restored.close()

    def test_process_executor_is_not_a_config_choice(self):
        with pytest.raises(TypeError, match="executor"):
            EngineConfig(summary="gk", executor="process")


class TestAsFractionErrors:
    @pytest.mark.parametrize("bad", ["abc", "1/0", "", "1.2.3", None, object()])
    def test_malformed_input_raises_engine_error_naming_the_value(self, bad):
        with pytest.raises(EngineError, match="cannot interpret"):
            as_fraction(bad)

    def test_nan_and_infinity_raise_engine_error(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(EngineError, match="cannot interpret"):
                as_fraction(bad)

    def test_error_message_names_the_offending_value(self):
        with pytest.raises(EngineError, match="'1/0'"):
            as_fraction("1/0")

    def test_well_formed_inputs_still_convert(self):
        from fractions import Fraction

        assert as_fraction("7/2") == Fraction(7, 2)
        assert as_fraction(3) == Fraction(3)
        assert as_fraction(0.5) == Fraction(1, 2)

    def test_bad_value_mid_batch_does_not_corrupt_the_engine(self):
        engine = make_engine()
        engine.ingest(range(10))
        with pytest.raises(EngineError):
            engine.ingest([10, "bogus", 12])
        # The failed batch is rejected atomically up-front or the engine
        # keeps serving; either way it must still answer queries.
        assert engine.query(0.5) is not None


class TestThroughputStats:
    def test_stats_expose_items_per_second(self):
        engine = make_engine()
        engine.ingest(range(1000))
        stats = engine.stats()
        throughput = stats["throughput"]
        assert throughput["ingest_seconds"] > 0
        assert throughput["items_per_second"] > 0

    def test_empty_engine_reports_no_throughput(self):
        stats = make_engine().stats()
        assert stats["throughput"]["items_per_second"] is None
