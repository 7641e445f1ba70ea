"""Crash injection against the shard-worker supervisor.

A worker SIGKILLed mid-ingest must be restarted from its last state
snapshot with the logged batches replayed — and because each shard is a
deterministic function of its routed subsequence, the recovered engine
must end bit-identical to an uncrashed serial run, not merely within
epsilon.  These tests shrink the snapshot cadence through
``REPRO_WORKER_SNAPSHOT_EVERY`` so both recovery paths (snapshot restore
and log replay) are exercised on small streams.
"""

import json
import os
import signal
import time

import pytest

from repro.engine import EngineConfig, ShardedQuantileEngine
from repro.persistence import dump as dump_summary

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _values(n, seed=19):
    import random

    rng = random.Random(seed)
    return [rng.randint(0, 10**6) for _ in range(n)]


@pytest.fixture
def tight_snapshots(monkeypatch):
    monkeypatch.setenv("REPRO_WORKER_SNAPSHOT_EVERY", "4")


def _wait_for_death(pid, timeout=5.0):
    # The worker stays a zombie until the supervisor reaps it on restart,
    # so "dead" here means gone *or* zombie (state Z in /proc).
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                state = stat.read().rsplit(")", 1)[1].split()[0]
        except (FileNotFoundError, ProcessLookupError):
            return
        if state == "Z":
            return
        time.sleep(0.01)
    raise AssertionError(f"worker {pid} survived SIGKILL")


class TestCrashRecovery:
    def test_sigkill_mid_ingest_recovers_bit_identically(self, tight_snapshots):
        values = _values(12_000)
        serial = ShardedQuantileEngine(
            EngineConfig(summary="gk", epsilon=0.02, shards=4)
        )
        serial.ingest(values)

        config = EngineConfig(
            summary="gk", epsilon=0.02, shards=4,
            executor="processes", workers=2, batch_size=500,
        )
        with ShardedQuantileEngine(config) as engine:
            engine.ingest(values[:6000])
            victim = engine.executor.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            _wait_for_death(victim)
            engine.ingest(values[6000:])

            assert engine.stats()["executor"]["restarts"] >= 1
            phis = [0.05, 0.25, 0.5, 0.75, 0.95]
            assert engine.quantiles(phis) == serial.quantiles(phis)
            probes = [values[0], values[123], values[-1]]
            assert engine.rank_many(probes) == serial.rank_many(probes)

    def test_recovered_answers_meet_epsilon(self, tight_snapshots):
        epsilon = 0.05
        values = _values(8000, seed=23)
        n = len(values)
        ordered = sorted(values)
        config = EngineConfig(
            summary="gk", epsilon=epsilon, shards=3,
            executor="processes", workers=3, batch_size=400,
        )
        with ShardedQuantileEngine(config) as engine:
            engine.ingest(values[: n // 2])
            for victim in engine.executor.worker_pids()[:2]:
                os.kill(victim, signal.SIGKILL)
                _wait_for_death(victim)
            engine.ingest(values[n // 2 :])
            for phi in (0.1, 0.5, 0.9):
                answer = engine.query(phi)
                below = sum(1 for v in ordered if v < answer)
                at_most = sum(1 for v in ordered if v <= answer)
                assert (
                    below - epsilon * n - 1
                    <= phi * n
                    <= at_most + epsilon * n + 1
                )

    def test_restart_metrics_and_snapshots_are_counted(self, tight_snapshots):
        config = EngineConfig(
            summary="gk", epsilon=0.05, shards=2,
            executor="processes", workers=2, batch_size=250,
        )
        with ShardedQuantileEngine(config) as engine:
            engine.ingest(_values(5000))
            engine.stats()  # drain worker state so counters are current
            registry = engine.telemetry.registry
            snapshots = sum(
                metric.value
                for metric in registry
                if metric.name == "worker_snapshots_total"
            )
            assert snapshots >= 1  # cadence 4 over 10 batches per worker

            victim = engine.executor.worker_pids()[1]
            os.kill(victim, signal.SIGKILL)
            _wait_for_death(victim)
            engine.ingest(_values(1000, seed=3))

            restarts = registry.get("worker_restarts_total", worker="1")
            assert restarts is not None and restarts.value >= 1
            report = engine.executor.health_check()
            assert all(entry["pid"] is not None for entry in report)

    def test_kill_during_health_check_restarts_cleanly(self, tight_snapshots):
        # Long enough for thousands of coin flips per shard, so a restarted
        # worker that resumed from the wrong RNG state diverges visibly.
        first, second = _values(12_000), _values(4000, seed=2)
        config = EngineConfig(
            summary="kll", epsilon=0.05, shards=2, seed=1,
            executor="processes", workers=2, batch_size=500,
        )
        with ShardedQuantileEngine(config) as engine:
            engine.ingest(first)
            before = engine.executor.worker_pids()
            for pid in before:
                os.kill(pid, signal.SIGKILL)
                _wait_for_death(pid)
            report = engine.executor.health_check()
            assert all(entry["restarted"] for entry in report)
            after = engine.executor.worker_pids()
            assert all(pid is not None for pid in after)
            assert set(after).isdisjoint(before)
            # The fleet keeps working after a full massacre.
            engine.ingest(second)
            straight = ShardedQuantileEngine(
                EngineConfig(
                    summary="kll", epsilon=0.05, shards=2, seed=1, batch_size=500
                )
            )
            straight.ingest(first + second)
            assert all(
                shard._rng_draws >= 1000 for shard in straight.shard_summaries
            )
            assert _shard_payloads(engine) == _shard_payloads(straight)
            assert engine.quantiles([0.25, 0.75]) == straight.quantiles(
                [0.25, 0.75]
            )


def _shard_payloads(engine):
    """Canonical JSON per shard — the bit-identity yardstick."""
    return [
        json.dumps(dump_summary(summary), sort_keys=True)
        for summary in engine.shard_summaries
    ]
