"""Connector-pipeline overhead vs a plain file-read ingest.

The connector framework buys durability — byte-accounted resumable
offsets, a dead-letter queue, per-batch checkpoints — and this benchmark
prices it.  The same JSONL stream is ingested three ways into identical
engines:

* **plain** — read the file, parse every line inline, one
  ``engine.ingest`` call (no durability at all: the baseline floor);
* **connector** — the full :class:`repro.connectors.runner.IngestRunner`
  path with offsets and a DLQ, checkpointing only at the end;
* **connector+checkpoint** — the exactly-once default, a checkpoint
  after every batch (the durability people actually run).

Final engine states are asserted identical before any timing is trusted.

    PYTHONPATH=src python benchmarks/bench_connectors.py            # full run
    PYTHONPATH=src python benchmarks/bench_connectors.py --smoke    # CI-sized

Plain and connector ingest are timed in ``ROUNDS`` alternating rounds and
the gate reads the median of the per-round ratios: one ~0.1 s timing pair
is too noisy to gate on (single pairs spread from 1.7x to 3.7x on an
unchanged tree on a 2-vCPU VM).  Each run appends an entry, every round
included, to ``benchmarks/results/BENCH_connectors.json`` and exits nonzero
if the median no-per-batch-checkpoint connector ratio exceeds
``--max-overhead`` (default 3.0x) of the plain read.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

CONNECTOR_RESULTS_PATH = (
    REPO_ROOT / "benchmarks" / "results" / "BENCH_connectors.json"
)

POISON_EVERY = 50  # one malformed line per POISON_EVERY records
ROUNDS = 5  # alternating plain/connector timing rounds; the gate reads the median


def _write_stream(path: Path, count: int, seed: int) -> None:
    import json
    import random

    rng = random.Random(seed)
    with open(path, "w") as handle:
        for i in range(count):
            if i % POISON_EVERY == POISON_EVERY - 1:
                handle.write("poison line %d\n" % i)
            else:
                handle.write(json.dumps({"value": rng.randint(0, 10**9)}) + "\n")


def _fresh_engine():
    from repro.engine import EngineConfig, ShardedQuantileEngine

    return ShardedQuantileEngine(EngineConfig(shards=4, batch_size=4096))


def _plain_ingest(source_path: Path) -> tuple:
    """The no-durability floor: parse inline, skip poison, one ingest call."""
    import json
    import time as _time

    from repro.engine.engine import as_fraction
    from repro.errors import MalformedRecordError

    engine = _fresh_engine()
    started = _time.perf_counter_ns()
    values = []
    with open(source_path) as handle:
        for line in handle:
            try:
                decoded = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(decoded, dict) or "value" not in decoded:
                continue
            try:
                values.append(as_fraction(decoded["value"]))
            except MalformedRecordError:
                continue
    engine.ingest(values)
    return engine, _time.perf_counter_ns() - started


def _connector_ingest(
    source_path: Path, work_dir: Path, label: str, checkpoint_every: int
) -> tuple:
    import time as _time

    from repro.connectors import (
        DeadLetterQueue,
        EngineSink,
        IngestRunner,
        JsonlSource,
        RunnerConfig,
    )

    engine = _fresh_engine()
    sink = EngineSink(engine, str(work_dir / f"{label}.ckpt.jsonl"))
    runner = IngestRunner(
        [JsonlSource(source_path, name="bench")],
        sink,
        dlq=DeadLetterQueue(work_dir / f"{label}.dlq.jsonl"),
        config=RunnerConfig(batch_size=4096, checkpoint_every=checkpoint_every),
    )
    started = _time.perf_counter_ns()
    report = runner.run()
    elapsed = _time.perf_counter_ns() - started
    assert report.dead_lettered == report.records // POISON_EVERY
    return engine, elapsed


def _state(engine) -> list:
    from repro.persistence import dump

    return [dump(summary) for summary in engine.shard_summaries]


def main(argv=None) -> int:
    import argparse
    import json
    import tempfile
    import time as _time

    parser = argparse.ArgumentParser(
        description="connector-pipeline overhead vs plain file ingest"
    )
    parser.add_argument("--n", type=int, default=300_000, help="records in the file")
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (n = 40k)"
    )
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=3.0,
        help="fail if connector/plain exceeds this ratio",
    )
    parser.add_argument(
        "--output",
        default=str(CONNECTOR_RESULTS_PATH),
        help="JSON history file to append to",
    )
    args = parser.parse_args(argv)

    count = 40_000 if args.smoke else args.n
    with tempfile.TemporaryDirectory(prefix="bench_connectors_") as work:
        work_dir = Path(work)
        source_path = work_dir / "stream.jsonl"
        _write_stream(source_path, count, args.seed)
        source_bytes = source_path.stat().st_size

        rounds = []
        for index in range(ROUNDS):
            plain_engine, plain_ns = _plain_ingest(source_path)
            connector_engine, connector_ns = _connector_ingest(
                source_path, work_dir, f"endonly{index}", checkpoint_every=0
            )
            oracle = _state(plain_engine)
            assert _state(connector_engine) == oracle, "connector state diverged"
            rounds.append(
                {
                    "plain_seconds": round(plain_ns / 1e9, 6),
                    "connector_seconds": round(connector_ns / 1e9, 6),
                    "connector_overhead": round(connector_ns / max(plain_ns, 1), 3),
                }
            )
            print(
                f"round {index + 1}/{ROUNDS}: plain {plain_ns / 1e9:.3f}s, "
                f"connector {connector_ns / 1e9:.3f}s "
                f"(x{rounds[-1]['connector_overhead']})"
            )
        durable_engine, durable_ns = _connector_ingest(
            source_path, work_dir, "perbatch", checkpoint_every=1
        )
        assert _state(durable_engine) == oracle, "durable state diverged"

    ingested = plain_engine.items_ingested
    median = sorted(rounds, key=lambda entry: entry["connector_overhead"])[
        ROUNDS // 2
    ]
    runs = {
        "plain_seconds": median["plain_seconds"],
        "connector_seconds": median["connector_seconds"],
        "connector_checkpointed_seconds": round(durable_ns / 1e9, 6),
        "connector_overhead": median["connector_overhead"],
        "checkpointed_overhead": round(
            durable_ns / max(median["plain_seconds"] * 1e9, 1), 3
        ),
        "records_per_second": round(
            count / max(median["connector_seconds"], 1e-9)
        ),
        "rounds": rounds,
    }
    print(
        f"n={count} ({source_bytes:,} bytes, {ingested} ingested), median of "
        f"{ROUNDS} rounds: plain {runs['plain_seconds']:.3f}s, connector "
        f"{runs['connector_seconds']:.3f}s "
        f"(x{runs['connector_overhead']}), with per-batch checkpoints "
        f"{runs['connector_checkpointed_seconds']:.3f}s "
        f"(x{runs['checkpointed_overhead']})"
    )

    entry = {
        "benchmark": "connector_vs_plain_ingest",
        "timestamp": _time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "records": count,
        "source_bytes": source_bytes,
        "ingested": ingested,
        "smoke": args.smoke,
        **runs,
    }
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    history = []
    if output.exists():
        try:
            history = json.loads(output.read_text())
        except json.JSONDecodeError:
            history = []
    history.append(entry)
    output.write_text(json.dumps(history, indent=2) + "\n")
    print(f"appended entry #{len(history)} to {output}")

    if runs["connector_overhead"] > args.max_overhead:
        print(
            f"FAIL: median connector overhead x{runs['connector_overhead']} "
            f"exceeds the x{args.max_overhead} budget"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
