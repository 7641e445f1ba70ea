"""Sharded-engine throughput benchmark: shard counts x worker counts.

A standalone argparse script (run it directly, not through pytest):

    PYTHONPATH=src python benchmarks/bench_engine.py            # full run
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke    # CI-sized

    # the calling thread vs one thread per shard, at several shard counts
    PYTHONPATH=src python benchmarks/bench_engine.py \\
        --workers 1 0 --shards 1 2 4 8

It ingests a seeded pseudorandom integer stream into
:class:`repro.engine.ShardedQuantileEngine` for each (summary, shard
count, workers) cell, records ingest throughput plus merged-query
latency, and appends one entry to
``benchmarks/results/BENCH_engine.json`` so runs accumulate a history.
Each run row carries the effective worker count and per-shard
throughput; within a summary, ``speedup_vs_serial`` compares against the
``workers=1`` run at the same shard count when one exists.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine import EngineConfig, ShardedQuantileEngine  # noqa: E402

RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_engine.json"


def effective_cpu_count() -> int:
    """Cores this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the machine; cgroup/affinity limits (CI
    runners, containers) are what bound a thread pool's speedup, so
    prefer the scheduling affinity when the platform exposes it.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_once(
    summary: str, shards: int, workers: int, values: list[int], args
) -> dict:
    config = EngineConfig(
        summary=summary,
        epsilon=args.epsilon,
        shards=shards,
        workers=workers,
        seed=args.seed,
        batch_size=args.batch_size,
    )
    with ShardedQuantileEngine(config) as engine:
        report = engine.ingest(values)

        query_started = time.perf_counter_ns()
        engine.quantiles([0.01, 0.25, 0.5, 0.75, 0.99])
        query_ns = time.perf_counter_ns() - query_started

        return {
            "summary": summary,
            "shards": shards,
            "workers": workers,
            "items": report.items,
            "seconds": round(report.seconds, 4),
            "items_per_second": round(report.items_per_second),
            "per_shard_items_per_second": round(
                report.items_per_second / shards
            ),
            "query_5_quantiles_ms": round(query_ns / 1e6, 3),
            "ingest_p50_us": engine.telemetry.latency_quantiles(
                "ingest_batch"
            ).get("p50"),
            "stored_items_total": sum(
                len(shard.item_array()) for shard in engine.shard_summaries
            ),
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=200_000)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run for CI: 20k items, still exercises every cell",
    )
    parser.add_argument(
        "--summaries", nargs="+", default=["gk", "kll"], metavar="NAME"
    )
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 4], metavar="K"
    )
    parser.add_argument("--epsilon", type=float, default=0.01)
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[1],
        metavar="W",
        help="worker counts to benchmark (0 = one per shard)",
    )
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--batch-size", type=int, default=8192)
    parser.add_argument(
        "--output", default=str(RESULTS_PATH), help="JSON history file to append to"
    )
    args = parser.parse_args(argv)

    items = 20_000 if args.smoke else args.items
    rng = random.Random(args.seed)
    values = [rng.randint(0, 10**9) for _ in range(items)]
    cpu_count = effective_cpu_count()

    runs = []
    for summary in args.summaries:
        serial_by_shards: dict[int, int] = {}
        for shards in args.shards:
            for workers in args.workers:
                workers = workers or shards
                result = run_once(summary, shards, workers, values, args)
                if workers == 1:
                    serial_by_shards[shards] = result["items_per_second"]
                baseline = serial_by_shards.get(shards)
                if baseline:
                    result["speedup_vs_serial"] = round(
                        result["items_per_second"] / baseline, 2
                    )
                    # A speedup is only meaningful against the cores the
                    # run could actually use — annotate it so a x1.0 on a
                    # single-core CI runner reads as expected, not broken.
                    result["cpu_count"] = cpu_count
                runs.append(result)
                speedup = result.get("speedup_vs_serial")
                note = (
                    f"  (x{speedup} vs serial on {cpu_count} core(s))"
                    if speedup
                    else ""
                )
                print(
                    f"{summary:>4} x{shards} shard(s) workers={workers}: "
                    f"{result['items_per_second']:>9,} items/s{note}, "
                    f"5-quantile query {result['query_5_quantiles_ms']} ms"
                )

    entry = {
        "benchmark": "engine_ingest_throughput",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "items": items,
        "smoke": args.smoke,
        "workers": args.workers,
        "cpu_count": cpu_count,
        "runs": runs,
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
