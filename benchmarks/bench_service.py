"""Serving-layer benchmark: concurrent load against an in-process server.

A standalone argparse script (run it directly, not through pytest):

    PYTHONPATH=src python benchmarks/bench_service.py            # full run
    PYTHONPATH=src python benchmarks/bench_service.py --smoke    # CI-sized

It starts :class:`repro.service.QuantileService` on an ephemeral loopback
port, drives it with the deterministic load generator at each requested
client count, verifies every answered query against the exact ranks of the
inserted values, and appends one entry to
``benchmarks/results/BENCH_service.json`` so runs accumulate a history.

Every run is tagged with its wire dialect and reports ``items_per_second``
(acked inserted values per wall second).  After the client matrix, a
*same-run* frames-vs-NDJSON comparison drives an insert-only integer
workload (which the engine ingests on its columnar lane) over both wires
and records the speedup; pass
``--min-frames-speedup`` to turn that into a hard gate (CI uses 2x; the
full run targets the 10x the wire redesign was sized for).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine import EngineConfig  # noqa: E402
from repro.service import (  # noqa: E402
    LoadConfig,
    QuantileClient,
    QuantileService,
    ServiceConfig,
    run_load,
)

RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_service.json"


async def run_once(
    clients: int,
    args,
    *,
    wire: str = "ndjson",
    insert_ratio: float | None = None,
    values_per_insert: int | None = None,
    ops: int | None = None,
) -> dict:
    values_per_insert = (
        values_per_insert if values_per_insert is not None else args.values_per_insert
    )
    service = QuantileService(
        engine_config=EngineConfig(
            summary=args.summary,
            epsilon=args.epsilon,
            shards=args.shards,
        ),
        config=ServiceConfig(
            port=0,
            max_batch_jobs=args.max_batch_jobs,
            linger_ms=args.linger_ms,
        ),
    )
    await service.start()
    try:
        config = LoadConfig(
            clients=clients,
            ops_per_client=ops if ops is not None else args.ops,
            insert_ratio=(
                insert_ratio if insert_ratio is not None else args.insert_ratio
            ),
            values_per_insert=values_per_insert,
            seed=args.seed,
            wire=wire,
            window=args.window,
        )
        report = await run_load("127.0.0.1", service.port, config)

        # Ground truth: a fresh query after the run, checked against the
        # exact ranks of everything the run inserted.
        max_rank_error = None
        if report.inserted:
            async with QuantileClient("127.0.0.1", service.port) as checker:
                answers = await checker.query(config.phis)
            max_rank_error = report.max_rank_error(answers)

        flushes = service.registry.get("service_ingest_flush_items")
        flush_count = flushes.observations if flushes is not None else 0
        acked_inserts = (
            len(report.inserted) // values_per_insert if values_per_insert else 0
        )
        insert_latency = report.latency_quantiles_us("insert")
        query_latency = report.latency_quantiles_us("query")
        return {
            "clients": clients,
            "wire": wire,
            "ops": report.ops,
            "ok": report.ok,
            "errors": dict(report.errors),
            "seconds": round(report.seconds, 4),
            "ops_per_second": round(report.ops / report.seconds)
            if report.seconds > 0
            else None,
            "items_per_second": round(len(report.inserted) / report.seconds)
            if report.seconds > 0
            else None,
            "items_inserted": len(report.inserted),
            "ingest_flushes": flush_count,
            "jobs_per_flush": (
                round(acked_inserts / flush_count, 2) if flush_count else None
            ),
            "insert_p50_us": insert_latency.get("p50"),
            "insert_p99_us": insert_latency.get("p99"),
            "query_p50_us": query_latency.get("p50"),
            "query_p99_us": query_latency.get("p99"),
            "max_rank_error": max_rank_error,
        }
    finally:
        await service.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--clients", type=int, nargs="+", default=[1, 4, 8, 16], metavar="N"
    )
    parser.add_argument("--ops", type=int, default=200, help="ops per client")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run for CI: 25 ops/client, clients 1 and 8 only",
    )
    parser.add_argument("--summary", default="gk")
    parser.add_argument("--epsilon", type=float, default=0.02)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--insert-ratio", type=float, default=0.7)
    parser.add_argument("--values-per-insert", type=int, default=100)
    parser.add_argument("--max-batch-jobs", type=int, default=64)
    parser.add_argument("--linger-ms", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--wire",
        default="ndjson",
        choices=("ndjson", "frames"),
        help="wire dialect for the client-matrix runs",
    )
    parser.add_argument(
        "--window", type=int, default=32, help="frames-wire in-flight window"
    )
    parser.add_argument(
        "--comparison-ops",
        type=int,
        default=60,
        help="insert ops per client in the frames-vs-ndjson comparison",
    )
    parser.add_argument(
        "--comparison-values",
        type=int,
        default=16000,
        help="values per insert in the frames-vs-ndjson comparison (big "
        "batches are the frame lane's design point; smoke shrinks this)",
    )
    parser.add_argument(
        "--min-frames-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless frames deliver at least X times the same-run "
        "NDJSON items/s in the comparison (CI gates at 2)",
    )
    parser.add_argument(
        "--skip-comparison",
        action="store_true",
        help="run only the client matrix, no frames-vs-ndjson comparison",
    )
    parser.add_argument(
        "--output", default=str(RESULTS_PATH), help="JSON history file to append to"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.ops = 25
        args.clients = [1, 8]
        args.comparison_ops = 30
        args.comparison_values = 1000

    runs = []
    for clients in args.clients:
        result = asyncio.run(run_once(clients, args, wire=args.wire))
        runs.append(result)
        error_total = sum(result["errors"].values())
        rank_error = result["max_rank_error"]
        print(
            f"{clients:>3} client(s): "
            f"{result['ops_per_second']:>7,} ops/s  "
            f"insert p50 {result['insert_p50_us']} us, "
            f"query p50 {result['query_p50_us']} us, "
            f"{error_total} errors, "
            f"max rank error "
            f"{rank_error if rank_error is not None else 'n/a'}"
        )
        if rank_error is not None and rank_error > args.epsilon:
            print(
                f"ACCURACY VIOLATION: {rank_error} > epsilon {args.epsilon}",
                file=sys.stderr,
            )
            return 1

    wire_comparison = None
    if not args.skip_comparison:
        comparison_clients = max(args.clients)
        sides = {}
        for wire in ("ndjson", "frames"):
            result = asyncio.run(
                run_once(
                    comparison_clients,
                    args,
                    wire=wire,
                    insert_ratio=1.0,
                    ops=args.comparison_ops,
                    values_per_insert=args.comparison_values,
                )
            )
            sides[wire] = result
            print(
                f"wire comparison [{wire:>6}]: "
                f"{result['items_per_second']:>10,} items/s  "
                f"({result['items_inserted']:,} values in "
                f"{result['seconds']}s, {sum(result['errors'].values())} errors)"
            )
        speedup = (
            round(
                sides["frames"]["items_per_second"]
                / sides["ndjson"]["items_per_second"],
                2,
            )
            if sides["ndjson"]["items_per_second"]
            else None
        )
        wire_comparison = {
            "clients": comparison_clients,
            "insert_ratio": 1.0,
            "values_per_insert": args.comparison_values,
            "window": args.window,
            "ndjson": sides["ndjson"],
            "frames": sides["frames"],
            "frames_speedup": speedup,
        }
        print(f"frames vs ndjson same-run speedup: {speedup}x")
        if (
            args.min_frames_speedup is not None
            and (speedup is None or speedup < args.min_frames_speedup)
        ):
            print(
                f"WIRE REGRESSION: frames speedup {speedup}x is below the "
                f"required {args.min_frames_speedup}x",
                file=sys.stderr,
            )
            return 1

    entry = {
        "benchmark": "service_load_throughput",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "smoke": args.smoke,
        "summary": args.summary,
        "epsilon": args.epsilon,
        "shards": args.shards,
        "wire": args.wire,
        "runs": runs,
        "wire_comparison": wire_comparison,
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
