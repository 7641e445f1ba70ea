"""``engine ingest | query | stats`` subcommands."""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterable, TextIO

from repro.cli.common import (
    add_engine_options,
    engine_config,
    generated_values,
    parse_values,
)
from repro.engine import ShardedQuantileEngine
from repro.obs import trace_to


def engine_values(args: argparse.Namespace) -> Iterable:
    if args.input is not None and args.generate is not None:
        raise SystemExit("give either --input or --generate, not both")
    if args.input is not None:
        with open(args.input) as handle:
            return parse_values(handle)
    if args.generate is not None:
        if args.generate < 1:
            raise SystemExit(f"--generate must be positive, got {args.generate}")
        return generated_values(args.generate, args.seed)
    return parse_values(sys.stdin)


def cmd_engine_ingest(args: argparse.Namespace, out: TextIO) -> int:
    values = engine_values(args)
    if args.resume:
        engine = ShardedQuantileEngine.restore(args.checkpoint)
    else:
        engine = ShardedQuantileEngine(engine_config(args))
    trace_context = trace_to(args.trace) if args.trace else contextlib.nullcontext()
    with trace_context, engine:
        report = engine.ingest(values)
        written = engine.checkpoint(args.checkpoint)
    print(
        f"ingested {report.items} items in {report.batches} batches "
        f"({report.items_per_second:,.0f} items/s) across "
        f"{engine.config.shards} shard(s) [{engine.config.summary}, "
        f"workers={engine.config.workers}]",
        file=out,
    )
    print(f"shard item counts: {report.shard_counts}", file=out)
    print(
        f"checkpoint: {args.checkpoint} ({written} bytes, "
        f"total n = {engine.items_ingested})",
        file=out,
    )
    if args.trace:
        print(f"trace written to {args.trace}", file=out)
    return 0


def cmd_engine_query(args: argparse.Namespace, out: TextIO) -> int:
    with ShardedQuantileEngine.restore(args.checkpoint) as engine:
        print(
            f"n = {engine.items_ingested}, summary = {engine.config.summary}, "
            f"shards = {engine.config.shards}",
            file=out,
        )
        # Batched reads: one compiled-index pass per list instead of a
        # merge-fold staleness check and telemetry span per phi/value.
        for phi, answer in zip(args.phi, engine.quantiles(args.phi)):
            print(f"phi = {phi:g}: {answer}", file=out)
        ranks = args.rank or []
        if ranks:
            for value, estimate in zip(ranks, engine.rank_many(ranks)):
                print(f"rank({value:g}) ~= {estimate}", file=out)
    return 0


def cmd_engine_stats(args: argparse.Namespace, out: TextIO) -> int:
    with ShardedQuantileEngine.restore(args.checkpoint) as engine:
        stats = engine.stats()
    if args.json:
        json.dump(stats, out, indent=2)
        print(file=out)
        return 0
    print(
        f"engine: {stats['items_ingested']} items in "
        f"{stats['batches_ingested']} batches, "
        f"{len(stats['shards'])} x {stats['config']['summary']} "
        f"(eps = {stats['config']['epsilon']})",
        file=out,
    )
    for shard in stats["shards"]:
        print(
            f"  shard {shard['index']}: {shard['items']} items, "
            f"{shard['stored']} stored (peak {shard['peak_stored']})",
            file=out,
        )
    throughput = stats.get("throughput", {})
    if throughput.get("items_per_second"):
        print(
            f"throughput: {throughput['items_per_second']:,.0f} items/s "
            f"({stats['items_ingested']} items over "
            f"{throughput['ingest_seconds']:.3f} s of ingest)",
            file=out,
        )
    telemetry = stats["telemetry"]
    print("counters:", file=out)
    for name, value in telemetry["counters"].items():
        print(f"  {name} = {value}", file=out)
    sizes = telemetry["batch_sizes"]
    if sizes["observations"]:
        rendered = ", ".join(
            f"{label} = {value:g}" for label, value in sizes["quantiles"].items()
        )
        print(
            f"batch sizes ({sizes['observations']} obs): {rendered}",
            file=out,
        )
    print("latency quantiles (microseconds):", file=out)
    for operation, entry in telemetry["latency_us"].items():
        rendered = ", ".join(
            f"{label} = {value:,.1f}" for label, value in entry["quantiles"].items()
        )
        print(
            f"  {operation} ({entry['observations']} obs): {rendered}",
            file=out,
        )
    return 0


def add_parsers(subparsers) -> None:
    engine = subparsers.add_parser(
        "engine", help="sharded aggregation engine: ingest, query, stats"
    )
    commands = engine.add_subparsers(dest="engine_command", required=True)

    ingest = commands.add_parser(
        "ingest", help="shard a stream into summaries and checkpoint them"
    )
    ingest.add_argument(
        "--checkpoint", required=True, help="JSONL checkpoint path to write"
    )
    ingest.add_argument(
        "--resume",
        action="store_true",
        help="continue from the existing checkpoint instead of starting fresh",
    )
    add_engine_options(ingest)
    ingest.add_argument("--batch-size", type=int, default=4096)
    ingest.add_argument("--input", help="file of numbers (default: stdin)")
    ingest.add_argument(
        "--generate",
        type=int,
        help="ingest N seeded pseudorandom integers instead of reading input",
    )
    ingest.add_argument(
        "--trace",
        metavar="PATH",
        help="write a JSONL span trace of the ingest run to PATH",
    )

    query = commands.add_parser(
        "query", help="answer global quantile/rank queries from a checkpoint"
    )
    query.add_argument("--checkpoint", required=True)
    query.add_argument(
        "--phi", type=float, nargs="+", default=[0.25, 0.5, 0.75, 0.99]
    )
    query.add_argument(
        "--rank", type=float, nargs="+", help="values to rank-estimate"
    )

    stats = commands.add_parser(
        "stats", help="engine telemetry: counters and latency quantiles"
    )
    stats.add_argument("--checkpoint", required=True)
    stats.add_argument(
        "--json", action="store_true", help="emit the raw JSON metrics snapshot"
    )
