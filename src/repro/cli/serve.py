"""``serve`` and ``client ...`` subcommands: the service layer on the wire."""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
from pathlib import Path
from typing import TextIO

from repro.cli.common import add_engine_options, engine_config, generated_values
from repro.cli.quantiles import parse_phis
from repro.engine import ShardedQuantileEngine
from repro.obs import trace_to
from repro.service import (
    LoadConfig,
    QuantileClient,
    QuantileService,
    ServiceConfig,
    run_load_sync,
)


def cmd_serve(args: argparse.Namespace, out: TextIO) -> int:
    service_config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_queue_jobs=args.max_queue_jobs,
        max_batch_jobs=args.max_batch_jobs,
        default_deadline_ms=args.default_deadline_ms,
        linger_ms=args.linger_ms,
        drain_timeout_s=args.drain_timeout,
        checkpoint_path=args.checkpoint,
        audit_fraction=args.audit_fraction,
        audit_reservoir=args.audit_reservoir,
        audit_seed=args.audit_seed,
    )
    engine = None
    if args.checkpoint and args.resume:
        if not Path(args.checkpoint).exists():
            raise SystemExit(
                f"--resume given but checkpoint {args.checkpoint} does not exist"
            )
        engine = ShardedQuantileEngine.restore(args.checkpoint)
    return asyncio.run(_serve_async(args, service_config, engine, out))


async def _serve_async(
    args: argparse.Namespace,
    service_config: ServiceConfig,
    engine: ShardedQuantileEngine | None,
    out: TextIO,
) -> int:
    if engine is not None:
        service = QuantileService(config=service_config, engine=engine)
    else:
        service = QuantileService(
            engine_config=engine_config(args), config=service_config
        )
    trace_context = trace_to(args.trace) if args.trace else contextlib.nullcontext()
    with trace_context:
        await service.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-unix platforms, or an event loop outside the main
                # thread (tests run `serve` in a worker thread) — rely on
                # --serve-for or KeyboardInterrupt instead.
                pass
        print(
            f"serving {service.engine.config.summary} x "
            f"{service.engine.config.shards} shard(s) on "
            f"{service_config.host}:{service.port} "
            f"(n = {service.engine.items_ingested}); GET /metrics for Prometheus",
            file=out,
        )
        out.flush()
        if args.serve_for is not None:
            try:
                await asyncio.wait_for(stop.wait(), timeout=args.serve_for)
            except asyncio.TimeoutError:
                pass
        else:
            await stop.wait()
        await service.stop()
    print(
        f"drained: n = {service.engine.items_ingested}, "
        f"epoch = {service.epoch}"
        + (f", checkpoint = {args.checkpoint}" if args.checkpoint else ""),
        file=out,
    )
    return 0


def _client_values(args: argparse.Namespace) -> list:
    if args.values and args.generate is not None:
        raise SystemExit("give positional values or --generate, not both")
    if args.generate is not None:
        return list(generated_values(args.generate, args.seed))
    if args.values:
        return list(args.values)
    raise SystemExit("give values to insert (positional or --generate N)")


def cmd_client(args: argparse.Namespace, out: TextIO) -> int:
    client = QuantileClient(
        args.host,
        args.port,
        timeout_s=args.timeout,
        max_retries=args.retries,
        deadline_ms=args.deadline_ms,
        wire=args.wire,
        window=args.window,
    )
    command = args.client_command
    # Validate local arguments before touching the network.
    insert_values = _client_values(args) if command == "insert" else None

    async def call() -> dict | str:
        async with client:
            if command == "ping":
                return await client.ping()
            if command == "insert":
                return await client.insert(insert_values)
            if command == "query":
                phis = parse_phis(args.phis) if args.phis else args.phi
                return await client.query(phis)
            if command == "rank":
                return await client.rank(args.value)
            if command == "stats":
                return await client.stats()
            if command == "metrics":
                return await client.fetch_metrics()
            raise SystemExit(f"unhandled client command {command!r}")

    if command == "load":
        return _cmd_client_load(args, out)
    result = asyncio.run(call())
    if isinstance(result, str):
        out.write(result)
    else:
        json.dump(result, out, indent=2)
        print(file=out)
    return 0


def _cmd_client_load(args: argparse.Namespace, out: TextIO) -> int:
    config = LoadConfig(
        clients=args.clients,
        ops_per_client=args.ops,
        insert_ratio=args.insert_ratio,
        values_per_insert=args.values_per_insert,
        deadline_ms=args.deadline_ms or 5000.0,
        seed=args.seed,
        wire=args.wire,
        window=args.window,
    )
    report = run_load_sync(args.host, args.port, config)
    summary = report.summary()
    if args.check_epsilon is not None and report.inserted:
        async def verify() -> dict:
            async with QuantileClient(args.host, args.port) as client:
                return await client.query(config.phis)

        answers = asyncio.run(verify())
        error = report.max_rank_error(answers)
        summary["max_rank_error"] = error
        summary["accuracy_ok"] = error <= args.check_epsilon
    json.dump(summary, out, indent=2)
    print(file=out)
    if summary.get("accuracy_ok") is False:
        return 1
    return 0


def add_parsers(subparsers) -> None:
    serve = subparsers.add_parser(
        "serve",
        help="run the asyncio quantile service (NDJSON over TCP + GET /metrics)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=9421, help="0 binds an ephemeral port"
    )
    add_engine_options(serve)
    serve.add_argument("--batch-size", type=int, default=4096)
    serve.add_argument(
        "--max-queue-jobs",
        type=int,
        default=256,
        help="bounded ingest queue; a full queue sheds with 'overloaded'",
    )
    serve.add_argument(
        "--max-batch-jobs",
        type=int,
        default=64,
        help="micro-batch size: jobs coalesced per engine.ingest() call",
    )
    serve.add_argument(
        "--default-deadline-ms",
        type=float,
        default=5000.0,
        help="deadline applied to requests that do not carry one",
    )
    serve.add_argument(
        "--linger-ms",
        type=float,
        default=0.0,
        help="wait this long after the first queued job to grow the micro-batch",
    )
    serve.add_argument("--drain-timeout", type=float, default=30.0)
    serve.add_argument(
        "--audit-fraction",
        type=float,
        default=0.1,
        help="fraction of query responses the online accuracy auditor "
        "checks against its shadow sample (0 disables auditing)",
    )
    serve.add_argument(
        "--audit-reservoir",
        type=int,
        default=2048,
        help="shadow reservoir size for the accuracy auditor",
    )
    serve.add_argument(
        "--audit-seed",
        type=int,
        default=0,
        help="seed for the auditor's reservoir and admission RNGs",
    )
    serve.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="write an engine checkpoint here on graceful shutdown",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="restore engine state from --checkpoint at boot",
    )
    serve.add_argument(
        "--serve-for",
        type=float,
        metavar="SECONDS",
        help="drain and exit after SECONDS (for smoke tests)",
    )
    serve.add_argument(
        "--trace", metavar="PATH", help="JSONL span trace of the serving run"
    )

    client = subparsers.add_parser(
        "client", help="talk to a running quantile service"
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=9421)
    client.add_argument("--timeout", type=float, default=10.0)
    client.add_argument("--retries", type=int, default=3)
    client.add_argument(
        "--deadline-ms",
        type=float,
        help="per-request deadline forwarded to the server",
    )
    client.add_argument(
        "--wire",
        default="ndjson",
        choices=("ndjson", "frames"),
        help="frames = send inserts as binary frames (NDJSON lines for "
        "values a frame cannot carry exactly, or a server without frames)",
    )
    client.add_argument(
        "--window",
        type=int,
        default=8,
        help="in-flight insert window on the frames wire (load command)",
    )
    commands = client.add_subparsers(dest="client_command", required=True)

    commands.add_parser("ping", help="liveness + current epoch")

    insert = commands.add_parser("insert", help="insert values into the service")
    insert.add_argument("values", nargs="*", help="numbers or fractions ('7/2')")
    insert.add_argument(
        "--generate",
        type=int,
        help="insert N seeded pseudorandom integers instead of positional values",
    )
    insert.add_argument("--seed", type=int, default=0)

    query = commands.add_parser(
        "query", help="quantile answers from the engine's read index"
    )
    query.add_argument(
        "--phi", type=float, nargs="+", default=[0.25, 0.5, 0.75, 0.99]
    )
    query.add_argument(
        "--phis",
        metavar="LIST",
        help="comma-separated quantiles (e.g. 0.1,0.5,0.9); overrides --phi "
        "and is answered in one batched request, in the given order",
    )

    rank = commands.add_parser(
        "rank", help="rank estimates from the engine's read index"
    )
    rank.add_argument("--value", nargs="+", required=True)

    commands.add_parser("stats", help="service + engine stats as JSON")
    commands.add_parser("metrics", help="fetch the Prometheus /metrics page")

    load = commands.add_parser(
        "load", help="drive a deterministic mixed insert/query workload"
    )
    load.add_argument("--clients", type=int, default=8)
    load.add_argument("--ops", type=int, default=50, help="operations per client")
    load.add_argument("--insert-ratio", type=float, default=0.7)
    load.add_argument("--values-per-insert", type=int, default=100)
    load.add_argument("--seed", type=int, default=0)
    load.add_argument(
        "--check-epsilon",
        type=float,
        metavar="EPS",
        help="after the run, verify served quantiles are within EPS of exact "
        "rank over the run's own inserts (only meaningful against a fresh "
        "server); exit 1 on violation",
    )
