"""``repro ingest`` — durable connector-based ingestion from the shell.

One command covers the whole connector framework::

    # file -> engine checkpoint, DLQ for poison lines, resumable
    python -m repro ingest --source events.jsonl \\
        --checkpoint ckpt.jsonl --dlq dead.jsonl

    # interrupted?  resume picks up at the checkpointed offset
    python -m repro ingest --source events.jsonl \\
        --checkpoint ckpt.jsonl --dlq dead.jsonl --resume

    # file -> running service, offsets in a sidecar, tail for new data
    python -m repro ingest --source events.jsonl --connect 127.0.0.1:9402 \\
        --offsets offsets.json --follow

    # would it work?  (read-only; --dry-run parses every record)
    python -m repro ingest --source events.jsonl --preflight --json

Sources repeat (``--source a.jsonl --source b.csv``); ``--watch DIR``
ingests a whole directory; ``--synthetic N`` is the seeded generator.
SIGTERM/SIGINT request a graceful stop: the in-flight batch lands, offsets
checkpoint, and the process exits 0 with ``stopped early`` in the report —
the invariant the crash-resume tests pin down.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
from pathlib import Path
from typing import TextIO

from repro.cli.common import add_engine_options, engine_config, write_metrics
from repro.connectors import (
    DeadLetterQueue,
    DirectorySource,
    EngineSink,
    IngestRunner,
    OffsetStore,
    RunnerConfig,
    ServiceSink,
    SyntheticSource,
    open_source,
    run_preflight,
)
from repro.engine import ShardedQuantileEngine
from repro.errors import ConnectorError
from repro.obs import MetricRegistry, trace_to


def build_sources(args: argparse.Namespace) -> list:
    """Turn ``--source/--watch/--synthetic`` flags into connectors."""
    sources: list = []
    for path in args.source or ():
        sources.append(
            open_source(
                path, fmt=args.format, field=args.field, column=_column(args)
            )
        )
    for root in args.watch or ():
        sources.append(
            DirectorySource(
                root,
                pattern=args.pattern,
                fmt=args.format,
                field=args.field,
                column=_column(args),
            )
        )
    if args.synthetic is not None:
        sources.append(SyntheticSource(args.synthetic, seed=args.seed))
    if not sources:
        raise SystemExit(
            "give at least one of --source, --watch or --synthetic"
        )
    return sources


def _column(args: argparse.Namespace):
    column = args.column
    if column is None:
        return 0
    try:
        return int(column)
    except ValueError:
        return column


def build_sink(args: argparse.Namespace):
    """(sink, offsets) for engine mode (--checkpoint) or service mode (--connect)."""
    if (args.checkpoint is None) == (args.connect is None):
        raise SystemExit(
            "give exactly one of --checkpoint (engine mode) or "
            "--connect HOST:PORT (service mode)"
        )
    if args.checkpoint is not None:
        if args.resume and Path(args.checkpoint).exists():
            return EngineSink.restore(args.checkpoint)
        engine = ShardedQuantileEngine(engine_config(args))
        return EngineSink(engine, args.checkpoint), OffsetStore()
    host, _, port_text = args.connect.partition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(
            f"--connect wants HOST:PORT, got {args.connect!r}"
        ) from None
    offsets = OffsetStore()
    if args.resume:
        if args.offsets is None:
            raise SystemExit("--resume in service mode needs --offsets PATH")
        if Path(args.offsets).exists():
            offsets = OffsetStore.load(args.offsets)
    return ServiceSink(host, port, args.offsets), offsets


def cmd_ingest(args: argparse.Namespace, out: TextIO) -> int:
    sources = build_sources(args)

    if args.preflight or args.dry_run:
        offsets = OffsetStore()
        if args.resume:
            if args.checkpoint and Path(args.checkpoint).exists():
                _, offsets = EngineSink.restore(args.checkpoint)
            elif args.offsets and Path(args.offsets).exists():
                offsets = OffsetStore.load(args.offsets)
        report = run_preflight(
            sources, offsets, sample=None if args.dry_run else args.sample
        )
        return _print_preflight(report, args, out)

    sink, offsets = build_sink(args)
    registry = MetricRegistry()
    dlq = DeadLetterQueue(args.dlq, registry=registry)
    runner = IngestRunner(
        sources,
        sink,
        offsets=offsets,
        dlq=dlq,
        config=RunnerConfig(
            batch_size=args.batch_size,
            checkpoint_every=args.checkpoint_every,
            max_records=args.max_records,
            follow=args.follow,
            poll_interval_s=args.poll,
            max_polls=args.max_polls,
        ),
        registry=registry,
    )

    def _graceful_stop(signum, frame):
        runner.request_stop()

    previous = {
        sig: signal.signal(sig, _graceful_stop)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    trace_context = trace_to(args.trace) if args.trace else contextlib.nullcontext()
    try:
        with trace_context:
            report = runner.run()
    finally:
        sink.close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)

    if args.json:
        json.dump(report.to_payload(), out, indent=2)
        print(file=out)
    else:
        _print_run(report, runner, args, out)
    if args.metrics:
        write_metrics(args.metrics, registry)
        print(f"metrics written to {args.metrics}", file=out)
    if args.trace:
        print(f"trace written to {args.trace}", file=out)
    return 0


def _print_run(report, runner: IngestRunner, args, out: TextIO) -> None:
    mode = runner.sink.describe()
    where = (
        f"checkpoint {mode['checkpoint']}"
        if mode["mode"] == "engine"
        else f"service {mode['host']}:{mode['port']}"
    )
    stopped = " (stopped early)" if report.stopped else ""
    print(
        f"ingested {report.ingested} of {report.records} record(s) into "
        f"{where} in {report.batches} batch(es){stopped}",
        file=out,
    )
    for entry in report.sources:
        resumed = " [resumed]" if entry.resumed_from is not None else ""
        print(
            f"  {entry.source} ({entry.kind}): {entry.ingested} ingested, "
            f"{entry.dead_lettered} dead-lettered of {entry.records}{resumed}",
            file=out,
        )
    if runner.dlq.entries:
        codes = ", ".join(
            f"{code} x {count}"
            for code, count in sorted(runner.dlq.by_code.items())
        )
        where = runner.dlq.path if runner.dlq.path is not None else "counted only"
        print(f"dead letters: {runner.dlq.entries} ({codes}) -> {where}", file=out)
    if report.checkpoints:
        print(f"offsets checkpointed {report.checkpoints} time(s)", file=out)


def _print_preflight(report, args, out: TextIO) -> int:
    if args.json:
        json.dump(report.to_payload(), out, indent=2)
        print(file=out)
        return 0 if report.ok else 1
    walked = "every record" if report.exhaustive else f"first {args.sample}"
    print(
        f"preflight {'ok' if report.ok else 'FAILED'} ({walked} per source): "
        f"{report.would_ingest} would ingest, "
        f"{report.would_dead_letter} would dead-letter",
        file=out,
    )
    for check in report.checks:
        state = "ok" if check.ok else "FAILED"
        print(
            f"  {check.source} ({check.kind}): {state}, "
            f"{check.would_ingest} ingestable / "
            f"{check.would_dead_letter} poison of {check.sampled} sampled",
            file=out,
        )
        for problem in check.problems:
            print(f"    problem: {problem}", file=out)
        for warning in check.warnings:
            print(f"    warning: {warning}", file=out)
        if check.dead_letter_codes:
            codes = ", ".join(
                f"{code} x {count}"
                for code, count in sorted(check.dead_letter_codes.items())
            )
            print(f"    poison codes: {codes}", file=out)
    return 0 if report.ok else 1


def add_parsers(subparsers) -> None:
    ingest = subparsers.add_parser(
        "ingest",
        help="drain durable sources into the engine or a service "
        "(resumable offsets, dead-letter queue, preflight)",
    )
    sources = ingest.add_argument_group("sources")
    sources.add_argument(
        "--source",
        action="append",
        metavar="PATH",
        help="a JSONL/CSV/lines file (repeatable; format by suffix)",
    )
    sources.add_argument(
        "--watch",
        action="append",
        metavar="DIR",
        help="a directory of files matching --pattern (repeatable)",
    )
    sources.add_argument(
        "--pattern", default="*.jsonl", help="glob for --watch directories"
    )
    sources.add_argument(
        "--synthetic",
        type=int,
        metavar="N",
        help="N seeded pseudorandom integers (same stream as engine --generate)",
    )
    sources.add_argument(
        "--format",
        default="auto",
        choices=("auto", "jsonl", "csv", "lines"),
        help="override suffix-based format detection",
    )
    sources.add_argument(
        "--field", default="value", help="JSONL object field holding the value"
    )
    sources.add_argument(
        "--column",
        help="CSV column: an index (0-based) or a header name",
    )

    sink = ingest.add_argument_group("sink (exactly one)")
    sink.add_argument(
        "--checkpoint",
        help="engine mode: ingest in-process, offsets ride in this checkpoint",
    )
    sink.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="service mode: insert into a running quantile service",
    )
    sink.add_argument(
        "--offsets",
        help="service mode: sidecar file for resumable offsets",
    )
    sink.add_argument(
        "--resume",
        action="store_true",
        help="continue from checkpointed offsets instead of the beginning",
    )

    durability = ingest.add_argument_group("durability and pacing")
    durability.add_argument(
        "--dlq",
        metavar="PATH",
        help="dead-letter queue file (JSONL); omit to only count poison records",
    )
    durability.add_argument("--batch-size", type=int, default=4096)
    durability.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="BATCHES",
        help="offset checkpoint cadence in batches (0 = only at the end)",
    )
    durability.add_argument(
        "--max-records", type=int, help="stop after N records (smoke/tests)"
    )
    durability.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing the sources for appended data until stopped",
    )
    durability.add_argument(
        "--poll", type=float, default=0.25, help="follow-mode poll interval (s)"
    )
    durability.add_argument(
        "--max-polls",
        type=int,
        help="follow mode: give up after N consecutive empty sweeps",
    )

    checks = ingest.add_argument_group("checks")
    checks.add_argument(
        "--preflight",
        action="store_true",
        help="read-only checks + sample parse; no engine or service touched",
    )
    checks.add_argument(
        "--dry-run",
        action="store_true",
        help="preflight, but parse every record (full poison census)",
    )
    checks.add_argument(
        "--sample",
        type=int,
        default=64,
        help="records per source a --preflight parse-checks",
    )

    add_engine_options(ingest.add_argument_group("engine mode options"))

    observability = ingest.add_argument_group("observability")
    observability.add_argument(
        "--metrics", metavar="PATH", help="dump the run's metric registry as JSON"
    )
    observability.add_argument(
        "--trace", metavar="PATH", help="write a JSONL span trace of the run"
    )
    observability.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
