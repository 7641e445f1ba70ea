"""Command-line interface: ``python -m repro``.

Subcommands
-----------
``summaries``
    List the registered quantile-summary algorithms.
``quantiles``
    Stream numbers (stdin or a file, one per line) through a summary and
    print requested quantiles, optionally with an equi-depth histogram.
    ``quantiles query --phis 0.1,0.5,0.9`` answers a batched phi list in
    one pass through the compiled rank index.
``attack``
    Run the paper's adversarial construction against a summary and report
    the outcome: space paid, final gap vs the Lemma 3.4 ceiling, and the
    failing-quantile witness if one exists.
``engine ingest | query | stats``
    Drive the sharded aggregation engine (:mod:`repro.engine`): ingest a
    file or generated stream into per-shard summaries with a checkpoint on
    disk, answer global quantile/rank queries from a checkpoint, and view
    the engine's telemetry (latency quantiles served by the engine's own GK
    summaries).
``ingest``
    Durable connector-based ingestion (:mod:`repro.connectors`): drain
    JSONL/CSV files, directories, or seeded synthetic streams into the
    engine (offsets embedded in its checkpoint) or a running service
    (offsets in a sidecar), with a dead-letter queue for poison records,
    graceful SIGTERM stop + ``--resume``, and read-only ``--preflight`` /
    ``--dry-run`` checks.
``obs report | export``
    The observability layer (:mod:`repro.obs`): combine metric-registry
    dumps (``attack --metrics``, ``quantiles --metrics``) and engine
    checkpoints into one human-readable report, or export them in
    Prometheus text exposition format / JSON for scraping and dashboards.
    ``report --trace`` also summarises a JSONL span trace (``--trace`` on
    ``attack``, ``engine ingest`` and the experiment runner).
``serve``
    Put the engine behind a socket (:mod:`repro.service`): an asyncio TCP
    server speaking newline-delimited JSON, with micro-batched single-writer
    ingest, reads from the engine's cached read index, explicit load
    shedding and deadlines, graceful drain, and ``GET /metrics`` in
    Prometheus text format.
``client ping | insert | query | rank | stats | metrics | load``
    Talk to a running service: one-shot operations, or the deterministic
    mixed-workload load generator (``load``), which can verify served
    quantiles against its own ground truth (``--check-epsilon``).
``canary list | run | compare | gate``
    Scenario-driven canary observability (:mod:`repro.scenarios`): run a
    named workload (adversarial replay, heavy-tail, flash-crowd, connector
    replay, ...) against a self-hosted or live service, write the
    deterministic ``CANARY_<scenario>.json`` report, diff reports across
    runs, and gate CI on rank-error / latency / shed-rate budgets.

The package is one module per command family: :mod:`repro.cli.quantiles`,
:mod:`repro.cli.attack`, :mod:`repro.cli.engine`, :mod:`repro.cli.serve`,
:mod:`repro.cli.obs`, with shared helpers in :mod:`repro.cli.common`.

The experiment harness has its own entry point:
``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TextIO

from repro.cli import attack as _attack
from repro.cli import canary as _canary
from repro.cli import engine as _engine
from repro.cli import ingest as _ingest
from repro.cli import obs as _obs
from repro.cli import quantiles as _quantiles
from repro.cli import serve as _serve
from repro.errors import (
    MalformedRecordError,
    RankEstimationUnsupportedError,
    ReproError,
)

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Quantile summaries and the PODS'20 lower bound, executable.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _quantiles.add_parsers(subparsers)
    _attack.add_parsers(subparsers)
    _engine.add_parsers(subparsers)
    _ingest.add_parsers(subparsers)
    _obs.add_parsers(subparsers)
    _serve.add_parsers(subparsers)
    _canary.add_parsers(subparsers)
    return parser


def main(argv: list[str] | None = None, out: TextIO = sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "summaries": _quantiles.cmd_summaries,
        "quantiles": _quantiles.cmd_quantiles,
        "attack": _attack.cmd_attack,
        "ingest": _ingest.cmd_ingest,
        "serve": _serve.cmd_serve,
        "client": _serve.cmd_client,
    }
    if args.command == "quantiles" and getattr(args, "quantiles_command", None):
        handler = {
            "query": _quantiles.cmd_quantiles_query,
        }[args.quantiles_command]
    elif args.command == "engine":
        handler = {
            "ingest": _engine.cmd_engine_ingest,
            "query": _engine.cmd_engine_query,
            "stats": _engine.cmd_engine_stats,
        }[args.engine_command]
    elif args.command == "obs":
        handler = {
            "report": _obs.cmd_obs_report,
            "export": _obs.cmd_obs_export,
        }[args.obs_command]
    elif args.command == "canary":
        handler = {
            "list": _canary.cmd_canary_list,
            "run": _canary.cmd_canary_run,
            "compare": _canary.cmd_canary_compare,
            "gate": _canary.cmd_canary_gate,
        }[args.canary_command]
    else:
        handler = handlers[args.command]
    try:
        return handler(args, out)
    except RankEstimationUnsupportedError as error:
        raise SystemExit(f"error [rank_unsupported]: {error}") from None
    except MalformedRecordError as error:
        # Same stable code the service answers on the wire and the
        # connector dead-letter queue records.
        raise SystemExit(f"error [{error.code}]: {error}") from None
    except ReproError as error:
        raise SystemExit(f"error: {error}") from None
