"""Helpers shared by the CLI subcommand modules."""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from typing import Iterable, Iterator

from repro.engine import EngineConfig
from repro.model.registry import mergeable_summaries
from repro.obs import MetricRegistry


def parse_values(lines: Iterable[str]) -> list[Fraction]:
    """Parse one number per line; blank lines and ``#`` comments are skipped."""
    values = []
    for line_number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            values.append(Fraction(text))
        except ValueError:
            raise SystemExit(
                f"line {line_number}: {text!r} is not a number"
            ) from None
    return values


def generated_values(count: int, seed: int) -> Iterator[int]:
    """A seeded pseudorandom integer stream, identical across runs."""
    rng = random.Random(seed)
    return (rng.randint(0, 10**9) for _ in range(count))


def write_metrics(path: str, registry: MetricRegistry) -> None:
    """Dump ``registry`` as an exact JSON payload file."""
    with open(path, "w") as handle:
        json.dump(registry.to_payload(), handle)
        handle.write("\n")


def add_engine_options(parser) -> None:
    """Declare the engine flags on ``parser`` (a parser or argument group).

    ``--batch-size`` stays with each command, next to its other batching
    options; :func:`engine_config` reads it from there.
    """
    parser.add_argument(
        "--summary",
        default="gk",
        choices=mergeable_summaries(),
        help="per-shard summary type (must be mergeable)",
    )
    parser.add_argument("--epsilon", type=float, default=0.01)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="threads feeding busy shards (1 = the calling thread)",
    )
    parser.add_argument("--seed", type=int, default=0)


def engine_config(args: argparse.Namespace) -> EngineConfig:
    """The :class:`EngineConfig` the flags of :func:`add_engine_options` name."""
    return EngineConfig(
        summary=args.summary,
        epsilon=args.epsilon,
        shards=args.shards,
        workers=args.workers,
        seed=args.seed,
        batch_size=args.batch_size,
    )
