"""Sharded quantile-aggregation engine.

Public surface: :class:`~repro.engine.engine.ShardedQuantileEngine` driven by
an :class:`~repro.engine.config.EngineConfig`, with
:class:`~repro.engine.telemetry.Telemetry`, JSONL checkpointing
(:mod:`repro.engine.checkpoint`) and the merge-tree / routing helpers.
See ``docs/engine.md`` for the tour.
"""

from repro.engine.checkpoint import (
    CHECKPOINT_FORMAT,
    read_checkpoint,
    write_checkpoint,
)
from repro.engine.config import EngineConfig
from repro.engine.engine import IngestReport, ShardedQuantileEngine, as_fraction
from repro.engine.merge_tree import fold_shards
from repro.engine.routing import route_batch
from repro.engine.telemetry import Telemetry

__all__ = [
    "CHECKPOINT_FORMAT",
    "EngineConfig",
    "IngestReport",
    "ShardedQuantileEngine",
    "Telemetry",
    "as_fraction",
    "fold_shards",
    "read_checkpoint",
    "route_batch",
    "write_checkpoint",
]
