"""The sharded, mergeable quantile-aggregation engine.

:class:`ShardedQuantileEngine` ingests batches of raw numeric values, routes
each value to one of ``shards`` per-shard summaries (any registered,
mergeable summary type — see :mod:`repro.model.registry`), and answers
global quantile/rank queries by folding the shards through a balanced merge
tree (:mod:`repro.engine.merge_tree`).  Everything is deterministic by
construction: routing follows arrival order and never reads a value
(:mod:`repro.engine.routing`), shard summaries are seeded per shard, and
each shard is only ever touched by one thread at a time — so runs with any
``workers`` count, and re-runs, produce bit-identical shard states, and an
order-preserving relabelling of the input leaves every comparison-based
shard in the same state (Definition 2.1).  The engine owns its shards and
feeds them itself: with ``workers == 1`` in the calling thread, with more
from a thread pool it holds until :meth:`~ShardedQuantileEngine.close`.

The engine checkpoints to JSONL (:mod:`repro.engine.checkpoint`) built on
:mod:`repro.persistence`, and tracks its own health with
:class:`~repro.engine.telemetry.Telemetry` — per-operation latency
distributions held in GK summaries (the repo dogfooding its own subject
matter) plus exact counters.
"""

from __future__ import annotations

from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns
from typing import Iterable, Iterator, Sequence

import repro.summaries  # noqa: F401  (registers summary types and merges)
from repro.engine import checkpoint as checkpoint_io
from repro.engine.config import EngineConfig
from repro.engine.merge_tree import fold_shards
from repro.engine.routing import fast_int_buckets, route_batch
from repro.engine.telemetry import Telemetry
from repro.errors import EngineError, MalformedRecordError
from repro.model.lanes import promote_to_columnar
from repro.model.rankindex import RankIndex, compile_rank_index
from repro.model.registry import create_summary, get_descriptor
from repro.obs import spans as obs_spans
from repro.model.summary import QuantileSummary, exact_fraction
from repro.persistence import load as load_summary
from repro.universe.item import key_of
from repro.universe.universe import Universe


def as_fraction(
    value, *, source: str | None = None, index: int | None = None
) -> Fraction:
    """Normalise a raw input value (int/float/str/Fraction) to a Fraction.

    Floats go through :func:`~repro.model.summary.exact_fraction` so humanly
    entered decimals become the simple rationals they were meant to be.

    Malformed input — ``"abc"``, a zero-denominator ``"1/0"``, ``nan`` —
    raises :class:`~repro.errors.MalformedRecordError` (an
    :class:`~repro.errors.EngineError`) naming the offending value, never a
    bare ``ValueError``/``ZeroDivisionError``: ingest paths (the serving
    layer and the connector runner above all) catch engine errors, and an
    uncatchable leak from one bad wire value must not take down a batch.
    Callers that know where the value came from pass ``source``/``index``
    so the error — and any dead-letter entry built from it — names the
    offending record, not just the value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    try:
        if isinstance(value, float):
            return exact_fraction(value)
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError, OverflowError, TypeError) as error:
        raise MalformedRecordError(
            value, source=source, index=index, reason=str(error)
        ) from None


def _chunks(values: Iterable, size: int) -> Iterator[list]:
    if isinstance(values, (list, array)):
        # Slicing a concrete sequence yields the same chunks as the
        # per-item loop below at a fraction of the cost; an ``array``
        # chunk stays an ``array``, which routing slices into int64
        # buckets without testing a single value.
        for start in range(0, len(values), size):
            yield values[start : start + size]
        return
    chunk: list = []
    for value in values:
        chunk.append(value)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


@dataclass
class IngestReport:
    """What one :meth:`ShardedQuantileEngine.ingest` call accomplished."""

    items: int
    batches: int
    seconds: float
    shard_counts: list[int]

    @property
    def items_per_second(self) -> float:
        return self.items / self.seconds if self.seconds > 0 else float("inf")


class ShardedQuantileEngine:
    """Sharded ingestion, merge-tree queries, checkpointing, telemetry."""

    def __init__(
        self, config: EngineConfig | None = None, telemetry: Telemetry | None = None
    ) -> None:
        self.config = (config if config is not None else EngineConfig()).validate()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._universes = [Universe() for _ in range(self.config.shards)]
        self._shards: list[QuantileSummary] = [
            self._make_shard_summary(index) for index in range(self.config.shards)
        ]
        self._items_ingested = 0
        self._batches = 0
        self._merged: QuantileSummary | None = None
        # Compiled read index over the merged summary, keyed on the ingest
        # generation: any ingest invalidates it along with the merge fold.
        self._read_index = None
        self._read_index_generation = -1
        self._read_generation = 0
        self._columnar = get_descriptor(self.config.summary).columnar
        # Busy shards overlap only inside native kernels, which release the
        # GIL; one pool lives from here to close().
        self._pool = (
            ThreadPoolExecutor(max_workers=self.config.workers)
            if self.config.workers > 1
            else None
        )

    def _make_shard_summary(self, index: int) -> QuantileSummary:
        return create_summary(
            self.config.summary, self.config.epsilon, **self.config.shard_kwargs(index)
        )

    # -- introspection -------------------------------------------------------------

    @property
    def shard_summaries(self) -> Sequence[QuantileSummary]:
        """The live per-shard summaries (read-only view)."""
        return tuple(self._shards)

    @property
    def items_ingested(self) -> int:
        return self._items_ingested

    @property
    def batches_ingested(self) -> int:
        return self._batches

    # -- ingestion -----------------------------------------------------------------

    def ingest(self, values: Iterable, batch_size: int | None = None) -> IngestReport:
        """Route ``values`` to shards in batches; return a throughput report."""
        batch_size = batch_size if batch_size is not None else self.config.batch_size
        if batch_size < 1:
            raise EngineError(f"batch_size must be positive, got {batch_size}")
        started = perf_counter_ns()
        items_before = self._items_ingested
        batches = 0
        with obs_spans.span(
            "engine.ingest",
            shards=self.config.shards,
            summary=self.config.summary,
            workers=self.config.workers,
        ) as ingest_span:
            for batch in _chunks(values, batch_size):
                self._ingest_batch(batch)
                batches += 1
            ingest_span.set(
                items=self._items_ingested - items_before, batches=batches
            )
        seconds = (perf_counter_ns() - started) / 1e9
        return IngestReport(
            items=self._items_ingested - items_before,
            batches=batches,
            seconds=seconds,
            shard_counts=[summary.n for summary in self._shards],
        )

    def _ingest_batch(self, values: list) -> None:
        batch_started = perf_counter_ns()
        with obs_spans.span(
            "engine.ingest_batch", items=len(values)
        ) as batch_span:
            busy = self._apply_batch(values)
            batch_span.set(busy_shards=busy)
        items = len(values)
        self._items_ingested += items
        self._batches += 1
        self._merged = None
        self._read_generation += 1
        self.telemetry.count("items_ingested", items)
        self.telemetry.count("batches_ingested")
        self.telemetry.record_batch_size(items)
        self.telemetry.record_latency(
            "ingest_batch", perf_counter_ns() - batch_started
        )

    def _apply_batch(self, values: Sequence) -> int:
        """Route one raw batch by arrival and feed it; return the busy shards.

        The lane is a property of the batch.  When every value is faithful
        to an int (the :func:`fast_int_buckets` contract) and the summary
        type is columnar-capable, the raw int buckets feed
        ``process_numeric``; anything else — non-integral values, malformed
        records, summary types without a columnar lane — takes the exact
        Fraction path, which owns both the semantics and the errors, and
        raises before any shard mutates.  Each busy shard gets one call, so
        no shard is touched by two threads.
        """
        shards = self.config.shards
        buckets = None
        if self._columnar:
            buckets = fast_int_buckets(values, shards, self._items_ingested)
        if buckets is not None:
            feed = self._feed_shard_numeric
        else:
            fractions = [as_fraction(value) for value in values]
            buckets = route_batch(fractions, shards, self._items_ingested)
            feed = self._feed_shard
        busy = [index for index, bucket in enumerate(buckets) if bucket]
        if self._pool is not None and len(busy) > 1:
            list(self._pool.map(lambda index: feed(index, buckets[index]), busy))
        else:
            for index in busy:
                feed(index, buckets[index])
        return len(busy)

    def _feed_shard(self, index: int, values: list[Fraction]) -> None:
        # process_many dispatches to the shard type's batch kernel when one
        # is registered and falls back to per-item processing otherwise.
        self._shards[index].process_many(self._universes[index].items(values))

    def _feed_shard_numeric(self, index: int, values: list[int]) -> None:
        # Columnar lane (an int-faithful batch): raw numeric keys go straight
        # to the shard, no Item/Fraction wrappers on the ingest path at all.
        self._shards[index].process_numeric(values)

    # -- queries -------------------------------------------------------------------

    def _load_shards(self, payloads: Sequence[dict]) -> None:
        """Decode checkpointed shard payloads, columnar where possible."""
        self._universes = [Universe() for _ in payloads]
        self._shards = [
            load_summary(payload, universe)
            for payload, universe in zip(payloads, self._universes)
        ]
        # The codec always decodes into the items lane (one wire format for
        # both); promotion keeps the fast path for integral state and
        # refuses, harmlessly, for anything else.
        for shard in self._shards:
            promote_to_columnar(shard)

    def merged_summary(self) -> QuantileSummary:
        """The merge-tree fold of all shards (cached until the next ingest).

        Treat as read-only; with one shard this is the shard itself.
        """
        if self._merged is None:
            fold_started = perf_counter_ns()
            with obs_spans.span("engine.merge_fold", shards=self.config.shards):
                self._merged = fold_shards(
                    self._shards,
                    on_merge=lambda: self.telemetry.count("merges_performed"),
                )
            self.telemetry.record_latency(
                "merge_fold", perf_counter_ns() - fold_started
            )
        return self._merged

    def read_index(self) -> RankIndex:
        """The compiled index over the merged summary.

        Cached per ingest generation: the first read after an ingest folds
        the shards (unless the fold is already cached) and compiles the
        fold, every later read reuses the frozen index until the next
        ingest invalidates it.  :meth:`EngineConfig.validate` admits only
        summary types with a registered ``compile_index``.
        """
        if self._read_index_generation == self._read_generation:
            self.telemetry.count("read_index_hits")
            return self._read_index
        self.telemetry.count("read_index_misses")
        merged = self.merged_summary()
        compile_started = perf_counter_ns()
        with obs_spans.span(
            "engine.read_index.compile",
            summary=self.config.summary,
            generation=self._read_generation,
        ) as compile_span:
            index = compile_rank_index(merged)
            compile_span.set(size=index.size)
        self.telemetry.count("read_index_compiles")
        self.telemetry.record_latency(
            "read_index_compile", perf_counter_ns() - compile_started
        )
        self._read_index = index
        self._read_index_generation = self._read_generation
        return index

    def query(self, phi: float) -> Fraction:
        """The global phi-quantile's value (key of the answering item)."""
        return self.quantiles([phi])[0]

    def quantiles(self, phis: Iterable[float]) -> list[Fraction]:
        """Batch form of :meth:`query`: one span, one count, one index pass."""
        phis = list(phis)
        with self.telemetry.timed("query"), obs_spans.span(
            "engine.query", phis=len(phis)
        ):
            answers = self.read_index().quantile_many(phis)
        self.telemetry.count("queries_answered")
        return [key_of(answer) for answer in answers]

    def rank(self, value) -> int:
        """Estimated number of ingested items ``<=`` ``value``."""
        return self.rank_many([value])[0]

    def rank_many(self, values: Iterable) -> list[int]:
        """Batch form of :meth:`rank`: one span, one count, one index pass."""
        keys = [as_fraction(value) for value in values]
        with self.telemetry.timed("query"), obs_spans.span(
            "engine.rank", values=len(keys)
        ):
            estimates = self.read_index().rank_many(keys)
        self.telemetry.count("queries_answered")
        return estimates

    # -- checkpointing -------------------------------------------------------------

    def checkpoint(self, path: str | Path, extra_records: tuple | list = ()) -> int:
        """Write the engine's full state to ``path``; return bytes written.

        ``extra_records`` (each a dict with its own ``"kind"``) ride along
        in the same atomic file — the connector runner stores its resumable
        source offsets this way, so engine state and offsets can never be
        torn apart by a crash.
        """
        with self.telemetry.timed("checkpoint"), obs_spans.span(
            "engine.checkpoint"
        ) as checkpoint_span:
            written = checkpoint_io.write_checkpoint(
                path, self, extra_records=extra_records
            )
            checkpoint_span.set(bytes=written)
        self.telemetry.count("checkpoints_written")
        self.telemetry.count("checkpoint_bytes", written)
        return written

    @classmethod
    def restore(cls, path: str | Path) -> "ShardedQuantileEngine":
        """Rebuild an engine from a checkpoint with exact summary state."""
        parts = checkpoint_io.read_checkpoint(path)
        engine = cls(parts["config"], telemetry=parts["telemetry"])
        engine._load_shards(parts["shard_payloads"])
        engine._items_ingested = parts["items_ingested"]
        engine._batches = parts["batches"]
        engine.telemetry.count("restores")
        return engine

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Release the thread pool, if any (idempotent).

        The engine stays fully usable after close: it then applies batches
        in the calling thread.
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ShardedQuantileEngine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False

    # -- reporting -----------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-compatible status: config, shard fill, telemetry snapshot."""
        ingest_seconds = self.telemetry.operation_seconds("ingest_batch")
        return {
            "config": self.config.to_payload(),
            "items_ingested": self._items_ingested,
            "batches_ingested": self._batches,
            "throughput": {
                "ingest_seconds": ingest_seconds,
                "items_per_second": (
                    self._items_ingested / ingest_seconds
                    if ingest_seconds > 0
                    else None
                ),
            },
            "shards": [
                {
                    "index": index,
                    "items": summary.n,
                    "stored": summary._item_count(),
                    "peak_stored": summary.max_item_count,
                    "lane": summary.lane,
                }
                for index, summary in enumerate(self._shards)
            ],
            "telemetry": self.telemetry.snapshot(),
        }

    def __repr__(self) -> str:
        return (
            f"ShardedQuantileEngine(summary={self.config.summary!r}, "
            f"shards={self.config.shards}, n={self._items_ingested})"
        )
