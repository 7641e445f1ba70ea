"""The ingest runner: drain connectors into the engine or a live service.

:class:`IngestRunner` is the loop that turns durable sources into engine
state.  Records are batched (batch-first: the engine's ``process_many``
kernels see whole batches, never per-item calls), malformed records divert
to the dead-letter queue, and after every flushed batch the per-source
offsets advance — then persist, either embedded in the engine checkpoint
or to a sidecar offsets file.

Delivery guarantees, precisely:

* **Engine sink** — offsets are written *inside* the engine checkpoint in
  one atomic ``os.replace``, so engine state and the offsets that produced
  it can never disagree.  A run killed at any point and resumed from the
  checkpoint produces **bit-identical** final state to an uninterrupted
  run (exactly-once), verified in ``tests/test_connectors_resume.py``.
* **Service sink** — a batch's offset advances only after the service has
  acknowledged the insert (an ack means the values are applied and
  visible to reads).  A graceful stop (``request_stop()`` — the CLI wires
  SIGTERM to it) checkpoints after the last acked batch, so restart +
  resume is exactly-once.  A *hard* crash between an ack and the offsets
  write re-sends at most one batch on resume (at-least-once); shrink
  ``batch_size`` to shrink that window.

Dead-letter entries are flushed with each batch; on crash-resume the few
entries after the last checkpoint may be re-recorded (at-least-once for
evidence, never for ingested values).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.connectors.base import SourceConnector
from repro.connectors.dlq import DeadLetterQueue
from repro.connectors.offsets import OffsetStore
from repro.engine.engine import ShardedQuantileEngine, as_fraction
from repro.errors import ConnectorError, MalformedRecordError
from repro.obs import spans as obs_spans
from repro.obs.registry import MetricRegistry
from repro.service.client import QuantileClient


@dataclass
class RunnerConfig:
    """Knobs of one ingest run."""

    batch_size: int = 4096
    #: Batches between offset checkpoints; 1 = after every batch (the
    #: exactly-once default), 0 = only at the end of the run.
    checkpoint_every: int = 1
    #: Stop after consuming this many records across all sources (tests,
    #: smoke runs, and deliberately interrupted ingests).
    max_records: int | None = None
    #: Keep re-sweeping the sources for appended/new data until stopped.
    follow: bool = False
    poll_interval_s: float = 0.25
    #: In follow mode, give up after this many consecutive empty sweeps
    #: (None = only ``request_stop`` ends the run).
    max_polls: int | None = None

    def validate(self) -> "RunnerConfig":
        if self.batch_size < 1:
            raise ConnectorError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        if self.checkpoint_every < 0:
            raise ConnectorError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.max_records is not None and self.max_records < 1:
            raise ConnectorError(
                f"max_records must be positive, got {self.max_records}"
            )
        if self.poll_interval_s < 0:
            raise ConnectorError(
                f"poll_interval_s must be >= 0, got {self.poll_interval_s}"
            )
        return self


@dataclass
class SourceReport:
    """What one source contributed to a run."""

    source: str
    kind: str
    records: int = 0
    ingested: int = 0
    dead_lettered: int = 0
    resumed_from: dict | None = None

    def to_payload(self) -> dict:
        return {
            "source": self.source,
            "kind": self.kind,
            "records": self.records,
            "ingested": self.ingested,
            "dead_lettered": self.dead_lettered,
            "resumed": self.resumed_from is not None,
        }


@dataclass
class RunReport:
    """What a whole :meth:`IngestRunner.run` accomplished."""

    sources: list[SourceReport] = field(default_factory=list)
    batches: int = 0
    checkpoints: int = 0
    sweeps: int = 0
    seconds: float = 0.0
    stopped: bool = False

    @property
    def records(self) -> int:
        return sum(entry.records for entry in self.sources)

    @property
    def ingested(self) -> int:
        return sum(entry.ingested for entry in self.sources)

    @property
    def dead_lettered(self) -> int:
        return sum(entry.dead_lettered for entry in self.sources)

    def to_payload(self) -> dict:
        return {
            "records": self.records,
            "ingested": self.ingested,
            "dead_lettered": self.dead_lettered,
            "batches": self.batches,
            "checkpoints": self.checkpoints,
            "sweeps": self.sweeps,
            "seconds": round(self.seconds, 6),
            "stopped": self.stopped,
            "sources": [entry.to_payload() for entry in self.sources],
        }


class EngineSink:
    """Ingest into an in-process engine; offsets ride in its checkpoint."""

    mode = "engine"

    def __init__(
        self, engine: ShardedQuantileEngine, checkpoint_path: str | None
    ) -> None:
        self.engine = engine
        self.checkpoint_path = checkpoint_path

    @classmethod
    def restore(cls, checkpoint_path: str) -> tuple["EngineSink", OffsetStore]:
        """Rebuild engine + offsets from one checkpoint file (atomic pair)."""
        from repro.engine import checkpoint as checkpoint_io

        parts = checkpoint_io.read_checkpoint(checkpoint_path)
        engine = ShardedQuantileEngine.restore(checkpoint_path)
        offsets = OffsetStore.from_extra_records(parts["extra_records"])
        return cls(engine, checkpoint_path), offsets

    def ingest(self, values: list) -> int:
        report = self.engine.ingest(values, batch_size=len(values))
        return report.items

    def checkpoint(self, offsets: OffsetStore) -> bool:
        if self.checkpoint_path is None:
            return False
        self.engine.checkpoint(
            self.checkpoint_path, extra_records=[offsets.to_record()]
        )
        return True

    def close(self) -> None:
        self.engine.close()

    def describe(self) -> dict:
        return {
            "mode": self.mode,
            "summary": self.engine.config.summary,
            "shards": self.engine.config.shards,
            "checkpoint": self.checkpoint_path,
        }


class ServiceSink:
    """Ingest into a live service over the NDJSON client; offsets sidecar.

    Values travel as exact strings (``str(Fraction)``), so rationals
    survive the wire unchanged.  ``ingest`` returns only after the service
    acknowledged the insert — an ack means applied and visible to reads —
    which is what lets offsets advance safely.
    """

    mode = "service"

    def __init__(
        self,
        host: str,
        port: int,
        offsets_path: str | None,
        *,
        timeout_s: float = 10.0,
        max_retries: int = 3,
    ) -> None:
        self.host = host
        self.port = port
        self.offsets_path = offsets_path
        self._loop = asyncio.new_event_loop()
        self._client = QuantileClient(
            host, port, timeout_s=timeout_s, max_retries=max_retries,
            retry_shed=True,
        )

    def ingest(self, values: list) -> int:
        wire_values = [str(value) for value in values]
        acked = self._loop.run_until_complete(self._client.insert(wire_values))
        return int(acked["items"])

    def checkpoint(self, offsets: OffsetStore) -> bool:
        if self.offsets_path is None:
            return False
        offsets.save(self.offsets_path)
        return True

    def close(self) -> None:
        try:
            self._loop.run_until_complete(self._client.aclose())
        finally:
            self._loop.close()

    def describe(self) -> dict:
        return {
            "mode": self.mode,
            "host": self.host,
            "port": self.port,
            "offsets": self.offsets_path,
        }


class IngestRunner:
    """Drain source connectors into a sink with resumable offsets and a DLQ."""

    def __init__(
        self,
        sources: Sequence[SourceConnector],
        sink,
        *,
        offsets: OffsetStore | None = None,
        dlq: DeadLetterQueue | None = None,
        config: RunnerConfig | None = None,
        registry: MetricRegistry | None = None,
    ) -> None:
        if not sources:
            raise ConnectorError("the ingest runner needs at least one source")
        names = [source.name for source in sources]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ConnectorError(
                "source names must be unique (offsets are keyed by them); "
                f"duplicated: {', '.join(duplicates)}"
            )
        self.sources = list(sources)
        self.sink = sink
        self.offsets = offsets if offsets is not None else OffsetStore()
        self.registry = registry if registry is not None else MetricRegistry()
        self.dlq = (
            dlq if dlq is not None else DeadLetterQueue(None, registry=self.registry)
        )
        if self.dlq.registry is None:
            self.dlq.registry = self.registry
        self.config = (config if config is not None else RunnerConfig()).validate()
        self._stop_requested = False

    # -- control -------------------------------------------------------------------

    def request_stop(self) -> None:
        """Stop after the current record; safe to call from a signal handler.

        The runner finishes the in-flight batch, checkpoints offsets, and
        returns a report with ``stopped=True`` — the next run resumes
        exactly where this one ended.
        """
        self._stop_requested = True

    # -- metric helpers ------------------------------------------------------------

    def _count_records(self, source: str, amount: int = 1) -> None:
        self.registry.counter(
            "connector_records_total",
            help="records consumed from sources, parseable or not",
            source=source,
        ).inc(amount)

    def _count_ingested(self, source: str, amount: int) -> None:
        self.registry.counter(
            "connector_ingested_total",
            help="values accepted by the sink, by source",
            source=source,
        ).inc(amount)

    def _set_lag(self, source: SourceConnector) -> None:
        lag = source.lag(self.offsets.get(source.name))
        if lag is not None:
            self.registry.gauge(
                "connector_source_lag",
                help="bytes (file sources) or records (synthetic) not yet "
                "consumed beyond the checkpointed offset",
                source=source.name,
            ).set(lag)

    # -- the drain loop ------------------------------------------------------------

    def run(self) -> RunReport:
        """Drain every source (repeatedly, in follow mode); return the report."""
        started = time.perf_counter_ns()
        report = RunReport()
        reports = {}
        for source in self.sources:
            entry = SourceReport(
                source=source.name,
                kind=source.kind,
                resumed_from=self.offsets.get(source.name),
            )
            reports[source.name] = entry
            report.sources.append(entry)
        self._consumed = 0
        empty_sweeps = 0
        try:
            while True:
                report.sweeps += 1
                sweep_records = 0
                for source in self.sources:
                    if self._exhausted():
                        break
                    sweep_records += self._drain_source(
                        source, reports[source.name], report
                    )
                if self._exhausted() or not self.config.follow:
                    break
                if sweep_records:
                    empty_sweeps = 0
                else:
                    empty_sweeps += 1
                    if (
                        self.config.max_polls is not None
                        and empty_sweeps >= self.config.max_polls
                    ):
                        break
                    time.sleep(self.config.poll_interval_s)
        finally:
            # The final checkpoint and DLQ flush happen even on an
            # exception: whatever was acked is never re-ingested.
            if self.sink.checkpoint(self.offsets):
                report.checkpoints += 1
                self.registry.counter(
                    "connector_checkpoints_total",
                    help="offset checkpoints written",
                ).inc()
            self.dlq.close()
        report.stopped = self._stop_requested
        report.seconds = (time.perf_counter_ns() - started) / 1e9
        return report

    def _exhausted(self) -> bool:
        return self._stop_requested or (
            self.config.max_records is not None
            and self._consumed >= self.config.max_records
        )

    def _drain_source(
        self, source: SourceConnector, entry: SourceReport, report: RunReport
    ) -> int:
        drained = 0
        batch: list = []
        advanced: dict | None = None
        with obs_spans.span(
            "ingest.connector.drain",
            source=source.name,
            kind=source.kind,
            sink=self.sink.mode,
        ) as span:
            for record in source.records(self.offsets.get(source.name)):
                drained += 1
                self._consumed += 1
                entry.records += 1
                self._count_records(record.source)
                advanced = record.position
                if record.error is not None:
                    self.dlq.put(record, record.error, record.detail)
                    entry.dead_lettered += 1
                else:
                    try:
                        batch.append(
                            as_fraction(
                                record.value,
                                source=record.source,
                                index=record.index,
                            )
                        )
                    except MalformedRecordError as error:
                        self.dlq.put(record, error.code, str(error))
                        entry.dead_lettered += 1
                if len(batch) >= self.config.batch_size:
                    self._flush(source, entry, report, batch, advanced)
                    batch = []
                    advanced = None
                if self._exhausted():
                    break
            if batch or advanced is not None:
                # A trailing all-poison tail still advances the offset, so
                # a resume never re-dead-letters the whole tail.
                self._flush(source, entry, report, batch, advanced)
            span.set(
                records=drained,
                ingested=entry.ingested,
                dead_lettered=entry.dead_lettered,
            )
            self._set_lag(source)
        return drained

    def _flush(
        self,
        source: SourceConnector,
        entry: SourceReport,
        report: RunReport,
        batch: list,
        position: dict | None,
    ) -> None:
        """One batch: sink first, then offsets, then (maybe) a checkpoint.

        Offsets advance only after the sink accepted the values — the
        order that makes resume never drop an acked record.
        """
        if batch:
            accepted = self.sink.ingest(batch)
            entry.ingested += accepted
            self._count_ingested(source.name, accepted)
            report.batches += 1
            self.registry.counter(
                "connector_batches_total", help="batches flushed to the sink"
            ).inc()
        if position is not None:
            self.offsets.set(source.name, position)
        self.dlq.flush()
        if (
            self.config.checkpoint_every
            and report.batches
            and batch
            and report.batches % self.config.checkpoint_every == 0
        ):
            if self.sink.checkpoint(self.offsets):
                report.checkpoints += 1
                self.registry.counter(
                    "connector_checkpoints_total",
                    help="offset checkpoints written",
                ).inc()
