"""The ``processes`` executor: worker processes own the shards.

Shard summaries *live* in long-running worker processes here.  The
coordinator's per-batch work shrinks to routing and cheap encoding:

* When a raw batch is int-faithful (the common synthetic/bench shape),
  routing slices the ints directly (:func:`~repro.engine.routing
  .fast_int_buckets`, the same arrival buckets as routing ``Fraction(v)``)
  and each bucket packs into one contiguous int64 buffer (``"i64"``, or
  bare ints beyond int64).  Workers apply int buckets through
  ``process_numeric`` when the summary type is columnar-capable, so no
  Fraction or Item is built on either side of the pipe; other types
  rebuild exact Fractions worker-side, which moves the single biggest
  serial cost into the workers.
* Otherwise the batch is normalised through
  :func:`~repro.engine.engine.as_fraction` first — so malformed values
  raise exactly like the serial path, before any worker mutates — and
  buckets ship as ``(numerator, denominator)`` pairs, or as bare
  numerators when integral, which a worker applies like any int bucket.
  Lanes are representation-only, so either way the shard state is the
  serial path's.

Batches pipeline: ``apply_batch`` returns once the sub-batches are on the
pipes, the supervisor's ack window bounds the in-flight depth, and the
engine's end-of-ingest ``sync`` is the only barrier.  Reads go through
:meth:`collect`, which ships every shard back through the same
:mod:`repro.persistence` codec that checkpoints use.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.engine.engine import as_fraction
from repro.engine.routing import fast_int_buckets, route_batch
from repro.engine.workers.base import ShardExecutor
from repro.engine.workers.ipc import encode_fractions, encode_int_bucket
from repro.engine.workers.supervisor import Supervisor


class ProcessPoolExecutor(ShardExecutor):
    """Long-lived supervised worker processes, each owning a shard subset."""

    kind = "processes"
    remote = True

    def __init__(self) -> None:
        super().__init__()
        self._supervisor: Supervisor | None = None

    # -- lifecycle -----------------------------------------------------------------

    def bind(self, engine) -> None:
        super().bind(engine)
        self._supervisor = Supervisor(engine.config, engine.telemetry)
        self._supervisor.start()

    @property
    def supervisor(self) -> Supervisor:
        if self._supervisor is None:
            raise RuntimeError("ProcessPoolExecutor is not bound to an engine")
        return self._supervisor

    def close(self) -> None:
        if self._supervisor is not None:
            self._supervisor.close()

    # -- ingest --------------------------------------------------------------------

    def apply_batch(self, values: Sequence, already_ingested: int) -> tuple[int, int]:
        config = self.engine.config
        buckets = fast_int_buckets(values, config.shards, already_ingested)
        if buckets is not None:
            encoded = [encode_int_bucket(bucket) for bucket in buckets]
        else:
            fractions = [as_fraction(value) for value in values]
            buckets = route_batch(fractions, config.shards, already_ingested)
            encoded = [encode_fractions(bucket) for bucket in buckets]
        supervisor = self.supervisor
        assignments: dict[int, list] = {}
        busy = 0
        for index, bucket in enumerate(buckets):
            if not bucket:
                continue
            busy += 1
            mode, payload = encoded[index]
            assignments.setdefault(supervisor.owner_of(index), []).append(
                (index, mode, payload)
            )
        if assignments:
            supervisor.submit(assignments)
        return len(values), busy

    def sync(self) -> None:
        self.supervisor.sync()

    # -- reads ---------------------------------------------------------------------

    def shard_counts(self) -> list[int]:
        supervisor = self.supervisor
        supervisor.sync()
        return supervisor.shard_counts()

    def collect(self) -> list[dict]:
        return self.supervisor.collect_states()

    def restore(self, payloads: Sequence[dict]) -> None:
        counts = [summary.n for summary in self.engine._shards]
        self.supervisor.restore(list(payloads), counts)

    # -- reporting -----------------------------------------------------------------

    def describe(self) -> dict:
        supervisor = self.supervisor
        return {
            "kind": self.kind,
            "workers": supervisor.worker_count,
            "queue_depth": supervisor.queue_depth(),
            "restarts": supervisor.restarts_total(),
            "pids": supervisor.worker_pids(),
        }

    def worker_ids(self) -> Iterator[int]:
        return iter(range(self.supervisor.worker_count))

    def worker_pids(self) -> list[int | None]:
        return self.supervisor.worker_pids()

    def health_check(self) -> list[dict]:
        return self.supervisor.health_check()
