"""The shard-executor interface: who applies a routed batch to the shards.

:class:`~repro.engine.engine.ShardedQuantileEngine` routes values to shards
but never touches shard summaries directly any more — every mutation and
every read of shard state goes through a :class:`ShardExecutor`.  The
engine stays a coordinator; the executor decides *where* shard summaries
live and *which interpreter* runs their batch kernels:

* :class:`~repro.engine.workers.inline.SerialExecutor` — shards live in the
  engine's process, batches apply in the calling thread.  The default, and
  bit-identical to the engine's historical behaviour.
* :class:`~repro.engine.workers.inline.ThreadExecutor` — same in-process
  shards, one thread per busy shard (GIL-bound; useful for I/O-heavy
  summary types only).
* :class:`~repro.engine.workers.pool.ProcessPoolExecutor` — the ``processes``
  mode: long-lived worker processes *own* disjoint subsets of the shards,
  receive routed sub-batches over codec IPC, apply them with the shard
  type's batch kernels, and ship encoded summaries back only at
  query/checkpoint time.  Real parallelism; supervised and
  crash-recoverable (:mod:`repro.engine.workers.supervisor`).

The contract that keeps every executor honest: **a shard is a deterministic
function of the value subsequence routed to it**.  Executors may move a
shard between interpreters, but they must apply exactly the routed values,
in routing order, through ``process_many`` — or ``process_numeric`` when the
values are ints and the summary type is columnar-capable, which leaves the
same state — so serial and process-pool runs of the same config produce
bit-identical shard states.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine builds us)
    from repro.engine.engine import ShardedQuantileEngine


class ShardExecutor(ABC):
    """Applies routed ingest batches to shard summaries, somewhere.

    Lifecycle: the engine constructs the executor via
    :func:`~repro.engine.workers.create_executor`, calls :meth:`bind` once
    with itself, then drives ``apply_batch``/``sync`` during ingest and
    ``collect``/``shard_counts`` at read/checkpoint time.
    ``close`` releases any worker resources; it must be idempotent.
    """

    #: Registry name of the executor kind (mirrors ``EngineConfig.executor``).
    kind: str = "abstract"

    #: True when shard state lives outside the engine's process, so reads
    #: must :meth:`collect` encoded summaries before folding.
    remote: bool = False

    def __init__(self) -> None:
        self._engine: "ShardedQuantileEngine | None" = None

    # -- lifecycle -----------------------------------------------------------------

    def bind(self, engine: "ShardedQuantileEngine") -> None:
        """Attach to the engine whose shards this executor drives."""
        self._engine = engine

    @property
    def engine(self) -> "ShardedQuantileEngine":
        if self._engine is None:
            raise RuntimeError(f"{type(self).__name__} is not bound to an engine")
        return self._engine

    def close(self) -> None:
        """Release worker resources (idempotent; default: nothing to do)."""

    # -- ingest --------------------------------------------------------------------

    @abstractmethod
    def apply_batch(self, values: Sequence, already_ingested: int) -> tuple[int, int]:
        """Validate, route and apply one raw batch; return (items, busy_shards).

        ``values`` are raw inputs (int/float/str/Fraction); the executor owns
        normalisation through :func:`~repro.engine.engine.as_fraction` so a
        malformed value raises :class:`~repro.errors.MalformedRecordError`
        before any shard mutates, exactly like the historical serial path.
        """

    def sync(self) -> None:
        """Barrier: every batch fed so far is applied to its shard."""

    # -- reads ---------------------------------------------------------------------

    @abstractmethod
    def shard_counts(self) -> list[int]:
        """Per-shard item counts (``summary.n``) after the last sync."""

    def collect(self) -> list[dict] | None:
        """Encoded per-shard summary payloads, or None for in-process shards.

        Remote executors ship each shard summary through the
        :mod:`repro.persistence` codec; the engine decodes them into its
        local mirror before merge-tree folds and checkpoints.
        """
        return None

    def restore(self, payloads: Sequence[dict]) -> None:
        """Reset shard state from checkpoint payloads (engine.restore path)."""

    # -- reporting -----------------------------------------------------------------

    def describe(self) -> dict:
        """JSON-compatible executor facts for ``engine.stats()``."""
        return {"kind": self.kind}

    def worker_ids(self) -> Iterator[int]:
        """Live worker identifiers (empty for in-process executors)."""
        return iter(())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(kind={self.kind!r})"
