"""The shard-executor interface: who applies a routed batch to the shards.

:class:`~repro.engine.engine.ShardedQuantileEngine` owns its shard
summaries; every batch reaches them through a :class:`ShardExecutor`,
which decides *which thread* runs each shard's batch kernel:

* :class:`~repro.engine.workers.inline.SerialExecutor` — batches apply in
  the calling thread.  The default.
* :class:`~repro.engine.workers.inline.ThreadExecutor` — one thread-pool
  task per busy shard.  The native GK and KLL kernels release the GIL
  (ctypes drops it for each call), so shards overlap inside them.

The contract that keeps every executor honest: **a shard is a deterministic
function of the value subsequence routed to it**.  Executors must apply
exactly the routed values, in routing order, through ``process_many`` — or
``process_numeric`` when the values are ints and the summary type is
columnar-capable, which leaves the same state — so serial and threaded
runs of the same config produce bit-identical shard states.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine builds us)
    from repro.engine.engine import ShardedQuantileEngine


class ShardExecutor(ABC):
    """Applies routed ingest batches to the engine's shard summaries.

    Lifecycle: the engine constructs the executor via
    :func:`~repro.engine.workers.create_executor`, calls :meth:`bind` once
    with itself, then drives ``apply_batch`` during ingest.  ``close``
    releases any thread pool; it must be idempotent.
    """

    #: Registry name of the executor kind (mirrors ``EngineConfig.executor``).
    kind: str = "abstract"

    def __init__(self) -> None:
        self._engine: "ShardedQuantileEngine | None" = None

    def bind(self, engine: "ShardedQuantileEngine") -> None:
        """Attach to the engine whose shards this executor drives."""
        self._engine = engine

    @property
    def engine(self) -> "ShardedQuantileEngine":
        if self._engine is None:
            raise RuntimeError(f"{type(self).__name__} is not bound to an engine")
        return self._engine

    def close(self) -> None:
        """Release executor resources (idempotent; default: nothing to do)."""

    @abstractmethod
    def apply_batch(self, values: Sequence, already_ingested: int) -> tuple[int, int]:
        """Validate, route and apply one raw batch; return (items, busy_shards).

        ``values`` are raw inputs (int/float/str/Fraction); the executor owns
        normalisation through :func:`~repro.engine.engine.as_fraction` so a
        malformed value raises :class:`~repro.errors.MalformedRecordError`
        before any shard mutates.
        """

    def describe(self) -> dict:
        """JSON-compatible executor facts for ``engine.stats()``."""
        return {"kind": self.kind}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(kind={self.kind!r})"
