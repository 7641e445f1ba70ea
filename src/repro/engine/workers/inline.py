"""The executors: shards stay in the engine, batches apply in its process.

:class:`SerialExecutor` is the default: it routes each batch by arrival and
feeds every busy shard in order, in the calling thread.
:class:`ThreadExecutor` feeds busy shards from one thread pool held from
``bind`` to ``close`` (one task per busy shard, so a shard is still only
ever touched by one thread).  Both leave bit-identical shard states.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from repro.engine.engine import as_fraction
from repro.engine.routing import fast_int_buckets, route_batch
from repro.engine.workers.base import ShardExecutor
from repro.model.registry import get_descriptor


class _InlineExecutor(ShardExecutor):
    """Shared plumbing: the lane test and arrival routing of one batch."""

    def bind(self, engine) -> None:
        super().bind(engine)
        self._columnar = get_descriptor(engine.config.summary).columnar

    def _route(self, values: Sequence, already_ingested: int):
        """Route one raw batch; returns (buckets, feed, busy).

        The lane is a property of the batch.  When every value is faithful
        to an int (the :func:`fast_int_buckets` contract) and the summary
        type is columnar-capable, the raw int buckets feed
        ``process_numeric``; anything else — non-integral values, malformed
        records, summary types without a columnar lane — takes the exact
        Fraction path, which owns both the semantics and the errors.
        """
        engine = self.engine
        config = engine.config
        buckets = None
        if self._columnar:
            buckets = fast_int_buckets(values, config.shards, already_ingested)
        if buckets is not None:
            feed = engine._feed_shard_numeric
        else:
            fractions = [as_fraction(value) for value in values]
            buckets = route_batch(fractions, config.shards, already_ingested)
            feed = engine._feed_shard
        busy = [index for index, bucket in enumerate(buckets) if bucket]
        return buckets, feed, busy


class SerialExecutor(_InlineExecutor):
    """Apply every busy shard's bucket in the calling thread (the default)."""

    kind = "serial"

    def apply_batch(self, values: Sequence, already_ingested: int) -> tuple[int, int]:
        buckets, feed, busy = self._route(values, already_ingested)
        for index in busy:
            feed(index, buckets[index])
        return len(values), len(busy)


class ThreadExecutor(_InlineExecutor):
    """One thread-pool task per busy shard, ``workers`` threads per engine.

    The native GK and KLL kernels run without the GIL (ctypes releases it
    for each call), so busy shards overlap inside them; the pure-Python
    kernels and the routing hold it.  Deterministic regardless: each shard
    is touched by exactly one task, so no locks and no interleaving within
    a shard.  The pool lives from :meth:`bind` to :meth:`close`; a closed
    executor applies batches inline.
    """

    kind = "thread"

    def __init__(self) -> None:
        super().__init__()
        self._pool: ThreadPoolExecutor | None = None

    def bind(self, engine) -> None:
        super().bind(engine)
        self._pool = ThreadPoolExecutor(max_workers=engine.config.workers)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def apply_batch(self, values: Sequence, already_ingested: int) -> tuple[int, int]:
        buckets, feed, busy = self._route(values, already_ingested)
        if self._pool is not None and len(busy) > 1:
            list(self._pool.map(lambda index: feed(index, buckets[index]), busy))
        else:
            for index in busy:
                feed(index, buckets[index])
        return len(values), len(busy)
