"""Shard-executor subsystem: who applies routed batches to the shards.

See :mod:`repro.engine.workers.base` for the executor contract.  The engine
asks :func:`create_executor` for an implementation by its
``EngineConfig.executor`` name; both keep the shards in the engine:

====== ======================================================
name   implementation
====== ======================================================
serial :class:`~repro.engine.workers.inline.SerialExecutor`
thread :class:`~repro.engine.workers.inline.ThreadExecutor`
====== ======================================================
"""

from repro.engine.workers.base import ShardExecutor
from repro.engine.workers.inline import SerialExecutor, ThreadExecutor
from repro.errors import EngineError

_EXECUTOR_TYPES: dict[str, type[ShardExecutor]] = {
    SerialExecutor.kind: SerialExecutor,
    ThreadExecutor.kind: ThreadExecutor,
}


def create_executor(config) -> ShardExecutor:
    """Build the (unbound) executor named by ``config.executor``."""
    try:
        factory = _EXECUTOR_TYPES[config.executor]
    except KeyError:
        known = ", ".join(_EXECUTOR_TYPES)
        raise EngineError(
            f"unknown executor {config.executor!r}; choose from: {known}"
        ) from None
    return factory()


__all__ = [
    "SerialExecutor",
    "ShardExecutor",
    "ThreadExecutor",
    "create_executor",
]
