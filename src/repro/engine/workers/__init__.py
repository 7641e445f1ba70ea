"""Shard-executor subsystem: who applies routed batches to shards, and where.

See :mod:`repro.engine.workers.base` for the executor contract.  The engine
asks :func:`create_executor` for an implementation by its
``EngineConfig.executor`` name:

========== ============================================== ==================
name       implementation                                 shard state
========== ============================================== ==================
serial     :class:`~repro.engine.workers.inline.SerialExecutor`   in-process
thread     :class:`~repro.engine.workers.inline.ThreadExecutor`   in-process
processes  :class:`~repro.engine.workers.pool.ProcessPoolExecutor` worker-owned
========== ============================================== ==================
"""

from repro.engine.workers.base import ShardExecutor
from repro.engine.workers.inline import SerialExecutor, ThreadExecutor
from repro.engine.workers.pool import ProcessPoolExecutor
from repro.engine.workers.supervisor import (
    DEFAULT_SNAPSHOT_EVERY,
    DEFAULT_WINDOW,
    SNAPSHOT_EVERY_ENV,
    START_METHOD_ENV,
    Supervisor,
    WorkerHandle,
)
from repro.errors import EngineError

_EXECUTOR_TYPES: dict[str, type[ShardExecutor]] = {
    SerialExecutor.kind: SerialExecutor,
    ThreadExecutor.kind: ThreadExecutor,
    ProcessPoolExecutor.kind: ProcessPoolExecutor,
}


def executor_kinds() -> tuple[str, ...]:
    """Registered executor names, in registration order."""
    return tuple(_EXECUTOR_TYPES)


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
    "DEFAULT_SNAPSHOT_EVERY",
    "DEFAULT_WINDOW",
    "ProcessPoolExecutor",
    "SNAPSHOT_EVERY_ENV",
    "START_METHOD_ENV",
    "SerialExecutor",
    "ShardExecutor",
    "Supervisor",
    "ThreadExecutor",
    "WorkerHandle",
    "create_executor",
    "executor_kinds",
]
