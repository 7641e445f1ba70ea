"""Configuration for the sharded quantile-aggregation engine.

:class:`EngineConfig` is a plain dataclass carrying every knob the engine
honours, with a :meth:`~EngineConfig.validate` method that raises
:class:`~repro.errors.EngineError` with actionable messages (which values are
accepted, which summary types would work).  The CLI and the engine both call
it, so a bad ``--shards`` or an unmergeable ``--summary`` fails fast with the
same wording everywhere.

Configs serialise to/from JSON-compatible dicts (:meth:`~EngineConfig.to_payload`
/ :meth:`~EngineConfig.from_payload`) so a checkpoint records exactly how the
engine was built and :meth:`ShardedQuantileEngine.restore` can rebuild it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

from repro.errors import EngineError
from repro.model.registry import (
    available_summaries,
    get_descriptor,
    has_merge,
    mergeable_summaries,
    summary_factory,
)

CONFIG_FORMAT = 1


@dataclass
class EngineConfig:
    """Everything needed to (re)build a :class:`ShardedQuantileEngine`.

    Parameters
    ----------
    summary:
        Registry name of the per-shard summary type.  Must have a merge
        function registered (the engine answers global queries by folding
        shards), so e.g. ``offline`` and ``qdigest`` are rejected, and a
        ``compile_index`` (every read goes through the compiled index).
    epsilon:
        Per-shard target rank-error fraction.  GK's pairwise merge preserves
        the maximum input epsilon, so the folded answer is still an
        ``epsilon``-approximate summary of the union.
    shards:
        Number of independent per-shard summaries.
    workers:
        Threads that feed busy shards.  ``1`` feeds them in the calling
        thread; more runs one pool task per busy shard, at most ``workers``
        at once, on a pool the engine holds until ``close()``.  Shard
        states are bit-identical either way.
    seed:
        Base seed; shard ``i`` gets ``seed + i`` when the summary type is
        seedable, so shards draw independent (but reproducible) randomness.
    batch_size:
        Default number of items routed per ingest round.
    summary_kwargs:
        Extra keyword arguments forwarded to the summary factory
        (e.g. ``{"n_hint": 100_000}`` for MRL).
    """

    summary: str = "kll"
    epsilon: float = 0.01
    shards: int = 4
    workers: int = 1
    seed: int = 0
    batch_size: int = 4096
    summary_kwargs: dict = field(default_factory=dict)

    def validate(self) -> "EngineConfig":
        """Check every field; raise :class:`EngineError` with guidance."""
        if self.summary not in available_summaries():
            known = ", ".join(available_summaries())
            raise EngineError(
                f"unknown summary type {self.summary!r}; registered types: {known}"
            )
        if not has_merge(self.summary):
            mergeable = ", ".join(mergeable_summaries())
            raise EngineError(
                f"summary type {self.summary!r} has no registered merge, so a "
                f"sharded engine cannot fold its shards into a global answer; "
                f"pick one of: {mergeable}"
            )
        if get_descriptor(self.summary).compile_index is None:
            raise EngineError(
                f"summary type {self.summary!r} has no registered "
                "compile_index, so the engine cannot build its read index"
            )
        if not 0 < self.epsilon < 1:
            raise EngineError(
                f"epsilon must be in (0, 1), got {self.epsilon}"
            )
        if not isinstance(self.shards, int) or self.shards < 1:
            raise EngineError(
                f"shards must be a positive integer, got {self.shards!r}"
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            raise EngineError(
                f"workers must be a positive integer, got {self.workers!r}"
            )
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise EngineError(
                f"batch_size must be a positive integer, got {self.batch_size!r}"
            )
        return self

    # -- per-shard factory kwargs -------------------------------------------------

    def shard_kwargs(self, index: int) -> dict:
        """Factory kwargs for shard ``index`` (seeded when seedable)."""
        kwargs = dict(self.summary_kwargs)
        if "seed" not in kwargs and self._summary_is_seedable():
            kwargs["seed"] = self.seed + index
        return kwargs

    def _summary_is_seedable(self) -> bool:
        factory = summary_factory(self.summary)
        try:
            parameters = inspect.signature(factory).parameters
        except (TypeError, ValueError):  # pragma: no cover - exotic factories
            return False
        return "seed" in parameters

    # -- (de)serialisation ---------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "format": CONFIG_FORMAT,
            "summary": self.summary,
            "epsilon": repr(float(self.epsilon)),
            "shards": self.shards,
            "workers": self.workers,
            "seed": self.seed,
            "batch_size": self.batch_size,
            "summary_kwargs": dict(self.summary_kwargs),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "EngineConfig":
        if payload.get("format") != CONFIG_FORMAT:
            raise EngineError(
                f"unsupported engine-config format {payload.get('format')!r}"
            )
        # Older checkpoints may carry keys for retired settings, which are
        # ignored: ``lane`` (now read off each batch), ``routing`` (every
        # engine routes by arrival, so a hash-routed checkpoint continues by
        # arrival), ``merge_strategy`` (every fold is balanced) and
        # ``executor`` (``workers`` alone decides; shard payloads do not
        # depend on the thread that built them).
        return cls(
            summary=payload["summary"],
            epsilon=float(payload["epsilon"]),
            shards=int(payload["shards"]),
            workers=int(payload["workers"]),
            seed=int(payload["seed"]),
            batch_size=int(payload["batch_size"]),
            summary_kwargs=dict(payload.get("summary_kwargs", {})),
        ).validate()
