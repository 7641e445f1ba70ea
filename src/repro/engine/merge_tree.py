"""Folding per-shard summaries into one global summary.

A sharded engine answers a global quantile query by combining its shards
through the merges registered in :mod:`repro.model.registry` (GK's pairwise
bound-merge, KLL/MRL/REQ native merges, exact concatenation) in a balanced
tree: pairwise rounds of adjacent merges, depth ``ceil(log2 k)``.  This is
the shape mergeable-summary theory assumes (Agarwal et al., *Mergeable
summaries*): for KLL-style sketches the error analysis follows the tree
depth, and for GK the rank bounds add exactly, so the fold keeps the
max-epsilon guarantee while intermediate summaries stay small.

Registered merges never mutate their inputs, so folding is repeatable and
the shards remain live for further ingestion.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.model.registry import merge_summaries
from repro.model.summary import QuantileSummary

MergeCallback = Callable[[], None]


def fold_shards(
    summaries: Sequence[QuantileSummary],
    on_merge: MergeCallback | None = None,
) -> QuantileSummary:
    """Balanced pairwise fold: rounds of adjacent merges until one remains.

    With a single shard the shard itself is returned (no merge, no copy);
    callers must treat the result as read-only either way.
    """
    if not summaries:
        raise ValueError("cannot fold zero summaries")
    level = list(summaries)
    while len(level) > 1:
        next_level = []
        for left, right in zip(level[::2], level[1::2]):
            next_level.append(merge_summaries(left, right))
            if on_merge is not None:
                on_merge()
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
    return level[0]
