"""Reservoir-sampling quantile summary.

The simplest randomized baseline: keep a uniform sample of ``m`` items
(Vitter's reservoir algorithm) and answer quantile queries from the sample.
Standard concentration gives rank error O(n * sqrt(log(1/delta) / m)), so
``m = O(log(1/delta) / eps^2)`` suffices for an ``eps n`` guarantee — far
more than KLL needs, which is why it only serves as a baseline in T10.

Seedable, hence deterministic once seeded, like :class:`~repro.summaries.KLL`.
"""

from __future__ import annotations

import math
import random

from repro.errors import EmptySummaryError
from repro.model.rankindex import RankIndex, build_index
from repro.model.registry import register_descriptor
from repro.model.summary import QuantileSummary, exact_fraction
from repro.persistence import (
    decode_key,
    encode_key,
    encode_rng,
    epsilon_of,
    restore_rng,
)
from repro.universe.item import Item
from repro.universe.universe import Universe


def reservoir_size_for(epsilon: float, delta: float = 0.01) -> int:
    """Sample size giving rank error ``eps n`` with probability ``1 - delta``."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return max(1, math.ceil(2 * math.log(2 / delta) / (epsilon * epsilon)))


class ReservoirSampling(QuantileSummary):
    """Uniform reservoir sample answering quantile and rank queries."""

    name = "sampling"
    is_deterministic = False

    def __init__(
        self,
        epsilon: float,
        m: int | None = None,
        seed: int | None = 0,
        delta: float = 0.01,
    ) -> None:
        super().__init__(float(epsilon))
        self.m = m if m is not None else reservoir_size_for(float(epsilon), delta)
        self.seed = seed
        self._rng = random.Random(seed)
        self._reservoir: list[Item] = []

    def _insert(self, item: Item) -> None:
        if len(self._reservoir) < self.m:
            self._reservoir.append(item)
            return
        slot = self._rng.randrange(self._n + 1)
        if slot < self.m:
            self._reservoir[slot] = item

    def _process_batch(self, batch: list[Item]) -> None:
        """Bulk fill, then the per-item replacement loop without dispatch.

        The fill phase draws nothing; afterwards exactly one
        ``randrange(n + 1)`` per item reproduces the sequential RNG stream.
        The reservoir never shrinks, so its final size is the max observed.
        """
        fill = min(self.m - len(self._reservoir), len(batch))
        if fill > 0:
            self._reservoir.extend(batch[:fill])
            self._n += fill
        reservoir = self._reservoir
        m = self.m
        rng = self._rng
        n = self._n
        for item in batch[max(fill, 0) :]:
            slot = rng.randrange(n + 1)
            if slot < m:
                reservoir[slot] = item
            n += 1
        self._n = n
        size = len(reservoir)
        if size > self._max_item_count:
            self._max_item_count = size

    def _query(self, phi: float) -> Item:
        if not self._reservoir:
            raise EmptySummaryError("no items stored")
        ordered = sorted(self._reservoir)
        target = max(1, min(len(ordered), math.ceil(exact_fraction(phi) * len(ordered))))
        return ordered[target - 1]

    def estimate_rank(self, item: Item) -> int:
        if self._n == 0:
            raise EmptySummaryError("cannot estimate rank on an empty summary")
        if not self._reservoir:
            return 0
        below = sum(1 for stored in self._reservoir if stored <= item)
        return round(below * self._n / len(self._reservoir))

    def item_array(self) -> list[Item]:
        return sorted(self._reservoir)

    def _item_count(self) -> int:
        return len(self._reservoir)

    def fingerprint(self) -> tuple:
        return (self.name, self._n, self.m, self.seed, len(self._reservoir))


def _compile_sampling_index(summary: ReservoirSampling) -> RankIndex:
    """Freeze the sorted reservoir.

    Quantile targets live in the reservoir-size domain (the sample stands in
    for the stream) and ranks rescale the below-count to the stream length,
    as the sequential paths do.
    """
    ordered = sorted(summary._reservoir)
    return build_index(
        items=ordered,
        rmin=list(range(1, len(ordered) + 1)),
        n=summary.n,
        total_weight=len(ordered),
        q_domain="weight",
        q_round="ceil",
        rank_rule="scaled",
    )


def _encode_sampling(summary: ReservoirSampling) -> dict:
    # The reservoir's *list order* matters (replacement indexes into it), so
    # items are stored in slot order, not sorted.
    return {
        "m": summary.m,
        "seed": summary.seed,
        "rng": encode_rng(summary._rng),
        "reservoir": [encode_key(item) for item in summary._reservoir],
    }


def _decode_sampling(payload: dict, universe: Universe) -> ReservoirSampling:
    summary = ReservoirSampling(
        epsilon_of(payload), m=int(payload["m"]), seed=payload["seed"]
    )
    summary._reservoir = [
        universe.item(decode_key(key)) for key in payload["reservoir"]
    ]

    def replay() -> None:
        # One randrange(j + 1) was drawn per insert after the reservoir
        # filled (at j = m, m+1, ..., n-1); redrawing the same bounds
        # reproduces the RNG state exactly.
        for j in range(summary.m, int(payload["n"])):
            summary._rng.randrange(j + 1)

    restore_rng(summary._rng, payload.get("rng"), replay)
    return summary


register_descriptor(
    "sampling",
    ReservoirSampling,
    encode=_encode_sampling,
    decode=_decode_sampling,
    compile_index=_compile_sampling_index,
)
