"""A relative-error compactor sketch — the paper's §6.4 future work.

Section 6.4 ends with: "Closing the gaps for (deterministic or randomized)
biased quantiles remains open."  The follow-up line of work by the paper's
own authors (Cormode, Karnin, Liberty, Thaler, Veselý, *Relative Error
Streaming Quantiles*, PODS 2021 — the "REQ" sketch now in Apache
DataSketches) answered the randomized side with relative-error *compactors*:
KLL-style levels that, when they overflow, protect their smallest items and
compact only the largest ones, so low ranks — where the relative guarantee
is tightest — are almost never disturbed.

This module implements that idea in its simplest principled form:

* each level holds items of weight ``2^level``;
* an overflowing level sorts itself, keeps its smallest ``protected``
  items untouched, and promotes every other item of the rest (random
  offset) to the next level;
* ranks/quantiles are answered from the weighted union, exactly as in KLL.

An item of low rank r is only ever involved in a compaction when more than
``protected`` items sit below it *within its level*, which happens O(r / 2^h
/ protected) times at level h — hence errors proportional to r rather than
n.  We label this honestly: a simplified REQ *lineage* sketch whose
relative-error behaviour is validated empirically by the test suite (and
compared against the deterministic biased summary), not a verbatim
implementation of the 2021 paper's adaptive-section machinery.

Randomized; seeded (hence attackable via Theorem 6.4's reduction, like KLL).
"""

from __future__ import annotations

import math
import random

from repro.errors import EmptySummaryError
from repro.model.rankindex import RankIndex, index_from_weighted_items
from repro.model.registry import merge_by_absorbing, register_descriptor
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


class RelativeErrorSketch(QuantileSummary):
    """Low-rank-accurate quantile sketch via protected compactors.

    Parameters
    ----------
    epsilon:
        Target *relative* rank-error fraction: queries at rank k aim for
        ``eps * k`` error (validated empirically; see module docstring).
    k:
        Compactor capacity; default derived from epsilon.
    seed:
        Seed for compaction offsets; fixed seed => deterministic run.
    """

    name = "req"
    is_deterministic = False

    def __init__(
        self,
        epsilon: float,
        k: int | None = None,
        seed: int | None = 0,
    ) -> None:
        super().__init__(float(epsilon))
        eps = float(exact_fraction(epsilon))
        # The 16/eps default is calibrated empirically (see the test suite):
        # it keeps the worst observed relative error below eps across seeds
        # and rank scales on the reference workloads.
        self.k = k if k is not None else max(8, 16 * math.ceil(1 / eps))
        if self.k < 8:
            raise ValueError(f"k must be at least 8, got {self.k}")
        if self.k % 4:
            self.k += 4 - self.k % 4  # keep halves and quarters integral
        self.seed = seed
        self._rng = random.Random(seed)
        self._rng_draws = 0  # counts coin flips, for lossless persistence
        self._levels: list[list[Item]] = [[]]

    # -- processing ----------------------------------------------------------------

    @property
    def _protected(self) -> int:
        """Smallest items per level never touched by a compaction."""
        return self.k // 2

    def _insert(self, item: Item) -> None:
        self._levels[0].append(item)
        level = 0
        while level < len(self._levels) and len(self._levels[level]) >= self.k:
            self._compact(level)
            level += 1

    def _process_batch(self, batch: list[Item]) -> None:
        """Fill level 0 from slices; state-identical to sequential inserts.

        Each slice tops level 0 up to exactly ``k`` (the base buffer is
        unsorted, so a plain ``extend`` preserves sequential append order),
        and the compaction cascade fires at the same points as
        item-at-a-time processing.
        """
        start, total = 0, len(batch)
        while start < total:
            level0 = self._levels[0]
            free = self.k - len(level0)
            if free <= 0:
                self.process(batch[start])
                start += 1
                continue
            take = min(free, total - start)
            level0.extend(batch[start : start + take])
            self._n += take
            start += take
            if len(level0) >= self.k:
                # Sequentially, the trigger item's size is observed only
                # after the cascade.
                peak = self._item_count() - 1
                if peak > self._max_item_count:
                    self._max_item_count = peak
                level = 0
                while level < len(self._levels) and len(self._levels[level]) >= self.k:
                    self._compact(level)
                    level += 1
            size = self._item_count()
            if size > self._max_item_count:
                self._max_item_count = size

    def _compact(self, level: int) -> None:
        buffer = self._levels[level]
        buffer.sort()
        protected = buffer[: self._protected]
        compactable = buffer[self._protected :]
        if len(compactable) % 2 == 1:
            # Keep the smallest compactable item behind to preserve weight.
            protected = protected + compactable[:1]
            compactable = compactable[1:]
        offset = self._rng.randrange(2)
        self._rng_draws += 1
        promoted = compactable[offset::2]
        self._levels[level] = protected
        if level + 1 == len(self._levels):
            self._levels.append([])
        self._levels[level + 1].extend(promoted)

    # -- merging ---------------------------------------------------------------------

    def merge(self, other: "RelativeErrorSketch") -> None:
        """Absorb ``other`` level-wise (the KLL-style fully-mergeable shape).

        Levels concatenate; any overflowing level re-compacts with the usual
        protected-prefix rule, so low ranks of the union stay undisturbed.
        ``other`` is left intact.
        """
        if not isinstance(other, RelativeErrorSketch):
            raise TypeError(
                f"cannot merge RelativeErrorSketch with {type(other).__name__}"
            )
        while len(self._levels) < len(other._levels):
            self._levels.append([])
        for level, buffer in enumerate(other._levels):
            self._levels[level].extend(buffer)
        self._n += other.n
        level = 0
        while level < len(self._levels):
            if len(self._levels[level]) >= self.k:
                self._compact(level)
            level += 1
        self._max_item_count = max(self._max_item_count, self._item_count())

    # -- queries --------------------------------------------------------------------

    def _weighted_items(self) -> list[tuple[Item, int]]:
        pairs = [
            (item, 1 << level)
            for level, buffer in enumerate(self._levels)
            for item in buffer
        ]
        pairs.sort(key=lambda pair: pair[0])
        return pairs

    def _query(self, phi: float) -> Item:
        pairs = self._weighted_items()
        if not pairs:
            raise EmptySummaryError("no items stored")
        target = max(1, min(self._n, math.ceil(exact_fraction(phi) * self._n)))
        cumulative = 0
        for item, weight in pairs:
            cumulative += weight
            if cumulative >= target:
                return item
        return pairs[-1][0]

    def estimate_rank(self, item: Item) -> int:
        if self._n == 0:
            raise EmptySummaryError("cannot estimate rank on an empty summary")
        return sum(weight for stored, weight in self._weighted_items() if stored <= item)

    # -- the model's memory ------------------------------------------------------------

    def item_array(self) -> list[Item]:
        return [item for item, _ in self._weighted_items()]

    def _item_count(self) -> int:
        return sum(len(buffer) for buffer in self._levels)

    def fingerprint(self) -> tuple:
        sizes = tuple(len(buffer) for buffer in self._levels)
        return (self.name, self._n, self.k, self.seed, sizes)


def _compile_req_index(summary: RelativeErrorSketch) -> RankIndex:
    """Freeze the weighted level items; targets stay in the n domain."""
    return index_from_weighted_items(
        summary,
        summary._weighted_items(),
        q_domain="n",
        q_round="ceil",
        rank_rule="weight",
    )


def _encode_req(summary: RelativeErrorSketch) -> dict:
    return {
        "k": summary.k,
        "seed": summary.seed,
        "rng_state": summary._rng_draws,
        "rng": encode_rng(summary._rng),
        "levels": [
            [encode_key(item) for item in buffer] for buffer in summary._levels
        ],
    }


def _decode_req(payload: dict, universe: Universe) -> RelativeErrorSketch:
    summary = RelativeErrorSketch(
        epsilon_of(payload), k=int(payload["k"]), seed=payload["seed"]
    )
    summary._levels = [
        [universe.item(decode_key(key)) for key in buffer]
        for buffer in payload["levels"]
    ]
    summary._rng_draws = int(payload["rng_state"])

    def replay() -> None:
        # One randrange(2) per compaction since the seed.
        for _ in range(summary._rng_draws):
            summary._rng.randrange(2)

    restore_rng(summary._rng, payload.get("rng"), replay)
    return summary


register_descriptor(
    "req",
    RelativeErrorSketch,
    merge=merge_by_absorbing,
    encode=_encode_req,
    decode=_decode_req,
    compile_index=_compile_req_index,
)
