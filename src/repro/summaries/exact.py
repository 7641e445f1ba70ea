"""The exact, store-everything summary.

Space Theta(N), error zero.  It is the correctness oracle for tests and the
degenerate endpoint of the space/accuracy trade-off in T10.  Trivially
comparison-based and deterministic, so the adversary applies — and simply
confirms that with all items stored the gap never exceeds 1.
"""

from __future__ import annotations

import math

from repro.containers.sortedlist import SortedItemList
from repro.errors import EmptySummaryError
from repro.model.rankindex import RankIndex, build_index
from repro.model.registry import merge_by_absorbing, register_descriptor
from repro.model.summary import QuantileSummary, exact_fraction
from repro.persistence import decode_key, encode_key, epsilon_of
from repro.universe.item import Item
from repro.universe.universe import Universe


class ExactSummary(QuantileSummary):
    """Stores the whole stream; answers all queries exactly."""

    name = "exact"

    def __init__(self, epsilon: float = 0.5) -> None:
        # epsilon is irrelevant to an exact summary but kept for interface
        # uniformity; any value in (0, 1) is accepted.
        super().__init__(float(epsilon))
        self._items = SortedItemList()

    def _insert(self, item: Item) -> None:
        self._items.add(item)

    def _process_batch(self, batch: list[Item]) -> None:
        # Bulk sorted insert; the item count only grows, so the final size
        # is the max the sequential path would have observed.
        self._items.update(batch)
        self._n += len(batch)
        size = len(self._items)
        if size > self._max_item_count:
            self._max_item_count = size

    def merge(self, other: "ExactSummary") -> None:
        """Absorb another exact summary (trivially mergeable)."""
        if not isinstance(other, ExactSummary):
            raise TypeError(f"cannot merge ExactSummary with {type(other).__name__}")
        for item in other.item_array():
            self._items.add(item)
        self._n += other.n
        self._max_item_count = max(self._max_item_count, len(self._items))

    def _query(self, phi: float) -> Item:
        if not len(self._items):
            raise EmptySummaryError("no items stored")
        target = max(1, min(self._n, math.ceil(exact_fraction(phi) * self._n)))
        return self._items[target - 1]

    def estimate_rank(self, item: Item) -> int:
        return self._items.bisect_right(item)

    def item_array(self) -> list[Item]:
        return list(self._items)

    def _item_count(self) -> int:
        return len(self._items)

    def fingerprint(self) -> tuple:
        return (self.name, self._n)


def _compile_exact_index(summary: ExactSummary) -> RankIndex:
    """Freeze the full sorted stream: unit weights, exact answers.

    ``rank_empty_zero`` mirrors ``estimate_rank``'s bisect on an empty list,
    the one rank path in the registry that answers 0 instead of raising.
    """
    items = summary.item_array()
    return build_index(
        items=items,
        rmin=list(range(1, len(items) + 1)),
        n=summary.n,
        q_round="ceil",
        rank_rule="weight",
        rank_empty_zero=True,
    )


def _encode_exact(summary: ExactSummary) -> dict:
    return {"items": [encode_key(item) for item in summary.item_array()]}


def _decode_exact(payload: dict, universe: Universe) -> ExactSummary:
    summary = ExactSummary(epsilon_of(payload))
    for key in payload["items"]:
        summary._items.add(universe.item(decode_key(key)))
    return summary


register_descriptor(
    "exact",
    ExactSummary,
    merge=merge_by_absorbing,
    encode=_encode_exact,
    decode=_decode_exact,
    compile_index=_compile_exact_index,
)
