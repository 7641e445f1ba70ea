"""Abstract interface for quantile summaries in the comparison-based model.

Summaries hold their state in one of two *lanes* (docs/model.md):

* ``"items"`` — the comparison-based model of Definition 2.1: every stored
  key is an :class:`~repro.universe.item.Item` and only comparisons touch
  it.  This is the default, and the only lane the paper's lower bound (and
  the adversary) applies to.
* ``"columnar"`` — a representation for numeric universes where stored
  keys are raw ints/floats; the engine picks it for each batch whose
  values are all ints.  The *algorithms* are unchanged (they
  only ever compare keys), so state, fingerprints and checkpoints are
  identical between lanes; what changes is the per-key object overhead and
  the eligibility for array/native batch kernels.

Only types with ``supports_columnar = True`` ever enter the columnar lane,
and only through :meth:`QuantileSummary.process_numeric` on an empty summary
(or an explicit :func:`repro.model.lanes.promote_to_columnar`).  Feeding
Items to a columnar summary demotes it back — a representation-only rebuild
— so the two representations never mix inside one structure.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Any

from repro.errors import (
    EmptySummaryError,
    InvalidQuantileError,
    RankEstimationUnsupportedError,
)
from repro.universe.item import Item


def exact_fraction(value: float | Fraction) -> Fraction:
    """Snap a float to the simple rational its caller almost surely meant.

    ``Fraction(0.1)`` is the exact binary expansion of the float, not 1/10;
    threshold arithmetic done with it drifts off the intended guarantee by
    one rank at inconvenient moments.  Snapping through ``limit_denominator``
    recovers the intended rational for every humanly-entered epsilon or phi
    while leaving genuine high-precision fractions untouched.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(value).limit_denominator(10**9)


class QuantileSummary(ABC):
    """A streaming epsilon-approximate quantile summary (Definition 2.1).

    Subclasses process a stream one item at a time and answer quantile
    queries.  The interface additionally exposes the two halves of the
    model's memory: :meth:`item_array` (the item array ``I``) and
    :meth:`fingerprint` (an item-free digest of the general memory ``G``),
    which the adversary uses to check indistinguishability (Definition 3.2).

    Class attributes
    ----------------
    name:
        Short identifier used in tables and the registry.
    is_comparison_based:
        Whether the algorithm fits Definition 2.1.  The lower bound applies
        only to summaries with this flag set (q-digest, for example, is not
        comparison-based and escapes the bound).
    is_deterministic:
        Whether processing is deterministic.  Randomized summaries become
        deterministic — and hence attackable by the adversary — once their
        seed is fixed, which is exactly the reduction behind Theorem 6.4.
    """

    name: str = "abstract"
    is_comparison_based: bool = True
    is_deterministic: bool = True
    #: Whether this type can hold columnar (raw numeric key) state.
    supports_columnar: bool = False

    def __init__(self, epsilon: float) -> None:
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        self.epsilon = epsilon
        self._n = 0
        self._max_item_count = 0
        self._lane = "items"

    # -- stream processing -----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of stream items processed so far."""
        return self._n

    @property
    def max_item_count(self) -> int:
        """Largest item-array size observed so far.

        The model assumes ``|I|`` never decreases; real algorithms do shrink
        their arrays, so the paper's space measure is the maximum over time.
        """
        return self._max_item_count

    @property
    def lane(self) -> str:
        """Which representation the stored keys use: ``items`` or ``columnar``."""
        return self._lane

    def process(self, item: Item) -> None:
        """Insert one stream item."""
        if self._lane != "items" and isinstance(item, Item):
            self._demote_items()
        self._insert(item)
        self._n += 1
        size = self._item_count()
        if size > self._max_item_count:
            self._max_item_count = size

    def process_many(self, items: Any) -> None:
        """Insert a batch of stream items, in order.

        Semantically identical to calling :meth:`process` on each item —
        same final state, same ``n``, same ``max_item_count`` — but summary
        types with a batch kernel (:meth:`_process_batch` override) amortise
        per-item overhead across the batch.
        """
        batch = items if isinstance(items, list) else list(items)
        if not batch:
            return
        if self._lane != "items" and isinstance(batch[0], Item):
            self._demote_items()
        self._process_batch(batch)

    def process_numeric(self, values: Any) -> None:
        """Insert a batch of raw numeric values (ints/floats; bools count).

        The default wraps every value into an :class:`Item` with its exact
        rational key and takes the comparison-model path, so any summary
        accepts numeric batches.  Columnar-capable types
        (``supports_columnar``) override this to keep raw keys end to end
        when their state is empty or already columnar; the final state is
        equivalent either way (same answers, fingerprints and checkpoints).
        """
        batch = values if isinstance(values, list) else list(values)
        if not batch:
            return
        self.process_many(
            [
                Item(value if isinstance(value, Fraction) else Fraction(value))
                for value in batch
            ]
        )

    def _demote_items(self) -> None:
        """Rebuild columnar state with Item keys (representation-only).

        Only reachable on columnar-capable types, which override it; the
        base class never leaves the items lane.
        """
        raise NotImplementedError(
            f"{self.name} cannot hold columnar state"
        )  # pragma: no cover - unreachable without supports_columnar

    def process_all(self, items: Any) -> None:
        """Insert every item of an iterable, in order (alias of batch ingest)."""
        self.process_many(items)

    @abstractmethod
    def _insert(self, item: Item) -> None:
        """Algorithm-specific insertion of a single item."""

    def _process_batch(self, batch: list[Item]) -> None:
        """Algorithm-specific batch insertion; ``batch`` is non-empty.

        The default is the correct-by-default sequential fallback.  Overrides
        must leave the summary in *exactly* the state the fallback would —
        including ``_n``, ``_max_item_count``, and any RNG draw counts — so
        the batch-equivalence property (tests/test_batch_ingest.py) holds.
        """
        for item in batch:
            self.process(item)

    # -- queries ---------------------------------------------------------------

    def query(self, phi: float) -> Item:
        """Return a stored item whose rank is within ``epsilon * n`` of ``phi * n``."""
        if not 0 <= phi <= 1:
            raise InvalidQuantileError(f"phi must be in [0, 1], got {phi}")
        if self._n == 0:
            raise EmptySummaryError("cannot query an empty summary")
        answer = self._query(phi)
        if isinstance(answer, Item):
            return answer
        # Columnar state answers with a raw key; wrap it so the public
        # query API is Item-typed in both lanes (same key either way).
        return Item(Fraction(answer))

    @abstractmethod
    def _query(self, phi: float) -> Item:
        """Algorithm-specific quantile query for validated ``phi``."""

    def estimate_rank(self, item: Item) -> int:
        """Estimate the number of stream items ``<= item`` (Estimating Rank).

        Optional: only summaries that track rank bounds implement it.
        """
        raise RankEstimationUnsupportedError(
            f"{self.name} does not support rank estimation"
        )

    # -- the model's memory ----------------------------------------------------

    @abstractmethod
    def item_array(self) -> list[Item]:
        """The item array ``I``: stored stream items, sorted non-decreasingly."""

    def _item_count(self) -> int:
        """Current ``|I|``; override if cheaper than building the array."""
        return len(self.item_array())

    @abstractmethod
    def fingerprint(self) -> tuple:
        """An item-free, hashable digest of the general memory ``G``.

        Two runs of the same deterministic comparison-based algorithm on
        indistinguishable streams must produce equal fingerprints.  Stored
        items must be represented positionally (by their index in ``I`` or
        their position in the stream), never by value.
        """

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(epsilon={self.epsilon}, n={self._n}, "
            f"stored={self._item_count()})"
        )
