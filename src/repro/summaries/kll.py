"""The Karnin-Lang-Liberty (KLL) randomized quantile sketch.

Reference: Karnin, Lang, Liberty, "Optimal quantile approximation in
streams", FOCS 2016 — reference [11] of the paper.  KLL is the randomized
comparison-based summary whose O((1/eps) * log log(1/delta)) space the
paper's Theorem 6.4 proves optimal for exponentially small delta.

Structure: a stack of *compactors*.  Level ``h`` stores items of weight
``2^h``; when level ``h`` overflows its capacity it sorts itself and promotes
either the odd- or even-indexed half (chosen by a fair coin) to level
``h + 1``.  Capacities shrink geometrically from the top: the top few levels
have capacity ``k`` and lower levels ``k * c^depth`` (c = 2/3), so total
space is O(k) plus the logarithmic tail — the classic KLL layout.

Randomness is drawn from ``random.Random(seed)``.  With the seed fixed the
sketch is a *deterministic* comparison-based summary, which is precisely the
derandomization step in the paper's Theorem 6.4 reduction; experiment T7
exploits that to run the deterministic adversary against seeded KLL.
"""

from __future__ import annotations

import functools
import math
import random
from array import array
from fractions import Fraction

from repro.errors import EmptySummaryError
from repro.model.rankindex import RankIndex, index_from_weighted_items
from repro.model.registry import merge_by_absorbing, register_descriptor
from repro.model.summary import QuantileSummary, exact_fraction
from repro.native import kll_batch as native_kll_batch, native_disabled
from repro.persistence import (
    decode_key,
    encode_key,
    encode_rng,
    epsilon_of,
    restore_rng,
)
from repro.universe.item import Item
from repro.universe.universe import Universe

_CAPACITY_DECAY = 2.0 / 3.0
_MINIMUM_CAPACITY = 2


def kll_k_for(epsilon: float, delta: float) -> int:
    """Compactor capacity ``k`` giving error ``eps n`` with probability 1 - delta.

    From the KLL analysis the failure probability behaves like
    ``exp(-Omega(k^2 eps^2))`` for the top compactor, so
    ``k = ceil(sqrt(ln(1/delta)) / eps)`` (with a small constant) suffices.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return max(_MINIMUM_CAPACITY, math.ceil(math.sqrt(math.log(1 / delta)) / epsilon))


def _capacity_table(k: int) -> tuple[int, ...]:
    """Capacity by depth below the top, ``max(2, ceil(k (2/3)^depth))``.

    The table stops at the first depth that reaches the floor; every deeper
    level has the floor capacity too.
    """
    table = []
    depth = 0
    while not table or table[-1] > _MINIMUM_CAPACITY:
        table.append(max(_MINIMUM_CAPACITY, math.ceil(k * (_CAPACITY_DECAY**depth))))
        depth += 1
    return tuple(table)


class KLL(QuantileSummary):
    """KLL sketch with seedable randomness.

    Parameters
    ----------
    epsilon:
        Target rank-error fraction.
    k:
        Top-compactor capacity.  Defaults to :func:`kll_k_for` with
        ``delta = 0.01``.
    seed:
        Seed for the compaction coin flips.  Fixing it makes the sketch
        deterministic (Theorem 6.4's reduction).
    """

    name = "kll"
    is_deterministic = False  # with a fixed seed it effectively is; see T7
    supports_columnar = True

    def __init__(
        self,
        epsilon: float,
        k: int | None = None,
        seed: int | None = 0,
        delta: float = 0.01,
    ) -> None:
        super().__init__(float(epsilon))
        self.k = k if k is not None else kll_k_for(float(epsilon), delta)
        if self.k < _MINIMUM_CAPACITY:
            raise ValueError(f"k must be at least {_MINIMUM_CAPACITY}, got {self.k}")
        self.seed = seed
        self._rng = random.Random(seed)
        self._rng_draws = 0  # counts coin flips, for lossless persistence
        self._compactors: list[list[Item]] = [[]]
        self._capacities = _capacity_table(self.k)

    # -- capacities ---------------------------------------------------------------

    def _capacity(self, level: int) -> int:
        """Capacity of ``level``: ``k`` at the top, decaying by 2/3 downward."""
        depth = len(self._compactors) - 1 - level
        capacities = self._capacities
        return capacities[depth] if depth < len(capacities) else _MINIMUM_CAPACITY

    # -- processing ----------------------------------------------------------------

    def _insert(self, item: Item) -> None:
        self._compactors[0].append(item)
        level = 0
        while len(self._compactors[level]) >= self._capacity(level):
            self._compact(level)
            level += 1
            if level == len(self._compactors):
                break

    def _process_batch(self, batch: list[Item]) -> None:
        """Fill level 0 from slices; state-identical to sequential inserts.

        Each slice tops level 0 up to exactly its capacity, so the
        compaction cascade (and with it every coin flip and the
        ``max_item_count`` trajectory) fires at the same points as
        item-at-a-time processing, while the appends amortise to one
        ``extend`` per cascade.

        Deep in a long stream the level-0 capacity bottoms out at 2 or 3 and
        a cascade runs every few items, so the cascade must stay cheap:
        capacities are table lookups, and the stored count is carried
        rather than re-summed over all levels — a compaction of ``s`` items
        removes exactly ``s // 2`` of them (half the even-length compacted
        region is promoted, a leftover odd item stays behind).
        """
        start, total = 0, len(batch)
        level0 = self._compactors[0]
        capacity0 = self._capacity(0)
        count = self._item_count()
        while start < total:
            free = capacity0 - len(level0)
            if free <= 0:
                self.process(batch[start])
                start += 1
                level0 = self._compactors[0]
                capacity0 = self._capacity(0)
                count = self._item_count()
                continue
            take = min(free, total - start)
            level0.extend(batch[start : start + take])
            self._n += take
            count += take
            start += take
            if len(level0) >= capacity0:
                # Sequentially, the trigger item's size is observed only
                # after the cascade; the pre-cascade peak belongs to the
                # item before it.
                peak = count - 1
                if peak > self._max_item_count:
                    self._max_item_count = peak
                level = 0
                while True:
                    size = len(self._compactors[level])
                    if size < self._capacity(level):
                        break
                    self._compact(level)
                    count -= size // 2
                    level += 1
                    if level == len(self._compactors):
                        break
                capacity0 = self._capacity(0)
            if count > self._max_item_count:
                self._max_item_count = count

    # -- the columnar lane ---------------------------------------------------------

    def process_numeric(self, values) -> None:
        """Columnar ingest: raw numeric keys, compacted natively when possible.

        Compaction only sorts and slices, so raw keys make the hottest step
        (the level sort) a primitive sort instead of Item-dunder dispatch,
        with the identical coin-flip schedule; the final state is
        equivalent to the items lane.  When every stored and batch key is
        an exact int inside int64, :meth:`_process_batch`'s schedule runs
        in the native kernel (:mod:`repro.native`) with CPython's exact
        coins; otherwise, or when native code is off or unavailable, the
        Python kernel runs.  A summary with live comparison-model state
        stays in the items lane.  Buffer-backed batches (``array('q')``)
        are consumed as-is — both kernels only slice and read.
        """
        batch = values if isinstance(values, (list, array)) else list(values)
        if not batch:
            return
        if self._n and self._lane == "items":
            super().process_numeric(batch)
            return
        self._lane = "columnar"
        if native_kernel_active() and self._native_batch(batch):
            return
        self._process_batch(batch)

    def _native_batch(self, batch) -> bool:
        """Run the batch through the native compactor; False to fall back."""
        version, words, gauss = self._rng.getstate()
        result = native_kll_batch(
            self._compactors,
            batch,
            self._n,
            self._max_item_count,
            self._rng_draws,
            self._capacities,
            words,
        )
        if result is None:
            return False
        self._compactors, self._n, self._max_item_count, draws, words = result
        if draws != self._rng_draws:
            self._rng.setstate((version, words, gauss))
            self._rng_draws = draws
        return True

    def _demote_items(self) -> None:
        """Rebuild raw columnar keys as Items (representation-only)."""
        if self._lane == "items":
            return
        for compactor in self._compactors:
            for position, value in enumerate(compactor):
                if not isinstance(value, Item):
                    compactor[position] = Item(Fraction(value))
        self._lane = "items"

    def _promote_columnar(self, to_raw) -> bool:
        """Adopt raw keys via the converter :mod:`repro.model.lanes` passes in."""
        raw_levels = [
            [to_raw(value) for value in compactor]
            for compactor in self._compactors
        ]
        if any(raw is None for level in raw_levels for raw in level):
            return False
        self._compactors = raw_levels
        self._lane = "columnar"
        return True

    def _compact(self, level: int) -> None:
        compactor = self._compactors[level]
        compactor.sort()
        leftover: list[Item] = []
        if len(compactor) % 2 == 1:
            # Keep one item behind so the compacted region has even length
            # and total stored weight is conserved exactly.
            leftover.append(compactor.pop(0))
        offset = self._rng.randrange(2)
        self._rng_draws += 1
        promoted = compactor[offset::2]
        compactor.clear()
        compactor.extend(leftover)
        if level + 1 == len(self._compactors):
            self._compactors.append([])
        self._compactors[level + 1].extend(promoted)

    # -- merging (fully mergeable, Agarwal et al. [2] lineage) -----------------------

    def merge(self, other: "KLL") -> None:
        """Absorb ``other`` into this sketch (level-wise compactor merge).

        The textbook KLL merge: concatenate compactors level by level, then
        re-compact any level over capacity, bottom up.  The result summarises
        the concatenation of both streams with the same asymptotic guarantee
        (error analysis as in [11]); ``other`` is left intact.
        """
        if not isinstance(other, KLL):
            raise TypeError(f"cannot merge KLL with {type(other).__name__}")
        if self.lane != other.lane:
            # Mixed lanes cannot share a compactor; demote the columnar
            # side (representation-only, state unchanged).
            self._demote_items()
            other._demote_items()
        while len(self._compactors) < len(other._compactors):
            self._compactors.append([])
        for level, compactor in enumerate(other._compactors):
            self._compactors[level].extend(compactor)
        self._n += other.n
        level = 0
        while level < len(self._compactors):
            if len(self._compactors[level]) >= self._capacity(level):
                self._compact(level)
            level += 1
        self._max_item_count = max(self._max_item_count, self._item_count())

    # -- queries ----------------------------------------------------------------------

    def _weighted_items(self) -> list[tuple[Item, int]]:
        pairs = [
            (item, 1 << level)
            for level, compactor in enumerate(self._compactors)
            for item in compactor
        ]
        pairs.sort(key=lambda pair: pair[0])
        return pairs

    def _query(self, phi: float) -> Item:
        pairs = self._weighted_items()
        if not pairs:
            raise EmptySummaryError("no items stored")
        total_weight = sum(weight for _, weight in pairs)
        # Weights need not sum exactly to n mid-compaction cascade; scale the
        # target rank into the stored-weight domain.
        target = max(1, min(total_weight, math.ceil(exact_fraction(phi) * total_weight)))
        cumulative = 0
        for item, weight in pairs:
            cumulative += weight
            if cumulative >= target:
                return item
        return pairs[-1][0]

    def estimate_rank(self, item: Item) -> int:
        if self._n == 0:
            raise EmptySummaryError("cannot estimate rank on an empty summary")
        if self._lane != "items":
            # Rare uncompiled probe against columnar state (engine reads go
            # through the RankIndex, which handles raw keys natively).
            self._demote_items()
        pairs = self._weighted_items()
        total_weight = sum(weight for _, weight in pairs)
        stored_rank = sum(weight for stored, weight in pairs if stored <= item)
        if total_weight == 0:
            return 0
        return round(stored_rank * self._n / total_weight)

    # -- the model's memory --------------------------------------------------------------

    def item_array(self) -> list[Item]:
        return [item for item, _ in self._weighted_items()]

    def _item_count(self) -> int:
        return sum(len(compactor) for compactor in self._compactors)

    def fingerprint(self) -> tuple:
        sizes = tuple(len(compactor) for compactor in self._compactors)
        return (self.name, self._n, self.k, self.seed, sizes)


def native_kernel_active() -> bool:
    """Whether :meth:`KLL.process_numeric` may run the native compactor.

    False under ``REPRO_NO_NATIVE``, without a C compiler, or when the
    one-time probe finds the kernel's state (its coins included) differing
    from the Python kernel's, so a broken port costs speed, never answers.
    """
    return not native_disabled() and _native_matches_python()


@functools.cache
def _native_matches_python() -> bool:
    """Run the kernel and :meth:`KLL._process_batch` on one seeded stream.

    With k = 3, 1,500 values compact about 1,500 times and take some 3,000
    Mersenne Twister outputs, so randrange(2)'s redraws and four
    regenerations of the 624-word state are covered; the uneven chunks
    move the generator state in and out four times.  The coins are what
    depends on the running CPython; the tests cover the rest of the port.
    """
    values = [(index * 7919) % 1009 - 504 for index in range(1500)]
    reference = KLL(0.5, k=3, seed=2020)
    reference._process_batch(values)
    native = KLL(0.5, k=3, seed=2020)
    for start, stop in ((0, 1), (1, 3), (3, 700), (700, 1500)):
        if not native._native_batch(values[start:stop]):
            return False
    return (
        native._compactors == reference._compactors
        and native._n == reference._n
        and native._max_item_count == reference._max_item_count
        and native._rng_draws == reference._rng_draws
        and native._rng.getstate() == reference._rng.getstate()
    )


def _compile_kll_index(summary: KLL) -> RankIndex:
    """Freeze the weighted compactor items into a :class:`RankIndex`.

    Quantile targets scale into the stored-weight domain (weights need not
    sum to n mid-cascade) and rank estimates rescale stored weight back to
    the stream length, exactly as the sequential paths do.
    """
    return index_from_weighted_items(
        summary,
        summary._weighted_items(),
        q_domain="weight",
        q_round="ceil",
        rank_rule="scaled",
    )


def _encode_kll(summary: KLL) -> dict:
    return {
        "k": summary.k,
        "seed": summary.seed,
        "rng_state": summary._rng_draws,
        "rng": encode_rng(summary._rng),
        "compactors": [
            [encode_key(item) for item in compactor]
            for compactor in summary._compactors
        ],
    }


def _decode_kll(payload: dict, universe: Universe) -> KLL:
    summary = KLL(epsilon_of(payload), k=int(payload["k"]), seed=payload["seed"])
    summary._compactors = [
        [universe.item(decode_key(key)) for key in compactor]
        for compactor in payload["compactors"]
    ]
    summary._rng_draws = int(payload["rng_state"])

    def replay() -> None:
        # One randrange(2) per compaction since the seed.
        for _ in range(summary._rng_draws):
            summary._rng.randrange(2)

    restore_rng(summary._rng, payload.get("rng"), replay)
    return summary


register_descriptor(
    "kll",
    KLL,
    merge=merge_by_absorbing,
    encode=_encode_kll,
    decode=_decode_kll,
    compile_index=_compile_kll_index,
)
