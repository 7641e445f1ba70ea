"""Compiled, frozen rank indexes: the read-side mirror of batch ingest.

A :class:`RankIndex` is built once from a summary's stored items and
per-item rank bounds and then answers every quantile/rank query in
O(log s) by :mod:`bisect` over flat, pre-extracted arrays — no Fraction
arithmetic, no tuple-list walk, no per-call universe construction.  The
paper's bound is what makes this cheap: a published summary holds only
O((1/eps) log(eps N)) items (Cormode-Veselý), so compiling it costs one
linear sweep over a structure that is tiny compared to the stream.

The index is *frozen*: it describes the summary at the moment of
compilation and callers must discard it when the summary changes (the
engine keys its cached index on the ingest generation, and the service
reads through that cache, so one index serves a whole wire epoch).  Each
index also carries a small memo of answered quantiles — the epoch-keyed
query cache: served phi grids repeat heavily, and within one epoch the
answer for a phi never changes.

Answer-identity contract
------------------------
An index built by a ``compile_index`` builder registered on a
:class:`~repro.model.registry.SummaryDescriptor` returns *bit-identical*
answers to the uncompiled ``query``/``estimate_rank`` path, including
duplicate stored keys, ``phi`` in {0, 1}, and the empty-summary error
behaviour.  The per-type query semantics are encoded as small rule
vocabularies:

* quantile target: ``q_domain`` (``"n"`` or ``"weight"``) x ``q_round``
  (``"floor"`` or ``"ceil"``), replicating each summary's
  ``max(1, min(domain, round(phi * domain)))``;
* quantile selection: ``"cumulative"`` (first stored item whose cumulative
  weight reaches the target — KLL/MRL/REQ/exact/sampling), ``"bounded"``
  (the GK scan for the first tuple with both rank bounds within
  ``allowed`` of the target, with the first-wins closest-tuple fallback),
  or ``"nearest"`` (offline's closest selected rank, ties to the left);
* rank rule: ``"mid"`` (GK midpoint between neighbouring rank bounds),
  ``"weight"`` (cumulative stored weight ``<=`` the probe), ``"scaled"``
  (stored weight rescaled to the stream length, float-rounded exactly as
  KLL/sampling do), or ``"interval_mid"`` (offline's midpoint between
  neighbouring selected ranks).

This module lives in ``model/`` because it is infrastructure in the sense
of :func:`~repro.universe.item.key_of`: it may see raw keys (bisect needs
them), while the summaries themselves remain comparison-based.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

from repro.errors import EmptySummaryError, InvalidQuantileError
from repro.model.summary import exact_fraction
from repro.universe.item import Item, key_of

#: Cap on the per-index quantile memo (the epoch-keyed query cache).  Served
#: phi grids are small and repetitive; the cap only guards against an
#: adversarial caller streaming millions of distinct phis through one index.
MEMO_CAP = 4096

#: ``exact_fraction`` snaps floats through ``limit_denominator`` with this
#: bound; the quantile fast path uses it to prove the snap cannot move a
#: floor/ceil before skipping the Fraction conversion.
_SNAP_DENOMINATOR = 10**9


class RankIndex:
    """Frozen read index: parallel arrays of keys, items, and rank bounds.

    Build through :func:`build_index` (or a registered ``compile_index``
    builder), never by mutating an instance: every consumer assumes an
    index is immutable for its lifetime.
    """

    __slots__ = (
        "keys",
        "items",
        "rmin",
        "rmax",
        "n",
        "total_weight",
        "q_domain",
        "q_round",
        "q_select",
        "rank_rule",
        "eps",
        "allowed_per_target",
        "rank_empty_zero",
        "_allowed_global",
        "_allowed_floor",
        "_eps_num",
        "_eps_den",
        "_memo",
    )

    def __init__(
        self,
        *,
        items: list[Item],
        rmin: list[int],
        rmax: list[int] | None,
        n: int,
        total_weight: int | None,
        q_domain: str,
        q_round: str,
        q_select: str,
        rank_rule: str,
        eps: Fraction | None,
        allowed_per_target: bool,
        rank_empty_zero: bool,
    ) -> None:
        self.items = items
        # Columnar-lane summaries compile with raw numeric keys already in
        # hand; only Item entries need unwrapping.  Raw int/float keys
        # compare exactly against the Fraction probes ``rank`` receives, so
        # the bisects below are lane-agnostic.
        self.keys = [
            key_of(item) if isinstance(item, Item) else item for item in items
        ]
        self.rmin = rmin
        self.rmax = rmax if rmax is not None else rmin
        self.n = n
        self.total_weight = (
            total_weight if total_weight is not None else (rmin[-1] if rmin else 0)
        )
        self.q_domain = q_domain
        self.q_round = q_round
        self.q_select = q_select
        self.rank_rule = rank_rule
        self.eps = eps
        self.allowed_per_target = allowed_per_target
        self.rank_empty_zero = rank_empty_zero
        self._allowed_global = eps * n if eps is not None else None
        # Integer shadows of the Fraction bounds: every quantity the
        # "bounded" selector compares against `allowed` is an integer, so
        # flooring the bound preserves each comparison exactly while
        # keeping the hot path free of Fraction arithmetic.
        self._allowed_floor = (
            math.floor(self._allowed_global) if self._allowed_global is not None else 0
        )
        if eps is not None:
            eps_fraction = Fraction(eps)
            self._eps_num = eps_fraction.numerator
            self._eps_den = eps_fraction.denominator
        else:
            self._eps_num = 0
            self._eps_den = 1
        self._memo: dict[float, Item] = {}

    @property
    def size(self) -> int:
        """Number of indexed stored items."""
        return len(self.keys)

    # -- quantiles ---------------------------------------------------------------

    def _target(self, phi: float) -> int:
        domain = self.total_weight if self.q_domain == "weight" else self.n
        if type(phi) is float:
            # Integer fast path.  ``exact_fraction`` snaps phi through
            # ``limit_denominator(10**9)`` (~20us per call), but the snap
            # moves the value by less than 1/10**9, so the floor/ceil of
            # ``phi * domain`` computed from the raw binary ratio is
            # provably the same whenever the scaled value sits farther
            # than ``domain / 10**9`` from an integer — or the ratio's
            # denominator is small enough that no snap happens at all.
            num, den = phi.as_integer_ratio()
            quotient, remainder = divmod(num * domain, den)
            margin = domain * den
            if den <= _SNAP_DENOMINATOR or (
                remainder * _SNAP_DENOMINATOR > margin
                and (den - remainder) * _SNAP_DENOMINATOR > margin
            ):
                if self.q_round == "ceil" and remainder:
                    quotient += 1
                return max(1, min(domain, quotient))
        scaled = exact_fraction(phi) * domain
        target = math.ceil(scaled) if self.q_round == "ceil" else int(scaled)
        return max(1, min(domain, target))

    def _select(self, target: int) -> int:
        rmin = self.rmin
        size = len(rmin)
        select = self.q_select
        if select == "cumulative":
            index = bisect_left(rmin, target)
            return index if index < size else size - 1
        if select == "bounded":
            # The GK scan, compiled: rmin is strictly increasing, so the
            # first tuple satisfying `target - rmin <= allowed` is found by
            # bisect and every later tuple satisfies it too; the sequential
            # answer is then the first of those whose rmax is also within
            # allowed of the target.  `allowed` here is the floor of the
            # Fraction bound: both sides of every comparison are integers,
            # so `x <= allowed` and `x <= floor(allowed)` agree, and
            # `bisect(rmin, target - allowed)` lands on the same tuple as
            # `bisect(rmin, target - floor(allowed))`.
            if self.allowed_per_target:
                allowed = max(1, (self._eps_num * target) // self._eps_den)
            else:
                allowed = self._allowed_floor
            rmax = self.rmax
            low = bisect_left(rmin, target - allowed)
            for index in range(low, size):
                if rmax[index] - target <= allowed:
                    return index
            # No tuple within bounds (n == 1 edge cases): the sequential
            # first-wins closest-tuple fallback.
            best, best_excess = 0, None
            for index in range(size):
                excess = max(target - rmin[index], rmax[index] - target)
                if best_excess is None or excess < best_excess:
                    best_excess = excess
                    best = index
            return best
        # "nearest": the closest stored rank, ties resolved to the left
        # (offline's first-wins argmin over strictly increasing ranks).
        index = bisect_left(rmin, target)
        if index == 0:
            return 0
        if index == size:
            return size - 1
        if target - rmin[index - 1] <= rmin[index] - target:
            return index - 1
        return index

    def quantile(self, phi: float) -> Item:
        """The stored item the uncompiled ``query(phi)`` would return."""
        if not 0 <= phi <= 1:
            raise InvalidQuantileError(f"phi must be in [0, 1], got {phi}")
        if self.n == 0 or not self.keys:
            raise EmptySummaryError("cannot query an empty summary")
        memo = self._memo
        item = memo.get(phi)
        if item is None:
            item = self.items[self._select(self._target(phi))]
            if len(memo) < MEMO_CAP:
                memo[phi] = item
        return item

    def quantile_many(self, phis) -> list[Item]:
        """Batch form of :meth:`quantile`, answers in input order."""
        quantile = self.quantile
        return [quantile(phi) for phi in phis]

    # -- ranks -------------------------------------------------------------------

    def rank(self, key: Fraction | str) -> int:
        """The estimate ``estimate_rank`` would return for an item at ``key``.

        Takes a raw universe key (not an :class:`Item`), so hot read paths
        skip per-request item construction entirely.
        """
        keys = self.keys
        size = len(keys)
        if self.n == 0 or size == 0:
            if self.rank_empty_zero:
                return 0
            raise EmptySummaryError("cannot estimate rank on an empty summary")
        rule = self.rank_rule
        rmin = self.rmin
        if rule == "mid":
            index = bisect_left(keys, key)
            if index == size:
                return self.n
            if keys[index] == key:
                return (rmin[index] + self.rmax[index]) // 2
            lower = rmin[index - 1] if index > 0 else 0
            return max(0, (lower + self.rmax[index] - 1) // 2)
        position = bisect_right(keys, key)
        stored = rmin[position - 1] if position > 0 else 0
        if rule == "weight":
            return stored
        if rule == "scaled":
            if self.total_weight == 0:
                return 0
            # Float division then round, exactly as KLL/sampling compute it.
            return round(stored * self.n / self.total_weight)
        # "interval_mid": the probe's rank lies between the neighbouring
        # stored ranks; return the midpoint.
        upper = rmin[position] - 1 if position < size else self.n
        return (stored + upper) // 2

    def rank_many(self, keys) -> list[int]:
        """Batch form of :meth:`rank`, answers in input order."""
        rank = self.rank
        return [rank(key) for key in keys]

    def __repr__(self) -> str:
        return (
            f"RankIndex(size={self.size}, n={self.n}, "
            f"select={self.q_select!r}, rank={self.rank_rule!r})"
        )


def build_index(
    *,
    items: list[Item],
    rmin: list[int],
    rmax: list[int] | None = None,
    n: int,
    total_weight: int | None = None,
    q_domain: str = "n",
    q_round: str = "ceil",
    q_select: str = "cumulative",
    rank_rule: str = "weight",
    eps: Fraction | None = None,
    allowed_per_target: bool = False,
    rank_empty_zero: bool = False,
) -> RankIndex:
    """Assemble a :class:`RankIndex` from per-type arrays and rule names.

    ``items`` must be sorted non-decreasingly and ``rmin`` non-decreasing
    (strictly increasing for the ``"bounded"``/``"nearest"`` selectors).
    ``rmax`` defaults to ``rmin`` (exact bounds); ``total_weight`` defaults
    to the last cumulative weight.
    """
    return RankIndex(
        items=items,
        rmin=rmin,
        rmax=rmax,
        n=n,
        total_weight=total_weight,
        q_domain=q_domain,
        q_round=q_round,
        q_select=q_select,
        rank_rule=rank_rule,
        eps=eps,
        allowed_per_target=allowed_per_target,
        rank_empty_zero=rank_empty_zero,
    )


def index_from_weighted_items(
    summary,
    pairs: list[tuple[Item, int]],
    *,
    q_domain: str,
    q_round: str,
    rank_rule: str,
) -> RankIndex:
    """Index over (item, weight) pairs sorted by item (KLL/MRL/REQ shape)."""
    items = [item for item, _ in pairs]
    rmin: list[int] = []
    cumulative = 0
    for _, weight in pairs:
        cumulative += weight
        rmin.append(cumulative)
    return build_index(
        items=items,
        rmin=rmin,
        n=summary.n,
        total_weight=cumulative,
        q_domain=q_domain,
        q_round=q_round,
        rank_rule=rank_rule,
    )


def compile_generic_index(summary) -> RankIndex:
    """Correct-by-default builder from ``item_array()`` + ``estimate_rank``.

    Rank bounds collapse to the summary's own midpoint estimates, quantile
    selection is nearest-rank, and rank queries interpolate between stored
    bounds — answers stay within the summary's epsilon guarantee but are
    *not* guaranteed bit-identical to the uncompiled path.  Register a
    specialized builder whenever answer identity is required (every
    in-tree ``compile_index`` registration does).
    """
    items = summary.item_array()
    ranks = [summary.estimate_rank(item) for item in items]
    return build_index(
        items=items,
        rmin=ranks,
        n=summary.n,
        q_select="nearest",
        rank_rule="interval_mid",
    )


def compile_rank_index(summary) -> RankIndex | None:
    """Compile ``summary`` through its descriptor's ``compile_index``.

    Returns ``None`` when the summary's type has no registered builder —
    callers fall back to the uncompiled per-call path (the engine never
    does: its config admits only types with a builder).
    """
    from repro.model.registry import descriptor_for_class

    descriptor = descriptor_for_class(type(summary))
    if descriptor is None or descriptor.compile_index is None:
        return None
    return descriptor.compile_index(summary)
