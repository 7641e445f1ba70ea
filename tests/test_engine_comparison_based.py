"""Definition 2.1 at engine level: the sharded engine is a comparison-based
summary.

Routing by arrival never reads a value, so an engine's state may depend only
on the relative order of its input.  Two checks hold the engine to that:

* an order-preserving relabelling of a stream leaves every shard, and the
  fold, with the same fingerprint;
* the paper's adversary (Pseudocode 2) runs against a live engine and keeps
  its two streams indistinguishable (Definition 3.2) at every node, so
  Theorem 2.2's bound binds the engine as a whole.
"""

import functools
import random
from fractions import Fraction

import pytest

from repro.core.adversary import build_adversarial_pair
from repro.core.gap import gap_bound
from repro.engine import EngineConfig, ShardedQuantileEngine
from repro.model.registry import create_summary
from repro.model.summary import QuantileSummary
from repro.universe.item import Item, key_of


def _relabel(value: int) -> int:
    return 3 * value + 1_000_003


@pytest.mark.parametrize("summary", ["gk", "gk-greedy", "kll"])
@pytest.mark.parametrize(
    "shards, workers", [(2, 1), (4, 4)], ids=["2-serial", "4-thread"]
)
def test_order_preserving_relabelling_leaves_the_engine_state_unchanged(
    summary, shards, workers
):
    rng = random.Random(23)
    values = [rng.randint(-(10**6), 10**6) for _ in range(20_000)]
    states = []
    for stream in (values, [_relabel(value) for value in values]):
        config = EngineConfig(
            summary=summary, epsilon=0.01, shards=shards, workers=workers,
            seed=5, batch_size=1000,
        )
        with ShardedQuantileEngine(config) as engine:
            engine.ingest(stream)
            states.append(
                (
                    [shard.fingerprint() for shard in engine.shard_summaries],
                    engine.merged_summary().fingerprint(),
                )
            )
    assert states[0] == states[1]


class EngineSummary(QuantileSummary):
    """A :class:`QuantileSummary` over a live :class:`ShardedQuantileEngine`.

    Each stream item is one ``ingest`` call.  The item array is every
    shard's stored items, sorted, and the general memory is the shards'
    fingerprints, so :class:`~repro.core.pair.SummaryPair` checks
    Definition 3.2 on the engine as a whole.
    """

    def __init__(
        self, epsilon: float, summary: str = "gk", shards: int = 2,
        workers: int = 1,
    ) -> None:
        super().__init__(epsilon)
        self.name = f"engine-{summary}"
        self.engine = ShardedQuantileEngine(
            EngineConfig(
                summary=summary, epsilon=epsilon, shards=shards, workers=workers,
            )
        )

    def _insert(self, item: Item) -> None:
        self.engine.ingest([key_of(item)])

    def _query(self, phi: float) -> Item:
        return Item(self.engine.query(phi))

    def item_array(self) -> list[Item]:
        # Columnar shards store raw ints; an Item with the equal key is the
        # same stream item to the pair (Items compare and hash by key).
        return sorted(
            value if isinstance(value, Item) else Item(Fraction(value))
            for shard in self.engine.shard_summaries
            for value in shard.item_array()
        )

    def _item_count(self) -> int:
        return sum(shard._item_count() for shard in self.engine.shard_summaries)

    def fingerprint(self) -> tuple:
        return tuple(shard.fingerprint() for shard in self.engine.shard_summaries)


@functools.cache
def _single_peak(summary: str, k: int) -> int:
    """Peak stored items of one summary on the same construction."""
    result = build_adversarial_pair(
        lambda eps: create_summary(summary, eps), epsilon=1 / 16, k=k,
        validate=False,
    )
    return result.max_items_stored()


@pytest.mark.parametrize("summary", ["gk", "gk-greedy"])
@pytest.mark.parametrize(
    "workers, shards, k",
    # A one-item batch has one busy shard, so a pooled engine feeds it
    # inline too; its cases run one level shallower to fit the budget.
    [(1, 2, 6), (1, 4, 5), (2, 2, 5), (4, 4, 4)],
    ids=["serial-2-6", "serial-4-5", "thread-2-5", "thread-4-4"],
)
def test_the_adversary_keeps_its_streams_indistinguishable_to_the_engine(
    summary, workers, shards, k
):
    # build_adversarial_pair validates Definition 3.2 after every node and
    # raises IndistinguishabilityViolation on the first divergence.
    epsilon = 1 / 16
    result = build_adversarial_pair(
        lambda eps: EngineSummary(eps, summary, shards, workers),
        epsilon=epsilon, k=k,
    )
    assert result.length == 16 * 2**k
    # Lemma 3.4: a correct summary keeps the final gap within 2εN.
    assert result.final_gap().gap <= gap_bound(epsilon, result.length)
    # Sharding by arrival buys no space against the construction: the
    # engine stores at least what one summary does (GK at k=6: 120 items
    # over two shards against 64 in one summary).
    assert result.max_items_stored() >= _single_peak(summary, k)
