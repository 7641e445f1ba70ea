"""Sampled GK — the randomized space-saver of Felber-Ostrovsky lineage.

Reference [5] of the paper (Felber-Ostrovsky, APPROX/RANDOM 2015) and the
practical variants in Luo et al. [13] combine *sampling* with a
deterministic summary: feed only a Bernoulli sample of the stream to GK.
Sampling error and summary error compose, so running GK at ``eps / 2`` on a
sample large enough that the sampling error is also ``eps / 2`` yields an
``eps``-summary w.h.p., while GK only processes (and is sized for) the
sample.

For streams much longer than the required sample (~ ``8 ln(2/delta) / eps^2``)
this is the cheapest randomized summary per item: most items are dropped by
one coin flip.  Like MRL it needs a length hint to set the sampling rate;
exceeding the hint degrades the guarantee gracefully (the sample just grows
denser than needed).

Comparison-based and deterministic once seeded — the adversary applies to
the seeded instance, which Theorem 6.4's reduction predicts, and the
``sample everything`` regime at small N makes it behave exactly like GK.
"""

from __future__ import annotations

import math
import random

from fractions import Fraction

from repro.model.registry import register_descriptor
from repro.model.summary import QuantileSummary
from repro.persistence import dump, encode_rng, epsilon_of, load, restore_rng
from repro.summaries.gk import GreenwaldKhanna
from repro.universe.item import Item
from repro.universe.universe import Universe


def required_sample_size(epsilon: float, delta: float = 0.01) -> int:
    """Sample size with rank error <= eps/2 w.p. 1 - delta (Hoeffding)."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return max(16, math.ceil(8 * math.log(2 / delta) / (epsilon * epsilon)))


class SampledGK(QuantileSummary):
    """Bernoulli-sample the stream, summarise the sample with GK at eps/2."""

    name = "sampled-gk"
    is_deterministic = False  # seeded => reproducible, like KLL

    def __init__(
        self,
        epsilon: float,
        n_hint: int = 1_000_000,
        delta: float = 0.01,
        seed: int | None = 0,
    ) -> None:
        super().__init__(float(epsilon))
        if n_hint < 1:
            raise ValueError(f"n_hint must be positive, got {n_hint}")
        self.n_hint = n_hint
        self.seed = seed
        self._rng = random.Random(seed)
        target = required_sample_size(float(epsilon), delta)
        self._rate = min(1.0, target / n_hint)
        self._inner = GreenwaldKhanna(float(epsilon) / 2)
        self._sampled = 0

    @property
    def sample_rate(self) -> float:
        """Probability with which each arriving item enters the sample."""
        return self._rate

    @property
    def sampled_count(self) -> int:
        """Number of items that entered the inner GK summary."""
        return self._sampled

    def _insert(self, item: Item) -> None:
        take = self._rate >= 1.0 or self._rng.random() < self._rate
        if self._n == 0:
            # Always sample the first item so the summary can answer for any
            # n >= 1; the <= 1 rank bias is absorbed by the eps/2 split.
            take = True
        if take:
            self._sampled += 1
            self._inner.process(item)

    def _process_batch(self, batch: list[Item]) -> None:
        """Flip all coins up front, then batch-feed the sample to inner GK.

        One ``rng.random()`` per item in arrival order (none at rate 1.0)
        reproduces the sequential RNG stream; the inner summary's own batch
        kernel then handles the surviving sample.  The outer item count
        mirrors the inner one, so the inner max is the outer max.
        """
        if self._rate >= 1.0:
            taken = batch
        else:
            rate = self._rate
            rng = self._rng
            flips = [rng.random() < rate for _ in batch]
            if self._n == 0:
                flips[0] = True
            taken = [item for item, take in zip(batch, flips) if take]
        self._sampled += len(taken)
        if taken:
            self._inner.process_many(taken)
        self._n += len(batch)
        if self._inner.max_item_count > self._max_item_count:
            self._max_item_count = self._inner.max_item_count

    def _query(self, phi: float) -> Item:
        # The sample's phi-quantile estimates the stream's.
        return self._inner.query(phi)

    def estimate_rank(self, item: Item) -> int:
        if self._n == 0:
            from repro.errors import EmptySummaryError

            raise EmptySummaryError("cannot estimate rank on an empty summary")
        if self._sampled == 0:
            return 0
        sample_rank = self._inner.estimate_rank(item)
        return round(sample_rank * self._n / self._sampled)

    def item_array(self) -> list[Item]:
        return self._inner.item_array()

    def _item_count(self) -> int:
        return self._inner._item_count()

    def fingerprint(self) -> tuple:
        return (
            self.name,
            self._n,
            self.seed,
            self._sampled,
            self._inner.fingerprint(),
        )


def _encode_sampled_gk(summary: SampledGK) -> dict:
    return {
        "n_hint": summary.n_hint,
        "seed": summary.seed,
        "rate": str(Fraction(summary._rate).limit_denominator(10**12)),
        "sampled": summary._sampled,
        "rng": encode_rng(summary._rng),
        "inner": dump(summary._inner),
    }


def _decode_sampled_gk(payload: dict, universe: Universe) -> SampledGK:
    summary = SampledGK(
        epsilon_of(payload), n_hint=int(payload["n_hint"]), seed=payload["seed"]
    )
    summary._rate = float(Fraction(payload["rate"]))
    summary._sampled = int(payload["sampled"])
    summary._inner = load(payload["inner"], universe)

    def replay() -> None:
        # One rng.random() per processed item (the sampling coin), none at
        # rate 1.
        if summary._rate < 1.0:
            for _ in range(int(payload["n"])):
                summary._rng.random()

    restore_rng(summary._rng, payload.get("rng"), replay)
    return summary


register_descriptor(
    "sampled-gk",
    SampledGK,
    encode=_encode_sampled_gk,
    decode=_decode_sampled_gk,
)
