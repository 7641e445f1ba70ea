"""Batch ingest: process_many must be indistinguishable from per-item process.

Three pillars of the batch-first pipeline:

* the **equivalence property** — for every registered summary type, feeding a
  stream through ``process_many`` in arbitrary chunkings leaves exactly the
  state that per-item ``process`` would: same item array, same fingerprint,
  same ``n``, same ``max_item_count`` (randomized types are seeded, so the
  comparison is exact, not statistical);
* the **capability audit** — every registered type overrides the O(s)
  ``_item_count`` fallback and carries a complete descriptor (factory plus
  persistence codec);
* the **merge contract** — merge-capable types are exactly the documented
  set, and merging an unregistered-for-merge type raises
  :class:`UnsupportedMergeError` naming the type.
"""

import random
from array import array
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.summaries  # noqa: F401  (registers every summary type)
from repro.errors import UnsupportedMergeError
from repro.model.registry import (
    create_summary,
    descriptors,
    get_descriptor,
    merge_summaries,
    mergeable_summaries,
)
from repro.model.summary import QuantileSummary
from repro.summaries.kll import KLL
from repro.universe.item import key_of
from repro.universe.universe import Universe

ALL_TYPES = [descriptor.name for descriptor in descriptors()]

# qdigest/turnstile read integer values in [0, 2^universe_bits); everything
# else takes arbitrary rationals.
INTEGER_UNIVERSE_TYPES = {"qdigest", "turnstile"}


def _make(name: str, epsilon: float, n: int) -> QuantileSummary:
    if name == "mrl":
        return create_summary(name, epsilon, n_hint=n)
    if name == "sliding-gk":
        # A window smaller than the stream so eviction actually happens.
        return create_summary(name, epsilon, window=max(8, n // 2), blocks=4)
    return create_summary(name, epsilon)


def _chunked(values: list, cuts: list[int]) -> list[list]:
    bounds = sorted({cut for cut in cuts if 0 < cut < len(values)})
    chunks = []
    previous = 0
    for bound in bounds + [len(values)]:
        chunks.append(values[previous:bound])
        previous = bound
    return [chunk for chunk in chunks if chunk]


def _state(summary: QuantileSummary) -> tuple:
    return (
        [key_of(item) for item in summary.item_array()],
        summary.fingerprint(),
        summary.n,
        summary.max_item_count,
    )


def _kll_state(summary: KLL) -> tuple:
    return (
        [[key_of(value) for value in level] for level in summary._compactors],
        summary._rng_draws,
        summary._rng.getstate(),
        summary.n,
        summary.max_item_count,
    )


class TestBatchEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        raw=st.lists(
            st.integers(min_value=0, max_value=999), min_size=1, max_size=160
        ),
        cuts=st.lists(st.integers(min_value=1, max_value=159), max_size=6),
        epsilon=st.sampled_from([0.02, 0.1]),
    )
    def test_process_many_equals_per_item_process(self, raw, cuts, epsilon):
        for name in ALL_TYPES:
            if name in INTEGER_UNIVERSE_TYPES:
                values = [Fraction(value) for value in raw]
            else:
                values = [Fraction(value, 3) for value in raw]

            sequential = _make(name, epsilon, len(values))
            for item in Universe().items(values):
                sequential.process(item)

            batched = _make(name, epsilon, len(values))
            for chunk in _chunked(values, cuts):
                batched.process_many(Universe().items(chunk))

            assert _state(batched) == _state(sequential), name

    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=10**6),
        length=st.integers(min_value=1000, max_value=4000),
        sizes=st.lists(
            st.integers(min_value=1, max_value=600), min_size=1, max_size=8
        ),
    )
    def test_kll_deep_regime_equals_per_item_process(self, k, seed, length, sizes):
        """Small k over thousands of items: the regime of a long stream.

        Level 0 sits at the capacity floor, so cascades fire every couple of
        items and new top levels arrive mid-cascade (shrinking every lower
        capacity) — exactly the bookkeeping the batch kernel carries itself.
        """
        rng = random.Random(seed)
        raw = [rng.randrange(-(10**9), 10**9) for _ in range(length)]
        chunks, start = [], 0
        while start < length:
            size = sizes[len(chunks) % len(sizes)]
            chunks.append(raw[start : start + size])
            start += size

        sequential = KLL(0.1, k=k, seed=seed)
        for item in Universe().items(raw):
            sequential.process(item)
        assert sequential._capacity(0) == 2

        batched = KLL(0.1, k=k, seed=seed)
        numeric = KLL(0.1, k=k, seed=seed)
        for chunk in chunks:
            batched.process_many(Universe().items(chunk))
            numeric.process_numeric(array("q", chunk))
        assert numeric.lane == "columnar"

        expected = _kll_state(sequential)
        assert _kll_state(batched) == expected
        assert _kll_state(numeric) == expected

    def test_single_call_covers_the_whole_stream(self):
        values = [Fraction(value, 2) for value in range(500)]
        for name in ALL_TYPES:
            if name in INTEGER_UNIVERSE_TYPES:
                stream = [Fraction(value) for value in range(500)]
            else:
                stream = values
            sequential = _make(name, 0.05, len(stream))
            for item in Universe().items(stream):
                sequential.process(item)
            batched = _make(name, 0.05, len(stream))
            batched.process_many(Universe().items(stream))
            assert _state(batched) == _state(sequential), name

    def test_empty_batch_is_a_no_op(self):
        for name in ALL_TYPES:
            summary = _make(name, 0.1, 10)
            summary.process_many([])
            assert summary.n == 0
            assert summary.max_item_count == 0


class TestCapabilityAudit:
    def test_no_registered_type_uses_the_item_count_fallback(self):
        # The base-class fallback is len(item_array()) — O(s) list building
        # on every processed item.  Every registered type must override it
        # with an O(1) counter read.
        for descriptor in descriptors():
            assert (
                descriptor.cls._item_count is not QuantileSummary._item_count
            ), f"{descriptor.name} inherits the O(s) _item_count fallback"

    def test_every_descriptor_is_complete(self):
        for descriptor in descriptors():
            assert descriptor.factory is not None, descriptor.name
            assert descriptor.cls is not None, descriptor.name
            assert descriptor.encode is not None, descriptor.name
            assert descriptor.decode is not None, descriptor.name
            assert descriptor.payload_type, descriptor.name

    def test_batch_kernel_flag_matches_the_class(self):
        for descriptor in descriptors():
            overridden = (
                descriptor.cls._process_batch
                is not QuantileSummary._process_batch
            )
            assert descriptor.has_batch_kernel == overridden, descriptor.name

    def test_flags_match_class_attributes(self):
        for descriptor in descriptors():
            assert (
                descriptor.is_comparison_based
                == descriptor.cls.is_comparison_based
            ), descriptor.name
            assert (
                descriptor.is_deterministic == descriptor.cls.is_deterministic
            ), descriptor.name


class TestMergeContract:
    def test_mergeable_set_is_exactly_the_documented_one(self):
        assert tuple(mergeable_summaries()) == (
            "exact",
            "gk",
            "gk-greedy",
            "kll",
            "mrl",
            "req",
        )

    def test_merge_less_types_raise_naming_the_type(self):
        for descriptor in descriptors():
            if descriptor.merge is not None:
                continue
            first = _make(descriptor.name, 0.1, 8)
            second = _make(descriptor.name, 0.1, 8)
            try:
                merge_summaries(first, second)
            except UnsupportedMergeError as error:
                assert descriptor.name in str(error)
            else:
                raise AssertionError(
                    f"{descriptor.name} merged without a registered merge"
                )

    def test_get_descriptor_round_trips_every_name(self):
        for name in ALL_TYPES:
            assert get_descriptor(name).name == name
