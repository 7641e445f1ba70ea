"""The columnar lane: bit-identical answers to the items lane, end to end.

The lane contract (docs/model.md, "Lanes"): the columnar lane is a
*representation* choice, never a semantics choice.  For every
columnar-capable summary type, feeding raw numerics through
``process_numeric`` must leave state that is fingerprint-identical,
checkpoint-identical, and answer-identical to the items lane — across
negative ints, bools, int-valued floats, ints beyond int64 (which fall off
the native kernel), mixed-lane streams (demotion), merges, the engine's
inline and thread-pool feeding, and the persistence round-trip.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.summaries  # noqa: F401  (registers every summary type)
from repro.engine.config import EngineConfig
from repro.engine.engine import ShardedQuantileEngine, as_fraction
from repro.engine.merge_tree import fold_shards
from repro.engine.routing import route_batch
from repro.errors import EngineError
from repro.model.lanes import promote_to_columnar
from repro.model.registry import (
    columnar_summaries,
    create_summary,
    get_descriptor,
)
from repro.persistence import dump, load
from repro.universe.item import Item, key_of
from repro.universe.universe import Universe

COLUMNAR_TYPES = columnar_summaries()

#: Raw values every columnar-capable type must map exactly like the items
#: lane: negative ints, bools, int-valued floats, and ints beyond int64.
numeric_values = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6).map(float),
    st.integers(min_value=2**63, max_value=2**64),
)


def _make(name: str, epsilon: float = 0.05):
    return create_summary(name, epsilon)


def _keys(summary) -> list:
    return [key_of(entry) for entry in summary.item_array()]


def _queries(summary) -> list:
    phis = (0.01, 0.25, 0.5, 0.75, 0.99)
    return [key_of(summary.query(phi)) for phi in phis]


def test_columnar_registry():
    """The columnar capability is a registry fact, mirrored from the class."""
    assert "gk" in COLUMNAR_TYPES
    assert "gk-greedy" in COLUMNAR_TYPES
    assert "kll" in COLUMNAR_TYPES
    for name in COLUMNAR_TYPES:
        descriptor = get_descriptor(name)
        assert descriptor.columnar
        assert getattr(descriptor.cls, "supports_columnar", False)


@pytest.mark.parametrize("name", COLUMNAR_TYPES)
@given(values=st.lists(numeric_values, min_size=1, max_size=400))
@settings(max_examples=25, deadline=None)
def test_lane_equivalence(name, values):
    """process_numeric leaves exactly the state the items lane would."""
    items_lane = _make(name)
    items_lane.process_many(Universe().items([Fraction(v) for v in values]))

    columnar = _make(name)
    columnar.process_numeric(values)

    assert columnar.lane == "columnar"
    assert columnar.n == items_lane.n
    assert columnar.fingerprint() == items_lane.fingerprint()
    assert columnar.max_item_count == items_lane.max_item_count
    assert _keys(columnar) == _keys(items_lane)
    assert _queries(columnar) == _queries(items_lane)


@pytest.mark.parametrize("name", COLUMNAR_TYPES)
@given(
    values=st.lists(numeric_values, min_size=2, max_size=200),
    cut=st.integers(min_value=1, max_value=199),
)
@settings(max_examples=15, deadline=None)
def test_demotion_equivalence(name, values, cut):
    """A columnar summary fed Items mid-stream demotes, states still agree."""
    cut = min(cut, len(values) - 1)
    mixed = _make(name)
    mixed.process_numeric(values[:cut])
    mixed.process_many(Universe().items([Fraction(v) for v in values[cut:]]))
    assert mixed.lane == "items"

    items_lane = _make(name)
    items_lane.process_many(Universe().items([Fraction(v) for v in values]))
    assert mixed.fingerprint() == items_lane.fingerprint()
    assert _keys(mixed) == _keys(items_lane)


@pytest.mark.parametrize("name", COLUMNAR_TYPES)
def test_checkpoint_round_trip_byte_identical(name):
    """Columnar-ingested state persists byte-identically to the items lane."""
    rng = random.Random(17)
    values = [rng.randint(-(10**9), 10**9) for _ in range(5000)]

    items_lane = _make(name)
    items_lane.process_many(Universe().items([Fraction(v) for v in values]))
    columnar = _make(name)
    columnar.process_numeric(values)

    items_payload = json.dumps(dump(items_lane), sort_keys=True)
    columnar_payload = json.dumps(dump(columnar), sort_keys=True)
    assert columnar_payload == items_payload

    # The restored summary answers identically and promotes back cleanly.
    restored = load(json.loads(columnar_payload), Universe())
    assert restored.lane == "items"
    assert _queries(restored) == _queries(items_lane)
    assert promote_to_columnar(restored)
    assert restored.lane == "columnar"
    assert restored.fingerprint() == items_lane.fingerprint()
    assert json.dumps(dump(restored), sort_keys=True) == items_payload


def test_promote_refuses_non_integral_state():
    """A summary holding non-integral rationals stays on the items lane."""
    summary = _make("gk")
    summary.process_many(
        Universe().items([Fraction(1, 3), Fraction(7, 2), Fraction(5)])
    )
    assert not promote_to_columnar(summary)
    assert summary.lane == "items"


def test_rank_index_from_columnar_state():
    """The compiled read index answers identically from raw-key state."""
    rng = random.Random(23)
    values = [rng.randint(0, 10**6) for _ in range(4000)]
    for name in COLUMNAR_TYPES:
        descriptor = get_descriptor(name)
        items_lane = _make(name)
        items_lane.process_many(Universe().items([Fraction(v) for v in values]))
        columnar = _make(name)
        columnar.process_numeric(values)
        index_items = descriptor.compile_index(items_lane)
        index_columnar = descriptor.compile_index(columnar)
        for phi in (0.01, 0.25, 0.5, 0.75, 0.99):
            # The columnar index serves raw keys, the items index serves
            # Items; key_of is the read layer's common currency.
            assert key_of(index_columnar.quantile(phi)) == key_of(
                index_items.quantile(phi)
            )
        for probe in values[::397]:
            fraction = Fraction(probe)
            assert index_columnar.rank(fraction) == index_items.rank(fraction)


def test_merge_reconciles_lanes():
    """Merging mixed-lane summaries demotes, and states match all-items."""
    from repro.summaries import merge_gk

    rng = random.Random(5)
    left_values = [rng.randint(0, 10**6) for _ in range(2000)]
    right_values = [rng.randint(0, 10**6) for _ in range(2000)]

    columnar_left = _make("gk")
    columnar_left.process_numeric(left_values)
    items_right = _make("gk")
    items_right.process_many(
        Universe().items([Fraction(v) for v in right_values])
    )
    mixed = merge_gk(columnar_left, items_right)

    items_left = _make("gk")
    items_left.process_many(Universe().items([Fraction(v) for v in left_values]))
    items_right2 = _make("gk")
    items_right2.process_many(
        Universe().items([Fraction(v) for v in right_values])
    )
    baseline = merge_gk(items_left, items_right2)
    assert mixed.fingerprint() == baseline.fingerprint()
    assert _keys(mixed) == _keys(baseline)


# -- the engine layer ---------------------------------------------------------------


def test_engine_config_payload_round_trip_and_compat():
    config = EngineConfig(summary="gk", epsilon=0.05)
    payload = config.to_payload()
    # The lane is read off each batch, so configs no longer carry one.
    assert "lane" not in payload
    assert EngineConfig.from_payload(payload) == config
    # Checkpoints written while the lane was a setting still load, and
    # serialising them again drops the key.
    for lane in ("items", "columnar"):
        legacy = dict(payload, lane=lane)
        restored = EngineConfig.from_payload(legacy)
        assert restored == config
        assert restored.to_payload() == payload


def _reference_shards(config, batches):
    """Per-item ``process`` over Items on the engine's routed subsequences."""
    universes = [Universe() for _ in range(config.shards)]
    shards = [
        create_summary(config.summary, config.epsilon, **config.shard_kwargs(i))
        for i in range(config.shards)
    ]
    ingested = 0
    for batch in batches:
        fractions = [as_fraction(value) for value in batch]
        buckets = route_batch(fractions, config.shards, ingested)
        for shard, universe, bucket in zip(shards, universes, buckets):
            for value in bucket:
                shard.process(universe.item(value))
        ingested += len(batch)
    return shards


def _canonical(summary) -> str:
    return json.dumps(dump(summary), sort_keys=True)


def _assert_matches_reference(engine, batches):
    config = engine.config
    reference = _reference_shards(config, batches)
    shards = engine.shard_summaries
    assert [_canonical(s) for s in shards] == [_canonical(s) for s in reference]
    assert [s.n for s in shards] == [s.n for s in reference]
    assert [s.max_item_count for s in shards] == [
        s.max_item_count for s in reference
    ]
    phis = (0.01, 0.1, 0.5, 0.9, 0.99)
    merged = fold_shards(reference)
    assert engine.quantiles(phis) == [key_of(merged.query(phi)) for phi in phis]
    probes = [0, 3, 12345, 10**6]
    assert engine.rank_many(probes) == [
        merged.estimate_rank(Universe().item(probe)) for probe in probes
    ]


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "thread"])
def test_engine_lane_equivalence(workers):
    """Integer input runs columnar and matches a per-item Item reference."""
    rng = random.Random(31)
    values = [rng.randint(10, 10**6) for _ in range(2500)]
    batches = [values[:1200], values[1200:2400], values[2400:]]
    # 2.5 is the new minimum, which GK never compresses away.
    mixed = [rng.randint(10, 10**6) for _ in range(300)] + [2.5]
    for summary in ("gk", "kll", "mrl"):
        config = EngineConfig(
            summary=summary, epsilon=0.02, shards=3, workers=workers, seed=4,
        )
        with ShardedQuantileEngine(config) as engine:
            for batch in batches:
                engine.ingest(batch)
            expected = "columnar" if summary != "mrl" else "items"
            assert [shard.lane for shard in engine.shard_summaries] == [
                expected
            ] * 3
            _assert_matches_reference(engine, batches)
            # A later batch holding 2.5 takes the Fraction path and demotes
            # the shard that stores it; state still matches the reference.
            engine.ingest(mixed)
            holders = [
                shard for shard in engine.shard_summaries
                if Fraction(5, 2) in _keys(shard)
            ]
            assert holders or summary != "gk"
            assert all(shard.lane == "items" for shard in holders)
            _assert_matches_reference(engine, [*batches, mixed])


def test_engine_stats_reports_shard_lane():
    """stats() reports the lane each shard's input put it on."""
    for workers in (1, 2):
        config = EngineConfig(summary="gk", epsilon=0.05, shards=2, workers=workers)
        with ShardedQuantileEngine(config) as engine:
            engine.ingest([1, 2, 3, 4, 5, 6, 7, 8], batch_size=4)
            lanes = {shard["lane"] for shard in engine.stats()["shards"]}
            assert lanes == {"columnar"}, workers
            engine.ingest([Fraction(1, 3)])
            lanes = [shard["lane"] for shard in engine.stats()["shards"]]
            assert "items" in lanes, workers
        config = EngineConfig(summary="mrl", epsilon=0.05, shards=2, workers=workers)
        with ShardedQuantileEngine(config) as engine:
            engine.ingest([1, 2, 3, 4, 5, 6, 7, 8], batch_size=4)
            lanes = {shard["lane"] for shard in engine.stats()["shards"]}
            assert lanes == {"items"}, workers


def test_engine_malformed_record_semantics_unchanged():
    """The columnar lane's fallback keeps the items-lane error contract."""
    config = EngineConfig(summary="gk", epsilon=0.05, shards=2)
    with ShardedQuantileEngine(config) as engine:
        with pytest.raises(EngineError):
            engine.ingest([1, 2, "not-a-number"], batch_size=8)
