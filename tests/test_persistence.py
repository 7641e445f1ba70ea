"""Serialisation round-trips for every registered summary type."""

import json
import random

import pytest

from repro.model.registry import available_summaries
from repro.persistence import PersistenceError, dump, load
from repro.streams import random_stream
from repro.summaries.biased import BiasedQuantileSummary
from repro.summaries.capped import CappedSummary
from repro.summaries.exact import ExactSummary
from repro.summaries.gk import GreenwaldKhanna, GreenwaldKhannaGreedy
from repro.summaries.kll import KLL
from repro.summaries.mrl import MRL
from repro.summaries.offline import OfflineOptimal
from repro.summaries.qdigest import QDigest
from repro.summaries.req import RelativeErrorSketch
from repro.summaries.sampled import SampledGK
from repro.summaries.sampling import ReservoirSampling
from repro.summaries.sliding import SlidingWindowQuantiles
from repro.summaries.turnstile import TurnstileQuantiles
from repro.universe import Universe, key_of

# One factory per *registered* summary name; test_registry_fully_covered
# fails if a new summary type is registered without a round-trip entry here.
FACTORIES = {
    "gk": lambda: GreenwaldKhanna(1 / 16),
    "gk-greedy": lambda: GreenwaldKhannaGreedy(1 / 16),
    "biased": lambda: BiasedQuantileSummary(1 / 16),
    "kll": lambda: KLL(1 / 16, seed=5),
    "req": lambda: RelativeErrorSketch(1 / 4, k=16, seed=5),
    "mrl": lambda: MRL(1 / 16, n_hint=2000),
    "capped": lambda: CappedSummary(1 / 16, budget=12),
    "exact": lambda: ExactSummary(1 / 100),
    "sampling": lambda: ReservoirSampling(1 / 8, m=64, seed=5),
    "sampled-gk": lambda: SampledGK(1 / 8, n_hint=500, seed=5),
    "offline": lambda: OfflineOptimal(1 / 16),
    "sliding-gk": lambda: SlidingWindowQuantiles(1 / 8, window=300, blocks=4),
    "qdigest": lambda: QDigest(1 / 16, universe_bits=12),
    "turnstile": lambda: TurnstileQuantiles(1 / 4, universe_bits=10, seed=5),
}


def test_registry_fully_covered():
    """Every summary registered in repro.model.registry must round-trip.

    Other test modules register throwaway types (their names contain
    "test") into the process-wide registry; only real types must be covered.
    """
    missing = {
        name for name in available_summaries() if "test" not in name
    } - set(FACTORIES)
    assert not missing, f"registered summaries without round-trip coverage: {missing}"
    assert set(FACTORIES) <= set(available_summaries())


def roundtrip(summary):
    payload = json.loads(json.dumps(dump(summary)))
    return load(payload)


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestRoundTrip:
    def test_basic_state_preserved(self, name):
        universe = Universe()
        summary = FACTORIES[name]()
        summary.process_all(random_stream(universe, 700, seed=1))
        restored = roundtrip(summary)
        assert restored.n == summary.n
        assert restored.max_item_count == summary.max_item_count
        assert restored.epsilon == pytest.approx(summary.epsilon)
        assert dump(restored) == dump(summary)

    def test_item_array_values_preserved(self, name):
        universe = Universe()
        summary = FACTORIES[name]()
        summary.process_all(random_stream(universe, 500, seed=2))
        restored = roundtrip(summary)
        original_keys = [key_of(item) for item in summary.item_array()]
        restored_keys = [key_of(item) for item in restored.item_array()]
        assert restored_keys == original_keys

    def test_queries_identical_after_restore(self, name):
        universe = Universe()
        summary = FACTORIES[name]()
        summary.process_all(random_stream(universe, 600, seed=3))
        restored = roundtrip(summary)
        for percent in (0, 10, 50, 90, 100):
            phi = percent / 100
            assert key_of(restored.query(phi)) == key_of(summary.query(phi))

    def test_restored_summary_continues_identically(self, name):
        universe_a, universe_b = Universe(), Universe()
        original = FACTORIES[name]()
        original.process_all(random_stream(universe_a, 400, seed=4))
        restored = roundtrip(original)
        extra_a = random_stream(universe_a, 300, seed=5)
        extra_b = [Universe().item(key_of(item)) for item in extra_a]
        original.process_all(extra_a)
        restored.process_all(extra_b)
        assert [key_of(i) for i in restored.item_array()] == [
            key_of(i) for i in original.item_array()
        ]


class TestPayloadDetails:
    def test_payload_is_json_compatible(self):
        universe = Universe()
        summary = GreenwaldKhanna(1 / 8)
        summary.process_all(universe.items(range(100)))
        text = json.dumps(dump(summary))
        assert "GreenwaldKhanna" in text

    def test_fractional_keys_lossless(self):
        from fractions import Fraction

        universe = Universe()
        summary = ExactSummary()
        summary.process_all(
            universe.items([Fraction(1, 3), Fraction(22, 7), Fraction(-5, 9)])
        )
        restored = roundtrip(summary)
        assert [key_of(i) for i in restored.item_array()] == sorted(
            [Fraction(1, 3), Fraction(22, 7), Fraction(-5, 9)]
        )

    def test_unsupported_type_rejected(self):
        class NotASummary:
            epsilon = 0.5

        with pytest.raises(PersistenceError, match="cannot serialise"):
            dump(NotASummary())

    def test_bad_format_rejected(self):
        with pytest.raises(PersistenceError, match="unsupported format"):
            load({"format": 999, "type": "GreenwaldKhanna"})

    def test_unknown_type_rejected(self):
        with pytest.raises(PersistenceError, match="unknown summary type"):
            load({"format": 1, "type": "Nope"})

    def test_bad_key_rejected(self):
        payload = dump(_small_gk())
        payload["tuples"][0][0] = "not-a-key"
        with pytest.raises(PersistenceError, match="bad item key"):
            load(payload)

    def test_kll_rng_fast_forward(self, monkeypatch):
        """Every seeded type restores its generator without redrawing coins.

        A payload that stores the generator state loads without a single
        draw; the same payload without it (as written before states were
        stored) replays the draws from the seed.  Both end in the original's
        exact generator state, fingerprint and next coins.
        """
        for name, make in SEEDED_FACTORIES.items():
            original = make()
            original.process_all(random_stream(Universe(), 3000, seed=6))
            assert original._rng.getstate() != random.Random(5).getstate(), name
            payload = json.loads(json.dumps(dump(original)))
            legacy = {key: value for key, value in payload.items() if key != "rng"}

            with monkeypatch.context() as patch:
                for method in ("random", "randrange", "getrandbits"):
                    patch.setattr(random.Random, method, _no_draws)
                restored = load(payload)
            replayed = load(legacy)

            for copy in (restored, replayed):
                assert copy._rng.getstate() == original._rng.getstate(), name
                assert copy.fingerprint() == original.fingerprint(), name
                assert getattr(copy, "_rng_draws", None) == getattr(
                    original, "_rng_draws", None
                ), name
            coins = [original._rng.random() for _ in range(8)]
            assert [restored._rng.random() for _ in range(8)] == coins, name
            assert [replayed._rng.random() for _ in range(8)] == coins, name

    def test_bad_rng_state_rejected(self):
        payload = dump(FACTORIES["kll"]())
        payload["rng"]["words"] = payload["rng"]["words"][:-8]
        with pytest.raises(PersistenceError, match="bad rng state"):
            load(payload)


# The four types whose codecs store a generator: each must draw coins on a
# 3000-item stream (so sampled-gk runs at a rate below 1 and the reservoir
# overflows).
SEEDED_FACTORIES = {
    "kll": lambda: KLL(1 / 8, seed=5),
    "req": lambda: RelativeErrorSketch(1 / 4, k=16, seed=5),
    "sampled-gk": lambda: SampledGK(1 / 4, n_hint=20_000, seed=5),
    "sampling": lambda: ReservoirSampling(1 / 8, m=64, seed=5),
}


def _no_draws(*args, **kwargs):
    raise AssertionError("load drew a coin")


def _small_gk():
    universe = Universe()
    summary = GreenwaldKhanna(1 / 8)
    summary.process_all(universe.items(range(20)))
    return summary


class TestRoundTripProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=20, deadline=None)
    @given(
        name=st.sampled_from(sorted(FACTORIES)),
        seed=st.integers(min_value=0, max_value=10**6),
        length=st.integers(min_value=1, max_value=400),
        split=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_checkpoint_resume_equals_straight_run(self, name, seed, length, split):
        """dump/load at any point, keep streaming: same state as never pausing."""
        universe_a = Universe()
        items = random_stream(universe_a, length, seed=seed)
        checkpoint_at = int(split * length)

        straight = FACTORIES[name]()
        straight.process_all(items)

        paused = FACTORIES[name]()
        paused.process_all(items[:checkpoint_at])
        resumed = roundtrip(paused)
        resumed.process_all(items[checkpoint_at:])

        assert resumed.n == straight.n
        assert [key_of(i) for i in resumed.item_array()] == [
            key_of(i) for i in straight.item_array()
        ]
        assert resumed.fingerprint() == straight.fingerprint()
