"""KLL sketch: weight conservation, seeded determinism, error behaviour."""

import math

import pytest

from repro.streams import Stream, random_stream
from repro.summaries.kll import KLL, kll_k_for
from repro.universe import Universe


class TestStructure:
    def test_weights_conserved(self):
        universe = Universe()
        sketch = KLL(1 / 16, seed=0)
        sketch.process_all(random_stream(universe, 3001, seed=1))
        total = sum(weight for _, weight in sketch._weighted_items())
        assert total == 3001

    def test_space_well_below_n(self):
        universe = Universe()
        sketch = KLL(1 / 16, seed=0)
        sketch.process_all(random_stream(universe, 20_000, seed=2))
        assert sketch.max_item_count < 2000

    def test_compactors_stack_up(self):
        universe = Universe()
        sketch = KLL(1 / 8, seed=0)
        sketch.process_all(random_stream(universe, 5000, seed=3))
        assert len(sketch._compactors) >= 4

    def test_item_array_sorted(self):
        universe = Universe()
        sketch = KLL(1 / 8, seed=0)
        sketch.process_all(random_stream(universe, 1000, seed=4))
        array = sketch.item_array()
        assert all(a <= b for a, b in zip(array, array[1:]))

    def test_capacity_table_matches_the_closed_form(self):
        for k in (2, 3, 7, 8, 43, 456, 10_000):
            sketch = KLL(0.1, k=k)
            for height in (1, 2, 5, 20, 60):
                sketch._compactors = [[] for _ in range(height)]
                for level in range(height):
                    depth = height - 1 - level
                    assert sketch._capacity(level) == max(
                        2, math.ceil(k * (2 / 3) ** depth)
                    ), (k, height, level)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            KLL(0.1, k=1)

    def test_k_for_guarantee_monotone_in_delta(self):
        assert kll_k_for(0.01, 1e-12) > kll_k_for(0.01, 1e-2)

    def test_k_for_guarantee_validates_delta(self):
        with pytest.raises(ValueError):
            kll_k_for(0.01, 0)
        with pytest.raises(ValueError):
            kll_k_for(0.01, 1.5)


class TestDeterminism:
    def test_same_seed_same_behaviour(self):
        results = []
        for _ in range(2):
            universe = Universe()
            sketch = KLL(1 / 16, seed=99)
            sketch.process_all(random_stream(universe, 2000, seed=5))
            results.append(sketch.fingerprint())
        assert results[0] == results[1]

    def test_order_isomorphic_streams_indistinguishable(self, universe):
        a = KLL(1 / 8, seed=7)
        b = KLL(1 / 8, seed=7)
        a.process_all(universe.items(range(500)))
        b.process_all(universe.items(range(10_000, 10_500)))
        assert a.fingerprint() == b.fingerprint()

    def test_different_seeds_can_differ(self):
        fingerprints = set()
        for seed in range(4):
            universe = Universe()
            sketch = KLL(1 / 16, seed=seed)
            sketch.process_all(random_stream(universe, 2000, seed=5))
            fingerprints.add(sketch.fingerprint())
        assert len(fingerprints) > 1


class TestAccuracy:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_error_within_guarantee_for_sized_sketch(self, seed):
        universe = Universe()
        items = random_stream(universe, 4000, seed=seed)
        sketch = KLL(1 / 16, delta=1e-4, seed=seed)
        stream = Stream()
        for item in items:
            sketch.process(item)
            stream.append(item)
        n = len(stream)
        for percent in range(0, 101, 5):
            phi = percent / 100
            rank = stream.rank(sketch.query(phi))
            target = max(1, min(n, round(phi * n)))
            assert abs(rank - target) <= n / 16 + 1

    def test_estimate_rank_reasonable(self):
        universe = Universe()
        items = random_stream(universe, 2000, seed=6)
        sketch = KLL(1 / 16, delta=1e-4, seed=0)
        stream = Stream()
        for item in items:
            sketch.process(item)
            stream.append(item)
        probe = universe.item(1000)
        assert abs(sketch.estimate_rank(probe) - 1000) <= 2000 / 16 + 1
