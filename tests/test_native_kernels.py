"""The native kernels answer to the Python kernels and to the paper.

* **Activity.**  Wherever a C compiler exists (and ``REPRO_NO_NATIVE`` is
  unset), the KLL kernel must pass its coin probe and actually run, so a
  broken port cannot hide behind the Python fallback.
* **Seeded property.**  ``KLL._native_batch`` leaves exactly the state of
  ``KLL._process_batch``: compactors, ``n``, ``max_item_count``, the draw
  count and the full Mersenne Twister state, over capacities k = 2..456,
  chunks of 1..4,096 values, int64 extremes and merged states.
* **Adversary (Definition 2.1).**  A comparison-based summary's state may
  depend only on the relative order of its input.  The streams pi and rho
  that ``AdvStrategy`` builds against seeded KLL's ``Item`` path are
  relabelled to int64 ranks (order kept) and replayed through
  ``process_numeric`` with the kernel on and off; both replays must land
  in the ``Item`` path's state, mapped through the relabelling.
* **Loading.**  A cache directory that cannot be created means the Python
  kernels, never an error.
* **No ctypes type growth.**  Calling the kernels on many distinct lengths
  creates no ``ctypes.Array`` subclass (each would live for the process).
"""

import ctypes
import gc
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.adversary import build_adversarial_pair
from repro.summaries.kll import KLL, native_kernel_active

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

needs_native = pytest.mark.skipif(
    native.native_disabled() or native._compiler() is None,
    reason="native kernels are switched off or there is no C compiler",
)


def full_state(summary: KLL) -> tuple:
    return (
        summary._compactors,
        summary.n,
        summary.max_item_count,
        summary._rng_draws,
        summary._rng.getstate(),
    )


def columnar_kll(k: int, seed: int) -> KLL:
    summary = KLL(0.1, k=k, seed=seed)
    summary._lane = "columnar"
    return summary


# -- activity ---------------------------------------------------------------------


@needs_native
def test_kernel_is_active_wherever_a_compiler_exists(monkeypatch):
    assert native_kernel_active()

    def python_kernel(self, batch):
        raise AssertionError("an int64 batch took the Python kernel")

    monkeypatch.setattr(KLL, "_process_batch", python_kernel)
    summary = KLL(0.01, seed=3)
    summary.process_numeric(array("q", range(5000, 0, -1)))
    summary.process_numeric([7])
    summary.process_numeric(list(range(300)))
    assert summary.n == 5301
    assert summary._rng_draws > 0


def test_kill_switch_and_non_int64_keys_take_the_python_kernel(monkeypatch):
    native_kernel_active()  # the one-time probe runs the Python kernel too
    calls = []
    original = KLL._process_batch

    def counting(self, batch):
        calls.append(len(batch))
        original(self, batch)

    monkeypatch.setattr(KLL, "_process_batch", counting)
    batch = list(range(1000))
    for values in (batch[:-1] + [True], batch[:-1] + [2.0], batch[:-1] + [2**63]):
        KLL(0.05, seed=1).process_numeric(values)
    monkeypatch.setenv(native.DISABLE_ENV, "1")
    assert not native_kernel_active()
    KLL(0.05, seed=1).process_numeric(batch)
    assert calls == [1000] * 4


def test_bools_floats_and_big_ints_never_reach_the_kernel():
    levels = [[1, 2], [3]]
    state = random.Random(0).getstate()[1]
    for batch in ([True, 2], [1.0, 2], [2**63, 1], array("d", [1.0])):
        assert native.kll_batch(levels, batch, 3, 3, 0, (4, 2), state) is None
    for stored in ([[1, False]], [[0.5]], [[-(2**63) - 1]]):
        assert native.kll_batch(stored, [1, 2], 2, 2, 0, (4, 2), state) is None


# -- the seeded property ----------------------------------------------------------


def seeded_values(rng: random.Random, count: int, span: int) -> list[int]:
    values = [rng.randint(max(INT64_MIN, -span), min(INT64_MAX, span)) for _ in range(count)]
    for position in range(0, count, 97):
        values[position] = rng.choice((INT64_MIN, INT64_MAX, 0, -1))
    return values


@needs_native
@given(
    k=st.one_of(st.integers(2, 16), st.sampled_from([40, 200, 456])),
    seed=st.integers(0, 2**32 - 1),
    stream_seed=st.integers(0, 2**32 - 1),
    span=st.sampled_from([3, 1000, 2**40, 2**63]),
    chunks=st.lists(st.integers(1, 4096), min_size=1, max_size=5),
    merge_after=st.one_of(st.none(), st.integers(0, 4)),
)
@settings(max_examples=40, deadline=None)
def test_kernel_state_equals_the_python_kernel(
    k, seed, stream_seed, span, chunks, merge_after
):
    rng = random.Random(stream_seed)
    python, kernel = columnar_kll(k, seed), columnar_kll(k, seed)
    for position, size in enumerate(chunks):
        values = seeded_values(rng, size, span)
        python._process_batch(values)
        assert kernel._native_batch(array("q", values) if size % 2 else values)
        assert full_state(kernel) == full_state(python)
        if position == merge_after:
            other = KLL(0.1, k=k, seed=seed + 1)
            other.process_numeric(seeded_values(rng, rng.randint(1, 3000), span))
            python.merge(other)
            kernel.merge(other)
            assert full_state(kernel) == full_state(python)


@needs_native
@pytest.mark.parametrize("k", [3, 8])
def test_an_over_capacity_level_zero_takes_the_per_item_branch(k):
    """A merge that adds a top level shrinks every lower level's capacity,
    which can leave level 0 at or over its own; both kernels then insert
    value by value (``KLL.process``) until a cascade empties it."""

    def over_capacity() -> KLL:
        summary = columnar_kll(k, seed=5)
        summary._compactors = [list(range(40, 0, -3)), [7, 2], [11]]
        summary._n = 60
        return summary

    python, kernel = over_capacity(), over_capacity()
    assert len(python._compactors[0]) >= python._capacity(0)
    values = list(range(100, 0, -1))
    python._process_batch(values)
    assert kernel._native_batch(values)
    assert full_state(kernel) == full_state(python)


# -- the paper's adversary --------------------------------------------------------


def relabel(stream) -> dict:
    """Order-preserving map from the stream's items to spread-out int64 ranks."""
    ordered = sorted(stream)
    step = (2**64 - 2) // (len(ordered) + 1)
    return {item: INT64_MIN + (rank + 1) * step for rank, item in enumerate(ordered)}


@pytest.mark.parametrize(
    "epsilon, depth, capacity",
    [(1 / 8, 6, 3), (1 / 8, 5, 8), (1 / 16, 5, None)],
)
@pytest.mark.parametrize("kernel", ["native", "python"])
def test_adversarial_streams_replay_to_the_item_path_state(
    epsilon, depth, capacity, kernel, monkeypatch
):
    seed = 7
    result = build_adversarial_pair(
        lambda eps: KLL(eps, k=capacity, seed=seed), epsilon=epsilon, k=depth
    )
    if kernel == "native":
        if native.native_disabled() or native._compiler() is None:
            pytest.skip("native kernels are switched off or there is no C compiler")
        assert native_kernel_active()
    else:
        monkeypatch.setenv(native.DISABLE_ENV, "1")
    pair = result.pair
    for stream, reference in (
        (pair.stream_pi, pair.summary_pi),
        (pair.stream_rho, pair.summary_rho),
    ):
        labels = relabel(stream)
        replay = KLL(epsilon, k=capacity, seed=seed)
        keys = [labels[item] for item in stream]
        for start in range(0, len(keys), 37):
            replay.process_numeric(keys[start : start + 37])
        assert replay.lane == "columnar"
        assert replay.fingerprint() == reference.fingerprint()
        assert replay.max_item_count == reference.max_item_count
        assert replay._rng_draws == reference._rng_draws
        assert replay._rng.getstate() == reference._rng.getstate()
        assert replay._compactors == [
            [labels[item] for item in level] for level in reference._compactors
        ]
    # The two replays are indistinguishable exactly when the Item paths are.
    assert pair.summary_pi.fingerprint() == pair.summary_rho.fingerprint()


# -- loading ----------------------------------------------------------------------


def test_an_unusable_cache_directory_falls_back_to_python(tmp_path, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv(native.CACHE_ENV, str(blocker / "cache"))
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_load_failed", False)
    assert native.gk_batch([], [], [], [2, 1], 0, 0, 0, 10, 1, 10, False) is None
    state = random.Random(0).getstate()[1]
    assert native.kll_batch([[]], [2, 1], 0, 0, 0, (4, 2), state) is None


# -- ctypes types -----------------------------------------------------------------


def ctypes_array_types() -> int:
    return sum(
        1
        for obj in gc.get_objects()
        if isinstance(obj, type) and issubclass(obj, ctypes.Array)
    )


@needs_native
def test_kernel_calls_create_no_ctypes_array_types():
    state = random.Random(0).getstate()[1]
    native.gk_batch([], [], [], [5], 0, 0, 0, 10, 1, 10, False)
    native.kll_batch([[]], [5], 0, 0, 0, (4, 2), state)
    before = ctypes_array_types()
    for length in range(1, 60):
        batch = list(range(length * 1000, length * 1001))
        assert native.gk_batch([], [], [], batch, 0, 0, 0, 10, 1, 10, False)
        assert native.kll_batch([[]], batch, 0, 0, 0, (4, 2), state)
    assert ctypes_array_types() == before
