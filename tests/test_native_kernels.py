"""The native kernels answer to the Python kernels and to the paper.

* **Activity.**  Wherever a C compiler exists (and ``REPRO_NO_NATIVE`` is
  unset), the KLL kernel must pass its coin probe and actually run, so a
  broken port cannot hide behind the Python fallback.
* **Seeded property.**  ``KLL._native_batch`` leaves exactly the state of
  ``KLL._process_batch``: compactors, ``n``, ``max_item_count``, the draw
  count and the full Mersenne Twister state, over capacities k = 2..456,
  chunks of 1..4,096 values, int64 extremes and merged states.  GK's
  ``_native_batch`` (both variants) leaves exactly ``_process_batch``'s
  keys, g, Delta, ``n``, ``since_compress`` and ``max_item_count`` over
  eps 1/2..1/1000 and compress periods 1, 3, 7 and the default.
* **Native fold.**  ``merge_gk`` of two buffer-backed GK summaries (the C
  fold) equals the Python fold: tuples, ``n``, ``max_item_count`` and
  compiled-index answers, with duplicate keys across the inputs and
  unequal eps.
* **Adversary (Definition 2.1).**  A comparison-based summary's state may
  depend only on the relative order of its input.  The streams pi and rho
  that ``AdvStrategy`` builds against seeded KLL's and GK's ``Item`` paths
  are relabelled to int64 ranks (order kept) and replayed through
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
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.adversary import build_adversarial_pair
from repro.summaries import gk
from repro.summaries.gk import (
    GreenwaldKhanna,
    GreenwaldKhannaGreedy,
    compile_gk_index,
    merge_gk,
)
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


GK_VARIANTS = {"gk": GreenwaldKhanna, "gk-greedy": GreenwaldKhannaGreedy}


def gk_state(summary) -> tuple:
    values, gs, deltas = gk._columns(summary)
    return (
        list(zip(values, gs, deltas)),
        summary.n,
        summary._since_compress,
        summary.max_item_count,
    )


def buffer_backed(summary) -> bool:
    return type(summary._tuples) is gk._Columns


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


@needs_native
@given(
    name=st.sampled_from(sorted(GK_VARIANTS)),
    epsilon=st.sampled_from([Fraction(1, 2), Fraction(1, 10), Fraction(1, 64),
                             Fraction(1, 100), Fraction(1, 1000)]),
    period=st.sampled_from([None, 1, 3, 7]),
    stream_seed=st.integers(0, 2**32 - 1),
    span=st.sampled_from([3, 1000, 2**40, 2**63]),
    chunks=st.lists(st.integers(1, 4096), min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_gk_kernel_state_equals_the_python_kernel(
    name, epsilon, period, stream_seed, span, chunks
):
    rng = random.Random(stream_seed)
    python = GK_VARIANTS[name](epsilon, compress_period=period)
    kernel = GK_VARIANTS[name](epsilon, compress_period=period)
    python._lane = kernel._lane = "columnar"
    for size in chunks:
        values = seeded_values(rng, size, span)
        python._process_batch(values)
        assert kernel._native_batch(array("q", values) if size % 2 else values)
        assert buffer_backed(kernel)
        assert gk_state(kernel) == gk_state(python)


def folded_with_python(first, second):
    """``merge_gk`` with the native fold refused, so the Python fold runs."""
    original = gk.native_gk_merge
    gk.native_gk_merge = lambda *args: None
    try:
        return merge_gk(first, second)
    finally:
        gk.native_gk_merge = original


@needs_native
@given(
    names=st.tuples(*[st.sampled_from(sorted(GK_VARIANTS))] * 2),
    epsilons=st.tuples(
        *[st.sampled_from([Fraction(1, 10), Fraction(1, 64), Fraction(1, 100), 0.02])] * 2
    ),
    stream_seed=st.integers(0, 2**32 - 1),
    span=st.sampled_from([3, 50, 2**40, 2**63]),
    sizes=st.tuples(st.integers(1, 6000), st.integers(1, 6000)),
)
@settings(max_examples=40, deadline=None)
def test_native_fold_equals_the_python_fold(names, epsilons, stream_seed, span, sizes):
    rng = random.Random(stream_seed)
    shards = []
    for name, epsilon, size in zip(names, epsilons, sizes):
        shard = GK_VARIANTS[name](epsilon)
        shard.process_numeric(seeded_values(rng, size, span))
        assert buffer_backed(shard)
        shards.append(shard)
    first, second = shards
    native_fold = merge_gk(first, second)
    python_fold = folded_with_python(first, second)
    assert buffer_backed(native_fold) and not buffer_backed(python_fold)
    assert type(native_fold) is type(python_fold)
    assert native_fold._eps == python_fold._eps
    assert native_fold._compress_period == python_fold._compress_period
    assert gk_state(native_fold) == gk_state(python_fold)
    phis = [0.0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0]
    probes = seeded_values(rng, 40, span)
    native_index = compile_gk_index(native_fold)
    python_index = compile_gk_index(python_fold)
    assert native_index.quantile_many(phis) == python_index.quantile_many(phis)
    assert native_index.rank_many(probes) == python_index.rank_many(probes)
    # A fold of a fold (the merge tree's upper rounds) agrees too.
    assert gk_state(merge_gk(native_fold, first)) == gk_state(
        folded_with_python(python_fold, first)
    )


@needs_native
def test_duplicate_keys_across_shards_fold_like_python():
    """Equal keys in both inputs resolve to the same lower rank, which the
    g <= 0 rule folds into the tuple already kept."""
    for name in GK_VARIANTS:
        first, second = GK_VARIANTS[name](0.1), GK_VARIANTS[name](0.1)
        first.process_numeric([5, 5, 5, 1, 9] * 40)
        second.process_numeric([5, 9, 5, 1, 5] * 40)
        native_fold = merge_gk(first, second)
        assert buffer_backed(native_fold)
        assert gk_state(native_fold) == gk_state(folded_with_python(first, second))


def test_out_of_envelope_folds_take_the_python_fold():
    big = GreenwaldKhanna(0.1)
    big.process_numeric([2**63 + 5, 1, 2])  # past int64: a _Tuple list
    small = GreenwaldKhanna(0.1)
    small.process_numeric([3, 4, 5])
    assert not buffer_backed(big)
    merged = merge_gk(big, small)
    assert not buffer_backed(merged)
    assert gk_state(merged) == gk_state(folded_with_python(big, small))
    one = ([4], [1], [0])
    assert native.gk_merge(([3], [0], [0]), 1, one, 1, 1, 1, 5, False) is None  # g < 1
    assert native.gk_merge(([3, 1], [1, 1], [0, 0]), 2, one, 1, 2, 1, 5, False) is None  # order


# -- the paper's adversary --------------------------------------------------------


def relabel(stream) -> dict:
    """Order-preserving map from the stream's items to spread-out int64 ranks."""
    ordered = sorted(stream)
    step = (2**64 - 2) // (len(ordered) + 1)
    return {item: INT64_MIN + (rank + 1) * step for rank, item in enumerate(ordered)}


def adversarial_summary(name: str, epsilon: float, capacity, seed: int):
    if name == "kll":
        return KLL(epsilon, k=capacity, seed=seed)
    return GK_VARIANTS[name](epsilon)


@pytest.mark.parametrize(
    "name, epsilon, depth, capacity",
    [
        pytest.param("kll", 1 / 8, 6, 3, id="0.125-6-3"),
        pytest.param("kll", 1 / 8, 5, 8, id="0.125-5-8"),
        pytest.param("kll", 1 / 16, 5, None, id="0.0625-5-None"),
        pytest.param("gk", 1 / 8, 6, None, id="gk-0.125-6"),
        pytest.param("gk", 1 / 16, 5, None, id="gk-0.0625-5"),
        pytest.param("gk-greedy", 1 / 8, 6, None, id="gk-greedy-0.125-6"),
        pytest.param("gk-greedy", 1 / 16, 5, None, id="gk-greedy-0.0625-5"),
    ],
)
@pytest.mark.parametrize("kernel", ["native", "python"])
def test_adversarial_streams_replay_to_the_item_path_state(
    name, epsilon, depth, capacity, kernel, monkeypatch
):
    seed = 7
    result = build_adversarial_pair(
        lambda eps: adversarial_summary(name, eps, capacity, seed),
        epsilon=epsilon,
        k=depth,
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
        replay = adversarial_summary(name, epsilon, capacity, seed)
        keys = [labels[item] for item in stream]
        for start in range(0, len(keys), 37):
            replay.process_numeric(keys[start : start + 37])
        assert replay.lane == "columnar"
        assert replay.fingerprint() == reference.fingerprint()
        assert replay.max_item_count == reference.max_item_count
        if name == "kll":
            assert replay._rng_draws == reference._rng_draws
            assert replay._rng.getstate() == reference._rng.getstate()
            assert replay._compactors == [
                [labels[item] for item in level] for level in reference._compactors
            ]
        else:
            assert buffer_backed(replay) == (kernel == "native")
            values, gs, deltas = gk._columns(reference)
            assert gk_state(replay)[0] == [
                (labels[item], g, delta) for item, g, delta in zip(values, gs, deltas)
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
    assert not native.available()
    columns = [array("q"), array("q"), array("q")]
    assert native.gk_batch(columns, [2, 1], 0, 0, 0, 10, 1, 10, False) is None
    assert columns == [array("q")] * 3
    one = ([3], [1], [0])
    assert native.gk_merge(one, 1, one, 1, 1, 1, 5, False) is None
    state = random.Random(0).getstate()[1]
    assert native.kll_batch([[]], [2, 1], 0, 0, 0, (4, 2), state) is None
    summary = GreenwaldKhanna(0.1)
    summary.process_numeric([2, 1, 3])
    assert not buffer_backed(summary)
    assert not buffer_backed(merge_gk(summary, summary))


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
    one = ([3], [1], [0])
    native.gk_batch([array("q") for _ in range(3)], [5], 0, 0, 0, 10, 1, 10, False)
    native.gk_merge(one, 1, one, 1, 1, 1, 5, False)
    native.kll_batch([[]], [5], 0, 0, 0, (4, 2), state)
    before = ctypes_array_types()
    for length in range(1, 60):
        batch = list(range(length * 1000, length * 1001))
        columns = [array("q"), array("q"), array("q")]
        assert native.gk_batch(columns, batch, 0, 0, 0, 10, 1, 10, False)
        assert native.gk_merge(columns, length, one, 1, 1, 1, 5, length % 2 == 0)
        assert native.kll_batch([[]], batch, 0, 0, 0, (4, 2), state)
    assert ctypes_array_types() == before
