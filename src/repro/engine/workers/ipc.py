"""Message codec for the shard-worker IPC channel.

Everything that crosses a worker pipe is a small tuple of primitives, so a
frame costs one cheap pickle and the wire format is easy to reason about:

Coordinator -> worker::

    ("batch",   batch_id, [(shard_index, mode, values), ...])
    ("collect", request_id)          # ship encoded shards + metric deltas
    ("restore", {shard_index: summary_payload | None})
    ("ping",    request_id)
    ("stop",)

Worker -> coordinator::

    ("applied", batch_id, {shard_index: n_after})
    ("state",   request_id, {shard_index: summary_payload},
                registry_payload, [span_dict, ...])
    ("pong",    request_id, info_dict)
    ("error",   message, traceback_text)

Values ride in one of three encodings chosen per sub-batch:

* ``"i64"`` — a routed int bucket packed into one contiguous
  ``array('q')`` buffer.  This is the hot path: one bytes object pickles
  as a single memcpy, and a columnar-capable shard applies it via
  ``process_numeric`` without ever materialising Fractions or Items.
* ``"ints"`` — plain Python ints: an int bucket holding a value outside
  int64 range, or the numerators of an integral bucket of rationals.
  Workers treat it exactly like ``"i64"``.
* ``"pairs"`` — ``(numerator, denominator)`` tuples for non-integral
  rationals; ``Fraction(n, d)`` rebuilds them exactly (inputs are already
  normalised, so the gcd pass is cheap).

Routing fast path: when every value of a raw batch is int-faithful the
coordinator routes *before* any Fraction is built, using
:func:`fast_int_buckets` — an int-specialised twin of
:func:`repro.engine.routing.route_batch` that produces bit-identical bucket
assignments (``Fraction(v)`` has numerator ``v`` and denominator 1, and
SplitMix64 only ever sees those two ints).
Summaries themselves always travel as :mod:`repro.persistence` payloads —
the same codec checkpoints use — so worker state is exactly as durable and
diffable as checkpointed state.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from typing import Sequence

from repro.engine.routing import _MASK64, _splitmix64

try:  # optional: vectorised routing fast path (pure-Python fallback below)
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is in the standard image
    _np = None

#: Below this batch size the numpy conversion overhead beats the win.
_VECTOR_MIN_BATCH = 1024

#: Encoding tags for value sub-batches.
MODE_INTS = "ints"
MODE_PAIRS = "pairs"
#: Int buckets: a contiguous little/big-endian-native int64 buffer
#: (``array('q').tobytes()``).  Pickling one bytes object instead of a list
#: of ints keeps the frame a single memcpy on both sides of the pipe.
MODE_I64 = "i64"

#: ``_splitmix64(denominator=1)`` pre-mixed is not possible (the second
#: round XORs with the first's output), but the constant 1 is what every
#: integral rational contributes as its denominator.
_ONE = 1


def shard_of_int(value: int, shard_count: int) -> int:
    """Shard index for a plain int — identical to hash-routing Fraction(v)."""
    mixed = _splitmix64(value & _MASK64)
    mixed = _splitmix64(mixed ^ _ONE)
    return mixed % shard_count


def route_int_batch(
    values: Sequence[int],
    shard_count: int,
    routing: str,
    already_ingested: int,
) -> list[list[int]]:
    """Partition raw ints into per-shard buckets, bit-identical to
    :func:`repro.engine.routing.route_batch` over ``[Fraction(v), ...]``."""
    buckets: list[list[int]] = [[] for _ in range(shard_count)]
    if routing == "hash":
        for value in values:
            buckets[shard_of_int(value, shard_count)].append(value)
    elif routing == "round-robin":
        for offset, value in enumerate(values):
            buckets[(already_ingested + offset) % shard_count].append(value)
    else:  # pragma: no cover - EngineConfig.validate rejects unknown routings
        raise ValueError(f"unknown routing {routing!r}")
    return buckets


def _int_image(values: Sequence) -> "list[int] | None":
    """Each value as the exact int it equals, or None if one equals none.

    The pure-Python twin of the vectorised faithfulness test: ``True``,
    ``2.0`` and ``Fraction(4, 2)`` map to ``1``, ``2`` and ``2``; ``2.5``,
    ``nan``, ``inf``, strings and anything else without an equal int
    refuse.  Ints are unbounded here — the caller's int64 packing handles
    the range.
    """
    image: list[int] = []
    append = image.append
    for value in values:
        kind = type(value)
        if kind is int:
            append(value)
        elif kind is Fraction:
            if value.denominator != 1:
                return None
            append(value.numerator)
        else:
            try:
                whole = int(value)
            except (TypeError, ValueError, OverflowError):
                return None
            if whole != value:
                return None
            append(whole)
    return image


def _splitmix64_vec(x):
    """SplitMix64 on a uint64 ndarray — wrapping uint64 arithmetic plays
    the role of the ``& _MASK64`` masks in :func:`_splitmix64` exactly."""
    x = x + _np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
    return x ^ (x >> _np.uint64(31))


def fast_int_buckets(
    values: Sequence,
    shard_count: int,
    routing: str,
    already_ingested: int,
) -> "list[list[int] | array] | None":
    """Int bucketing at C speed, or None when ``values`` doesn't qualify.

    Vectorised buckets come back as int64 ``array('q')`` buffers (the
    columnar consumers — batch kernels, the pool codec, the native GK
    kernel — all take them without materialising Python ints); the
    pure-Python fallback returns plain lists.

    A batch qualifies when every element is *exactly equal* to an int.
    Exact equality is the faithfulness test that makes the shortcut sound:
    for such a value ``v``, ``as_fraction(v)`` is ``Fraction(int(v))``
    (numerator ``int(v)``, denominator 1) — ``True``, ``2.0`` and integral
    Fractions included — so hash routing on the int image and shipping bare
    numerators is bit-identical to the Fraction path.  The vectorised path
    applies the test against the int64 conversion; ``2.5`` fails the
    equality test, ``nan``/``inf``/huge values fail the conversion, strings
    fail the cast.  Anything it refuses goes to the pure-Python
    :func:`_int_image`, which accepts the same values (and ints beyond
    int64), so whether a batch qualifies depends on its values only, never
    on its length.  A refusal there leaves the batch to the caller's
    Fraction path (which owns the error semantics).  The int64 -> uint64
    reinterpretation is two's complement, i.e. exactly
    ``numerator & _MASK64``.
    """
    if _np is not None and len(values) >= _VECTOR_MIN_BATCH:
        if isinstance(values, array) and values.typecode == "q":
            # Trusted lane: an ``array('q')`` is int64 by construction (the
            # frame wire and the IPC codec both guarantee it), so the O(n)
            # faithfulness check below is redundant and ``frombuffer`` maps
            # the buffer without copying.
            vector = _np.frombuffer(values, dtype=_np.int64)
        else:
            try:
                vector = _np.asarray(values, dtype=_np.int64)
            except (OverflowError, TypeError, ValueError):
                vector = None
            if vector is not None and vector.tolist() != list(values):
                vector = None
        if vector is not None:
            if routing == "hash":
                unsigned = vector.view(_np.uint64)
                mixed = _splitmix64_vec(_splitmix64_vec(unsigned) ^ _np.uint64(_ONE))
                indexes = mixed % _np.uint64(shard_count)
            else:  # round-robin; EngineConfig.validate rejects anything else
                offsets = _np.arange(
                    already_ingested,
                    already_ingested + len(values),
                    dtype=_np.uint64,
                )
                indexes = offsets % _np.uint64(shard_count)
            buckets = []
            for index in range(shard_count):
                # Buckets stay buffer-backed: the batch kernels only slice
                # and read, and the native GK kernel memcpy-extends an
                # ``array('q')``, so materialising Python ints here would
                # be pure overhead on the columnar lane.
                bucket = array("q")
                bucket.frombytes(vector[indexes == _np.uint64(index)].tobytes())
                buckets.append(bucket)
            return buckets
    ints = _int_image(values)
    if ints is None:
        return None
    return route_int_batch(ints, shard_count, routing, already_ingested)


def encode_fractions(values: Sequence[Fraction]) -> tuple[str, list]:
    """Encode a bucket of exact rationals as ``(mode, payload)``.

    Integral buckets ship as bare numerators (``"ints"``); anything else
    ships ``(numerator, denominator)`` pairs.
    """
    encoded: list[int] = []
    for value in values:
        if value.denominator == 1:
            encoded.append(value.numerator)
        else:
            break
    else:
        return MODE_INTS, encoded
    return MODE_PAIRS, [
        (value.numerator, value.denominator) for value in values
    ]


def encode_int_bucket(values: Sequence[int]) -> tuple[str, object]:
    """Encode an already-routed int bucket.

    The hot case packs the bucket into one contiguous int64 buffer
    (``"i64"``); a value outside int64 range overflows the array and the
    bucket falls back to the plain int-list encoding (``"ints"``).  Both
    decode as raw ints (:func:`decode_numeric`) or as exact rationals
    (:func:`decode_values`).
    """
    try:
        return MODE_I64, array("q", values).tobytes()
    except OverflowError:
        return MODE_INTS, list(values)


def decode_numeric(mode: str, payload) -> array | list[int]:
    """Rebuild an int bucket as raw ints (the columnar lane's view).

    An ``"i64"`` bucket stays one ``array('q')``, which the native kernels
    read in place.
    """
    if mode == MODE_I64:
        buffer = array("q")
        buffer.frombytes(payload)
        return buffer
    if mode == MODE_INTS:
        return list(payload)
    raise ValueError(f"encoding {mode!r} does not carry a numeric bucket")


def decode_values(mode: str, payload) -> list[Fraction]:
    """Rebuild exact rationals from an encoded sub-batch."""
    if mode == MODE_INTS:
        return [Fraction(value) for value in payload]
    if mode == MODE_PAIRS:
        return [Fraction(numerator, denominator) for numerator, denominator in payload]
    if mode == MODE_I64:
        # Int buckets for a summary type without a columnar lane decode to
        # the identical rationals the ints encoding would have carried.
        return [Fraction(value) for value in decode_numeric(mode, payload)]
    raise ValueError(f"unknown value encoding {mode!r}")
