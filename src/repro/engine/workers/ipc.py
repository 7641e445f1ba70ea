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

Summaries themselves always travel as :mod:`repro.persistence` payloads —
the same codec checkpoints use — so worker state is exactly as durable and
diffable as checkpointed state.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from typing import Sequence

#: Encoding tags for value sub-batches.
MODE_INTS = "ints"
MODE_PAIRS = "pairs"
#: Int buckets: a contiguous little/big-endian-native int64 buffer
#: (``array('q').tobytes()``).  Pickling one bytes object instead of a list
#: of ints keeps the frame a single memcpy on both sides of the pipe.
MODE_I64 = "i64"


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
