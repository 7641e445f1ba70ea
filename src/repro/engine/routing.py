"""Shard routing by arrival, and the batch's lane.

Item ``i`` of the engine's lifetime goes to shard ``i % shards``.  The
engine threads its lifetime item count through :func:`route_batch`, so the
assignment survives batch boundaries and checkpoint/restore, and each
shard's bucket is a strided slice of the batch.

Which shard a value lands on never depends on the value (the lane test in
:func:`fast_int_buckets` reads values only to pick their representation).
That keeps the engine inside Definition 2.1: two streams with the same
relative order put the same positions on the same shards, so an
order-preserving relabelling of the input leaves every shard, and the fold,
in the same state.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from typing import Sequence


def route_batch(
    values: Sequence, shard_count: int, already_ingested: int
) -> list[Sequence]:
    """Partition ``values`` into one bucket per shard, by arrival.

    ``already_ingested`` is the engine's lifetime item count before this
    batch, so batch size and checkpoint boundaries never change the
    assignment.  Buckets are slices: a list gives lists, an ``array('q')``
    gives ``array('q')`` buffers.
    """
    return [
        values[(index - already_ingested) % shard_count :: shard_count]
        for index in range(shard_count)
    ]


def _int_image(values: Sequence) -> "list[int] | None":
    """Each value as the exact int it equals, or None if one equals none.

    ``True``, ``2.0`` and ``Fraction(4, 2)`` map to ``1``, ``2`` and ``2``;
    ``2.5``, ``nan``, ``inf``, strings and anything else without an equal
    int refuse.  Ints are unbounded here — the caller's int64 packing
    handles the range.
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


def fast_int_buckets(
    values: Sequence, shard_count: int, already_ingested: int
) -> "list[array] | list[list[int]] | None":
    """Arrival buckets of the batch's ints, or None when it has no int image.

    A batch qualifies when every element is *exactly equal* to an int, so
    ``as_fraction(v)`` is ``Fraction(int(v))`` for each ``v`` and the raw
    ints carry exactly what the Fraction path would.  The test reads the
    values only, never the batch length:

    * an ``array('q')`` is int64 by construction and passes as it is;
    * any other batch first tries ``array('q', values)``, which accepts
      ints and bools at C speed;
    * on refusal, :func:`_int_image` also accepts int-valued floats,
      integral Fractions and ints beyond int64 (those buckets are lists).

    ``None`` leaves the batch to the caller's Fraction path, which owns the
    error semantics.
    """
    if not (isinstance(values, array) and values.typecode == "q"):
        try:
            values = array("q", values)
        except (TypeError, OverflowError):
            values = _int_image(values)
            if values is None:
                return None
    return route_batch(values, shard_count, already_ingested)
