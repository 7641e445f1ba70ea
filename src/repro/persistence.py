"""Saving and restoring quantile summaries.

A summary that cannot outlive its process is of limited use in a pipeline:
checkpointing, shipping per-shard summaries to a coordinator for merging
(:mod:`repro.summaries.merging`), and caching all need a stable encoding.
This module provides one: :func:`dump` turns a supported summary into a
JSON-compatible dict, :func:`load` reconstructs it.

Item keys are exact rationals; they are encoded as ``"numerator/denominator"``
strings so round-trips are lossless.  Restored items are fresh
:class:`~repro.universe.Item` objects (optionally attached to a counter via
the ``universe`` argument); object identity is not preserved, values are.

Dispatch goes through the capability registry
(:mod:`repro.model.registry`): every :class:`SummaryDescriptor` carries its
type's ``encode``/``decode`` codec, defined next to the algorithm in its own
summary module.  There is no per-type table here any more — :func:`dump`
looks the descriptor up by concrete class, :func:`load` by the payload's
``type`` field (the class name, kept stable so old checkpoints keep
loading).

Randomized summaries also store their generator: :func:`encode_rng` packs
the full Mersenne Twister state, and :func:`restore_rng` puts it back with
one ``setstate``, so a restored summary continues exactly like the original
and a decode costs O(stored items) however long the stream was.  Payloads
written before the state was stored carry only the seed (plus, where the
type keeps one, a draw count); for those each codec passes its own
*replay*, which re-seeds and redraws every past coin — O(stream), kept only
so old checkpoints still load to the identical state.
"""

from __future__ import annotations

import base64
import random
import struct
from fractions import Fraction
from typing import Any, Callable

from repro.errors import ReproError
from repro.model.registry import (
    descriptor_for_class,
    descriptor_for_payload,
    descriptors,
)
from repro.universe.item import Item, key_of
from repro.universe.universe import Universe

FORMAT_VERSION = 1


class PersistenceError(ReproError):
    """The payload is malformed or for an unsupported summary type."""


def encode_key(item: Item) -> str:
    """Encode an item's rational key as a lossless ``"num/den"`` string."""
    key = key_of(item)
    if not isinstance(key, Fraction):
        raise PersistenceError(
            "only rational-keyed items are serialisable; items from the "
            "lexicographic universe are not supported"
        )
    return f"{key.numerator}/{key.denominator}"


def decode_key(text: str) -> Fraction:
    """Decode a :func:`encode_key` string back into an exact rational."""
    try:
        numerator, denominator = text.split("/")
        return Fraction(int(numerator), int(denominator))
    except (ValueError, ZeroDivisionError):
        raise PersistenceError(f"bad item key {text!r}") from None


def epsilon_of(payload: dict) -> Fraction:
    """The exact epsilon a payload was dumped with."""
    return Fraction(payload["epsilon"])


def encode_rng(rng: random.Random) -> dict:
    """``rng``'s full generator state as a JSON-compatible dict.

    The Mersenne Twister's 625 state words are packed little-endian and
    base64-encoded (3.3 KB), independent of how many draws were made.
    """
    version, words, gauss_next = rng.getstate()
    packed = struct.pack(f"<{len(words)}I", *words)
    return {
        "version": version,
        "words": base64.b64encode(packed).decode("ascii"),
        "gauss_next": gauss_next,
    }


def restore_rng(
    rng: random.Random, state: dict | None, replay: Callable[[], None]
) -> None:
    """Put ``rng`` into the :func:`encode_rng` ``state`` a payload stored.

    ``state`` is None for payloads written before generator states were
    stored; ``replay`` then brings the freshly seeded ``rng`` forward by
    redrawing the payload's past coins.
    """
    if state is None:
        replay()
        return
    try:
        packed = base64.b64decode(state["words"], validate=True)
        words = struct.unpack(f"<{len(packed) // 4}I", packed)
        rng.setstate((int(state["version"]), words, state["gauss_next"]))
    except (KeyError, TypeError, ValueError, struct.error):
        raise PersistenceError("bad rng state") from None


def _ensure_registered() -> None:
    # Codecs live next to their algorithms and register at import time; a
    # caller that only imported repro.persistence still needs them loaded.
    # Deferred to call time so the summaries package (whose modules import
    # the key helpers above) never sees a half-initialised cycle.
    import repro.summaries  # noqa: F401


def dump(summary: Any) -> dict:
    """Encode a supported summary as a JSON-compatible dict."""
    _ensure_registered()
    descriptor = descriptor_for_class(type(summary))
    if descriptor is None or descriptor.encode is None:
        supported = sorted(
            d.payload_type
            for d in descriptors()
            if d.encode is not None and d.payload_type is not None
        )
        raise PersistenceError(
            f"cannot serialise {type(summary).__name__}; supported: "
            + ", ".join(supported)
        )
    payload = descriptor.encode(summary)
    payload["format"] = FORMAT_VERSION
    payload["type"] = descriptor.payload_type
    payload["epsilon"] = str(Fraction(summary.epsilon).limit_denominator(10**9))
    payload["n"] = summary.n
    payload["max_item_count"] = summary.max_item_count
    return payload


def load(payload: dict, universe: Universe | None = None) -> Any:
    """Reconstruct a summary from a :func:`dump` payload."""
    _ensure_registered()
    if payload.get("format") != FORMAT_VERSION:
        raise PersistenceError(f"unsupported format {payload.get('format')!r}")
    type_name = payload.get("type")
    descriptor = descriptor_for_payload(type_name) if type_name else None
    if descriptor is None:
        raise PersistenceError(f"unknown summary type {type_name!r}")
    universe = universe if universe is not None else Universe()
    summary = descriptor.decode(payload, universe)
    summary._n = int(payload["n"])
    summary._max_item_count = int(payload["max_item_count"])
    return summary
