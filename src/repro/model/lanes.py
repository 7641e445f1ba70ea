"""Explicit lane transitions between comparison-model and columnar state.

Demotion (columnar -> items) lives on the summaries themselves: they can
always wrap a raw key into an :class:`~repro.universe.item.Item` without
seeing anything the model forbids.  Promotion (items -> columnar) is the
opposite direction — it must *unwrap* Item keys — so it lives here in model
infrastructure, next to :mod:`repro.model.rankindex`, and hands summaries an
opaque converter instead of letting them import :func:`key_of` themselves.

Promotion is used whenever the engine decodes shard payloads (checkpoint
restores): the persistence codec always decodes into the items lane (one
wire format for both), and the engine promotes afterwards.  It succeeds
only when every stored key is an integral rational — exactly the keys the
engine's columnar ingest fast path can produce — and is a no-op refusal
otherwise, which is always safe: lanes are equivalent, just differently
fast.
"""

from __future__ import annotations

from fractions import Fraction

from repro.universe.item import Item, key_of


def _to_raw(value):
    """Raw numeric key for ``value``, or None when it has no faithful one."""
    if not isinstance(value, Item):
        return value
    key = key_of(value)
    if isinstance(key, Fraction) and key.denominator == 1:
        return key.numerator
    return None


def promote_to_columnar(summary) -> bool:
    """Switch ``summary``'s stored keys to raw numerics where possible.

    Returns True when the summary now holds columnar state.  Refuses (and
    leaves the summary untouched) for types without columnar support or
    state with non-integral keys.
    """
    if getattr(summary, "lane", "items") == "columnar":
        return True
    if not getattr(summary, "supports_columnar", False):
        return False
    hook = getattr(summary, "_promote_columnar", None)
    if hook is None:
        return False
    return bool(hook(_to_raw))
