"""Comparison-only stream items and the infinite sentinels.

An :class:`Item` wraps an exact rational key (``fractions.Fraction``) but
exposes it to client code *only* through comparisons and equality tests,
mirroring Definition 2.1(i) of the paper: a comparison-based summary "does not
perform any operation on items from the stream, apart from a comparison and
the equality test".  Arithmetic, conversion to numbers, formatting into
values, and similar operations raise
:class:`~repro.errors.ForbiddenItemOperation`.

Infrastructure code (the adversary, rank oracles, plots) is allowed to see
the key; it should do so through :func:`key_of` so that such accesses are
easy to audit.

``NEG_INFINITY`` and ``POS_INFINITY`` are singletons ordered below/above all
items.  They are used as the endpoints of the initial unbounded interval in
the adversarial construction and never appear inside streams.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Union

from repro.errors import ForbiddenItemOperation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.universe.counter import ComparisonCounter

_FORBIDDEN_MESSAGE = (
    "items from a comparison-based stream support only comparisons and "
    "equality tests (Definition 2.1 of the paper); operation {op!r} is not "
    "permitted"
)


class _Infinity:
    """Sentinel ordered above (or below) every :class:`Item`.

    Two singletons exist: ``NEG_INFINITY`` and ``POS_INFINITY``.  They give
    the adversary a uniform representation for the initial interval
    (-inf, +inf) of Pseudocode 2.
    """

    __slots__ = ("_sign",)

    def __init__(self, sign: int) -> None:
        self._sign = sign

    @property
    def is_positive(self) -> bool:
        """True for ``POS_INFINITY``, False for ``NEG_INFINITY``."""
        return self._sign > 0

    def __lt__(self, other: object) -> bool:
        if other is self:
            return False
        if isinstance(other, (_Infinity, Item)):
            return self._sign < 0
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if other is self:
            return True
        return self.__lt__(other)

    def __gt__(self, other: object) -> bool:
        if other is self:
            return False
        if isinstance(other, (_Infinity, Item)):
            return self._sign > 0
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if other is self:
            return True
        return self.__gt__(other)

    def __repr__(self) -> str:
        return "+inf" if self._sign > 0 else "-inf"


NEG_INFINITY = _Infinity(-1)
POS_INFINITY = _Infinity(+1)

Bound = Union["Item", _Infinity]


class Item:
    """A single stream item from the totally ordered universe.

    Parameters
    ----------
    key:
        Position of the item in the universe: an exact rational for the
        numeric :class:`~repro.universe.Universe`, or a string for the
        lexicographic one.  Any totally ordered, hashable key works; it is
        hidden from comparison-based client code either way.
    counter:
        Optional :class:`~repro.universe.ComparisonCounter` that records every
        comparison or equality test this item participates in.
    label:
        Optional human-readable tag used by figures and debugging output.
    """

    # _hash caches hash(_key) on first use: the key never changes, and
    # _track_storage-style callers hash the same stored items over and over.
    __slots__ = ("_key", "_counter", "label", "_hash")

    def __init__(
        self,
        key: "Fraction | str",
        counter: "ComparisonCounter | None" = None,
        label: str | None = None,
    ) -> None:
        self._key = key
        self._counter = counter
        self.label = label

    # -- permitted operations -------------------------------------------------

    def _record_comparison(self, other: object) -> None:
        if self._counter is not None:
            self._counter.record_comparison()
        elif isinstance(other, Item) and other._counter is not None:
            other._counter.record_comparison()

    # The ordering methods inline _record_comparison and compare Fraction
    # keys through their normalised numerator/denominator pairs directly.
    # Item comparisons are the single hottest operation in every summary
    # (a GK insert is almost nothing but them), and Fraction's operator
    # methods spend most of their time in numbers.Rational ABC dispatch
    # that can never apply here: both keys are exact Fractions with
    # positive denominators, so cross-multiplication decides the order.

    def __lt__(self, other: object) -> bool:
        if isinstance(other, Item):
            if self._counter is not None:
                self._counter.record_comparison()
            elif other._counter is not None:
                other._counter.record_comparison()
            a, b = self._key, other._key
            if type(a) is Fraction and type(b) is Fraction:
                return a._numerator * b._denominator < b._numerator * a._denominator
            return a < b
        if isinstance(other, _Infinity):
            return other.is_positive
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, Item):
            if self._counter is not None:
                self._counter.record_comparison()
            elif other._counter is not None:
                other._counter.record_comparison()
            a, b = self._key, other._key
            if type(a) is Fraction and type(b) is Fraction:
                return a._numerator * b._denominator <= b._numerator * a._denominator
            return a <= b
        if isinstance(other, _Infinity):
            return other.is_positive
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, Item):
            if self._counter is not None:
                self._counter.record_comparison()
            elif other._counter is not None:
                other._counter.record_comparison()
            a, b = self._key, other._key
            if type(a) is Fraction and type(b) is Fraction:
                return a._numerator * b._denominator > b._numerator * a._denominator
            return a > b
        if isinstance(other, _Infinity):
            return not other.is_positive
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, Item):
            if self._counter is not None:
                self._counter.record_comparison()
            elif other._counter is not None:
                other._counter.record_comparison()
            a, b = self._key, other._key
            if type(a) is Fraction and type(b) is Fraction:
                return a._numerator * b._denominator >= b._numerator * a._denominator
            return a >= b
        if isinstance(other, _Infinity):
            return not other.is_positive
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Item):
            if self._counter is not None:
                self._counter.record_equality_test()
            elif other._counter is not None:
                other._counter.record_equality_test()
            a, b = self._key, other._key
            if type(a) is Fraction and type(b) is Fraction:
                # Fractions are stored normalised, so equality is
                # component-wise.
                return (
                    a._numerator == b._numerator
                    and a._denominator == b._denominator
                )
            return a == b
        if isinstance(other, _Infinity):
            return False
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        # Hashing is equality-compatible and reveals no ordering information,
        # so dict/set membership (an equality test) remains permitted; it
        # counts no comparison, so caching it changes no count.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self._key)
            return self._hash

    def __repr__(self) -> str:
        if self.label is not None:
            return f"Item({self.label})"
        return f"Item({self._key})"

    # -- forbidden operations --------------------------------------------------

    def _forbidden(self, op: str) -> ForbiddenItemOperation:
        return ForbiddenItemOperation(_FORBIDDEN_MESSAGE.format(op=op))

    def __add__(self, other: object) -> None:
        raise self._forbidden("+")

    __radd__ = __add__

    def __sub__(self, other: object) -> None:
        raise self._forbidden("-")

    __rsub__ = __sub__

    def __mul__(self, other: object) -> None:
        raise self._forbidden("*")

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> None:
        raise self._forbidden("/")

    __rtruediv__ = __truediv__

    def __floordiv__(self, other: object) -> None:
        raise self._forbidden("//")

    __rfloordiv__ = __floordiv__

    def __neg__(self) -> None:
        raise self._forbidden("unary -")

    def __abs__(self) -> None:
        raise self._forbidden("abs")

    def __int__(self) -> None:
        raise self._forbidden("int")

    def __float__(self) -> None:
        raise self._forbidden("float")

    def __index__(self) -> None:
        raise self._forbidden("index")

    def __bool__(self) -> bool:
        raise self._forbidden("bool")


def key_of(item: "Item | int | float") -> "Fraction | str":
    """Return the hidden rational key of ``item``.

    This is the single sanctioned escape hatch for infrastructure code (the
    adversary, rank oracles, table rendering).  Summaries must never call it;
    importing it inside a summary module is a model violation by convention,
    and the compliance tests grep for exactly that.

    Columnar-lane state stores raw numeric keys instead of Items; those map
    to their exact rational value here, so every read path that normalises
    answers through ``key_of`` is lane-agnostic.
    """
    if isinstance(item, Item):
        return item._key
    if isinstance(item, (int, float, Fraction)):
        # Idempotent on Fractions: read paths that already normalised an
        # answer can re-normalise without caring which layer produced it.
        return Fraction(item)
    raise TypeError(f"key_of expects an Item or a raw numeric key, got {item!r}")
