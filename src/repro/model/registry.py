"""The capability registry: one :class:`SummaryDescriptor` per summary type.

Experiments, benchmarks, the engine, the persistence layer, and the CLI all
refer to algorithms by short names (``"gk"``, ``"kll"``, ...).  Historically
each layer kept its own per-type dispatch table (factories and merges here,
``_ENCODERS``/``_DECODERS`` in :mod:`repro.persistence`, a merge-registration
block in :mod:`repro.summaries.merging`); this module now holds the single
table.  A summary module registers one descriptor at import time via
:func:`register_descriptor`, bundling everything the rest of the stack needs
to know about the type:

* ``factory`` — instantiate by name (:func:`create_summary`);
* ``merge`` — combine two summaries over concatenated streams
  (:func:`merge_summaries`; ``None`` for non-mergeable types);
* ``encode``/``decode`` — the persistence codec
  (:func:`repro.persistence.dump` / :func:`~repro.persistence.load`
  dispatch through the descriptor);
* ``has_batch_kernel`` — whether the type overrides
  :meth:`~repro.model.summary.QuantileSummary._process_batch` with an
  amortised batch-ingest kernel;
* ``compile_index`` — freeze the summary into a
  :class:`~repro.model.rankindex.RankIndex` whose quantile/rank answers are
  bit-identical to the uncompiled read path (the engine, and the service
  through it, and the CLI compile through it; the engine requires one);
* ``is_comparison_based`` / ``is_deterministic`` — the model flags of
  Definition 2.1, mirrored from the class.

Adding a summary type is therefore one registration, not four parallel
edits.  The legacy helpers (:func:`register_summary`, :func:`register_merge`)
remain as thin wrappers that fill in the corresponding descriptor fields.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.errors import UnsupportedMergeError
from repro.model.summary import QuantileSummary

SummaryFactory = Callable[..., QuantileSummary]

# A merge takes two summaries and returns a summary over the concatenation of
# both input streams.  Neither input may be mutated (engine shards must stay
# queryable and re-mergeable after a fold).
MergeFunction = Callable[[QuantileSummary, QuantileSummary], QuantileSummary]

# A persistence codec: encode returns the type-specific payload body (the
# generic dump() stamps format/type/epsilon/n/max_item_count on top); decode
# rebuilds a summary from that payload against a universe.
EncodeFunction = Callable[[Any], dict]
DecodeFunction = Callable[[dict, Any], QuantileSummary]

# A read-index compiler: freeze a summary's stored items + rank bounds into a
# RankIndex (see repro.model.rankindex) whose quantile/rank answers are
# bit-identical to the uncompiled query/estimate_rank path.
CompileIndexFunction = Callable[[QuantileSummary], Any]


@dataclass(frozen=True)
class SummaryDescriptor:
    """Everything the stack knows about one registered summary type."""

    name: str
    factory: SummaryFactory | None = None
    cls: type | None = None
    merge: MergeFunction | None = None
    encode: EncodeFunction | None = None
    decode: DecodeFunction | None = None
    #: The ``"type"`` field stamped into persistence payloads (the concrete
    #: class name, kept stable so existing checkpoints keep loading).
    payload_type: str | None = None
    has_batch_kernel: bool = False
    is_comparison_based: bool = True
    is_deterministic: bool = True
    #: Whether the type can hold columnar (raw numeric key) state — the
    #: fast lane of docs/model.md that the engine infers from int-faithful
    #: batches; mirrored from ``cls.supports_columnar``.
    columnar: bool = False
    #: Compile a frozen read index answering quantile/rank queries
    #: bit-identically to the summary's own query/estimate_rank (``None``
    #: when the type has no compiled read path).
    compile_index: CompileIndexFunction | None = None


_DESCRIPTORS: dict[str, SummaryDescriptor] = {}


def register_descriptor(
    name: str,
    factory: SummaryFactory,
    *,
    cls: type | None = None,
    merge: MergeFunction | None = None,
    encode: EncodeFunction | None = None,
    decode: DecodeFunction | None = None,
    payload_type: str | None = None,
    has_batch_kernel: bool | None = None,
    compile_index: CompileIndexFunction | None = None,
) -> SummaryDescriptor:
    """Register the full capability descriptor for one summary type.

    ``cls`` defaults to ``factory`` when the factory is the class itself;
    ``payload_type`` defaults to ``cls.__name__``; the model flags are read
    from the class; ``has_batch_kernel`` is detected from a
    ``_process_batch`` override unless given explicitly.  Re-registration
    must name the identical factory (mirroring the historical rule).
    """
    existing = _DESCRIPTORS.get(name)
    if (
        existing is not None
        and existing.factory is not None
        and existing.factory is not factory
    ):
        raise ValueError(f"summary name {name!r} is already registered")
    if cls is None and isinstance(factory, type):
        cls = factory
    if payload_type is None and cls is not None:
        payload_type = cls.__name__
    if has_batch_kernel is None:
        has_batch_kernel = (
            cls is not None
            and getattr(cls, "_process_batch", None)
            is not QuantileSummary._process_batch
        )
    descriptor = SummaryDescriptor(
        name=name,
        factory=factory,
        cls=cls,
        merge=merge if merge is not None else (existing.merge if existing else None),
        compile_index=(
            compile_index
            if compile_index is not None
            else (existing.compile_index if existing else None)
        ),
        encode=encode,
        decode=decode,
        payload_type=payload_type,
        has_batch_kernel=bool(has_batch_kernel),
        is_comparison_based=bool(getattr(cls, "is_comparison_based", True)),
        is_deterministic=bool(getattr(cls, "is_deterministic", True)),
        columnar=bool(getattr(cls, "supports_columnar", False)),
    )
    _DESCRIPTORS[name] = descriptor
    return descriptor


def get_descriptor(name: str) -> SummaryDescriptor:
    """The descriptor registered under ``name`` (KeyError with the known list)."""
    try:
        return _DESCRIPTORS[name]
    except KeyError:
        known = ", ".join(available_summaries()) or "<none>"
        raise KeyError(f"unknown summary {name!r}; known: {known}") from None


def descriptors() -> list[SummaryDescriptor]:
    """All registered descriptors, sorted by name."""
    return [_DESCRIPTORS[name] for name in sorted(_DESCRIPTORS)]


def descriptor_for_class(cls: type) -> SummaryDescriptor | None:
    """The descriptor whose concrete class is exactly ``cls`` (or None)."""
    for descriptor in _DESCRIPTORS.values():
        if descriptor.cls is cls:
            return descriptor
    return None


def descriptor_for_payload(type_name: str) -> SummaryDescriptor | None:
    """The descriptor whose persistence payload type is ``type_name``."""
    for descriptor in _DESCRIPTORS.values():
        if descriptor.payload_type == type_name and descriptor.decode is not None:
            return descriptor
    return None


# -- factories (legacy surface) -----------------------------------------------------


def register_summary(name: str, factory: SummaryFactory) -> None:
    """Register ``factory`` under ``name``; re-registration must be identical.

    Thin wrapper over :func:`register_descriptor` kept for compatibility; it
    creates a descriptor carrying only the factory (plus any merge already
    attached via :func:`register_merge`).
    """
    existing = _DESCRIPTORS.get(name)
    if existing is not None and existing.factory is factory:
        return
    register_descriptor(name, factory)


def create_summary(name: str, epsilon: float, **kwargs) -> QuantileSummary:
    """Instantiate the summary registered under ``name``."""
    descriptor = _DESCRIPTORS.get(name)
    if descriptor is None or descriptor.factory is None:
        known = ", ".join(available_summaries()) or "<none>"
        raise KeyError(f"unknown summary {name!r}; known: {known}")
    return descriptor.factory(epsilon, **kwargs)


def available_summaries() -> list[str]:
    """Sorted list of registered summary names."""
    return sorted(
        name
        for name, descriptor in _DESCRIPTORS.items()
        if descriptor.factory is not None
    )


def summary_factory(name: str) -> SummaryFactory:
    """The factory registered under ``name`` (KeyError with the known list)."""
    descriptor = _DESCRIPTORS.get(name)
    if descriptor is None or descriptor.factory is None:
        known = ", ".join(available_summaries()) or "<none>"
        raise KeyError(f"unknown summary {name!r}; known: {known}")
    return descriptor.factory


# -- merge functions ---------------------------------------------------------------


def merge_by_absorbing(
    first: QuantileSummary, second: QuantileSummary
) -> QuantileSummary:
    """Non-mutating adapter over an in-place ``first.merge(second)``.

    The native KLL/MRL/REQ/exact merges absorb ``second`` into ``first``;
    the registry contract requires both inputs intact, so the absorption runs
    on a deep copy.  Deep-copying a summary copies only its stored items
    (O(summary size), not O(stream length)) plus its RNG state, so repeated
    folds stay cheap.
    """
    merged = copy.deepcopy(first)
    merged.merge(second)
    return merged


def register_merge(name: str, merge: MergeFunction) -> None:
    """Register ``merge`` for the summary type named ``name``.

    Re-registration must be identical, mirroring :func:`register_summary`.
    The contract for ``merge(first, second)``: return a summary over the
    concatenation of both input streams, leave both inputs intact, and raise
    ``TypeError`` if ``second`` is of an incompatible type.
    """
    existing = _DESCRIPTORS.get(name)
    if existing is None:
        _DESCRIPTORS[name] = SummaryDescriptor(name=name, merge=merge)
        return
    if existing.merge is not None and existing.merge is not merge:
        raise ValueError(f"merge for summary {name!r} is already registered")
    if existing.merge is None:
        _DESCRIPTORS[name] = replace(existing, merge=merge)


def has_merge(name: str) -> bool:
    """Whether a merge function is registered for summary type ``name``."""
    descriptor = _DESCRIPTORS.get(name)
    return descriptor is not None and descriptor.merge is not None


def mergeable_summaries() -> list[str]:
    """Sorted names of summary types with a registered merge function."""
    return sorted(
        name
        for name, descriptor in _DESCRIPTORS.items()
        if descriptor.merge is not None
    )


def columnar_summaries() -> list[str]:
    """Sorted names of summary types that support the columnar lane."""
    return sorted(
        name
        for name, descriptor in _DESCRIPTORS.items()
        if descriptor.columnar
    )


def merge_summaries(
    first: QuantileSummary, second: QuantileSummary
) -> QuantileSummary:
    """Merge two summaries via the merge registered for ``first``'s type.

    Dispatches on ``type(first).name``.  Raises
    :class:`~repro.errors.UnsupportedMergeError` when no merge is registered
    for that type, or when the registered merge rejects ``second`` (e.g. a
    KLL sketch cannot absorb an MRL summary).  Inputs are left intact.
    """
    name = getattr(type(first), "name", None)
    descriptor = _DESCRIPTORS.get(name) if name is not None else None
    merge = descriptor.merge if descriptor is not None else None
    if merge is None:
        mergeable = ", ".join(mergeable_summaries()) or "<none>"
        raise UnsupportedMergeError(
            f"no merge registered for summary type "
            f"{name or type(first).__name__!r}; mergeable types: {mergeable}"
        )
    try:
        return merge(first, second)
    except UnsupportedMergeError:
        raise
    except TypeError as error:
        raise UnsupportedMergeError(str(error)) from error
