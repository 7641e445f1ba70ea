"""The source-connector protocol: durable data at rest, one record at a time.

A :class:`SourceConnector` turns data at rest — a JSONL file, a CSV file, a
directory of either, a seeded synthetic generator — into an iterator of
:class:`SourceRecord`\\ s that the :class:`~repro.connectors.runner.IngestRunner`
drains into the engine or a live service.  Three properties make the
framework durable rather than a convenience loop:

* **Resumable.**  Every record carries the *position* (an opaque
  JSON-compatible payload) at which reading may resume **after** the
  record has been fully handled.  ``records(position)`` restarts exactly
  there, so a run interrupted at any record boundary continues without a
  drop or a double-read.
* **Poison-tolerant.**  Extraction failures (invalid JSON, a missing
  field, a ragged CSV row) do not raise: the connector yields the record
  with ``error`` set and the raw text preserved, and the runner routes it
  to the dead-letter queue.  Numeric validation happens later, in
  :func:`repro.engine.engine.as_fraction`, on the same no-abort path.
* **Inspectable.**  ``describe()`` and ``validate_position()`` power the
  preflight checks (:mod:`repro.connectors.preflight`): source existence,
  sample parseability, and offset consistency are all answerable without
  touching the engine.

Connectors are deliberately synchronous and deterministic: re-running the
same source from the same position yields the same records in the same
order, which is what makes crash-resume bit-identical to an uninterrupted
run (see ``tests/test_connectors_resume.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ConnectorError

#: Extraction-level dead-letter codes (pre-numeric-validation).
ERR_BAD_JSON = "bad_json"
ERR_MISSING_FIELD = "missing_field"
ERR_BAD_TYPE = "bad_type"
ERR_BAD_ROW = "bad_row"

#: Numeric-validation code — mirrors
#: :attr:`repro.errors.MalformedRecordError.code` so DLQ entries, service
#: responses and CLI errors agree on one stable name.
ERR_MALFORMED_RECORD = "malformed_record"

DLQ_CODES = (
    ERR_BAD_JSON,
    ERR_MISSING_FIELD,
    ERR_BAD_TYPE,
    ERR_BAD_ROW,
    ERR_MALFORMED_RECORD,
)


@dataclass(frozen=True)
class SourceRecord:
    """One record drawn from a source, parse outcome included.

    ``position`` is the resume point *after* this record: feeding it back
    to :meth:`SourceConnector.records` yields the next record and nothing
    earlier.  ``value`` is the extracted raw value (str/int/float — not yet
    numerically validated) when extraction succeeded; otherwise ``error``
    names the dead-letter code and ``detail`` the human-readable reason.
    """

    source: str
    index: int
    raw: str
    position: dict
    value: object = None
    error: str | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Whether extraction succeeded (numeric validation comes later)."""
        return self.error is None


@dataclass
class SourceDescription:
    """Static facts preflight reports about a source."""

    name: str
    kind: str
    detail: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {"name": self.name, "kind": self.kind, **self.detail}


class SourceConnector(ABC):
    """Durable source of records with resumable positions.

    Subclasses set ``kind`` (a short registry-style string: ``"jsonl"``,
    ``"csv"``, ``"directory"``, ``"synthetic"``) and a unique ``name``
    (offsets are keyed by it in checkpoints, so two sources in one run must
    not share a name).
    """

    kind: str = "abstract"

    def __init__(self, name: str) -> None:
        if not name:
            raise ConnectorError("a source connector needs a non-empty name")
        self.name = name

    # -- the record stream ---------------------------------------------------------

    @abstractmethod
    def records(self, position: dict | None = None) -> Iterator[SourceRecord]:
        """Yield records starting after ``position`` (None = the beginning).

        Calling this again with a later position (including on a connector
        whose underlying file has grown) continues where that position left
        off — this is what makes both crash-resume and tailing work.
        """

    # -- introspection for preflight ------------------------------------------------

    @abstractmethod
    def describe(self) -> SourceDescription:
        """Static facts about the source (path, size, format, ...)."""

    def validate_position(self, position: dict | None) -> list[str]:
        """Problems that make ``position`` unusable for this source.

        An empty list means the position is consistent (``None`` — start
        from the beginning — is always consistent).  Non-empty lists name
        each inconsistency: a missing file, an offset beyond EOF, a byte
        offset that does not sit on a record boundary.
        """
        return []

    def lag(self, position: dict | None) -> int | None:
        """Records or bytes known to exist beyond ``position``, if knowable.

        File sources answer in bytes (cheap and exact); bounded synthetic
        sources answer in records; return ``None`` when the source cannot
        know (an unbounded generator).
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
