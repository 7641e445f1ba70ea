"""Concrete source connectors: JSONL files, CSV files, directories, synthetic.

File connectors account in **bytes**: every yielded record's position is the
exact byte offset after its line, so resuming is a single ``seek`` and the
offset-consistency check ("does this offset sit on a line boundary?") is
O(1).  Lines are read in binary and decoded per record, so one undecodable
line becomes one dead-letter entry instead of an aborted run.

Calling ``records(position)`` again on a file that has grown since yields
exactly the appended records — tailing and crash-resume are the same code
path.

CSV parsing is per-physical-line (each line through ``csv.reader``), which
keeps byte accounting exact; quoted fields containing embedded newlines are
the one CSV feature this trades away, and a row using them dead-letters
with ``bad_row`` rather than desynchronising the offsets.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path
from typing import Iterator

from repro.connectors.base import (
    ERR_BAD_JSON,
    ERR_BAD_ROW,
    ERR_BAD_TYPE,
    ERR_MISSING_FIELD,
    SourceConnector,
    SourceDescription,
    SourceRecord,
)
from repro.errors import ConnectorError

#: Formats the CLI accepts for ``--format`` (``auto`` sniffs by suffix).
FILE_FORMATS = ("jsonl", "csv", "lines")

_SUFFIX_FORMATS = {
    ".jsonl": "jsonl",
    ".ndjson": "jsonl",
    ".json": "jsonl",
    ".csv": "csv",
    ".txt": "lines",
    ".lines": "lines",
}


def detect_format(path: str | Path) -> str:
    """The file format implied by ``path``'s suffix.

    Raises :class:`~repro.errors.ConnectorError` naming the accepted
    suffixes when the extension is unknown — pass an explicit format then.
    """
    suffix = Path(path).suffix.lower()
    if suffix in _SUFFIX_FORMATS:
        return _SUFFIX_FORMATS[suffix]
    known = ", ".join(sorted(_SUFFIX_FORMATS))
    raise ConnectorError(
        f"cannot infer a format from {Path(path).name!r} (known suffixes: "
        f"{known}); pass an explicit format ({', '.join(FILE_FORMATS)})"
    )


class _FileSource(SourceConnector):
    """Shared byte-accounted line reader for the file-backed connectors."""

    def __init__(self, path: str | Path, name: str | None = None) -> None:
        self.path = Path(path)
        super().__init__(name if name is not None else self.path.name)

    # -- line plumbing -------------------------------------------------------------

    def _extract(self, text: str) -> tuple[object, str | None, str]:
        """``(value, error_code, detail)`` for one decoded line."""
        raise NotImplementedError

    def _skip_line(self, text: str) -> bool:
        """Lines that are not records at all (blank, comments, CSV header)."""
        return not text.strip()

    def records(self, position: dict | None = None) -> Iterator[SourceRecord]:
        if not self.path.exists():
            raise ConnectorError(f"source {self.name!r}: {self.path} does not exist")
        byte = int(position["byte"]) if position else 0
        index = int(position["records"]) if position else 0
        with open(self.path, "rb") as handle:
            if byte:
                handle.seek(byte)
            for raw_line in handle:
                byte += len(raw_line)
                try:
                    text = raw_line.decode()
                except UnicodeDecodeError as error:
                    yield SourceRecord(
                        source=self.name,
                        index=index,
                        raw=repr(raw_line),
                        position={"byte": byte, "records": index + 1},
                        error=ERR_BAD_ROW,
                        detail=f"line is not valid UTF-8: {error}",
                    )
                    index += 1
                    continue
                if self._skip_line(text):
                    continue
                value, error, detail = self._extract(text)
                yield SourceRecord(
                    source=self.name,
                    index=index,
                    raw=text.rstrip("\n"),
                    position={"byte": byte, "records": index + 1},
                    value=value,
                    error=error,
                    detail=detail,
                )
                index += 1

    # -- preflight support ---------------------------------------------------------

    def describe(self) -> SourceDescription:
        exists = self.path.exists()
        return SourceDescription(
            name=self.name,
            kind=self.kind,
            detail={
                "path": str(self.path),
                "exists": exists,
                "bytes": self.path.stat().st_size if exists else None,
            },
        )

    def validate_position(self, position: dict | None) -> list[str]:
        if position is None:
            return []
        problems = []
        byte = position.get("byte")
        if not isinstance(byte, int) or byte < 0:
            return [f"position has no usable byte offset: {position!r}"]
        if not self.path.exists():
            return [f"{self.path} does not exist but an offset points into it"]
        size = self.path.stat().st_size
        if byte > size:
            problems.append(
                f"offset {byte} is beyond the end of {self.path} ({size} bytes); "
                "the file was truncated or replaced since the offset was written"
            )
        elif byte > 0:
            with open(self.path, "rb") as handle:
                handle.seek(byte - 1)
                if handle.read(1) != b"\n":
                    problems.append(
                        f"offset {byte} does not sit on a line boundary of "
                        f"{self.path}; the file changed shape since the offset "
                        "was written"
                    )
        return problems

    def lag(self, position: dict | None) -> int | None:
        if not self.path.exists():
            return None
        consumed = int(position["byte"]) if position else 0
        return max(self.path.stat().st_size - consumed, 0)


class JsonlSource(_FileSource):
    """One JSON value per line; objects contribute their ``field`` entry.

    A line may be a bare number (``3.5``), a numeric string (``"7/2"``), or
    an object (``{"value": 3.5, ...}``) from which ``field`` (default
    ``"value"``) is extracted.  Anything else — invalid JSON, a missing
    field, a boolean/array/null value — is yielded as a dead-letter
    candidate, never raised.
    """

    kind = "jsonl"

    def __init__(
        self, path: str | Path, name: str | None = None, field: str = "value"
    ) -> None:
        super().__init__(path, name)
        self.field = field

    def _extract(self, text: str) -> tuple[object, str | None, str]:
        try:
            decoded = json.loads(text)
        except json.JSONDecodeError as error:
            return None, ERR_BAD_JSON, f"line is not valid JSON: {error}"
        if isinstance(decoded, dict):
            if self.field not in decoded:
                return (
                    None,
                    ERR_MISSING_FIELD,
                    f"object has no {self.field!r} field "
                    f"(keys: {sorted(decoded)})",
                )
            decoded = decoded[self.field]
        if isinstance(decoded, bool) or not isinstance(decoded, (int, float, str)):
            return (
                None,
                ERR_BAD_TYPE,
                f"expected a number or numeric string, got "
                f"{type(decoded).__name__}",
            )
        return decoded, None, ""

    def describe(self) -> SourceDescription:
        description = super().describe()
        description.detail["field"] = self.field
        return description


class CsvSource(_FileSource):
    """One value per CSV row, drawn from ``column`` (name or 0-based index).

    A string ``column`` implies a header row (consumed, not a record); an
    integer column reads headerless files.  Each physical line is parsed
    independently, so a single ragged or unquotable row dead-letters with
    ``bad_row`` and the stream continues.
    """

    kind = "csv"

    def __init__(
        self,
        path: str | Path,
        name: str | None = None,
        column: str | int = 0,
    ) -> None:
        super().__init__(path, name)
        self.column = column
        self._has_header = isinstance(column, str)
        self._column_index: int | None = None if self._has_header else int(column)
        self._header_seen = False

    def records(self, position: dict | None = None) -> Iterator[SourceRecord]:
        if self._has_header:
            if position is None or position.get("byte", 0) == 0:
                # Fresh read: the first content line is the header.
                self._header_seen = False
            else:
                # Resuming mid-file skips past the header bytes, but a named
                # column still needs it — re-read it from the file start.
                self._header_seen = True
                self._resolve_header()
        yield from super().records(position)

    def _resolve_header(self) -> None:
        if self._column_index is not None:
            return
        if not self.path.exists():
            raise ConnectorError(f"source {self.name!r}: {self.path} does not exist")
        with open(self.path, newline="") as handle:
            try:
                header = next(csv.reader(handle))
            except (StopIteration, csv.Error):
                raise ConnectorError(
                    f"source {self.name!r}: {self.path} has no header row to "
                    f"resolve column {self.column!r}"
                ) from None
        if self.column not in header:
            raise ConnectorError(
                f"source {self.name!r}: column {self.column!r} is not in the "
                f"header {header}"
            )
        self._column_index = header.index(self.column)

    def _skip_line(self, text: str) -> bool:
        if not text.strip():
            return True
        if self._has_header and not self._header_seen:
            # First content line of a fresh read is the header.
            self._header_seen = True
            if self._column_index is None:
                row = next(csv.reader([text]))
                if self.column not in row:
                    raise ConnectorError(
                        f"source {self.name!r}: column {self.column!r} is not "
                        f"in the header {row}"
                    )
                self._column_index = row.index(self.column)
            return True
        return False

    def _extract(self, text: str) -> tuple[object, str | None, str]:
        try:
            row = next(csv.reader([text]))
        except (csv.Error, StopIteration) as error:
            return None, ERR_BAD_ROW, f"row does not parse as CSV: {error}"
        if self._column_index >= len(row):
            return (
                None,
                ERR_BAD_ROW,
                f"row has {len(row)} column(s), need index {self._column_index}",
            )
        return row[self._column_index], None, ""

    def describe(self) -> SourceDescription:
        description = super().describe()
        description.detail["column"] = self.column
        return description


class LinesSource(_FileSource):
    """Plain text, one number per line; ``#`` comments and blanks skipped.

    The format of :mod:`repro.streams.io` and the CLI's ``--input`` files.
    """

    kind = "lines"

    def _skip_line(self, text: str) -> bool:
        stripped = text.strip()
        return not stripped or stripped.startswith("#")

    def _extract(self, text: str) -> tuple[object, str | None, str]:
        return text.strip(), None, ""


class DirectorySource(SourceConnector):
    """Every file matching ``pattern`` under ``root``, in sorted-name order.

    Per-file byte offsets live inside this connector's position
    (``{"files": {name: {byte, records}}, "records": N}``), so a resumed
    sweep re-reads nothing, files appended to since the last sweep yield
    exactly their new lines, and files that appeared since are picked up —
    a re-sweeping runner gets directory tailing for free.
    """

    kind = "directory"

    def __init__(
        self,
        root: str | Path,
        pattern: str = "*.jsonl",
        name: str | None = None,
        fmt: str | None = None,
        field: str = "value",
        column: str | int = 0,
    ) -> None:
        self.root = Path(root)
        super().__init__(name if name is not None else self.root.name)
        self.pattern = pattern
        self.fmt = fmt
        self.field = field
        self.column = column

    def _matching_files(self) -> list[Path]:
        if not self.root.is_dir():
            raise ConnectorError(
                f"source {self.name!r}: {self.root} is not a directory"
            )
        return sorted(path for path in self.root.glob(self.pattern) if path.is_file())

    def _file_source(self, path: Path) -> _FileSource:
        fmt = self.fmt if self.fmt is not None else detect_format(path)
        if fmt == "jsonl":
            return JsonlSource(path, name=self.name, field=self.field)
        if fmt == "csv":
            return CsvSource(path, name=self.name, column=self.column)
        if fmt == "lines":
            return LinesSource(path, name=self.name)
        raise ConnectorError(
            f"unknown file format {fmt!r}; choose from: " + ", ".join(FILE_FORMATS)
        )

    def records(self, position: dict | None = None) -> Iterator[SourceRecord]:
        files: dict[str, dict] = dict((position or {}).get("files", {}))
        index = int((position or {}).get("records", 0))
        for path in self._matching_files():
            inner_position = files.get(path.name)
            inner = self._file_source(path)
            for record in inner.records(inner_position):
                files[path.name] = record.position
                index += 1
                yield SourceRecord(
                    source=self.name,
                    index=index - 1,
                    raw=record.raw,
                    position={"files": dict(files), "records": index},
                    value=record.value,
                    error=record.error,
                    detail=record.detail,
                )

    def describe(self) -> SourceDescription:
        exists = self.root.is_dir()
        files = self._matching_files() if exists else []
        return SourceDescription(
            name=self.name,
            kind=self.kind,
            detail={
                "path": str(self.root),
                "exists": exists,
                "pattern": self.pattern,
                "files": [path.name for path in files],
                "bytes": sum(path.stat().st_size for path in files),
            },
        )

    def validate_position(self, position: dict | None) -> list[str]:
        if position is None:
            return []
        files = position.get("files")
        if not isinstance(files, dict):
            return [f"position has no usable per-file offsets: {position!r}"]
        problems = []
        for file_name, inner_position in sorted(files.items()):
            path = self.root / file_name
            if not path.exists():
                problems.append(
                    f"{path} does not exist but an offset points into it"
                )
                continue
            problems.extend(
                self._file_source(path).validate_position(inner_position)
            )
        return problems

    def lag(self, position: dict | None) -> int | None:
        if not self.root.is_dir():
            return None
        files = (position or {}).get("files", {})
        total = 0
        for path in self._matching_files():
            consumed = int(files.get(path.name, {}).get("byte", 0))
            total += max(path.stat().st_size - consumed, 0)
        return total


class SyntheticSource(SourceConnector):
    """``count`` seeded pseudorandom integers — the load generator as a source.

    Positions are plain record counts; resuming re-seeds the RNG and skips
    the consumed prefix, so an interrupted synthetic replay continues with
    exactly the values an uninterrupted run would have produced.
    """

    kind = "synthetic"

    def __init__(
        self,
        count: int,
        seed: int = 0,
        name: str = "synthetic",
        low: int = 0,
        high: int = 10**9,
    ) -> None:
        super().__init__(name)
        if count < 1:
            raise ConnectorError(f"synthetic count must be positive, got {count}")
        self.count = count
        self.seed = seed
        self.low = low
        self.high = high

    def records(self, position: dict | None = None) -> Iterator[SourceRecord]:
        start = int(position["records"]) if position else 0
        rng = random.Random(self.seed)
        for _ in range(start):
            rng.randint(self.low, self.high)
        for index in range(start, self.count):
            value = rng.randint(self.low, self.high)
            yield SourceRecord(
                source=self.name,
                index=index,
                raw=str(value),
                position={"records": index + 1},
                value=value,
            )

    def describe(self) -> SourceDescription:
        return SourceDescription(
            name=self.name,
            kind=self.kind,
            detail={
                "count": self.count,
                "seed": self.seed,
                "range": [self.low, self.high],
                "exists": True,
            },
        )

    def validate_position(self, position: dict | None) -> list[str]:
        if position is None:
            return []
        consumed = position.get("records")
        if not isinstance(consumed, int) or consumed < 0:
            return [f"position has no usable record count: {position!r}"]
        if consumed > self.count:
            return [
                f"offset {consumed} exceeds the configured count {self.count}; "
                "the source was reconfigured since the offset was written"
            ]
        return []

    def lag(self, position: dict | None) -> int | None:
        consumed = int(position["records"]) if position else 0
        return max(self.count - consumed, 0)


def open_source(
    path: str | Path,
    fmt: str = "auto",
    name: str | None = None,
    field: str = "value",
    column: str | int = 0,
) -> SourceConnector:
    """A file connector for ``path``, format sniffed from the suffix by default."""
    if fmt == "auto":
        fmt = detect_format(path)
    if fmt == "jsonl":
        return JsonlSource(path, name=name, field=field)
    if fmt == "csv":
        return CsvSource(path, name=name, column=column)
    if fmt == "lines":
        return LinesSource(path, name=name)
    raise ConnectorError(
        f"unknown file format {fmt!r}; choose from: "
        + ", ".join(FILE_FORMATS)
        + ", auto"
    )
