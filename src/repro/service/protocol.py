"""The newline-delimited-JSON wire protocol of the quantile service.

One request or response per line, UTF-8 JSON, ``\\n``-terminated — trivially
debuggable with ``nc`` and loggable as JSONL.  A request names an operation
and carries an ``id`` the response echoes, so a client may pipeline many
requests on one connection and match answers by id::

    {"id": 1, "op": "insert", "values": [3, "7/2", 1.5], "deadline_ms": 250}
    {"id": 1, "ok": true, "items": 3, "n": 3, "epoch": 4}

    {"id": 2, "op": "query", "phis": [0.5, 0.99]}
    {"id": 2, "ok": false, "error": {"code": "empty", "message": "..."}}

Values travel as JSON numbers or as strings (``"7/2"``, ``"0.125"``) which
the server normalises through :func:`repro.engine.engine.as_fraction` —
exact rationals survive the wire.  Quantile answers come back in both exact
(``value``, a fraction string) and convenience (``approx``, a float) forms.

Every failure is *explicit*: the server never drops a request silently but
answers with ``ok: false`` and a stable machine-readable ``code`` from
:data:`ERROR_CODES` (shed load answers ``overloaded``, expired deadlines
``deadline_exceeded``, drain-mode inserts ``shutting_down``, ...).  See
``docs/service.md`` for the full specification.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from numbers import Number

from repro.errors import ProtocolError

PROTOCOL_VERSION = 1

#: Hard cap on one wire line; longer requests must be split into batches.
MAX_LINE_BYTES = 1 << 20

OPS = ("ping", "hello", "insert", "query", "rank", "stats")

#: Wire dialects a ``hello`` may name.  Any connection may send frames
#: (:mod:`repro.service.frames`); ``hello`` grants the wire asked for and
#: reports the per-frame value cap and the in-flight window.
WIRES = ("ndjson", "frames")

# -- error codes --------------------------------------------------------------------

ERR_BAD_REQUEST = "bad_request"
ERR_BAD_VALUE = "bad_value"
ERR_DEADLINE = "deadline_exceeded"
ERR_OVERLOADED = "overloaded"
ERR_SHUTTING_DOWN = "shutting_down"
ERR_EMPTY = "empty"
ERR_RANK_UNSUPPORTED = "rank_unsupported"
#: A value could not be interpreted as a number; carries the record context
#: from :class:`repro.errors.MalformedRecordError` (the same stable code the
#: CLI and the connector dead-letter queue use).
ERR_MALFORMED_RECORD = "malformed_record"
#: A structurally invalid binary frame (bad magic/kind/mode/payload); the
#: connection survives and the next well-formed request is served.
ERR_BAD_FRAME = "bad_frame"
#: One NDJSON line exceeded the server's stream limit; the offending line
#: is discarded and the connection keeps serving subsequent requests.
ERR_LINE_TOO_LONG = "line_too_long"
ERR_INTERNAL = "internal"

ERROR_CODES = (
    ERR_BAD_REQUEST,
    ERR_BAD_VALUE,
    ERR_DEADLINE,
    ERR_OVERLOADED,
    ERR_SHUTTING_DOWN,
    ERR_EMPTY,
    ERR_RANK_UNSUPPORTED,
    ERR_MALFORMED_RECORD,
    ERR_BAD_FRAME,
    ERR_LINE_TOO_LONG,
    ERR_INTERNAL,
)

#: Codes a client may safely retry (the request was never applied).
RETRYABLE_CODES = (ERR_OVERLOADED, ERR_DEADLINE, ERR_SHUTTING_DOWN)


# -- encoding / decoding ------------------------------------------------------------

def encode_line(record: dict) -> bytes:
    """Serialise one protocol record to its wire line (newline included)."""
    return (json.dumps(record, separators=(",", ":")) + "\n").encode()


def decode_line(line: bytes | str, max_bytes: int = MAX_LINE_BYTES) -> dict:
    """Parse one wire line into a record; raise :class:`ProtocolError` if bad.

    ``max_bytes`` defaults to the protocol-level cap; the server passes its
    configured stream limit instead, which
    :meth:`~repro.service.server.ServiceConfig.effective_line_limit` sizes
    so a maximal legal insert line always fits.
    """
    if isinstance(line, bytes):
        if len(line) > max_bytes:
            raise ProtocolError(
                f"line of {len(line)} bytes exceeds the {max_bytes}-byte limit"
            )
        try:
            line = line.decode()
        except UnicodeDecodeError as error:
            raise ProtocolError(f"line is not valid UTF-8: {error}") from None
    try:
        record = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"line is not valid JSON: {error}") from None
    if not isinstance(record, dict):
        raise ProtocolError(
            f"expected a JSON object per line, got {type(record).__name__}"
        )
    return record


# -- requests -----------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    """One validated client request."""

    id: int
    op: str
    values: tuple = field(default_factory=tuple)
    phis: tuple = field(default_factory=tuple)
    deadline_ms: float | None = None
    #: ``hello`` only: the wire dialect the client asks for.
    wire: str | None = None

    def to_record(self) -> dict:
        record: dict = {"id": self.id, "op": self.op}
        if self.values:
            record["values"] = list(self.values)
        if self.phis:
            record["phis"] = list(self.phis)
        if self.deadline_ms is not None:
            record["deadline_ms"] = self.deadline_ms
        if self.wire is not None:
            record["wire"] = self.wire
        return record


def _require_number_list(record: dict, key: str, what: str) -> tuple:
    raw = record.get(key)
    if raw is None:
        raise ProtocolError(f"{what} request needs a non-empty {key!r} list")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(
            f"{key!r} must be a non-empty JSON list, got {type(raw).__name__}"
        )
    for value in raw:
        if isinstance(value, bool) or not isinstance(value, (Number, str)):
            raise ProtocolError(
                f"{key!r} entries must be numbers or numeric strings, "
                f"got {value!r}"
            )
    return tuple(raw)


def parse_request(record: dict) -> Request:
    """Validate a decoded record into a :class:`Request`.

    Raises :class:`~repro.errors.ProtocolError` with a message naming the
    offending field; the server maps that to an ``bad_request`` response.
    """
    request_id = record.get("id")
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise ProtocolError(f"request needs an integer 'id', got {request_id!r}")
    op = record.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of: " + ", ".join(OPS)
        )

    deadline_ms = record.get("deadline_ms")
    if deadline_ms is not None:
        if (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not math.isfinite(deadline_ms)
            or deadline_ms < 0
        ):
            raise ProtocolError(
                f"'deadline_ms' must be a finite non-negative number, "
                f"got {deadline_ms!r}"
            )

    values: tuple = ()
    phis: tuple = ()
    wire: str | None = None
    if op == "insert":
        values = _require_number_list(record, "values", "insert")
    elif op == "rank":
        values = _require_number_list(record, "values", "rank")
    elif op == "query":
        phis = _require_number_list(record, "phis", "query")
        for phi in phis:
            if isinstance(phi, str) or not 0 <= phi <= 1:
                raise ProtocolError(
                    f"'phis' entries must be numbers in [0, 1], got {phi!r}"
                )
    elif op == "hello":
        wire = record.get("wire", "frames")
        if wire not in WIRES:
            raise ProtocolError(
                f"'wire' must be one of {WIRES}, got {wire!r}"
            )

    return Request(
        id=request_id,
        op=op,
        values=values,
        phis=phis,
        deadline_ms=deadline_ms,
        wire=wire,
    )


# -- responses ----------------------------------------------------------------------

def ok_response(request_id: int, **fields) -> dict:
    """A success response echoing ``request_id``."""
    return {"id": request_id, "ok": True, **fields}


def error_response(request_id: int | None, code: str, message: str) -> dict:
    """An explicit failure response; ``code`` must be a registered code."""
    if code not in ERROR_CODES:
        raise ProtocolError(f"unknown error code {code!r}")
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def parse_response(record: dict) -> dict:
    """Validate a decoded response record's envelope (id/ok/error shape)."""
    if "id" not in record or not isinstance(record.get("ok"), bool):
        raise ProtocolError(f"malformed response envelope: {record!r}")
    if not record["ok"]:
        error = record.get("error")
        if not isinstance(error, dict) or "code" not in error:
            raise ProtocolError(f"error response without error object: {record!r}")
    return record
