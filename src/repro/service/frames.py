"""The binary batch-frame wire format of the quantile service.

NDJSON (:mod:`repro.service.protocol`) is the service's debuggable dialect;
this module is its fast lane.  A *frame* carries one insert batch (or its
acknowledgement) as a fixed 12-byte header plus a contiguous little-endian
payload, so a million int64 values cross the wire as one ``memcpy`` on each
side — no JSON encode, no ``json.loads``, no per-value ``Fraction``::

    offset  size  field
    0       2     magic ``b"\\xf5Q"`` (never a valid JSON/HTTP line start)
    2       1     kind: 0x01 insert, 0x02 ack, 0x03 error
    3       1     mode: 0x01 i64, 0x02 f64 (insert frames; 0 otherwise)
    4       4     request id, unsigned little-endian (the low 32 bits of
                  the client's request counter; acks echo it)
    8       4     payload length in bytes, unsigned little-endian
    12      ...   payload

* **insert** payloads are ``count * 8`` bytes of little-endian int64
  (``MODE_I64``) or IEEE-754 float64 (``MODE_F64``) values — exactly the
  ``array('q')``/``array('d')`` buffers the engine's columnar lane already
  speaks.
* **ack** payloads are 24 bytes: ``items``, ``n``, ``epoch`` as unsigned
  little-endian int64 — the same fields the NDJSON insert response carries.
* **error** payloads are the UTF-8 JSON error object (``{"code", "message"}``)
  with the same stable codes as the NDJSON protocol, so a framed failure is
  machine-readable by the same dispatch table.

Any connection may send frames: the server tells a frame from an NDJSON
line by its first byte.  The ``hello`` op (``{"op": "hello", "wire":
"frames"}``) is a capability probe that reports the server's per-frame
value cap and in-flight window.  A client may interleave insert frames with
NDJSON request lines (reads stay NDJSON); the server answers strictly in
request order, so a client can keep a window of frames in flight and match
acknowledgements FIFO.

Values that are not *faithfully* frameable — ints outside int64, strings,
exact rationals, ``nan`` — are refused by :func:`pack_values` (returning
``None``) and ride the NDJSON line instead, which keeps exactness; the
frame lane never silently rounds.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from array import array
from typing import Sequence

from repro.errors import ProtocolError

try:  # optional: vectorised f64 finiteness check (pure-Python fallback)
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is in the standard image
    _np = None

#: First wire byte of every frame; 0xF5 is not printable ASCII, so it can
#: never open a JSON object line or an HTTP method — the server sniffs one
#: byte to tell frames from lines on any connection.
MAGIC = b"\xf5Q"

HEADER = struct.Struct("<2sBBII")
HEADER_SIZE = HEADER.size  # 12

KIND_INSERT = 0x01
KIND_ACK = 0x02
KIND_ERROR = 0x03

MODE_I64 = 0x01
MODE_F64 = 0x02

#: Ack payload: items accepted, total n after the flush, wire epoch.
ACK_BODY = struct.Struct("<QQQ")

VALUE_BYTES = 8

#: Request ids travel as u32; both sides match acks on the masked id.
ID_MASK = 0xFFFFFFFF

#: Error frames for undecodable requests echo this sentinel id.
UNKNOWN_ID = ID_MASK

#: A declared payload longer than this is drained-and-refused when possible
#: but never buffered whole; beyond it the server closes after responding.
MAX_DRAIN_BYTES = 8 << 20


class FrameError(ProtocolError):
    """A structurally invalid frame (bad magic, kind, mode, or payload)."""


def _to_wire(buffer: array) -> bytes:
    """The buffer's little-endian bytes (byteswapped on big-endian hosts)."""
    if sys.byteorder == "big":  # pragma: no cover - x86/arm CI is little
        buffer = array(buffer.typecode, buffer)
        buffer.byteswap()
    return buffer.tobytes()


def _from_wire(typecode: str, payload: bytes) -> array:
    buffer = array(typecode)
    buffer.frombytes(payload)
    if sys.byteorder == "big":  # pragma: no cover - x86/arm CI is little
        buffer.byteswap()
    return buffer


def pack_values(values: Sequence) -> tuple[int, bytes] | None:
    """``(mode, payload)`` for a faithfully frameable batch, else ``None``.

    All-int batches inside int64 pack as ``MODE_I64`` (always exact).
    Batches with floats pack as ``MODE_F64`` only when every value equals
    its float64 image — ``2`` next to ``2.5`` qualifies, ``2**63`` or
    ``nan`` does not.  Anything unfaithful (huge ints, strings, Fractions,
    ``nan``) returns ``None`` so the caller falls back to the exact NDJSON
    line; the frame lane never rounds silently.
    """
    if not values:
        return None
    try:
        return MODE_I64, _to_wire(array("q", values))
    except OverflowError:
        return None  # an int beyond int64: only NDJSON keeps it exact
    except TypeError:
        pass
    try:
        buffer = array("d", values)
    except (TypeError, OverflowError):
        return None
    # Faithfulness check; nan != nan also lands here, keeping non-finite
    # values off the frame lane at the source.
    if buffer.tolist() != list(values):
        return None
    return MODE_F64, _to_wire(buffer)


def encode_insert(request_id: int, values: Sequence) -> bytes | None:
    """One insert frame for ``values``, or ``None`` when not frameable."""
    packed = pack_values(values)
    if packed is None:
        return None
    mode, payload = packed
    return (
        HEADER.pack(MAGIC, KIND_INSERT, mode, request_id & ID_MASK, len(payload))
        + payload
    )


def decode_header(header: bytes) -> tuple[int, int, int, int]:
    """``(kind, mode, request_id, payload_length)`` of a 12-byte header.

    Raises :class:`FrameError` only for a magic mismatch — kind/mode/length
    problems are validated by :func:`decode_insert` *after* the payload is
    read, so the reader can drain the declared bytes and keep the
    connection alive.
    """
    magic, kind, mode, request_id, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}; expected {MAGIC!r}")
    return kind, mode, request_id, length


def decode_insert(
    kind: int, mode: int, payload: bytes, *, max_values: int
) -> array:
    """The ``array('q')``/``array('d')`` buffer of a validated insert frame."""
    if kind != KIND_INSERT:
        raise FrameError(
            f"unexpected frame kind 0x{kind:02x}; a client sends only "
            f"insert frames (0x{KIND_INSERT:02x})"
        )
    if mode not in (MODE_I64, MODE_F64):
        raise FrameError(f"unknown frame mode 0x{mode:02x}; expected i64 or f64")
    if not payload:
        raise FrameError("insert frame carries no values")
    if len(payload) % VALUE_BYTES:
        raise FrameError(
            f"truncated frame payload: {len(payload)} bytes is not a "
            f"multiple of {VALUE_BYTES}"
        )
    count = len(payload) // VALUE_BYTES
    if count > max_values:
        raise FrameError(
            f"frame carries {count} values; the cap is {max_values} per frame"
        )
    return _from_wire("q" if mode == MODE_I64 else "d", payload)


def all_finite(buffer: array) -> bool:
    """Whether every float64 in an f64 payload is finite (no nan/inf)."""
    if buffer.typecode != "d":
        return True
    if _np is not None and len(buffer) >= 256:
        return bool(_np.isfinite(_np.frombuffer(buffer, dtype=_np.float64)).all())
    return all(math.isfinite(value) for value in buffer)


def encode_ack(request_id: int, items: int, n: int, epoch: int) -> bytes:
    """The 36-byte acknowledgement frame for one applied insert frame."""
    body = ACK_BODY.pack(items, n, epoch)
    return HEADER.pack(MAGIC, KIND_ACK, 0, request_id & ID_MASK, len(body)) + body


def encode_error(request_id: int | None, code: str, message: str) -> bytes:
    """An error frame carrying the standard ``{code, message}`` JSON body."""
    body = json.dumps(
        {"code": code, "message": message}, separators=(",", ":")
    ).encode()
    identifier = UNKNOWN_ID if request_id is None else request_id & ID_MASK
    return HEADER.pack(MAGIC, KIND_ERROR, 0, identifier, len(body)) + body


def decode_error(payload: bytes) -> tuple[str, str]:
    """``(code, message)`` from an error frame's JSON body."""
    try:
        body = json.loads(payload)
        return body["code"], body.get("message", "")
    except (ValueError, KeyError, TypeError) as error:
        raise FrameError(f"malformed error frame body: {error}") from None
