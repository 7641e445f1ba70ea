"""Asyncio quantile-serving service around the sharded engine.

Public surface: :class:`~repro.service.server.QuantileService` (NDJSON TCP
server with single-writer micro-batched ingest, reads from the engine's
cached read index, explicit backpressure and a ``GET /metrics``
Prometheus endpoint), configured by
:class:`~repro.service.server.ServiceConfig`;
:class:`~repro.service.client.QuantileClient` (connection reuse, timeouts,
seeded exponential backoff); the deterministic load generator in
:mod:`repro.service.loadgen`; and the online accuracy auditor in
:mod:`repro.service.audit` (seeded shadow reservoir, ``service_rank_error``
metrics).  The NDJSON wire protocol is specified in
:mod:`repro.service.protocol`, the binary frame lane in
:mod:`repro.service.frames`; both are documented in ``docs/service.md``
under "Wire formats".
"""

from repro.service import frames
from repro.service.audit import AccuracyAuditor, AuditConfig
from repro.service.client import QuantileClient, backoff_schedule
from repro.service.limits import BoundedQueue, Deadline
from repro.service.loadgen import LoadConfig, LoadReport, run_load, run_load_sync
from repro.service.protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    Request,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    parse_request,
    parse_response,
)
from repro.service.server import IngestJob, QuantileService, ServiceConfig

__all__ = [
    "AccuracyAuditor",
    "AuditConfig",
    "BoundedQueue",
    "Deadline",
    "ERROR_CODES",
    "IngestJob",
    "LoadConfig",
    "LoadReport",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "QuantileClient",
    "QuantileService",
    "RETRYABLE_CODES",
    "Request",
    "ServiceConfig",
    "backoff_schedule",
    "decode_line",
    "encode_line",
    "error_response",
    "frames",
    "ok_response",
    "parse_request",
    "parse_response",
    "run_load",
    "run_load_sync",
]
