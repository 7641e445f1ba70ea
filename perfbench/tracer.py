"""In-memory span tracer the perfbench server launcher wraps around layers.

Nothing here touches ``src/``: :func:`install` replaces public entry points
of each layer (module functions, class methods) with thin wrappers that
open a span around the call.  Spans nest on one stack, because the service
runs every layer on its single event-loop thread, so a span's *self* time
is its duration minus the time its child spans cover.

Coroutine methods are wrapped step by step: the span is open only while
the coroutine runs between two ``await`` suspensions, so time spent
waiting on sockets or futures never counts as busy time.  The root span is
every event-loop callback (``asyncio.events.Handle._run``); its self time is
what no named layer claims (socket reads, task switching).  Idle time is
measured around the selector's ``select`` call, so the loop's busy wall
time is the traced region's wall time minus that idle time.

Recording runs only between :meth:`Tracer.begin` and :meth:`Tracer.end`,
and never in forked worker processes.  Per-hook totals are exact; raw span
records are capped at :data:`SPAN_CAP` and written out by :meth:`write`.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import inspect
import json
import os
from time import perf_counter_ns

#: Raw span records kept in memory per traced region (totals stay exact).
SPAN_CAP = 200_000

ROOT = "asyncio"

#: Hooks whose spans scope a breakdown: the self time of every span nested
#: inside one is also charged to that scope, by hook name.
SCOPES = ("publish", "flush")


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.stack: list[list] = []
        # hook name -> [calls, self_ns, inclusive_ns]
        self.totals: dict[str, list[int]] = {}
        # hook name -> inclusive ns per call (percentiles), for chosen hooks
        self.durations: dict[str, list[int]] = {}
        self.self_durations: dict[str, list[int]] = {}
        # free-form counters and samples filled by hook callbacks
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        self.spans: list[tuple] = []
        self.open_scopes: dict[str, int] = {scope: 0 for scope in SCOPES}
        self.breakdown: dict[str, dict[str, int]] = {scope: {} for scope in SCOPES}
        self.layers: dict[str, str] = {ROOT: ROOT}
        self.idle_ns = 0
        self.begin_ns = 0
        self.end_ns = 0
        self.missing: list[str] = []

    # -- region control --------------------------------------------------------

    def begin(self) -> None:
        """Start a fresh traced region (totals reset)."""
        self.totals.clear()
        self.durations = {name: [] for name in self.durations}
        self.self_durations = {name: [] for name in self.self_durations}
        self.counts.clear()
        self.samples.clear()
        self.spans.clear()
        self.open_scopes = {scope: 0 for scope in SCOPES}
        self.breakdown = {scope: {} for scope in SCOPES}
        self.idle_ns = 0
        self.stack.clear()
        self.begin_ns = perf_counter_ns()
        self.end_ns = 0
        self.enabled = True

    def end(self) -> None:
        if self.enabled:
            self.enabled = False
            self.end_ns = perf_counter_ns()

    def disable_in_child(self) -> None:
        self.enabled = False
        self.stack = []
        self.spans = []

    # -- span bookkeeping ------------------------------------------------------

    def enter(self, name: str) -> list:
        if name in self.open_scopes:
            self.open_scopes[name] += 1
        frame = [name, perf_counter_ns(), 0, len(self.stack)]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        now = perf_counter_ns()
        stack = self.stack
        if not stack or stack[-1] is not frame:
            return  # region boundary crossed mid-span; drop it
        stack.pop()
        name, started, child, depth = frame
        duration = now - started
        own = duration - child
        if stack:
            stack[-1][2] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += own
        total[2] += duration
        series = self.durations.get(name)
        if series is not None:
            series.append(duration)
            self.self_durations[name].append(own)
        for scope, inside in self.open_scopes.items():
            if inside:
                charged = self.breakdown[scope]
                charged[name] = charged.get(name, 0) + own
        if name in self.open_scopes:
            self.open_scopes[name] -= 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((name, started, duration, depth))

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def keep_durations(self, name: str) -> None:
        self.durations.setdefault(name, [])
        self.self_durations.setdefault(name, [])

    # -- output ------------------------------------------------------------------

    def report(self) -> dict:
        end = self.end_ns or perf_counter_ns()
        return {
            "region_ns": end - self.begin_ns if self.begin_ns else 0,
            "idle_ns": self.idle_ns,
            "layers": self.layers,
            "totals": self.totals,
            "durations": self.durations,
            "self_durations": self.self_durations,
            "counts": self.counts,
            "breakdown": self.breakdown,
            "samples": self.samples,
            "missing_hooks": self.missing,
            "span_records": len(self.spans),
        }

    def write(self, path: str) -> None:
        """Write the report, then the raw spans one per line."""
        with open(path, "w") as out:
            out.write(json.dumps(self.report()) + "\n")
            for name, started, duration, depth in self.spans:
                out.write(
                    f'["{name}",{started - self.begin_ns},{duration},{depth}]\n'
                )


# -- wrappers ------------------------------------------------------------------


def _wrap_function(tracer: Tracer, fn, name: str, before=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if before is not None:
            before(tracer, args)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


class _Stepped:
    """Await a coroutine with a span open around each of its run steps."""

    __slots__ = ("tracer", "coro", "name")

    def __init__(self, tracer: Tracer, coro, name: str) -> None:
        self.tracer = tracer
        self.coro = coro
        self.name = name

    def __await__(self):
        tracer, coro, name = self.tracer, self.coro, self.name
        value = None
        error = None
        while True:
            frame = tracer.enter(name) if tracer.enabled else None
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                if frame is not None:
                    tracer.exit(frame)
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as raised:  # noqa: BLE001 - forwarded inward
                value = None
                error = raised


def _wrap_coroutine(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    async def traced(*args, **kwargs):
        return await _Stepped(tracer, fn(*args, **kwargs), name)

    return traced


def _patch(tracer: Tracer, owner, attr: str, name: str, layer: str, **hooks) -> None:
    original = owner.__dict__.get(attr) if inspect.isclass(owner) else getattr(
        owner, attr, None
    )
    if original is None:
        tracer.missing.append(name)
        return
    if inspect.iscoroutinefunction(original):
        wrapped = _wrap_coroutine(tracer, original, name)
    else:
        wrapped = _wrap_function(tracer, original, name, **hooks)
    setattr(owner, attr, wrapped)
    tracer.layers[name] = layer


def _resolve(path: str):
    """``module:Class`` or ``module`` -> object, or None when it is gone."""
    module_name, _, qualname = path.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, qualname.split(".")):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


# -- hook callbacks ------------------------------------------------------------


def _flush_before(tracer: Tracer, args) -> None:
    jobs = args[1]
    now = perf_counter_ns()
    tracer.sample("flush.jobs", len(jobs))
    for job in jobs:
        enqueued = getattr(job, "enqueued_ns", None)
        if enqueued is not None:
            tracer.sample("queue.wait_ns", now - enqueued)


def _try_put_after(tracer: Tracer, args, admitted) -> None:
    queue = args[0]
    depth = getattr(queue, "depth", 0)
    if depth > tracer.counts.get("queue.depth_max", 0):
        tracer.counts["queue.depth_max"] = depth


def _decoded_items(tracer: Tracer, args, buffer) -> None:
    tracer.count("frames.items", len(buffer))


def _parsed_request(tracer: Tracer, args, request) -> None:
    tracer.count("protocol.requests")
    tracer.count(
        "protocol.items",
        len(getattr(request, "values", ())) + len(getattr(request, "phis", ())),
    )


def _kernel_items(tracer: Tracer, args, result) -> None:
    tracer.count("kernel.items", len(args[2]))


# (object path, attribute, hook name, layer, extra wrapper hooks)
HOOKS = [
    ("repro.service.frames", "decode_header", "frames.decode_header", "service.frames", {}),
    ("repro.service.frames", "decode_insert", "frames.decode_insert", "service.frames",
     {"after": _decoded_items}),
    ("repro.service.frames", "all_finite", "frames.all_finite", "service.frames", {}),
    ("repro.service.frames", "encode_ack", "frames.encode_ack", "service.frames", {}),
    ("repro.service.frames", "encode_error", "frames.encode_error", "service.frames", {}),
    ("repro.service.protocol", "decode_line", "protocol.decode_line", "service.protocol", {}),
    ("repro.service.protocol", "parse_request", "protocol.parse_request", "service.protocol",
     {"after": _parsed_request}),
    ("repro.service.protocol", "encode_line", "protocol.encode_line", "service.protocol", {}),
    ("repro.service.protocol", "ok_response", "protocol.ok_response", "service.protocol", {}),
    ("repro.service.protocol", "error_response", "protocol.error_response",
     "service.protocol", {}),
    ("repro.service.limits:BoundedQueue", "try_put", "queue.try_put", "service.limits",
     {"after": _try_put_after}),
    ("repro.service.limits:BoundedQueue", "get_batch", "queue.get_batch", "service.limits", {}),
    ("repro.service.server:QuantileService", "_flush", "flush", "service.server.flush",
     {"before": _flush_before}),
    ("repro.service.server", "_combine_payloads", "flush.combine", "service.server.flush", {}),
    ("repro.service.server:QuantileService", "_op_query", "read.query", "service.reads", {}),
    ("repro.service.server:QuantileService", "_op_rank", "read.rank", "service.reads", {}),
    ("repro.service.snapshots:Snapshot", "query_many", "read.snapshot_query", "service.reads",
     {}),
    ("repro.service.snapshots:Snapshot", "rank_many", "read.snapshot_rank", "service.reads", {}),
    ("repro.service.audit:AccuracyAuditor", "observe_batch", "audit.observe", "service.audit",
     {}),
    ("repro.service.audit:AccuracyAuditor", "maybe_audit", "audit.maybe_audit",
     "service.audit", {}),
    ("repro.service.snapshots:SnapshotStore", "publish", "publish", "service.snapshots", {}),
    ("repro.service.snapshots", "compile_rank_index", "index.compile", "model.rankindex", {}),
    ("repro.engine.engine:ShardedQuantileEngine", "ingest", "engine.ingest", "engine.engine",
     {}),
    ("repro.engine.engine:ShardedQuantileEngine", "_ingest_batch", "engine.ingest_batch",
     "engine.engine", {}),
    ("repro.engine.engine:ShardedQuantileEngine", "merged_summary", "engine.merged_summary",
     "engine.engine", {}),
    ("repro.engine.engine:ShardedQuantileEngine", "stats", "engine.stats", "engine.engine", {}),
    ("repro.engine.engine:ShardedQuantileEngine", "_feed_shard", "kernel.items_lane",
     "summaries.kernel", {"after": _kernel_items}),
    ("repro.engine.engine:ShardedQuantileEngine", "_feed_shard_numeric", "kernel.numeric",
     "summaries.kernel", {"after": _kernel_items}),
    ("repro.engine.engine", "fold_shards", "fold", "engine.merge_tree", {}),
    ("repro.engine.engine", "load_summary", "persistence.load", "persistence", {}),
    ("repro.engine.telemetry:Telemetry", "record_latency", "telemetry.record",
     "obs.registry", {}),
    ("repro.engine.telemetry:Telemetry", "record_batch_size", "telemetry.batch_size",
     "obs.registry", {}),
    ("repro.obs.registry:Histogram", "observe", "registry.observe", "obs.registry", {}),
    ("repro.engine.workers.inline", "fast_int_buckets", "routing.inline_ints",
     "engine.routing", {}),
    ("repro.engine.workers.inline", "route_batch", "routing.inline", "engine.routing", {}),
    ("repro.engine.workers.pool", "fast_int_buckets", "routing.pool_ints", "engine.routing",
     {}),
    ("repro.engine.workers.pool", "route_batch", "routing.pool", "engine.routing", {}),
    ("repro.engine.workers.inline:SerialExecutor", "apply_batch", "executor.apply_serial",
     "engine.workers", {}),
    ("repro.engine.workers.pool:ProcessPoolExecutor", "apply_batch", "executor.apply",
     "engine.workers", {}),
    ("repro.engine.workers.pool:ProcessPoolExecutor", "sync", "executor.sync",
     "engine.workers", {}),
    ("repro.engine.workers.pool:ProcessPoolExecutor", "collect", "executor.collect",
     "engine.workers", {}),
    ("repro.engine.workers.pool", "encode_int_bucket", "executor.ipc_encode",
     "engine.workers", {}),
]

#: Hooks whose per-call durations feed percentiles.
PERCENTILE_HOOKS = (
    "flush",
    "publish",
    "index.compile",
    "persistence.load",
    "read.query",
    "read.rank",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer hook and the event-loop callback runner."""
    for path, attr, name, layer, hooks in HOOKS:
        owner = _resolve(path)
        if owner is None:
            tracer.missing.append(name)
            continue
        _patch(tracer, owner, attr, name, layer, **hooks)
    # Every coroutine method of the service is connection plumbing.
    server = _resolve("repro.service.server:QuantileService")
    if server is not None:
        for attr, value in list(vars(server).items()):
            if inspect.iscoroutinefunction(value) and attr not in (
                "start",
                "stop",
                "serve_until",
            ):
                _patch(tracer, server, attr, f"server.{attr.lstrip('_')}", "service.server")
    for name in PERCENTILE_HOOKS:
        tracer.keep_durations(name)
    handle_run = asyncio.events.Handle._run
    asyncio.events.Handle._run = _wrap_function(tracer, handle_run, ROOT)
    os.register_at_fork(after_in_child=tracer.disable_in_child)


def watch_selector(tracer: Tracer, loop: asyncio.AbstractEventLoop) -> None:
    """Count the time the loop spends blocked in ``select`` as idle."""
    selector = getattr(loop, "_selector", None)
    if selector is None:
        return
    select = selector.select

    def timed_select(timeout=None):
        if not tracer.enabled:
            return select(timeout)
        started = perf_counter_ns()
        try:
            return select(timeout)
        finally:
            tracer.idle_ns += perf_counter_ns() - started

    selector.select = timed_select
