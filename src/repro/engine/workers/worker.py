"""The shard-worker process: owns a disjoint subset of the engine's shards.

One worker is one OS process running :func:`worker_main` in a loop over its
command queue (a feeder-thread ``multiprocessing.Queue``, so coordinator
sends never block on a full OS pipe).  It owns the *live* summary objects
for its assigned shards; the coordinator only ever sees them as
:mod:`repro.persistence` payloads and only ever hears from them over the
result pipe — whose EOF is the crash signal supervision relies on.

Determinism contract: the worker builds each shard summary with exactly the
factory call the serial engine would have used
(:meth:`~repro.engine.config.EngineConfig.shard_kwargs`, same per-shard
seed) and applies the routed value subsequences in arrival order through
``process_many`` (``process_numeric`` for the int buckets of a
columnar-capable type).  Shard state is therefore bit-identical to a
serial run — the supervisor's crash recovery (restore last snapshot,
replay the batch log) leans on this to make a SIGKILLed worker
reconstructible.

Telemetry: the worker keeps its own private
:class:`~repro.obs.registry.MetricRegistry` (``worker_batch_seconds``
histogram, ``worker_items_total``/``worker_batches_total`` counters, all
labelled ``worker=<id>``) plus a bounded buffer of finished span records.
Both ship to the coordinator on every ``collect`` *as deltas* — the worker
resets them after dumping — so the coordinator can fold them into the
parent registry with plain ``merge`` and never double-counts.
"""

from __future__ import annotations

import os
import signal
import traceback
from fractions import Fraction
from time import perf_counter_ns

#: Finished worker spans kept between collects (oldest dropped first).
SPAN_BUFFER_LIMIT = 256


def worker_main(
    worker_id: int,
    shard_indexes: list[int],
    config_payload: dict,
    command_reader,
    result_writer,
) -> None:
    """Entry point of one shard-worker process (runs until ``stop``/EOF)."""
    # The coordinator owns interrupt handling; a Ctrl-C must drain through
    # the supervisor's close path, not kill workers mid-apply.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    import repro.summaries  # noqa: F401  (registers summary types + codecs)
    from repro.engine.config import EngineConfig
    from repro.engine.workers.ipc import MODE_I64, MODE_INTS, decode_numeric, decode_values
    from repro.model.lanes import promote_to_columnar
    from repro.model.registry import create_summary, get_descriptor
    from repro.obs.registry import MetricRegistry
    from repro.persistence import dump as dump_summary, load as load_summary
    from repro.universe.universe import Universe

    config = EngineConfig.from_payload(config_payload)
    columnar = get_descriptor(config.summary).columnar
    universes = {index: Universe() for index in shard_indexes}
    shards = {
        index: create_summary(
            config.summary, config.epsilon, **config.shard_kwargs(index)
        )
        for index in shard_indexes
    }
    registry = MetricRegistry()
    spans: list[dict] = []
    label = str(worker_id)
    batches_applied = 0

    def fresh_metrics() -> tuple:
        seconds = registry.histogram(
            "worker_batch_seconds",
            help="wall seconds per applied worker batch",
            worker=label,
        )
        items = registry.counter(
            "worker_items_total",
            help="items applied to worker-owned shards",
            worker=label,
        )
        batches = registry.counter(
            "worker_batches_total",
            help="batches applied by this worker",
            worker=label,
        )
        return seconds, items, batches

    batch_seconds, items_total, batches_total = fresh_metrics()

    try:
        while True:
            try:
                message = command_reader.get()
            except (EOFError, OSError):
                return
            kind = message[0]

            if kind == "batch":
                _, batch_id, entries = message
                started = perf_counter_ns()
                applied = 0
                counts: dict[int, int] = {}
                for shard_index, mode, payload in entries:
                    if columnar and mode in (MODE_I64, MODE_INTS):
                        # Columnar lane: int buckets apply straight to the
                        # summary kernel — no Fraction/Item round-trip.
                        values = decode_numeric(mode, payload)
                        shards[shard_index].process_numeric(values)
                    else:
                        values = decode_values(mode, payload)
                        shards[shard_index].process_many(
                            universes[shard_index].items(values)
                        )
                    applied += len(values)
                    counts[shard_index] = shards[shard_index].n
                duration = perf_counter_ns() - started
                batches_applied += 1
                batch_seconds.observe(Fraction(duration, 1_000_000_000))
                items_total.inc(applied)
                batches_total.inc()
                if len(spans) >= SPAN_BUFFER_LIMIT:
                    del spans[0]
                spans.append(
                    {
                        "name": "engine.worker.apply_batch",
                        "worker": worker_id,
                        "batch": batch_id,
                        "items": applied,
                        "shards": len(entries),
                        "duration_ns": duration,
                    }
                )
                result_writer.send(("applied", batch_id, counts))

            elif kind == "collect":
                _, request_id = message
                payloads = {
                    index: dump_summary(shards[index]) for index in shard_indexes
                }
                result_writer.send(
                    ("state", request_id, payloads, registry.to_payload(), spans[:])
                )
                # Ship deltas: fold happened coordinator-side, start afresh.
                registry = MetricRegistry()
                batch_seconds, items_total, batches_total = fresh_metrics()
                spans.clear()

            elif kind == "restore":
                _, payloads = message
                for index in shard_indexes:
                    payload = payloads.get(index)
                    universes[index] = Universe()
                    if payload is None:
                        shards[index] = create_summary(
                            config.summary,
                            config.epsilon,
                            **config.shard_kwargs(index),
                        )
                    else:
                        shards[index] = load_summary(payload, universes[index])
                        # Checkpoints store Items; adopt raw keys again where
                        # possible so replayed i64 batches land on columnar
                        # state (promotion refuses harmlessly otherwise).
                        promote_to_columnar(shards[index])

            elif kind == "ping":
                _, request_id = message
                result_writer.send(
                    (
                        "pong",
                        request_id,
                        {
                            "pid": os.getpid(),
                            "worker": worker_id,
                            "shards": list(shard_indexes),
                            "batches_applied": batches_applied,
                        },
                    )
                )

            elif kind == "stop":
                return

            else:  # pragma: no cover - coordinator never sends unknown kinds
                result_writer.send(("error", f"unknown message {kind!r}", ""))
                return
    except (BrokenPipeError, OSError):  # pragma: no cover - coordinator died
        return
    except BaseException as error:  # noqa: BLE001 - ship the diagnosis out
        try:
            result_writer.send(("error", repr(error), traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        return
