"""Drive one scenario against a quantile service and measure what it served.

The runner's determinism contract: every *gateable* field of the resulting
:class:`~repro.scenarios.report.CanaryReport` is a pure function of
``(scenario, seed)``.  The moves that make that true:

* **One writer, total order.**  All inserts flow through a single client
  connection that awaits each ack before sending the next, so the engine
  applies the scenario's value stream in exactly one order and the final
  summary state — hence every served answer the accuracy section checks —
  is reproducible.  (Connector replay gets the same property for free: the
  :class:`~repro.connectors.runner.IngestRunner` drains its source
  sequentially through the :class:`~repro.connectors.runner.ServiceSink`.)
* **Readers wait for data.**  Concurrent readers only start once the first
  insert is acked (the engine is non-empty), so no reader races the writer into
  an ``empty`` error that would make the error census timing-dependent.
* **Accuracy is judged at the end, against exact ground truth.**  Mid-run
  reads exercise the server (latency, shedding, the online auditor); the
  report's rank errors come from one final pass over the served quantiles
  and deterministic rank probes, compared against the exact rank *interval*
  of the full inserted multiset — duplicates (heavy-tail!) don't fake
  violations.

Latency percentiles ride in the same GK-backed histograms the load
generator uses; they are real measurements and therefore live in the
report's timing fields, outside the determinism contract.
"""

from __future__ import annotations

import asyncio
import random
from bisect import bisect_left, bisect_right
from datetime import datetime, timezone
from fractions import Fraction
from time import perf_counter_ns

from repro.errors import RequestFailed
from repro.scenarios.registry import Scenario, get_scenario
from repro.scenarios.report import CanaryReport, shed_rate_of
from repro.scenarios.traffic import connector_source, connector_values, insert_batches
from repro.service.client import QuantileClient
from repro.service.loadgen import LoadReport

#: Generous per-request deadline: canary runs measure accuracy and real
#: shedding, not artificial deadline pressure.
DEADLINE_MS = 30_000.0

LATENCY_PHIS = (0.5, 0.95, 0.99)


def _wire(value):
    """Exact wire form: Fractions as strings, ints as JSON numbers."""
    return str(value) if isinstance(value, Fraction) else value


def _interval_rank_error(ordered, value: Fraction, target: float) -> float:
    """Distance from ``target`` to ``value``'s exact rank interval, over n.

    A value that appears ``t`` times occupies the rank interval
    ``[#(< value), #(<= value)]``; any served rank inside it is exactly
    correct.  ``ordered`` is the sorted ground truth.
    """
    n = len(ordered)
    if n == 0:
        return 0.0
    low = bisect_left(ordered, value)
    high = bisect_right(ordered, value)
    if target < low:
        return (low - target) / n
    if target > high:
        return (target - high) / n
    return 0.0


async def _writer(
    host: str,
    port: int,
    seed: int,
    batches: list,
    recorder: LoadReport,
    first_insert: asyncio.Event,
    wire: str = "ndjson",
) -> None:
    # Each insert is awaited regardless of wire, so the frame lane keeps
    # the single-writer total order the determinism contract needs.
    client = QuantileClient(
        host, port, deadline_ms=DEADLINE_MS, jitter_seed=seed * 31 + 1, wire=wire
    )
    async with client:
        for batch in batches:
            wire_batch = [_wire(value) for value in batch]
            started = perf_counter_ns()
            try:
                await client.insert(wire_batch)
            except RequestFailed as failure:
                recorder.record_error(
                    "insert", failure.code, perf_counter_ns() - started
                )
            else:
                recorder.record_ok("insert", perf_counter_ns() - started)
                recorder.inserted.extend(Fraction(value) for value in batch)
                first_insert.set()


async def _reader(
    index: int,
    host: str,
    port: int,
    scenario: Scenario,
    seed: int,
    recorder: LoadReport,
    first_insert: asyncio.Event,
) -> None:
    rng = random.Random(seed * 65537 + 1009 * (index + 1))
    lo, hi = scenario.value_range
    client = QuantileClient(
        host, port, deadline_ms=DEADLINE_MS, jitter_seed=seed * 131 + index
    )
    async with client:
        await first_insert.wait()
        for _ in range(scenario.reads_per_reader):
            if rng.random() < 0.5:
                op = "query"
                call = client.query(scenario.phis)
            else:
                op = "rank"
                call = client.rank([rng.randint(lo, hi)])
            started = perf_counter_ns()
            try:
                await call
            except RequestFailed as failure:
                recorder.record_error(
                    op, failure.code, perf_counter_ns() - started
                )
            else:
                recorder.record_ok(op, perf_counter_ns() - started)


async def _wait_for_data(host: str, port: int, first_insert: asyncio.Event) -> None:
    """Connector mode: release the readers once the service holds data."""
    async with QuantileClient(host, port, deadline_ms=DEADLINE_MS) as client:
        while True:
            pong = await client.ping()
            if pong.get("n", 0) > 0:
                break
            await asyncio.sleep(0.02)
    first_insert.set()


def _run_connector_replay(scenario: Scenario, seed: int, host: str, port: int):
    """Drain the scenario's source into the live service (worker thread)."""
    from repro.connectors import (
        DeadLetterQueue,
        IngestRunner,
        RunnerConfig,
        ServiceSink,
    )
    from repro.obs.registry import MetricRegistry

    source = connector_source(scenario, seed)
    sink = ServiceSink(host, port, None)
    dlq = DeadLetterQueue(None)
    runner = IngestRunner(
        [source],
        sink,
        dlq=dlq,
        config=RunnerConfig(batch_size=max(1, scenario.values_per_insert)),
        registry=MetricRegistry(),
    )
    try:
        run_report = runner.run()
    finally:
        sink.close()
    return run_report, dlq.by_code


async def _final_accuracy(
    host: str,
    port: int,
    scenario: Scenario,
    recorder: LoadReport,
) -> dict:
    """Exact rank-error measurement of the served end state."""
    ordered = sorted(recorder.inserted)
    n = len(ordered)
    accuracy: dict = {"n": n}
    if n == 0:
        return accuracy
    async with QuantileClient(host, port, deadline_ms=DEADLINE_MS) as client:
        answers = await client.query(scenario.phis)
        per_phi: dict[str, float] = {}
        for entry in answers["results"]:
            served = Fraction(entry["value"])
            per_phi[f"{entry['phi']:g}"] = _interval_rank_error(
                ordered, served, entry["phi"] * n
            )
        accuracy["per_phi"] = per_phi
        errors = list(per_phi.values())
        accuracy["max_rank_error"] = max(errors)
        accuracy["mean_rank_error"] = sum(errors) / len(errors)

        probe_error = None
        probe_codes: dict[str, int] = {}
        if scenario.rank_probes > 0:
            step = max(1, scenario.rank_probes - 1)
            probes = sorted(
                {
                    ordered[(position * (n - 1)) // step]
                    for position in range(scenario.rank_probes)
                }
            )
            try:
                response = await client.rank([str(value) for value in probes])
            except RequestFailed as failure:
                probe_codes[failure.code] = len(probes)
            else:
                probe_error = 0.0
                for entry, value in zip(response["results"], probes):
                    probe_error = max(
                        probe_error,
                        _interval_rank_error(ordered, value, entry["rank"]),
                    )
        accuracy["rank_probes"] = scenario.rank_probes
        accuracy["rank_probe_max_error"] = probe_error
        if probe_codes:
            accuracy["rank_probe_errors"] = probe_codes
    accuracy["within_epsilon"] = (
        accuracy["max_rank_error"] <= scenario.rank_error_budget
        and (probe_error is None or probe_error <= scenario.rank_error_budget)
    )
    return accuracy


def _audit_census(service) -> dict:
    """The server-side auditor's counters (self-hosted runs only)."""
    registry = service.registry
    audits = registry.get("service_audits_total")
    violations = registry.get("service_rank_error_violations_total")
    shadow = registry.get("service_audit_shadow_items")
    histogram = registry.get("service_rank_error")
    census = {
        "audits": audits.value if audits is not None else 0,
        "violations": violations.value if violations is not None else 0,
        "shadow_items": shadow.value if shadow is not None else 0,
        "threshold": service.auditor.epsilon + service.auditor.slack,
    }
    if histogram is not None and histogram.observations:
        census["rank_error"] = histogram.quantiles((0.5, 0.9, 0.99))
    return census


async def _drive(
    scenario: Scenario,
    seed: int,
    host: str,
    port: int,
    service=None,
    wire: str = "ndjson",
) -> CanaryReport:
    recorder = LoadReport()
    first_insert = asyncio.Event()
    started = perf_counter_ns()
    errors: dict[str, int] = {}
    connector_census: dict = {}
    inserts = 0

    tasks = [
        asyncio.create_task(
            _reader(index, host, port, scenario, seed, recorder, first_insert)
        )
        for index in range(scenario.readers)
    ]
    if scenario.pattern == "connector":
        waiter = asyncio.create_task(_wait_for_data(host, port, first_insert))
        run_report, dlq_codes = await asyncio.to_thread(
            _run_connector_replay, scenario, seed, host, port
        )
        inserts = run_report.batches
        recorder.ops += run_report.batches
        recorder.ok += run_report.batches
        recorder.inserted.extend(connector_values(scenario, seed))
        for code, count in dlq_codes.items():
            errors[f"dlq:{code}"] = count
        connector_census = {
            "records": run_report.records,
            "ingested": run_report.ingested,
            "dead_lettered": run_report.dead_lettered,
            "batches": run_report.batches,
        }
        if not first_insert.is_set():
            # An all-poison source never publishes data; release the
            # readers so the run terminates (their errors are censused).
            waiter.cancel()
            first_insert.set()
        else:
            await waiter
    else:
        batches = insert_batches(scenario, seed)
        inserts = len(batches)
        await _writer(host, port, seed, batches, recorder, first_insert, wire)
    await asyncio.gather(*tasks)

    accuracy = await _final_accuracy(host, port, scenario, recorder)
    seconds = (perf_counter_ns() - started) / 1e9

    for code, count in recorder.errors.items():
        errors[code] = errors.get(code, 0) + count
    reads = scenario.readers * scenario.reads_per_reader
    ops = {
        "total": recorder.ops,
        "ok": recorder.ok,
        "inserts": inserts,
        "reads": reads,
    }
    if connector_census:
        ops["connector"] = connector_census
    latency_us = {
        op: recorder.latency_quantiles_us(op, LATENCY_PHIS)
        for op in sorted(recorder.histograms)
    }
    report = CanaryReport(
        scenario=scenario.name,
        seed=seed,
        config=scenario.config_payload(),
        budgets={
            "max_rank_error": scenario.rank_error_budget,
            "p99_us": scenario.p99_budget_us,
            "shed_rate": scenario.shed_budget,
        },
        ops=ops,
        errors=dict(sorted(errors.items())),
        shed_rate=shed_rate_of(errors, max(1, recorder.ops)),
        accuracy=accuracy,
        latency_us=latency_us,
        throughput={
            "seconds": round(seconds, 6),
            "ops_per_second": round(recorder.ops / seconds, 2)
            if seconds > 0
            else None,
        },
        audit=_audit_census(service) if service is not None else {},
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    return report


async def run_scenario(
    scenario: Scenario | str,
    seed: int = 0,
    *,
    host: str | None = None,
    port: int | None = None,
) -> CanaryReport:
    """Run ``scenario`` and return its canary report.

    With ``host``/``port`` the run targets a live service (the report's
    ``audit`` section is then empty — scrape ``/metrics`` for it).  Without
    them the runner self-hosts a loopback
    :class:`~repro.service.server.QuantileService` configured from the
    scenario (summary type, epsilon, shards, audit fraction), which is the
    mode CI uses.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    scenario.validate()
    if host is not None:
        if port is None:
            raise ValueError("a remote canary run needs both host and port")
        return await _drive(scenario, seed, host, port, wire=scenario.wire)

    wires = list(scenario.wire_matrix) or [scenario.wire]
    report = await _run_self_hosted(scenario, seed, wires[0])
    if len(wires) > 1:
        # Invariance canary: the same seeded traffic over every wire
        # dialect (the frame lane's faithfulness contract) must produce an
        # identical gateable core, observed end to end through the service.
        from repro.scenarios.report import CanaryError, compare_reports

        for wire in wires[1:]:
            other = await _run_self_hosted(scenario, seed, wire)
            diff = compare_reports(report, other)
            if not diff["identical"]:
                drifted = ", ".join(
                    change["field"] for change in diff["changes"]
                )
                raise CanaryError(
                    f"scenario {scenario.name!r} is not wire invariant: "
                    f"{wires[0]} vs {wire} changed {drifted}"
                )
        report.ops["scaling"] = {"wires": wires, "identical": True}
    return report


async def _run_self_hosted(
    scenario: Scenario, seed: int, wire: str
) -> CanaryReport:
    """One self-hosted loopback run over an explicit wire."""
    from repro.engine import EngineConfig
    from repro.service.server import QuantileService, ServiceConfig

    service = QuantileService(
        engine_config=EngineConfig(
            summary=scenario.summary,
            epsilon=scenario.engine_epsilon,
            shards=scenario.shards,
            workers=scenario.workers,
        ),
        config=ServiceConfig(
            port=0,
            audit_fraction=scenario.audit_fraction,
            audit_seed=seed,
        ),
    )
    await service.start()
    try:
        return await _drive(
            scenario, seed, "127.0.0.1", service.port, service=service, wire=wire
        )
    finally:
        await service.stop()


def run_scenario_sync(
    scenario: Scenario | str,
    seed: int = 0,
    *,
    host: str | None = None,
    port: int | None = None,
) -> CanaryReport:
    """:func:`run_scenario` for synchronous callers (CLI, CI)."""
    return asyncio.run(run_scenario(scenario, seed, host=host, port=port))
