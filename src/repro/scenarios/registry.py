"""The declarative scenario catalog the canary harness runs.

A :class:`Scenario` is a frozen, named description of one workload shape:
how many insert operations arrive, in what value order (the ``pattern``),
how many concurrent readers query while ingest is running, which phis the
accuracy check probes, and — crucially for CI — the *budgets* a run must
stay within for ``repro canary gate`` to pass: maximum acceptable rank
error, p99 latency, and shed rate.

Every scenario is fully seeded.  The traffic module derives all values
from ``(scenario, seed)``, so two runs of the same scenario with the same
seed ingest the identical value sequence in the identical order and the
gateable report fields are byte-identical (timing fields excluded).

The catalog leans on the repo's own machinery for hard inputs: the
``adversarial`` scenario replays the arrival order the paper's
``AdvStrategy`` construction (Pseudocode 2) extracts against a live GK
summary, and ``connector-replay`` streams a real file through the PR-6
connector framework's :class:`~repro.connectors.runner.ServiceSink` while
readers query concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ReproError


class ScenarioError(ReproError):
    """An unknown scenario name or an invalid scenario definition."""


#: Traffic patterns :func:`repro.scenarios.traffic.insert_batches` accepts.
PATTERNS = (
    "uniform",
    "sorted",
    "reversed",
    "zoomin",
    "heavy-tail",
    "flash-crowd",
    "adversarial",
    "connector",
)


@dataclass(frozen=True)
class Scenario:
    """One named, seeded, budgeted canary workload."""

    name: str
    description: str
    pattern: str
    # -- write side -------------------------------------------------------------
    inserts: int = 48
    values_per_insert: int = 100
    value_range: tuple[int, int] = (0, 1_000_000)
    # -- read side --------------------------------------------------------------
    readers: int = 4
    reads_per_reader: int = 16
    rank_probes: int = 16
    phis: tuple = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
    # -- pattern extras ---------------------------------------------------------
    heavy_tail_alpha: float = 1.2
    burst_every: int = 8
    burst_factor: int = 8
    adversary_summary: str = "gk"
    adversary_epsilon: float = 0.05
    adversary_k: int = 4
    #: connector pattern: a file path, or None for the seeded synthetic source.
    source: str | None = None
    source_format: str = "auto"
    synthetic_records: int = 4000
    # -- service under test (self-hosted loopback mode) -------------------------
    summary: str = "gk"
    engine_epsilon: float = 0.02
    shards: int = 2
    audit_fraction: float = 0.25
    #: Threads feeding the engine's busy shards in self-hosted runs.
    workers: int = 1
    #: Writer wire dialect (``ndjson``/``frames``, see docs/service.md).
    wire: str = "ndjson"
    #: When non-empty, the self-hosted runner replays the same seeded
    #: traffic once per wire dialect and asserts the gateable report cores
    #: are identical — the frame lane's faithfulness contract as a canary.
    wire_matrix: tuple = ()
    # -- gate budgets -----------------------------------------------------------
    #: Max acceptable rank error (defaults to ``engine_epsilon`` when None).
    epsilon_budget: float | None = None
    p99_budget_us: float = 500_000.0
    shed_budget: float = 0.01

    def validate(self) -> "Scenario":
        if self.pattern not in PATTERNS:
            raise ScenarioError(
                f"scenario {self.name!r} has unknown pattern {self.pattern!r}; "
                f"expected one of {PATTERNS}"
            )
        if self.inserts < 1 and self.pattern != "connector":
            raise ScenarioError(
                f"scenario {self.name!r} needs at least one insert"
            )
        if not 0 < self.engine_epsilon < 1:
            raise ScenarioError(
                f"scenario {self.name!r}: engine_epsilon must be in (0, 1)"
            )
        if self.rank_error_budget <= 0 or self.p99_budget_us <= 0:
            raise ScenarioError(
                f"scenario {self.name!r}: budgets must be positive"
            )
        if not 0 <= self.shed_budget <= 1:
            raise ScenarioError(
                f"scenario {self.name!r}: shed_budget must be in [0, 1]"
            )
        if self.workers < 1:
            raise ScenarioError(
                f"scenario {self.name!r}: workers must be positive"
            )
        wires = (self.wire, *self.wire_matrix)
        if any(wire not in ("ndjson", "frames") for wire in wires):
            raise ScenarioError(
                f"scenario {self.name!r}: wires must be 'ndjson' or "
                f"'frames', got {wires}"
            )
        return self

    @property
    def rank_error_budget(self) -> float:
        """The gate's rank-error ceiling (``epsilon_budget`` or the engine's)."""
        return (
            self.epsilon_budget
            if self.epsilon_budget is not None
            else self.engine_epsilon
        )

    def config_payload(self) -> dict:
        """The JSON echo of this scenario embedded in its canary reports."""
        payload = {
            "pattern": self.pattern,
            "inserts": self.inserts,
            "values_per_insert": self.values_per_insert,
            "value_range": list(self.value_range),
            "readers": self.readers,
            "reads_per_reader": self.reads_per_reader,
            "rank_probes": self.rank_probes,
            "phis": list(self.phis),
            "summary": self.summary,
            "engine_epsilon": self.engine_epsilon,
            "shards": self.shards,
            "workers": self.workers,
        }
        if self.wire_matrix:
            payload["wire_matrix"] = list(self.wire_matrix)
        else:
            payload["wire"] = self.wire
        if self.pattern == "adversarial":
            payload["adversary"] = {
                "summary": self.adversary_summary,
                "epsilon": self.adversary_epsilon,
                "k": self.adversary_k,
            }
        if self.pattern == "heavy-tail":
            payload["heavy_tail_alpha"] = self.heavy_tail_alpha
        if self.pattern == "flash-crowd":
            payload["burst_every"] = self.burst_every
            payload["burst_factor"] = self.burst_factor
        if self.pattern == "connector":
            payload["source"] = self.source
            payload["synthetic_records"] = self.synthetic_records
        return payload


def _catalog() -> dict[str, Scenario]:
    scenarios = [
        Scenario(
            name="adversarial",
            description="replay the paper's AdvStrategy arrival order (the "
            "order that forces any eps-accurate comparison-based summary to "
            "pay the lower bound) against the live service",
            pattern="adversarial",
            adversary_epsilon=0.05,
            adversary_k=4,
            # The adversarial stream length is fixed by (epsilon, k); the
            # traffic module chunks it into values_per_insert batches.
            values_per_insert=100,
        ),
        Scenario(
            name="sorted",
            description="monotone increasing arrival — the classic worst "
            "friend of naive sampling, easy for GK",
            pattern="sorted",
        ),
        Scenario(
            name="reversed",
            description="monotone decreasing arrival",
            pattern="reversed",
        ),
        Scenario(
            name="zoomin",
            description="alternating extremes converging on the median — "
            "repeatedly widens the occupied range around every prefix median",
            pattern="zoomin",
        ),
        Scenario(
            name="heavy-tail",
            description="Pareto-distributed values (alpha 1.2): a huge "
            "dynamic range with a dense head, stressing high quantiles",
            pattern="heavy-tail",
        ),
        Scenario(
            name="flash-crowd",
            description="uniform values arriving in bursts: every "
            "burst_every-th insert is burst_factor times larger, modelling "
            "a flash crowd against the micro-batched ingest queue",
            pattern="flash-crowd",
            burst_every=8,
            burst_factor=8,
        ),
        Scenario(
            name="read-storm",
            description="read-dominated mix: few writes, many concurrent "
            "readers hammering the read path",
            pattern="uniform",
            inserts=12,
            readers=8,
            reads_per_reader=48,
        ),
        Scenario(
            name="columnar-replay",
            description="heavy-tail traffic (integer values, a huge dynamic "
            "range) through GK's columnar kernels, the lane the engine "
            "infers from integer input, gated on exact-rank accuracy",
            pattern="heavy-tail",
            summary="gk",
        ),
        Scenario(
            name="wire-matrix",
            description="wire-faithfulness canary: replay the same seeded "
            "uniform integer traffic over the NDJSON line protocol and the "
            "binary frame lane and assert the gateable report cores "
            "(answers, errors, accuracy; timing excluded) are identical",
            pattern="uniform",
            summary="gk",
            wire_matrix=("ndjson", "frames"),
        ),
        Scenario(
            name="connector-replay",
            description="stream a JSONL/CSV source (or the seeded synthetic "
            "source) through the PR-6 IngestRunner ServiceSink while readers "
            "query live; DLQ codes join the report's error census",
            pattern="connector",
            inserts=0,
            synthetic_records=4000,
        ),
    ]
    return {scenario.name: scenario.validate() for scenario in scenarios}


#: The canonical catalog, keyed by scenario name.
SCENARIOS: dict[str, Scenario] = _catalog()


def scenario_names() -> list[str]:
    """All catalog scenario names, sorted."""
    return sorted(SCENARIOS)


def get_scenario(name: str, **overrides) -> Scenario:
    """The catalog scenario called ``name``, optionally with field overrides."""
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ScenarioError(
            f"unknown scenario {name!r}; catalog: {', '.join(scenario_names())}"
        )
    if overrides:
        scenario = replace(scenario, **overrides).validate()
    return scenario
