"""The compiled read path: frozen rank indexes (repro.model.rankindex).

Three pillars:

* the **answer-identity property** — for every registered type with a
  ``compile_index`` builder, the compiled index's ``quantile``/``rank``
  answers are identical to the uncompiled ``query``/``estimate_rank``
  answers over random streams (with duplicate keys) and phi grids
  including the 0 and 1 edge cases, probe values at, between, below, and
  above the stored keys, and the empty-summary error behaviour;
* the **engine cache contract** — the engine's index is compiled once per
  ingest generation, reused across reads (hit/miss/compile counters), and
  rebuilt after the next ingest; batched ``quantiles``/``rank_many`` count
  one query per call and match the per-call answers; a summary type
  without a ``compile_index`` builder never reaches the engine;
* the **snapshot lifetime contract** — the service's flush folds the
  shards, the first read of the epoch compiles the fold, and every later
  read of the epoch reuses that index; an empty service refuses reads
  without compiling.
"""

import asyncio
import dataclasses
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.summaries  # noqa: F401  (registers every summary type)
from repro.cli import main as cli_main
from repro.engine import EngineConfig, ShardedQuantileEngine
from repro.errors import (
    EmptySummaryError,
    EngineError,
    InvalidQuantileError,
    RequestFailed,
)
from repro.model import registry
from repro.model.rankindex import (
    RankIndex,
    compile_generic_index,
    compile_rank_index,
)
from repro.model.registry import create_summary, descriptors
from repro.model.summary import QuantileSummary
from repro.service import QuantileClient, QuantileService, ServiceConfig, protocol
from repro.universe.item import key_of
from repro.universe.universe import Universe

INDEXED_TYPES = [
    descriptor.name
    for descriptor in descriptors()
    if descriptor.compile_index is not None
]

EDGE_PHIS = [0.0, 1.0, 0.5, 0.25, 0.75, 0.01, 0.99]


def _make(name: str, epsilon: float, n: int) -> QuantileSummary:
    if name == "mrl":
        return create_summary(name, epsilon, n_hint=max(1, n))
    return create_summary(name, epsilon)


class TestIndexedTypeSet:
    def test_expected_builders_are_registered(self):
        assert INDEXED_TYPES == [
            "biased",
            "exact",
            "gk",
            "gk-greedy",
            "kll",
            "mrl",
            "offline",
            "req",
            "sampling",
        ]

    def test_dispatcher_returns_none_for_unindexed_types(self):
        summary = create_summary("qdigest", 0.1)
        assert compile_rank_index(summary) is None


class TestAnswerIdentity:
    """Indexed answers must equal the uncompiled path bit for bit."""

    @settings(max_examples=15, deadline=None)
    @given(
        raw=st.lists(
            # A narrow value range so duplicate stored keys are common.
            st.integers(min_value=0, max_value=60),
            min_size=1,
            max_size=160,
        ),
        phis=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            max_size=12,
        ),
        epsilon=st.sampled_from([0.02, 0.1]),
    )
    def test_quantiles_and_ranks_match_uncompiled(self, raw, phis, epsilon):
        for name in INDEXED_TYPES:
            values = [Fraction(value, 3) for value in raw]
            universe = Universe()
            summary = _make(name, epsilon, len(values))
            summary.process_many(universe.items(values))

            index = compile_rank_index(summary)
            assert isinstance(index, RankIndex), name

            for phi in EDGE_PHIS + phis:
                expected = summary.query(phi)
                assert key_of(index.quantile(phi)) == key_of(expected), (
                    name,
                    phi,
                )

            # Probes at stored keys (duplicates included), between adjacent
            # keys, and outside the stored range on both sides.
            probes = sorted(set(values))
            probes += [low + Fraction(1, 6) for low in probes[:20]]
            probes += [min(values) - 1, max(values) + 1]
            for probe in probes:
                expected_rank = summary.estimate_rank(universe.item(probe))
                assert index.rank(probe) == expected_rank, (name, probe)

    def test_batched_answers_match_and_preserve_input_order(self):
        values = [Fraction(value) for value in range(1, 400)]
        phis = [0.9, 0.1, 0.5, 0.5, 0.0, 1.0]
        for name in INDEXED_TYPES:
            summary = _make(name, 0.05, len(values))
            summary.process_many(Universe().items(values))
            index = compile_rank_index(summary)
            batched = index.quantile_many(phis)
            assert [key_of(item) for item in batched] == [
                key_of(summary.query(phi)) for phi in phis
            ], name
            keys = [Fraction(7), Fraction(395), Fraction(-1)]
            universe = Universe()
            assert index.rank_many(keys) == [
                summary.estimate_rank(universe.item(key)) for key in keys
            ], name

    def test_empty_summaries_behave_like_the_uncompiled_path(self):
        for name in INDEXED_TYPES:
            index = compile_rank_index(_make(name, 0.1, 8))
            with pytest.raises(EmptySummaryError):
                index.quantile(0.5)
            if name == "exact":
                # The one registered type whose estimate_rank answers 0 on
                # an empty summary (a bare bisect) instead of raising.
                assert index.rank(Fraction(3)) == 0
            else:
                with pytest.raises(EmptySummaryError):
                    index.rank(Fraction(3))

    def test_invalid_phi_rejected_like_the_uncompiled_path(self):
        summary = _make("gk", 0.1, 10)
        summary.process_many(Universe().items([Fraction(i) for i in range(10)]))
        index = compile_rank_index(summary)
        for phi in (-0.01, 1.01):
            with pytest.raises(InvalidQuantileError):
                index.quantile(phi)

    def test_quantile_memo_returns_identical_items(self):
        summary = _make("gk", 0.05, 100)
        summary.process_many(Universe().items([Fraction(i) for i in range(100)]))
        index = compile_rank_index(summary)
        assert index.quantile(0.5) is index.quantile(0.5)

    def test_generic_builder_stays_within_epsilon(self):
        # The generic builder promises epsilon-correctness, not identity.
        n, epsilon = 2000, 0.05
        summary = _make("gk", epsilon, n)
        summary.process_many(Universe().items([Fraction(i) for i in range(1, n + 1)]))
        index = compile_generic_index(summary)
        for phi in (0.0, 0.1, 0.5, 0.9, 1.0):
            answer = index.quantile(phi)
            rank = int(key_of(answer))  # value == rank in this stream
            target = max(1, min(n, phi * n))
            assert abs(rank - target) <= 2 * epsilon * n + 1, phi


class TestEngineReadIndex:
    def _engine(self, shards=2, summary="gk"):
        engine = ShardedQuantileEngine(
            EngineConfig(summary=summary, shards=shards, epsilon=0.02)
        )
        engine.ingest(range(1000))
        return engine

    def _counters(self, engine):
        return engine.stats()["telemetry"]["counters"]

    def test_index_compiled_once_and_reused_across_reads(self):
        engine = self._engine()
        first = engine.read_index()
        assert isinstance(first, RankIndex)
        assert engine.read_index() is first
        engine.query(0.5)
        engine.quantiles([0.1, 0.9])
        assert engine.read_index() is first
        counters = self._counters(engine)
        assert counters["read_index_compiles"] == 1
        assert counters["read_index_misses"] == 1
        assert counters["read_index_hits"] >= 4

    def test_ingest_invalidates_the_index(self):
        engine = self._engine()
        before = engine.read_index()
        assert key_of(before.quantile(0.5)) == engine.query(0.5)
        engine.ingest(range(1000, 2000))
        after = engine.read_index()
        assert after is not before
        assert after.n == 2000
        assert self._counters(engine)["read_index_compiles"] == 2

    def test_batched_reads_count_once_per_call(self):
        engine = self._engine()
        engine.quantiles([0.1, 0.5, 0.9])
        engine.rank_many([100, 500, 900])
        assert self._counters(engine)["queries_answered"] == 2

    def test_batched_answers_match_per_call_reads(self):
        engine = self._engine()
        phis = [0.05, 0.25, 0.5, 0.75, 0.95]
        assert engine.quantiles(phis) == [engine.query(phi) for phi in phis]
        probes = [0, 250, 500, 999, 10_000]
        assert engine.rank_many(probes) == [engine.rank(v) for v in probes]

    def test_config_rejects_a_mergeable_type_without_compile_index(
        self, monkeypatch
    ):
        # Every mergeable type registers compile_index today, so strip it
        # from one descriptor: validate must refuse the type up front.
        descriptor = registry.get_descriptor("kll")
        monkeypatch.setitem(
            registry._DESCRIPTORS,
            "kll",
            dataclasses.replace(descriptor, compile_index=None),
        )
        with pytest.raises(EngineError, match="compile_index"):
            EngineConfig(summary="kll", shards=1, epsilon=0.05).validate()
        # The CLI's `quantiles` path still falls back per call on such types.
        assert compile_rank_index(create_summary("turnstile", 0.1)) is None

    def test_restored_engine_compiles_fresh(self, tmp_path):
        engine = self._engine()
        engine.query(0.5)
        path = tmp_path / "ck.jsonl"
        engine.checkpoint(path)
        restored = ShardedQuantileEngine.restore(path)
        phis = [0.1, 0.5, 0.9]
        assert restored.quantiles(phis) == engine.quantiles(phis)


class TestSnapshotReadIndex:
    """The engine's read index as the service serves it for one epoch."""

    def _serve(self, talk, n=500, summary="gk"):
        service = QuantileService(
            engine_config=EngineConfig(summary=summary, shards=2, epsilon=0.02),
            config=ServiceConfig(port=0),
        )

        async def scenario():
            await service.start()
            try:
                async with QuantileClient("127.0.0.1", service.port) as client:
                    if n:
                        await client.insert(list(range(n)))
                    return await talk(service, client)
            finally:
                await service.stop()

        return asyncio.run(scenario())

    def _counters(self, service):
        return dict(service.engine.stats()["telemetry"]["counters"])

    def test_lazy_compile_then_reuse_for_snapshot_lifetime(self):
        async def talk(service, client):
            # The acked insert's flush folded the shards and compiled nothing.
            folded = self._counters(service)
            await client.query([0.5])
            first = service.engine.read_index()
            await client.query([0.1, 0.9])
            await client.rank([100])
            reused = service.engine.read_index() is first
            return folded, first, reused, self._counters(service)

        folded, first, reused, after = self._serve(talk)
        assert folded["merges_performed"] == 1
        assert folded.get("read_index_compiles", 0) == 0
        assert isinstance(first, RankIndex)
        assert reused
        assert after["read_index_compiles"] == 1
        assert after["merges_performed"] == 1

    def test_batched_snapshot_reads_match_per_call(self):
        phis = [0.9, 0.1, 0.5]
        values = [10, 499, -3, "1/2"]

        async def talk(service, client):
            batched = (await client.query(phis), await client.rank(values))
            single = (
                [await client.query([phi]) for phi in phis],
                [await client.rank([value]) for value in values],
            )
            return batched, single

        (queried, ranked), (queries, ranks) = self._serve(talk)
        assert queried["results"] == [q["results"][0] for q in queries]
        assert ranked["results"] == [r["results"][0] for r in ranks]
        assert {q["epoch"] for q in queries + ranks} == {queried["epoch"]}

    def test_empty_snapshot_raises_without_compiling(self):
        # The exact index would answer rank 0 here; the service's guard
        # refuses before the engine is asked to compile anything.
        async def talk(service, client):
            errors = []
            for read in (client.query([0.5]), client.rank([1])):
                with pytest.raises(RequestFailed) as excinfo:
                    await read
                errors.append(excinfo.value)
            return errors, self._counters(service)

        errors, counters = self._serve(talk, n=0, summary="exact")
        assert [error.code for error in errors] == [protocol.ERR_EMPTY] * 2
        assert all("epoch 0" in str(error) for error in errors)
        assert counters.get("read_index_compiles", 0) == 0


class TestQuantilesQueryCLI:
    def _write(self, tmp_path, values):
        path = tmp_path / "data.txt"
        path.write_text("\n".join(str(value) for value in values) + "\n")
        return str(path)

    def test_batched_query_reports_answers_in_input_order(self, tmp_path):
        path = self._write(tmp_path, range(1, 1001))
        out = io.StringIO()
        code = cli_main(
            [
                "quantiles",
                "query",
                "--input",
                path,
                "--epsilon",
                "0.01",
                "--phis",
                "0.9,0.1,0.5",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "compiled index" in text
        lines = [line for line in text.splitlines() if line.startswith("phi = ")]
        assert [line.split(":")[0] for line in lines] == [
            "phi = 0.9",
            "phi = 0.1",
            "phi = 0.5",
        ]
        median = int(lines[2].split(":")[1].strip())
        assert abs(median - 500) <= 11

    def test_flat_quantiles_invocation_still_works(self, tmp_path):
        path = self._write(tmp_path, range(1, 101))
        out = io.StringIO()
        assert (
            cli_main(
                ["quantiles", "--input", path, "--epsilon", "0.05", "--phi", "0.5"],
                out=out,
            )
            == 0
        )
        assert "phi = 0.5" in out.getvalue()

    def test_bad_phis_rejected(self, tmp_path):
        path = self._write(tmp_path, range(1, 11))
        with pytest.raises(SystemExit, match="numbers"):
            cli_main(
                ["quantiles", "query", "--input", path, "--phis", "0.5,oops"],
                out=io.StringIO(),
            )
