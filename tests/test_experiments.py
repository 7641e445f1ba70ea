"""Experiment registry and each experiment's table output (small params)."""

import pytest

from repro.analysis.tables import Table
from repro.experiments import EXPERIMENTS, get_experiment, run_experiment


@pytest.fixture(scope="module")
def t3_tables():
    """One T3 run (ε=1/32, k=4) serves both the smoke and the shape check."""
    return run_experiment("T3", epsilon=1 / 32, k=4)


class TestRegistry:
    def test_all_design_md_ids_present(self):
        expected = (
            {"F1", "F2"}
            | {f"T{i}" for i in range(1, 11)}
            | {f"A{i}" for i in range(1, 9)}
        )
        assert set(EXPERIMENTS) == expected

    def test_lookup_case_insensitive(self):
        assert get_experiment("f1").id == "F1"

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_experiment("T99")

    def test_specs_carry_paper_refs(self):
        for spec in EXPERIMENTS.values():
            assert spec.paper_ref
            assert spec.title


class TestF1:
    def test_reproduces_figure_numbers(self):
        tables = run_experiment("F1")
        ranks, gaps = tables[0], tables[1]
        assert ranks.column("rank w.r.t. pi") == ["1", "6", "11", "14"]
        assert ranks.column("rank w.r.t. rho") == ["1", "6", "11", "14"]
        gap_column = gaps.column("rank_rho(I'_rho[i+1]) - rank_pi(I'_pi[i])")
        assert gap_column == ["5", "5", "3"]
        assert gaps.column("is largest") == ["yes", "yes", "no"]


class TestF2:
    def test_panel_structure(self):
        panels, refinements, final, figure = run_experiment("F2")
        assert panels.column("panel") == ["a", "b", "c", "d"]
        assert panels.column("items sent") == ["12", "24", "36", "48"]
        assert refinements.column("items so far") == ["12", "24", "36"]

    def test_gaps_respect_lemma_bound(self):
        _, refinements, final, _figure = run_experiment("F2")
        gaps = [int(value) for value in refinements.column("largest gap")]
        bounds = [float(value) for value in refinements.column("2 eps N'")]
        assert all(gap <= bound for gap, bound in zip(gaps, bounds))
        assert int(final.column("final gap")[0]) <= float(final.column("2 eps N")[0])

    def test_figure_panels_render_both_streams(self):
        *_rest, figure = run_experiment("F2")
        text = figure.render()
        assert text.count("pi :") == 4
        assert text.count("rho:") == 4
        assert "|" in text and "x" in text


class TestSmallRuns:
    """Each experiment runs end-to-end with reduced parameters."""

    def assert_tables(self, tables):
        assert tables
        for table in tables:
            # Tables and charts share the render/to_markdown protocol.
            assert table.render()
            assert table.to_markdown()
            if isinstance(table, Table):
                assert table.rows

    def test_t1(self):
        self.assert_tables(run_experiment("T1", epsilon=1 / 32, k_max=3))

    def test_t2(self):
        self.assert_tables(run_experiment("T2", epsilon=1 / 32, k=3))

    def test_t3(self, t3_tables):
        self.assert_tables(t3_tables)

    def test_t4(self):
        self.assert_tables(run_experiment("T4", epsilon=1 / 32, k=3, budgets=(8, 16)))

    def test_t5(self):
        self.assert_tables(run_experiment("T5", epsilon=1 / 32, k=3, budgets=(8,)))

    def test_t6(self):
        self.assert_tables(run_experiment("T6", epsilon=1 / 32, k=3, budgets=(8,)))

    def test_t7(self):
        self.assert_tables(
            run_experiment(
                "T7",
                epsilon=1 / 32,
                k=3,
                seeds=(0,),
                sketches=(("kll k=8", {"k": 8}),),
                deltas=(1e-2, 1e-4),
                stream_length=2000,
            )
        )

    def test_t8(self):
        self.assert_tables(run_experiment("T8", epsilon=1 / 32, k=3))

    def test_t9(self):
        self.assert_tables(run_experiment("T9", epsilon=1 / 64, k_max=8))

    def test_t10(self):
        self.assert_tables(
            run_experiment("T10", epsilon=1 / 16, length=512, adversary_k=4)
        )


class TestExpectedShapes:
    def test_t2_correct_summaries_within_bound(self):
        (table,) = run_experiment("T2", epsilon=1 / 32, k=4)
        for claims, verdict in zip(
            table.column("claims correct"), table.column("within bound")
        ):
            if claims == "yes":
                assert verdict == "yes"

    def test_t3_zero_violations(self, t3_tables):
        table = t3_tables[0]
        assert set(table.column("claim1 violations")) == {"0"}
        assert set(table.column("space-gap violations")) == {"0"}

    def test_t4_all_capped_defeated_gk_survives(self):
        (table,) = run_experiment("T4", epsilon=1 / 32, k=4, budgets=(8, 16))
        verdicts = dict(zip(table.column("summary"), table.column("defeated")))
        assert verdicts["capped (8)"] == "YES"
        assert verdicts["capped (16)"] == "YES"
        assert verdicts["gk (control)"] == "no"


class TestCli:
    def test_lists_without_args(self, capsys):
        from repro.experiments.__main__ import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "F1" in out and "T10" in out

    def test_runs_selected_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["F1"]) == 0
        out = capsys.readouterr().out
        assert "largest gap" in out.lower() or "Restricted" in out

    def test_markdown_output(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        target = tmp_path / "out.md"
        assert main(["F1", "--markdown", str(target)]) == 0
        assert "| entry |" in target.read_text()
