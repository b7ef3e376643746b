"""Tests for the experiment definitions and the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.bench import experiments, reporting
from repro.bench.scales import SCALES
from repro.cli import main


@pytest.fixture(scope="module")
def micro_scale():
    return SCALES["tiny"].scaled(
        name="micro",
        n_datasets=4,
        objects_per_dataset=500,
        n_queries=12,
        grid_cells_per_dim=4,
    )


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self, micro_scale):
        return experiments.figure4(
            ids_distribution="zipf",
            ranges="clustered",
            scale=micro_scale,
            datasets_queried=(1, 3),
            approaches=("Grid-1fE", "Odyssey"),
        )

    def test_structure(self, result):
        assert [p.datasets_queried for p in result.points] == [1, 3]
        for point in result.points:
            assert set(point.cells) == {"Grid-1fE", "Odyssey"}
            assert point.combinations_queried >= 1
            assert point.odyssey_queries_within_grid_build is not None

    def test_totals_are_consistent(self, result):
        for point in result.points:
            for cell in point.cells.values():
                assert cell.total_seconds == pytest.approx(
                    cell.indexing_seconds + cell.querying_seconds
                )
            assert point.total("Odyssey") > 0

    def test_point_lookup(self, result):
        assert result.point(1).datasets_queried == 1
        with pytest.raises(KeyError):
            result.point(9)

    def test_table_formatting(self, result):
        table = reporting.format_figure4_table(result)
        assert "Grid-1fE" in table
        assert "Odyssey" in table
        assert "[indexing]" in table and "[total]" in table

    def test_invalid_inputs(self, micro_scale):
        with pytest.raises(ValueError):
            experiments.figure4(ranges="spiral", scale=micro_scale, datasets_queried=(1,))
        with pytest.raises(ValueError):
            experiments.figure4(ids_distribution="nope", scale=micro_scale, datasets_queried=(1,))


class TestFigure5:
    def test_figure5a_series(self, micro_scale):
        result = experiments.figure5a(scale=micro_scale, approaches=("Grid-1fE", "Odyssey"))
        assert set(result.series) == {"Grid-1fE", "Odyssey"}
        series = result.get("Odyssey")
        assert len(series.per_query_seconds) == micro_scale.n_queries
        assert series.indexing_seconds == 0.0
        assert series.total_seconds > 0
        summary = reporting.format_figure5_summary(result)
        assert "Odyssey" in summary

    def test_figure5b_uses_uniform_distributions(self, micro_scale):
        result = experiments.figure5b(scale=micro_scale, approaches=("Odyssey",))
        assert result.ranges == "uniform"
        assert result.ids_distribution == "uniform"

    def test_figure5c_structure(self, micro_scale):
        result = experiments.figure5c(scale=micro_scale, datasets_per_query=3)
        assert result.popular_query_count == len(result.with_merging)
        assert len(result.with_merging) == len(result.without_merging)
        assert len(result.popular_combination) == 3
        summary = reporting.format_figure5c_summary(result)
        assert "merging" in summary


class TestCLI:
    def test_fig5a_command(self, capsys, micro_scale, monkeypatch):
        monkeypatch.setitem(SCALES, "micro", micro_scale)
        exit_code = main(["fig5a", "--scale", "micro"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out

    def test_fig4_command_with_output(self, capsys, tmp_path, micro_scale, monkeypatch):
        monkeypatch.setitem(SCALES, "micro", micro_scale)
        output = tmp_path / "fig4.json"
        exit_code = main(
            [
                "fig4",
                "--scale",
                "micro",
                "--ids-dist",
                "heavy_hitter",
                "--datasets-queried",
                "1,3",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        assert output.exists()
        payload = json.loads(output.read_text())
        assert payload["ids_distribution"] == "heavy_hitter"

    def test_bench_command_writes_snapshot(self, capsys, tmp_path, micro_scale, monkeypatch):
        monkeypatch.setitem(SCALES, "micro", micro_scale)
        output = tmp_path / "BENCH_micro.json"
        exit_code = main(
            [
                "bench",
                "--scale",
                "micro",
                "--queries",
                "8",
                "--repeats",
                "1",
                "--json",
                str(output),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "perf snapshot" in out
        payload = json.loads(output.read_text())
        assert payload["kind"] == "repro-perf-snapshot"
        assert payload["scale"] == "micro"
        for phase in ("build", "first_touch", "steady_scalar", "steady_columnar", "steady_batch"):
            assert payload["phases"][phase]["wall_seconds"] >= 0
        assert payload["speedups"]["sequential_columnar_vs_scalar"] > 0
        assert payload["pages"]["raw"] > 0
        # The sweep records the pool it measured, not the shard request:
        # a pool never has more shards than pages (one when it has none).
        parallel = payload["phases"]["steady_parallel"]
        assert 1 <= parallel["buffer_shards"] <= max(1, parallel["buffer_capacity_pages"])
        serve = payload["phases"]["steady_serve"]
        assert serve["completed"] == serve["queries"] > 0
        assert serve["failed"] == 0
        assert serve["sustained_qps"] > 0
        assert serve["latency_ms"]["p99_ms"] >= serve["latency_ms"]["p50_ms"] >= 0
        assert "serving (open loop)" in out

    def test_bench_command_no_serve_skips_phase(self, capsys, tmp_path, micro_scale, monkeypatch):
        monkeypatch.setitem(SCALES, "micro", micro_scale)
        output = tmp_path / "BENCH_micro.json"
        exit_code = main(
            ["bench", "--scale", "micro", "--queries", "8", "--repeats", "1",
             "--no-serve", "--json", str(output)]
        )
        assert exit_code == 0
        payload = json.loads(output.read_text())
        assert "steady_serve" not in payload["phases"]
        assert "serving (open loop)" not in capsys.readouterr().out

    def test_serve_bench_command_writes_snapshot(self, capsys, tmp_path, micro_scale, monkeypatch):
        monkeypatch.setitem(SCALES, "micro", micro_scale)
        output = tmp_path / "SERVE_micro.json"
        exit_code = main(
            [
                "serve-bench",
                "--scale",
                "micro",
                "--queries",
                "8",
                "--repeats",
                "2",
                "--rate",
                "400",
                "--clients",
                "2",
                "--json",
                str(output),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "serving (open loop)" in out
        payload = json.loads(output.read_text())
        assert payload["kind"] == "repro-serve-snapshot"
        assert payload["scale"] == "micro"
        serve = payload["serve"]
        assert serve["completed"] == serve["queries"] == 16
        assert serve["failed"] == 0
        assert serve["n_clients"] == 2
        assert serve["offered_qps"] == 400
        assert serve["batches"] >= 1
        assert (
            serve["size_flushes"] + serve["deadline_flushes"] + serve["drain_flushes"]
            == serve["batches"]
        )

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            main(["figure9000"])

    def test_unknown_scale_fails(self):
        with pytest.raises(SystemExit):
            main(["fig5a", "--scale", "galactic"])
