"""Tests for the experiment harnesses (tiny scale) and shared utilities."""

import json

import numpy as np
import pytest

from repro.experiments import common
from repro.experiments.reporting import append_jsonl, format_table, save_json
from repro.runner.execution import run_experiment
from repro.utils.rng import make_rng, spawn_rngs

#: A deliberately tiny profile so harness tests finish in seconds.
TINY = common.ExperimentProfile(
    name="quick",  # reuse quick design lists
    num_trojans=12,
    trigger_width=3,
    training_steps=256,
    tgrl_training_steps=128,
    k_patterns=16,
    num_cliques=12,
    num_probability_patterns=512,
    num_envs=2,
    episode_length=12,
    seed=0,
)


@pytest.fixture(scope="module")
def tiny_context():
    common.clear_context_cache()
    return common.prepare_benchmark("c6288_like", TINY, threshold=0.15)


class TestUtils:
    def test_make_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_make_rng_from_seed_reproducible(self):
        assert make_rng(3).integers(1000) == make_rng(3).integers(1000)

    def test_spawn_rngs_independent(self):
        first, second = spawn_rngs(0, 2)
        assert first.integers(10**6) != second.integers(10**6) or True  # streams differ
        assert len(spawn_rngs(1, 5)) == 5

    def test_spawn_rngs_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestReporting:
    def test_format_table_aligns_columns(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", None]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.50" in text
        assert "—" in text

    def test_format_table_pads_ragged_rows(self):
        # Regression: rows shorter than the header list used to raise
        # IndexError; they must render with em-dash padding instead.
        text = format_table(["a", "b", "c"], [[1], [1, 2], [1, 2, 3]])
        lines = text.splitlines()
        assert len(lines) == 5
        assert lines[2].split() == ["1", "—", "—"]
        assert lines[3].split() == ["1", "2", "—"]
        assert lines[4].split() == ["1", "2", "3"]

    def test_format_table_rejects_overlong_rows(self):
        with pytest.raises(ValueError, match="row 1 has 3 cells"):
            format_table(["a", "b"], [[1, 2], [1, 2, 3]])

    def test_format_table_empty_rows(self):
        text = format_table(["only", "headers"], [])
        assert len(text.splitlines()) == 2

    def test_save_json_creates_directories(self, tmp_path):
        path = save_json({"x": 1}, tmp_path / "nested" / "out.json")
        assert path.exists()
        assert "\"x\": 1" in path.read_text()

    def test_append_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "stream" / "cells.jsonl"
        append_jsonl({"cell": "a", "value": 1}, path)
        append_jsonl({"cell": "b", "value": 2}, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["cell"] for record in records] == ["a", "b"]


class TestCommon:
    def test_profiles_lookup(self):
        assert common.profile_by_name("tiny") is common.TINY
        assert common.profile_by_name("quick") is common.QUICK
        assert common.profile_by_name("full") is common.FULL
        with pytest.raises(KeyError):
            common.profile_by_name("gigantic")

    def test_prepare_benchmark_caches(self):
        common.clear_context_cache()
        first = common.prepare_benchmark("c6288_like", TINY, threshold=0.15)
        second = common.prepare_benchmark("c6288_like", TINY, threshold=0.15)
        assert first is second

    def test_context_contains_valid_trojans(self, tiny_context):
        assert tiny_context.num_rare_nets > 0
        assert tiny_context.trojans
        for trojan in tiny_context.trojans:
            assert trojan.width == TINY.trigger_width

    def test_paper_table2_reference_complete(self):
        assert set(common.PAPER_TABLE2) == {
            "c2670", "c5315", "c6288", "c7552", "s13207", "s15850", "s35932", "MIPS",
        }
        for values in common.PAPER_TABLE2.values():
            assert "DETERRENT" in values


class TestHarnesses:
    def test_table2_single_design(self, tiny_context):
        from repro.experiments import table2

        cell = table2.run_cell(
            {"design": "c6288_like", "techniques": ("Random", "ATPG", "DETERRENT")}, TINY
        )
        [row] = table2.collect([cell])
        assert set(row.outcomes) == {"Random", "ATPG", "DETERRENT"}
        deterrent = row.outcomes["DETERRENT"]
        assert deterrent.test_length > 0
        assert 0.0 <= deterrent.coverage_percent <= 100.0
        report = table2.report([row])
        assert "DETERRENT" in report

    def test_table2_reduction_metric(self, tiny_context):
        from repro.experiments import table2

        row = table2.Table2Row(design="d", paper_design="c6288", num_rare_nets=1, num_gates=1)
        row.outcomes = {
            "DETERRENT": table2.TechniqueOutcome("DETERRENT", 10, 90.0),
            "TARMAC": table2.TechniqueOutcome("TARMAC", 100, 80.0),
            "TGRL": table2.TechniqueOutcome("TGRL", 300, 85.0),
        }
        assert table2.reduction_vs_baselines([row]) == pytest.approx(20.0)

    def test_table1_reward_mode_comparison(self):
        from repro.experiments import table1

        results = run_experiment(
            "table1", profile=TINY, options={"design": "c6288_like"}
        ).collected
        assert set(results) == {"per_step", "end_of_episode"}
        for outcome in results.values():
            assert outcome.max_compatible >= 1
            assert outcome.steps_per_minute > 0
        assert "Improvement" in table1.report(results)

    def test_figure3_exploration_comparison(self):
        from repro.experiments import figure3

        results = run_experiment(
            "figure3", profile=TINY, options={"design": "c6288_like"}
        ).collected
        assert set(results) == {"default", "boosted"}
        assert results["boosted"].loss_history
        assert "boosted" in figure3.report(results)

    def test_figure6_curves(self, tiny_context):
        curves = run_experiment(
            "figure6", profile=TINY, options={"designs": ("c6288_like",)}
        ).collected
        assert len(curves) == 1
        result = curves[0]
        assert result.deterrent_curve
        coverages = [c for _, c in result.deterrent_curve]
        assert coverages == sorted(coverages)
        assert result.deterrent_curve[0][0] == 1

    def test_figure7_threshold_sweep(self):
        points = run_experiment(
            "figure7", profile=TINY,
            options={"design": "c6288_like", "thresholds": (0.12, 0.15)},
        ).collected
        assert len(points) == 2
        assert points[0].num_rare_nets <= points[1].num_rare_nets

    def test_pipeline_report_total_is_the_sum_of_phase_timings(self):
        from repro.experiments import pipeline_run

        summary = pipeline_run.PipelineSummary(
            design="c6288_like", num_rare_nets=4, max_compatible_set_size=3,
            test_length=2, coverage_percent=50.0,
            timings={
                "compile": 0.25, "rare_net_extraction": 0.5, "compatibility": 0.75,
                "training": 1.5, "pattern_generation": 1.0,
            },
        )
        header, _, row = pipeline_run.report([summary]).splitlines()
        assert header.split()[-2:] == ["Total", "(s)"]
        assert row.split()[-1] == "4.00"

    def test_pipeline_timings_include_the_preparation(self, monkeypatch):
        from repro.experiments import common

        monkeypatch.setattr(common, "_CONTEXT_CACHE", {})  # no in-process memo
        cell = run_experiment("pipeline", profile=TINY).record()["cells"][0]
        timings = cell["result"]["timings"]
        assert list(timings)[0] == "preparation" and timings["preparation"] > 0
        # Each value is rounded to the millisecond, as the elapsed time is.
        assert sum(timings.values()) <= cell["elapsed_seconds"] + 0.0005 * (len(timings) + 1)

    def test_transfer_experiment(self):
        from repro.experiments import transfer

        result = run_experiment(
            "transfer", profile=TINY,
            options={"design": "c6288_like", "train_threshold": 0.15, "eval_threshold": 0.12},
        ).collected
        assert result.train_rare_nets >= result.eval_rare_nets
        assert 0.0 <= result.coverage_percent <= 100.0
        assert "coverage" in transfer.report(result)
