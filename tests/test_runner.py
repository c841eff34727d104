"""Tests for the experiment registry, runner, sharding helpers, and CLI."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits.library import load_benchmark
from repro.cli import main as cli_main
from repro.core.compatibility import is_activatable, pair_is_compatible
from repro.experiments import common
from repro.runner.execution import ExperimentRunner, run_experiment
from repro.runner.parallel import make_shards, resolve_jobs, sharded_map
from repro.sat.justify import Justifier
from repro.runner.registry import (
    ExperimentSpec,
    GridCell,
    all_experiments,
    get_experiment,
    register,
)

#: Deliberately tiny profile so the runner tests finish in seconds.
TINY = common.TINY


@pytest.fixture(autouse=True)
def _reset_default_cache():
    """Keep the process-wide default cache from leaking between tests."""
    from repro.runner.cache import set_default_cache

    yield
    set_default_cache(None)


class TestRegistry:
    def test_all_twelve_harnesses_registered(self):
        names = {spec.name for spec in all_experiments()}
        assert names == {
            "figure2", "figure3", "figure5", "figure6", "figure7",
            "table1", "table2", "transfer", "ablations", "pipeline",
            "sequential", "sequential_detect",
        }

    def test_every_module_implements_the_protocol(self):
        for spec in all_experiments():
            module = spec.resolve()
            for hook in ("cells", "run_cell", "collect", "report"):
                assert callable(getattr(module, hook)), (spec.name, hook)

    def test_every_experiment_produces_cells(self):
        for spec in all_experiments():
            cells = spec.build_cells(TINY, {})
            assert cells, spec.name
            for cell in cells:
                assert isinstance(cell, GridCell)
                assert cell.name

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("figure42")

    def test_scalar_options_are_not_iterated_characterwise(self):
        # CLI --set values arrive as scalars; a bare design string must become
        # a one-element grid, not one cell per character.
        cells = get_experiment("figure6").build_cells(TINY, {"designs": "c2670_like"})
        assert [cell.params["design"] for cell in cells] == ["c2670_like", "c2670_like"]
        cells = get_experiment("table2").build_cells(TINY, {"designs": "c2670_like"})
        assert {cell.params["design"] for cell in cells} == {"c2670_like"}
        cells = get_experiment("figure5").build_cells(TINY, {"widths": 4})
        assert cells[0].params["widths"] == (4,)
        cells = get_experiment("pipeline").build_cells(TINY, {"designs": "c6288_like"})
        assert [cell.name for cell in cells] == ["c6288_like"]

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown option.*design.*supported.*designs"):
            run_experiment("table2", profile=TINY, options={"design": "c2670_like"})

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(ExperimentSpec(name="figure2", module="x", title="dup"))

    def test_missing_protocol_hook_detected(self):
        spec = ExperimentSpec(name="bogus", module="repro.experiments.reporting",
                              title="not a harness")
        with pytest.raises(TypeError, match="does not define"):
            spec.resolve()


def _pairs(count):
    return [(i, j) for i in range(count) for j in range(i + 1, count)]


class TestShards:
    def test_shards_cover_every_pair_exactly_once(self):
        shards = make_shards(_pairs(10), 4)
        seen = [pair for shard in shards for _, pair in shard.items]
        assert sorted(seen) == _pairs(10)

    def test_shard_seeds_deterministic(self):
        first = make_shards(_pairs(8), 3, base_seed=5)
        second = make_shards(_pairs(8), 3, base_seed=5)
        assert first == second
        assert len({shard.seed for shard in first}) == len(first)

    def test_single_shard(self):
        (shard,) = make_shards(_pairs(4), 1)
        assert len(shard.items) == 6

    def test_empty_and_invalid(self):
        assert make_shards([], 4) == []
        with pytest.raises(ValueError):
            make_shards(_pairs(4), 0)

    @given(
        count=st.integers(min_value=0, max_value=30),
        n_shards=st.integers(min_value=1, max_value=12),
        base_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_shards_partition_items_under_the_seed_contract(
        self, count, n_shards, base_seed
    ):
        items = [f"item{position}" for position in range(count)]
        shards = make_shards(items, n_shards, base_seed=base_seed)
        dealt = sorted(pair for shard in shards for pair in shard.items)
        assert dealt == list(enumerate(items))
        for shard in shards:
            assert shard.items
            assert shard.seed == base_seed + 7919 * shard.index
            assert all(position % n_shards == shard.index for position, _ in shard.items)


@pytest.fixture(scope="module")
def c17_requirements():
    netlist = load_benchmark("c17")
    nets = [gate.output for gate in netlist.topological_gates()]
    return netlist, [(net, value) for net in nets for value in (0, 1)]


class TestShardedMap:
    """Every backend and job count gives the inline answer on exact stages."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        count=st.integers(min_value=0, max_value=30),
        n_jobs=st.integers(min_value=1, max_value=5),
        backend=st.sampled_from(["serial", "thread"]),
    )
    def test_sharded_verdicts_equal_inline(self, c17_requirements, count, n_jobs, backend):
        netlist, requirements = c17_requirements
        singles = [requirements[k % len(requirements)] for k in range(count)]
        pairs = [
            (requirements[k % len(requirements)], requirements[(3 * k + 1) % len(requirements)])
            for k in range(count)
        ]
        for fn, items in ((is_activatable, singles), (pair_is_compatible, pairs)):
            inline = sharded_map(netlist, Justifier, fn, items, 1, label="inline")
            sharded = sharded_map(
                netlist, Justifier, fn, items, n_jobs, backend=backend, label="sharded"
            )
            assert sharded == inline

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-2) >= 1


class TestRunner:
    def test_serial_run_collects_and_reports(self, tmp_path):
        run = run_experiment(
            "transfer", profile=TINY, jobs=1, results_dir=tmp_path,
            options={"design": "c6288_like"},
        )
        assert run.experiment == "transfer"
        assert run.profile == "tiny"
        assert len(run.outcomes) == 1
        assert run.collected.design == "c6288_like"
        assert "coverage" in run.report_text

        # Structured artifacts: one JSONL record per cell + final run record.
        stream = (tmp_path / "transfer-tiny.jsonl").read_text().splitlines()
        assert len(stream) == 1
        record = json.loads(stream[0])
        assert record["experiment"] == "transfer"
        assert record["result"]["coverage_percent"] >= 0.0

        final = json.loads((tmp_path / "transfer-tiny.json").read_text())
        assert final["report"] == run.report_text
        assert len(final["cells"]) == 1

    def test_parallel_run_matches_grid_order(self, tmp_path):
        # Forked workers inherit the in-memory context cache; clear it so the
        # disk-cache assertions below observe real worker activity.
        common.clear_context_cache()
        runner = ExperimentRunner(jobs=2, cache_dir=tmp_path / "cache",
                                  results_dir=tmp_path / "results")
        run = runner.run("figure3", profile=TINY, options={"design": "c6288_like"})
        assert [outcome.name for outcome in run.outcomes] == ["default", "boosted"]
        assert set(run.collected) == {"default", "boosted"}
        assert run.jobs == 2
        assert run.cache_stats is not None
        assert run.cache_stats["stores"] + run.cache_stats["hits"] > 0

    def test_profile_resolution_by_name(self):
        with pytest.raises(KeyError, match="unknown profile"):
            run_experiment("transfer", profile="huge")

    def test_sequential_cells_are_cache_and_shard_stable(self, tmp_path):
        """The sequential harness: jobs=1 == jobs=2, second run fully cached."""
        options = {"designs": "s13207_like", "cycles": 3, "counts": 2}
        common.clear_context_cache()
        serial = ExperimentRunner(jobs=1, cache_dir=tmp_path / "cache").run(
            "sequential", profile=TINY, options=options
        )
        assert [outcome.name for outcome in serial.outcomes] == [
            "s13207_like-c3-consecutive-k2",
            "s13207_like-c3-cumulative-k2",
        ]
        assert serial.cache_stats is not None
        assert serial.cache_stats["stores"] > 0

        # A rerun on the same cache computes nothing.
        rerun = ExperimentRunner(jobs=1, cache_dir=tmp_path / "cache").run(
            "sequential", profile=TINY, options=options
        )
        assert rerun.cache_stats["misses"] == 0
        assert rerun.cache_stats["stores"] == 0

        # Worker processes produce bit-identical cell results in grid order.
        sharded = ExperimentRunner(jobs=2, cache_dir=tmp_path / "cache").run(
            "sequential", profile=TINY, options=options
        )
        assert [outcome.name for outcome in sharded.outcomes] == [
            outcome.name for outcome in serial.outcomes
        ]
        assert [outcome.result for outcome in sharded.outcomes] == [
            outcome.result for outcome in serial.outcomes
        ]

    def test_sequential_trojans_drawn_once_per_design_and_depth(self, tmp_path):
        """One cached population per (design, cycles), relabelled per rule."""
        from repro.experiments.sequential import _rare_nets, _trojans
        from repro.runner.cache import ArtifactCache, set_default_cache
        from repro.trojan.insertion import sample_sequential_trojans

        run = ExperimentRunner(jobs=1, cache_dir=tmp_path / "cache").run(
            "sequential_detect", profile=TINY
        )
        assert len(run.outcomes) == 8
        cache = ArtifactCache(tmp_path / "cache")
        assert len(cache.entries(["sequential_trojans"])) == 2

        set_default_cache(cache)
        netlist = load_benchmark("s13207_like", combinational_view=False)
        for outcome in run.outcomes:
            params = outcome.params
            rare_nets = _rare_nets(netlist, params["cycles"], TINY)
            cached = _trojans(netlist, rare_nets, params["mode"], params["count"], TINY)
            direct = sample_sequential_trojans(
                netlist,
                rare_nets,
                num_trojans=TINY.num_trojans,
                trigger_width=TINY.trigger_width,
                mode=params["mode"],
                count=params["count"],
                seed=TINY.seed + 1,
            )
            assert cached == direct

    def test_sequential_rejects_combinational_design(self):
        with pytest.raises(ValueError, match="combinational"):
            run_experiment(
                "sequential", profile=TINY, options={"designs": "c2670_like"}
            )

    def test_run_wrappers_return_native_types(self):
        results = __import__("repro.experiments.figure2", fromlist=["run"]).run(
            design="c6288_like", profile=TINY
        )
        assert len(results) == 4
        assert {(r.reward_mode, r.masking) for r in results} == {
            ("per_step", False), ("per_step", True),
            ("end_of_episode", False), ("end_of_episode", True),
        }


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure2", "table2", "pipeline"):
            assert name in out

    def test_run_and_report_roundtrip(self, tmp_path, capsys):
        code = cli_main([
            "run", "transfer", "--profile", "tiny", "--jobs", "1",
            "--results-dir", str(tmp_path),
            "--cache-dir", str(tmp_path / "cache"),
            "--set", "design=c6288_like",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "transfer [tiny] finished" in out
        assert "artifact cache:" in out

        assert cli_main(["report", "--results-dir", str(tmp_path)]) == 0
        assert "transfer" in capsys.readouterr().out

        assert cli_main(["report", "transfer", "--results-dir", str(tmp_path)]) == 0
        assert "coverage" in capsys.readouterr().out

    def test_cache_subcommand(self, tmp_path, capsys):
        from repro.runner.cache import ArtifactCache, set_default_cache

        # No cache configured anywhere -> usage hint, exit 1.
        set_default_cache(None)
        assert cli_main(["cache"]) == 1
        assert "no artifact cache configured" in capsys.readouterr().out

        # Configured but never written to -> informative no-op, exit 0.
        assert cli_main(["cache", "--cache-dir", str(tmp_path / "nope")]) == 0
        assert "does not exist yet" in capsys.readouterr().out

        cache = ArtifactCache(tmp_path / "cache")
        cache.store("rare_nets", [1, 2, 3], key="a")
        cache.store("sequential_trojans", [], key="b")
        assert cli_main(["cache", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "rare_nets" in out and "sequential_trojans" in out
        assert "deterrent cache prune" in out  # eviction is advertised

    def test_cache_prune_subcommand(self, tmp_path, capsys):
        from repro.runner.cache import ArtifactCache

        cache = ArtifactCache(tmp_path / "cache")
        for index in range(4):
            cache.store("rare_nets", list(range(64)), key=index)

        # Missing directory: clean no-op, exit 0 (never a traceback).
        assert cli_main(["cache", "prune", "--cache-dir", str(tmp_path / "nope")]) == 0
        assert "does not exist yet" in capsys.readouterr().out

        # Dry run removes nothing.
        assert cli_main([
            "cache", "prune", "--cache-dir", str(tmp_path / "cache"),
            "--max-size", "0", "--dry-run",
        ]) == 0
        assert "would remove 4 entries" in capsys.readouterr().out
        assert len(cache.entries()) == 4

        # Age-based eviction empties the kind, which stays reported as zero.
        assert cli_main([
            "cache", "prune", "--cache-dir", str(tmp_path / "cache"),
            "--max-age", "0",
        ]) == 0
        assert "removed 4 entries" in capsys.readouterr().out
        assert cache.entries() == []
        assert cli_main(["cache", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "rare_nets" in out and "0 entries" in out

        # No bounds: only stale debris is swept, entries are kept.
        import os
        import time

        cache.store("rare_nets", [1], key="keep")
        stale_tmp = tmp_path / "cache" / "rare_nets" / "stale.tmp"
        stale_tmp.write_bytes(b"x")
        ancient = time.time() - 48 * 3600
        os.utime(stale_tmp, (ancient, ancient))
        assert cli_main([
            "cache", "prune", "--cache-dir", str(tmp_path / "cache"), "--dry-run",
        ]) == 0
        out = capsys.readouterr().out
        assert "would remove 0 entries" in out and "would be swept" in out
        assert stale_tmp.exists()
        assert cli_main(["cache", "prune", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "removed 0 entries" in out and "debris" in out
        assert len(cache.entries()) == 1

        # --cache-dir before the subcommand must target the same cache (the
        # prune subparser merges, not clobbers, the parent option).
        assert cli_main([
            "cache", "--cache-dir", str(tmp_path / "cache"), "prune", "--max-age", "0",
        ]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert cache.entries() == []

    def test_report_without_runs(self, tmp_path, capsys):
        assert cli_main(["report", "--results-dir", str(tmp_path)]) == 1
        assert "no saved runs" in capsys.readouterr().out

    def test_bad_option_syntax(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["run", "transfer", "--set", "designc6288"])

    def test_unknown_backend_is_a_usage_error(self, capsys):
        # argparse choices: clean usage error, exit code 2, no traceback.
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["run", "transfer", "--backend", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "serial" in err and "process" in err and "thread" in err

    def test_thread_backend_smoke(self, tmp_path, capsys):
        code = cli_main([
            "run", "transfer", "--profile", "tiny",
            "--backend", "thread", "--jobs", "2",
            "--results-dir", str(tmp_path),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "execution: backend=thread, clean" in out
        record = json.loads((tmp_path / "transfer-tiny.json").read_text())
        assert record["backend"] == "thread"
        assert record["resilience"]["retries"] == 0

    def test_bad_policy_value_is_a_usage_error(self, capsys):
        assert cli_main(["run", "transfer", "--max-attempts", "0"]) == 2
        assert "max_attempts" in capsys.readouterr().err
        assert cli_main(["run", "transfer", "--cell-timeout", "-1"]) == 2
        assert "timeout" in capsys.readouterr().err
