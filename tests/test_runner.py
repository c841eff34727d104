"""Tests for the experiment registry, runner, and CLI."""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

from repro import obs
from repro.circuits.library import load_benchmark
from repro.cli import main as cli_main
from repro.experiments import common
from repro.obs.trace import build_tree, load_spans
from repro.runner.cache import CACHE_DIR_ENV, get_default_cache, set_default_cache
from repro.runner.execution import extend_sys_path, resolve_jobs, run_experiment
from repro.runner.resilience import ResilienceError, ResiliencePolicy
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


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    assert resolve_jobs(-2) >= 1


def test_extend_sys_path_appends_each_missing_path_once(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", ["first", "second"])
    extend_sys_path(["second", str(tmp_path), str(tmp_path), "third"])
    assert sys.path == ["first", "second", str(tmp_path), "third"]


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
        run = run_experiment(
            "figure3", profile=TINY, jobs=2, options={"design": "c6288_like"},
            cache_dir=tmp_path / "cache", results_dir=tmp_path / "results",
        )
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
        serial = run_experiment(
            "sequential", profile=TINY, jobs=1, options=options, cache_dir=tmp_path / "cache"
        )
        assert [outcome.name for outcome in serial.outcomes] == [
            "s13207_like-c3-consecutive-k2",
            "s13207_like-c3-cumulative-k2",
        ]
        assert serial.cache_stats is not None
        assert serial.cache_stats["stores"] > 0

        # A rerun on the same cache computes nothing.
        rerun = run_experiment(
            "sequential", profile=TINY, jobs=1, options=options, cache_dir=tmp_path / "cache"
        )
        assert rerun.cache_stats["misses"] == 0
        assert rerun.cache_stats["stores"] == 0

        # Worker processes produce bit-identical cell results in grid order.
        sharded = run_experiment(
            "sequential", profile=TINY, jobs=2, options=options, cache_dir=tmp_path / "cache"
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
        from repro.runner.cache import ArtifactCache
        from repro.trojan.insertion import sample_sequential_trojans

        run = run_experiment(
            "sequential_detect", profile=TINY, jobs=1, cache_dir=tmp_path / "cache"
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

    def test_collected_results_are_native_types(self):
        results = run_experiment(
            "figure2", profile=TINY, options={"design": "c6288_like"}
        ).collected
        assert len(results) == 4
        assert {(r.reward_mode, r.masking) for r in results} == {
            ("per_step", False), ("per_step", True),
            ("end_of_episode", False), ("end_of_episode", True),
        }


# A toy harness (this module is its ``module``): two cells that go through the
# default cache, and a ``fail`` option that makes them raise.
def cells(profile, options):
    return [GridCell(name=f"x={x}", params={"x": x, "fail": options.get("fail", False)})
            for x in (1, 2)]


def run_cell(params, profile):
    if params["fail"]:
        raise RuntimeError("toy cell failed")
    cache = get_default_cache()
    if cache is None:
        return params["x"] * 10
    return cache.fetch("toy", lambda: params["x"] * 10, x=params["x"])


def collect(results):
    return results


def report(collected):
    return f"toy: {collected}"


class TestCacheDirScope:
    """``run_experiment(cache_dir=...)`` uses that cache for the call only."""

    SPEC = ExperimentSpec(name="runner_toy", module=__name__, title="toy")

    @pytest.fixture(autouse=True)
    def _no_ambient_cache(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        set_default_cache(None)

    def test_default_cache_is_the_same_after_a_run(self, tmp_path):
        ambient = set_default_cache(tmp_path / "ambient")
        run = run_experiment(self.SPEC, profile=TINY, cache_dir=tmp_path / "run")
        assert run.collected == [10, 20]
        assert run.cache_stats["stores"] == 2  # the cells used the run's cache
        assert get_default_cache() is ambient
        assert ambient.stats.as_dict()["stores"] == 0

    def test_a_later_run_without_cache_dir_has_no_cache(self, tmp_path):
        run_experiment(self.SPEC, profile=TINY, cache_dir=tmp_path / "run")
        later = run_experiment(self.SPEC, profile=TINY)
        assert later.collected == [10, 20]
        assert later.cache_stats is None

    def test_default_cache_is_restored_when_a_cell_raises(self, tmp_path):
        with pytest.raises(ResilienceError):
            run_experiment(
                self.SPEC, profile=TINY, options={"fail": True},
                cache_dir=tmp_path / "run", resilience=ResiliencePolicy(max_attempts=1),
            )
        assert get_default_cache() is None


class TestPolicyPassThrough:
    """The policy given to ``run_experiment`` (or via the CLI) is the one
    ``run_tasks`` runs the cells under."""

    SPEC = ExperimentSpec(name="runner_toy", module=__name__, title="toy")

    @pytest.fixture()
    def policies(self, monkeypatch):
        from repro.runner import execution

        seen = []
        real_run_tasks = execution.run_tasks

        def recording_run_tasks(*args, **kwargs):
            seen.append(kwargs["policy"])
            return real_run_tasks(*args, **kwargs)

        monkeypatch.setattr(execution, "run_tasks", recording_run_tasks)
        return seen

    @pytest.mark.parametrize("policy", [None, ResiliencePolicy(max_attempts=1, timeout=5.0)])
    def test_run_experiment_hands_its_policy_to_run_tasks(self, policies, policy):
        run = run_experiment(self.SPEC, profile=TINY, resilience=policy)
        assert run.collected == [10, 20]
        assert policies == [policy]

    def test_cli_flags_become_the_run_policy(self, tmp_path, capsys, monkeypatch, policies):
        from repro.runner import execution

        real_run_experiment = execution.run_experiment
        monkeypatch.setattr(
            execution, "run_experiment",
            lambda experiment, **kwargs: real_run_experiment(self.SPEC, **kwargs),
        )
        base = ["run", "runner_toy", "--profile", "tiny", "--results-dir", str(tmp_path)]
        assert cli_main(base) == 0
        assert cli_main([*base, "--cell-timeout", "7.5"]) == 0
        assert cli_main([*base, "--max-attempts", "2"]) == 0
        assert "toy: [10, 20]" in capsys.readouterr().out
        assert policies == [
            None,
            ResiliencePolicy(timeout=7.5),
            ResiliencePolicy(max_attempts=2),
        ]


class TestTraceDirScope:
    """``run_experiment(trace_dir=...)`` traces for the call only."""

    SPEC = TestCacheDirScope.SPEC

    @pytest.fixture(autouse=True)
    def _untraced(self, monkeypatch):
        monkeypatch.delenv(obs.ENV_TRACE_DIR, raising=False)
        obs.disable()
        yield
        obs.disable()

    @staticmethod
    def state():
        return obs.enabled(), obs.trace_dir(), os.environ.get(obs.ENV_TRACE_DIR)

    def test_telemetry_state_is_the_same_after_a_run(self, tmp_path):
        before = self.state()
        run = run_experiment(self.SPEC, profile=TINY, trace_dir=tmp_path / "trace")
        assert self.state() == before == (False, None, None)
        assert run.telemetry["trace_dir"] == str(tmp_path / "trace")
        # An ambient trace directory comes back as it was, too.
        obs.configure(tmp_path / "ambient")
        ambient = self.state()
        run_experiment(self.SPEC, profile=TINY, trace_dir=tmp_path / "trace")
        assert self.state() == ambient

    def test_spans_opened_before_the_run_stay_in_the_ambient_directory(self, tmp_path):
        obs.configure(tmp_path / "ambient", export_env=False)
        with obs.trace.span("before"):
            pass
        run_experiment(self.SPEC, profile=TINY, trace_dir=tmp_path / "trace")
        obs.flush()
        ambient = {record["name"] for record in load_spans(tmp_path / "ambient")}
        traced = {record["name"] for record in load_spans(tmp_path / "trace")}
        assert ambient == {"before"}
        assert "before" not in traced and "run.runner_toy" in traced

    def test_a_later_run_without_trace_dir_has_no_telemetry(self, tmp_path):
        run_experiment(self.SPEC, profile=TINY, trace_dir=tmp_path / "trace")
        later = run_experiment(self.SPEC, profile=TINY)
        assert later.collected == [10, 20]
        assert later.telemetry is None

    def test_telemetry_state_is_restored_when_a_cell_raises(self, tmp_path):
        before = self.state()
        with pytest.raises(ResilienceError):
            run_experiment(
                self.SPEC, profile=TINY, options={"fail": True},
                trace_dir=tmp_path / "trace", resilience=ResiliencePolicy(max_attempts=1),
            )
        assert self.state() == before
        assert run_experiment(self.SPEC, profile=TINY).telemetry is None
        # The failed run's spans reached its own directory.
        names = {record["name"] for record in load_spans(tmp_path / "trace")}
        assert "run.runner_toy" in names

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_no_remote_parent_after_a_traced_run(self, tmp_path, backend):
        assert obs.current_context() is None
        run = run_experiment(
            self.SPEC, profile=TINY, jobs=1 if backend == "serial" else 2,
            backend=backend, trace_dir=tmp_path / "trace",
        )
        assert run.collected == [10, 20]
        assert obs.current_context() is None


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure2", "table2", "pipeline"):
            assert name in out

    def test_traced_run_keeps_the_cli_trace_and_its_root_span(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv(obs.ENV_TRACE_DIR, raising=False)
        trace_dir = tmp_path / "trace"
        try:
            code = cli_main([
                "run", "transfer", "--profile", "tiny", "--jobs", "1",
                "--results-dir", str(tmp_path), "--cache-dir", str(tmp_path / "cache"),
                "--set", "design=c6288_like", "--trace", str(trace_dir),
            ])
            assert code == 0
            # ``--trace`` configured telemetry before the run, so it stays on.
            assert obs.trace_dir() == str(trace_dir)
        finally:
            obs.disable()
        assert "telemetry: " in capsys.readouterr().out
        roots, children = build_tree(load_spans(trace_dir))
        assert [root["name"] for root in roots] == ["cli.run"]
        assert [child["name"] for child in children[roots[0]["span_id"]]] == ["run.transfer"]
        assert cli_main(["trace", str(trace_dir), "--check"]) == 0

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

    @pytest.mark.parametrize("removed", ["queue", "thread"])
    def test_run_rejects_a_removed_backend(self, tmp_path, capsys, removed):
        with pytest.raises(SystemExit) as exit_info:
            cli_main([
                "run", "sequential", "--profile", "tiny", "--backend", removed,
                "--results-dir", str(tmp_path),
            ])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{removed}'" in err
        assert re.search(r"choose from '?process'?, '?serial'?\)", err)
        assert not any(tmp_path.iterdir())  # rejected before anything ran

    def test_queue_worker_rejects_the_removed_no_heartbeat_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["queue-worker", "--queue-dir", str(tmp_path), "--no-heartbeat"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-heartbeat" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_cache_subcommand(self, tmp_path, capsys):
        from repro.runner.cache import ArtifactCache

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
        assert "serial" in err and "process" in err

    def test_process_backend_smoke(self, tmp_path, capsys):
        code = cli_main([
            "run", "transfer", "--profile", "tiny",
            "--backend", "process", "--jobs", "2",
            "--results-dir", str(tmp_path),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "execution: backend=process, clean" in out
        record = json.loads((tmp_path / "transfer-tiny.json").read_text())
        assert record["backend"] == "process"
        assert record["resilience"]["retries"] == 0

    def test_bad_policy_value_is_a_usage_error(self, capsys):
        assert cli_main(["run", "transfer", "--max-attempts", "0"]) == 2
        assert "max_attempts" in capsys.readouterr().err
        assert cli_main(["run", "transfer", "--cell-timeout", "-1"]) == 2
        assert "timeout" in capsys.readouterr().err
