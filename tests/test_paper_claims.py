"""The paper's result claims, and golden digests of every harness's run record.

Two kinds of check live here, and neither reads a clock:

- **Claims.** Each test regenerates one of the paper's tables or figures at
  the reduced ``BENCH`` scale below and asserts its qualitative result: a
  shorter test than TGRL at equal or better coverage (Table 2), fewer reward
  checks with end-of-episode rewards (Table 1), SAT-guided sequences beating
  random ones on multi-cycle Trojans, and so on.  ``BENCH`` is deliberately
  larger than ``--profile tiny``: at tiny, Table 2's ``s13207_like`` ATPG row
  beats DETERRENT.
- **Digests.** Every registered harness runs once at ``--profile tiny`` on a
  fresh artifact cache and once more on the now-warm cache.  A SHA-256 of each
  run record, without its timing fields, is pinned below, and both runs must
  give the same digests.  A change that should not move any result (a
  refactor, a deletion, a speed-up) must leave all twelve unchanged.

Timings and rates are measured by ``perfbench/``, not here.  Run
``deterrent run <name> --profile full`` for results closer to paper scale.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.circuits.library import load_benchmark
from repro.core.compatibility import compute_compatibility
from repro.core.patterns import SequenceSet
from repro.core.sequence_gen import generate_sequences
from repro.experiments import common, table2
from repro.experiments.common import ExperimentProfile
from repro.runner import cache as cache_module
from repro.runner.execution import run_experiment
from repro.runner.registry import all_experiments
from repro.sat.temporal import SequentialJustifier
from repro.simulation.rare_nets import extract_rare_nets
from repro.trojan.evaluation import sequence_trigger_coverage
from repro.trojan.insertion import sample_sequential_trojans

#: Scale of the claims: ``quick`` takes minutes, and at ``tiny`` Table 2's
#: ``s13207_like`` ATPG row beats DETERRENT.
BENCH = ExperimentProfile(
    name="quick",
    num_trojans=30,
    trigger_width=4,
    training_steps=1536,
    tgrl_training_steps=512,
    k_patterns=96,
    num_cliques=48,
    num_probability_patterns=1024,
    num_envs=2,
    episode_length=25,
    seed=0,
)


@pytest.fixture(scope="module", autouse=True)
def isolated_experiments():
    """Give this module its own benchmark contexts and no artifact cache.

    The compatibility solver a context holds keeps its learned clauses, so
    its witnesses depend on every query it answered before.  Contexts that
    other test modules built (or an ambient ``DETERRENT_CACHE_DIR``) must not
    reach these results.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(common, "_CONTEXT_CACHE", {})
        patch.setattr(cache_module, "_default_cache", None)
        patch.setattr(cache_module, "_default_resolved", True)
        yield


# ----------------------------------------------------------------------
# The paper's claims, at BENCH scale
# ----------------------------------------------------------------------
def test_table1_end_of_episode_rewards_do_less_work():
    results = run_experiment("table1", profile=BENCH, options={"design": "mips16_like"}).collected
    per_step = results["per_step"]
    end_of_episode = results["end_of_episode"]
    # End-of-episode rewards train faster while the per-step agent finds
    # at-least-as-large compatible sets.  "Faster" is asserted on the work it
    # stands for, compatibility checks of the reward, not on the wall clock.
    assert end_of_episode.reward_checks < per_step.reward_checks
    assert per_step.max_compatible >= 1
    assert end_of_episode.max_compatible >= 1


@pytest.fixture(scope="module")
def table2_rows():
    rows = run_experiment(
        "table2", profile=BENCH, options={"designs": table2.QUICK_DESIGNS}
    ).collected
    assert [row.design for row in rows] == list(table2.QUICK_DESIGNS)
    return {row.design: row for row in rows}


@pytest.mark.parametrize("design", table2.QUICK_DESIGNS)
def test_table2_deterrent_matches_coverage_with_a_shorter_test(table2_rows, design):
    row = table2_rows[design]
    deterrent = row.outcomes["DETERRENT"]
    # DETERRENT matches or beats the baselines' coverage with far fewer
    # patterns than Random/TGRL, and conventional ATPG lags badly.
    assert deterrent.coverage_percent >= row.outcomes["Random"].coverage_percent
    assert deterrent.coverage_percent >= row.outcomes["ATPG"].coverage_percent
    assert deterrent.test_length < row.outcomes["TGRL"].test_length


def test_table2_deterrent_needs_fewer_patterns_than_tarmac_and_tgrl(table2_rows):
    # The paper's headline: 169x fewer patterns than TARMAC/TGRL.
    assert table2.reduction_vs_baselines(list(table2_rows.values())) > 1.0


def test_figure2_masking_never_shrinks_compatible_sets():
    # Figure 2's other claim, that end-of-episode agents train faster, is
    # Table 1's reward_checks claim above.
    results = run_experiment("figure2", profile=BENCH, options={"design": "mips16_like"}).collected
    by_combo = {(result.reward_mode, result.masking): result for result in results}
    assert (
        by_combo[("per_step", True)].max_compatible
        >= by_combo[("per_step", False)].max_compatible
    )


def test_figure3_boosted_exploration_keeps_set_diversity():
    results = run_experiment("figure3", profile=BENCH, options={"design": "c2670_like"}).collected
    default = results["default"]
    boosted = results["boosted"]
    assert default.loss_history and boosted.loss_history
    # The boosted-exploration loss does not collapse to zero, and exploration
    # yields at least as much set diversity.
    assert boosted.mean_late_loss >= 0.0
    assert boosted.num_distinct_sets >= default.num_distinct_sets * 0.5


def test_figure5_deterrent_holds_coverage_on_wide_triggers():
    points = run_experiment(
        "figure5", profile=BENCH, options={"design": "c6288_like", "widths": (2, 4, 6, 8)}
    ).collected
    assert points
    # TGRL's per-pattern chance of hitting every trigger net collapses as the
    # trigger widens; DETERRENT's coverage stays at or above it.
    widest = points[-1]
    assert widest.deterrent_coverage >= widest.tgrl_coverage


def test_figure6_deterrent_reaches_final_coverage_with_fewer_patterns():
    curves = run_experiment(
        "figure6", profile=BENCH, options={"designs": ("c2670_like", "c6288_like")}
    ).collected
    for result in curves:
        assert result.deterrent_curve
        deterrent_final = result.deterrent_curve[-1]
        tgrl_final = result.tgrl_curve[-1] if result.tgrl_curve else (0, 0.0)
        assert deterrent_final[0] <= tgrl_final[0] or tgrl_final[0] == 0


def test_figure7_coverage_survives_a_larger_rareness_threshold():
    points = run_experiment(
        "figure7", profile=BENCH,
        options={"design": "c6288_like", "thresholds": (0.10, 0.12, 0.14)},
    ).collected
    assert len(points) >= 2
    # The rare-net population grows with the threshold while coverage stays
    # broadly steady (the paper reports a <=2% drop; at reduced scale a wider
    # band is allowed, but no collapse).
    assert points[-1].num_rare_nets >= points[0].num_rare_nets
    assert points[-1].coverage_percent >= points[0].coverage_percent - 25.0


def test_transfer_agent_covers_the_smaller_population():
    result = run_experiment(
        "transfer", profile=BENCH,
        options={"design": "c6288_like", "train_threshold": 0.14, "eval_threshold": 0.10},
    ).collected
    # An agent trained on the larger rare-net population still covers Trojans
    # drawn from the smaller one (99% in the paper).
    assert result.train_rare_nets >= result.eval_rare_nets
    assert result.coverage_percent > 0.0


def test_ablations_coverage_grows_with_k():
    points = run_experiment("ablations", profile=BENCH, options={"design": "c6288_like"}).collected
    assert len(points) >= 5
    labels = {point.label for point in points}
    assert "reward |s|^2 (paper)" in labels
    # A larger k never reduces coverage (more sets can only add detections).
    k_points = sorted(
        (point for point in points if point.label.startswith("k = ")),
        key=lambda point: int(point.label.split("=")[1]),
    )
    coverages = [point.coverage_percent for point in k_points]
    assert coverages == sorted(coverages)


def test_compatibility_is_independent_of_rare_net_order():
    netlist = load_benchmark("mips16_like")
    # The 72 rarest nets keep the quadratic pair count small.
    rare_nets = extract_rare_nets(netlist, threshold=0.1, num_patterns=1024, seed=0)[:72]
    assert len(rare_nets) >= 2
    forward = compute_compatibility(netlist, rare_nets, cache=None)
    backward = compute_compatibility(netlist, rare_nets[::-1], cache=None)
    assert backward.rare_nets == forward.rare_nets[::-1]
    assert np.array_equal(backward.matrix, forward.matrix[::-1, ::-1])


class TestTemporalTriggers:
    """SAT-guided sequences against random ones on count-k Trojans."""

    CYCLES = 4
    MODE = "cumulative"
    COUNT = 2
    BUDGET = 16

    @pytest.fixture(scope="class")
    def workload(self):
        netlist = load_benchmark("s13207_like", combinational_view=False)
        rare_nets = extract_rare_nets(
            netlist, threshold=0.1, num_patterns=1024, seed=0, cycles=self.CYCLES
        )
        trojans = sample_sequential_trojans(
            netlist, rare_nets, num_trojans=20, trigger_width=3,
            mode=self.MODE, count=self.COUNT, seed=1,
        )
        assert trojans
        return netlist, rare_nets, trojans

    def test_sat_guided_beats_random_at_equal_budget(self, workload):
        netlist, rare_nets, trojans = workload
        guided = generate_sequences(
            netlist, rare_nets, self.CYCLES, mode=self.MODE, count=self.COUNT,
            num_sequences=self.BUDGET, seed=3,
        )
        random_sequences = SequenceSet.random(
            netlist, num_sequences=self.BUDGET, cycles=self.CYCLES, seed=2
        )
        # Random coverage of count-k triggers is near zero by construction;
        # that gap is the temporal SAT subsystem's reason to exist.
        assert len(guided) <= self.BUDGET
        assert (
            sequence_trigger_coverage(netlist, trojans, guided).num_detected
            > sequence_trigger_coverage(netlist, trojans, random_sequences).num_detected
        )

    def test_justifier_searches_on_every_trigger(self, workload):
        netlist, _, trojans = workload
        justifier = SequentialJustifier(netlist, cycles=self.CYCLES)
        for trojan in trojans:
            justifier.is_satisfiable(trojan.trigger)
        stats = justifier.stats()
        assert stats.decisions > 0
        assert stats.propagations > 0


# ----------------------------------------------------------------------
# Golden digests of every harness's run record
# ----------------------------------------------------------------------
#: Run-record fields that hold timings or rates derived from them.
UNPINNED_FIELDS = frozenset(
    {"elapsed_seconds", "episodes_per_minute", "steps_per_minute", "timings"}
)

#: SHA-256 of each harness's ``--profile tiny`` run record (see record_digest).
GOLDEN_DIGESTS = {
    "ablations": "ef53ac2c1998ae7178dd1312d228f8a78754629e45dc0adf2d63b7f0efdfe24b",
    "figure2": "8a920ac9ba553f84e854428875d568deb67a56062309d72789cf9ff2277d301c",
    "figure3": "3e2fc87607be242a241256038a1f5098ed37e662eb9779f695dc6334eccea57e",
    "figure5": "e2a4789a78aa1eb23f1875e2fdd67af24205f6aa7bd5ddc370b896ae7eb6a89e",
    "figure6": "c5053f97907dc016a3fe9956e457d58938b5f686f369bd6b9c2ea5301aa0c149",
    "figure7": "aaf19d595eee1d4b3b73dc5eeeb4b6e83563e9b5514adb2f79ff8005872afef1",
    "pipeline": "14e63d1ac1b4a66e02a1f73efa025c7738d3e7949f2c9c6f0280f4ba2b0325da",
    "sequential": "f10ea7148c74fbc4dcbb940357644bbc4d1d49c1609415bbb54ee6146bc61b9f",
    "sequential_detect": "4045c1bdf82d4f348cb6a84365301ba848415ed4c6eeb64c77e50fcc8c3c0671",
    "table1": "a1e2f6d3ba291186a5aca3b0f969092f93d0ad02d9977a596d01fad3865aba56",
    "table2": "793cd5f8a99c0df978de23764368001be3bf15a2c95da65c390e839c701fdbae",
    "transfer": "64bf7824bdc2be0712d029b72bab955d8b18470c711c4dbe76f425cc7e1671cf",
}


def _pinned_values(value):
    if isinstance(value, dict):
        return {
            key: _pinned_values(item)
            for key, item in value.items()
            if key not in UNPINNED_FIELDS
        }
    if isinstance(value, list):
        return [_pinned_values(item) for item in value]
    if isinstance(value, float):
        # numpy's BLAS picks its kernels by CPU, and they differ in the last
        # bits of a float sum (figure3's loss history); 12 significant digits
        # are far above that noise.
        return float(f"{value:.12g}")
    return value


def record_digest(record: dict) -> str:
    """Digest of what a run computed: its identity, options and cell results.

    The rendered report and the envelope (cache counters, resilience
    counters, telemetry, backend, jobs, solver kernel) describe how the run
    went, not what it found, and are left out.  Floats are compared to 12
    significant digits.
    """
    pinned = {key: record[key] for key in ("experiment", "profile", "options", "cells")}
    text = json.dumps(_pinned_values(pinned), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def tiny_digests(tmp_path_factory):
    """Digests of a cold-cache and a warm-cache pass over every harness."""
    cache_dir = tmp_path_factory.mktemp("artifact-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(common, "_CONTEXT_CACHE", {})
        passes = [
            {
                spec.name: record_digest(
                    run_experiment(spec, profile="tiny", cache_dir=cache_dir).record()
                )
                for spec in all_experiments()
            }
            for _ in range(2)
        ]
    return passes


def test_every_harness_is_pinned():
    assert sorted(GOLDEN_DIGESTS) == sorted(spec.name for spec in all_experiments())


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_run_record_digest(tiny_digests, name):
    cold, _ = tiny_digests
    assert cold[name] == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_warm_cache_reproduces_digest(tiny_digests, name):
    cold, warm = tiny_digests
    assert warm[name] == cold[name]
