"""Tests for the baseline techniques (Random, ATPG proxy, MERO, TARMAC, TGRL)."""

import numpy as np
import pytest

from repro.baselines.atpg import atpg_pattern_set
from repro.baselines.mero import MeroConfig, mero_pattern_set
from repro.baselines.random_patterns import random_pattern_set
from repro.baselines.tarmac import TarmacConfig, sample_maximal_clique, tarmac_pattern_set
from repro.baselines.tgrl import TgrlConfig, TgrlEnv, tgrl_pattern_set
from repro.rl.ppo import PpoConfig
from repro.sat.justify import Justifier
from repro.simulation.logic_sim import BitParallelSimulator, simulate_pattern
from repro.trojan.evaluation import trigger_coverage
from repro.trojan.insertion import sample_trojans
from repro.utils.rng import make_rng


class TestRandomPatterns:
    def test_shape_and_technique(self, small_multiplier):
        pattern_set = random_pattern_set(small_multiplier, 17, seed=0)
        assert len(pattern_set) == 17
        assert pattern_set.technique == "Random"
        assert pattern_set.patterns.shape[1] == len(small_multiplier.combinational_sources())

    def test_deterministic_for_seed(self, small_multiplier):
        first = random_pattern_set(small_multiplier, 8, seed=5)
        second = random_pattern_set(small_multiplier, 8, seed=5)
        assert np.array_equal(first.patterns, second.patterns)

    def test_negative_count_rejected(self, small_multiplier):
        with pytest.raises(ValueError):
            random_pattern_set(small_multiplier, -1)


class TestAtpgProxy:
    def test_every_rare_net_individually_activated(self, small_multiplier, multiplier_compatibility):
        rare = multiplier_compatibility.rare_nets
        pattern_set = atpg_pattern_set(small_multiplier, rare, compact=False)
        simulator = BitParallelSimulator(small_multiplier)
        values = simulator.run_patterns(pattern_set.patterns)
        for item in rare:
            activated = (values[item.net] == item.rare_value).any()
            assert activated, f"rare net {item.net} never activated"

    def test_compaction_reduces_or_preserves_length(self, small_multiplier, multiplier_compatibility):
        rare = multiplier_compatibility.rare_nets
        full = atpg_pattern_set(small_multiplier, rare, compact=False)
        compact = atpg_pattern_set(small_multiplier, rare, compact=True)
        assert len(compact) <= len(full)
        assert len(compact) >= 1

    def test_patterns_do_not_depend_on_earlier_solver_queries(
        self, small_multiplier, multiplier_compatibility
    ):
        """Each call builds its own solver: a shared one's learned clauses
        once changed the witnesses, so a warm cache gave another ATPG row."""
        rare = multiplier_compatibility.rare_nets
        first = atpg_pattern_set(small_multiplier, rare)
        other = Justifier(small_multiplier)
        for item in rare[::-1]:
            other.witness({item.net: item.rare_value})
        second = atpg_pattern_set(small_multiplier, rare)
        assert np.array_equal(first.patterns, second.patterns)


class TestMero:
    def test_returns_patterns_that_hit_rare_nets(self, small_multiplier, multiplier_compatibility):
        rare = multiplier_compatibility.rare_nets
        pattern_set = mero_pattern_set(
            small_multiplier, rare,
            MeroConfig(num_random_patterns=64, n_detect=2, seed=0),
        )
        assert pattern_set.technique == "MERO"
        assert len(pattern_set) >= 1
        simulator = BitParallelSimulator(small_multiplier)
        values = simulator.run_patterns(pattern_set.patterns)
        activated = sum(
            (values[item.net] == item.rare_value).any() for item in rare
        )
        assert activated > 0

    def test_empty_rare_net_list(self, small_multiplier):
        assert len(mero_pattern_set(small_multiplier, [])) == 0


class TestTarmac:
    def test_sampled_clique_is_pairwise_compatible(self, multiplier_compatibility):
        rng = make_rng(0)
        clique = sample_maximal_clique(multiplier_compatibility, rng)
        members = sorted(clique)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                assert multiplier_compatibility.compatible(a, b)

    def test_clique_is_maximal(self, multiplier_compatibility):
        rng = make_rng(1)
        clique = sample_maximal_clique(multiplier_compatibility, rng)
        for candidate in range(multiplier_compatibility.num_rare_nets):
            if candidate in clique:
                continue
            assert not multiplier_compatibility.compatible_with_all(candidate, clique)

    def test_pattern_set_generated_per_distinct_clique(self, multiplier_compatibility):
        pattern_set = tarmac_pattern_set(multiplier_compatibility,
                                         TarmacConfig(num_cliques=20, seed=0))
        assert pattern_set.technique == "TARMAC"
        assert 1 <= len(pattern_set) <= 20
        assert pattern_set.metadata["num_distinct_cliques"] == len(pattern_set)

    def test_patterns_activate_their_cliques(self, small_multiplier, multiplier_compatibility):
        pattern_set = tarmac_pattern_set(multiplier_compatibility,
                                         TarmacConfig(num_cliques=5, seed=2))
        sizes = pattern_set.metadata["set_sizes"]
        assert all(size >= 1 for size in sizes)
        first = dict(zip(pattern_set.sources, pattern_set.patterns[0]))
        simulated = simulate_pattern(small_multiplier, first)
        activated = sum(
            simulated[item.net] == item.rare_value
            for item in multiplier_compatibility.rare_nets
        )
        assert activated >= sizes[0]


class TestTgrl:
    def _config(self):
        return TgrlConfig(
            total_training_steps=128, episode_length=8, num_envs=1, max_patterns=256,
            ppo=PpoConfig(num_steps=32, minibatch_size=32, hidden_sizes=(16,), num_epochs=1),
            seed=0,
        )

    def test_environment_flips_exactly_one_bit(self, small_multiplier, multiplier_compatibility):
        simulator = BitParallelSimulator(small_multiplier)
        weights = np.ones(len(multiplier_compatibility.rare_nets))
        env = TgrlEnv(simulator, multiplier_compatibility.rare_nets, weights, 8, seed=0)
        before = env.reset().copy()
        result = env.step(0)
        assert abs(result.observation - before).sum() == 1

    def test_reward_counts_weighted_rare_activations(self, small_multiplier, multiplier_compatibility):
        simulator = BitParallelSimulator(small_multiplier)
        rare = multiplier_compatibility.rare_nets
        weights = np.ones(len(rare))
        env = TgrlEnv(simulator, rare, weights, 8, seed=0)
        env.reset()
        result = env.step(1)
        assignment = dict(zip(simulator.sources, result.observation.astype(int)))
        simulated = simulate_pattern(small_multiplier, assignment)
        expected = sum(simulated[item.net] == item.rare_value for item in rare)
        assert result.reward == pytest.approx(expected)

    def test_pattern_set_collects_visited_patterns(self, small_multiplier, multiplier_compatibility):
        pattern_set = tgrl_pattern_set(
            small_multiplier, multiplier_compatibility.rare_nets, self._config()
        )
        assert pattern_set.technique == "TGRL"
        assert len(pattern_set) > 0
        assert len(pattern_set) <= 256

    def test_empty_rare_nets_gives_empty_set(self, small_multiplier):
        assert len(tgrl_pattern_set(small_multiplier, [], self._config())) == 0


class TestRelativeBehaviour:
    def test_targeted_techniques_beat_random_at_equal_budget(
        self, small_multiplier, multiplier_compatibility
    ):
        """The paper's qualitative claim: clique/set-based patterns beat random ones."""
        trojans = sample_trojans(
            small_multiplier, multiplier_compatibility.rare_nets,
            num_trojans=30, trigger_width=3, seed=11,
            justifier=multiplier_compatibility.justifier,
        )
        tarmac = tarmac_pattern_set(multiplier_compatibility, TarmacConfig(num_cliques=40, seed=0))
        random_set = random_pattern_set(small_multiplier, len(tarmac), seed=0)
        tarmac_cov = trigger_coverage(small_multiplier, trojans, tarmac).coverage
        random_cov = trigger_coverage(small_multiplier, trojans, random_set).coverage
        assert tarmac_cov >= random_cov
