"""Tests for the DETERRENT core: config, compatibility, environment, agent,
pattern generation, and the end-to-end pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agent import DeterrentAgent
from repro.core.compatibility import compute_compatibility
from repro.core.config import QUICK_PROFILE, DeterrentConfig
from repro.core.environment import TriggerActivationEnv
from repro.core.patterns import PatternSet, generate_patterns
from repro.core.pipeline import DeterrentPipeline
from repro.simulation.logic_sim import simulate_pattern
from repro.simulation.rare_nets import extract_rare_nets


class TestConfig:
    def test_defaults_are_paper_defaults(self):
        config = DeterrentConfig()
        assert config.rareness_threshold == 0.1
        assert config.reward_power == 2.0
        assert config.masking is True

    def test_invalid_reward_mode_rejected(self):
        with pytest.raises(ValueError):
            DeterrentConfig(reward_mode="sometimes")

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            DeterrentConfig(rareness_threshold=0.9)

    def test_invalid_reward_power_rejected(self):
        with pytest.raises(ValueError):
            DeterrentConfig(reward_power=0.5)

    def test_boosted_exploration_changes_effective_ppo(self):
        config = DeterrentConfig(boosted_exploration=True)
        assert config.effective_ppo().entropy_coef == 1.0
        assert DeterrentConfig().effective_ppo().entropy_coef != 1.0

    def test_with_overrides_returns_copy(self):
        config = DeterrentConfig()
        other = config.with_overrides(k_patterns=3)
        assert other.k_patterns == 3
        assert config.k_patterns != 3

    def test_quick_profile_valid(self):
        assert QUICK_PROFILE.total_training_steps > 0


class TestCompatibility:
    def test_matrix_is_symmetric_with_true_diagonal(self, multiplier_compatibility):
        matrix = multiplier_compatibility.matrix
        assert np.array_equal(matrix, matrix.T)
        assert matrix.diagonal().all()

    def test_pairwise_entries_match_sat(self, multiplier_compatibility):
        analysis = multiplier_compatibility
        count = analysis.num_rare_nets
        rng = np.random.default_rng(0)
        for _ in range(10):
            i, j = rng.integers(count), rng.integers(count)
            expected = analysis.justifier.are_compatible(
                {analysis.rare_nets[i].net: analysis.rare_nets[i].rare_value},
                {analysis.rare_nets[j].net: analysis.rare_nets[j].rare_value},
            )
            assert analysis.compatible(i, j) == expected

    def test_compatible_with_all(self, multiplier_compatibility):
        analysis = multiplier_compatibility
        assert analysis.compatible_with_all(0, set())
        compatible = {j for j in range(analysis.num_rare_nets) if j and analysis.compatible(0, j)}
        if compatible:
            member = next(iter(compatible))
            assert analysis.compatible_with_all(member, {0})

    def test_index_of(self, multiplier_compatibility):
        name = multiplier_compatibility.rare_nets[0].net
        assert multiplier_compatibility.index_of(name) == 0
        with pytest.raises(KeyError):
            multiplier_compatibility.index_of("ghost")

    def test_requirements_mapping(self, multiplier_compatibility):
        requirements = multiplier_compatibility.requirements([0, 1])
        assert len(requirements) == 2

    def test_adjacency_consistent_with_matrix(self, multiplier_compatibility):
        adjacency = multiplier_compatibility.adjacency()
        for node, neighbours in adjacency.items():
            for neighbour in neighbours:
                assert multiplier_compatibility.compatible(node, neighbour)
                assert node != neighbour

    def test_unsatisfiable_rare_nets_are_dropped(self, small_multiplier):
        rare = extract_rare_nets(small_multiplier, threshold=0.2, num_patterns=1024, seed=0)
        analysis = compute_compatibility(small_multiplier, rare)
        for dropped in analysis.unsatisfiable:
            assert not analysis.justifier.is_satisfiable({dropped.net: dropped.rare_value})


class TestEnvironment:
    def make_env(self, compatibility, **kwargs):
        defaults = dict(episode_length=10, reward_mode="per_step", masking=True,
                        exact_set_reward=False, seed=0)
        defaults.update(kwargs)
        return TriggerActivationEnv(compatibility, **defaults)

    def test_observation_is_binary_membership_vector(self, multiplier_compatibility):
        env = self.make_env(multiplier_compatibility)
        observation = env.reset()
        assert observation.shape == (multiplier_compatibility.num_rare_nets,)
        assert observation.sum() == 1.0

    def test_invalid_action_rejected(self, multiplier_compatibility):
        env = self.make_env(multiplier_compatibility)
        with pytest.raises(ValueError):
            env.step(multiplier_compatibility.num_rare_nets + 5)

    def test_incompatible_action_leaves_state_unchanged(self, multiplier_compatibility):
        env = self.make_env(multiplier_compatibility, masking=False)
        observation = env.reset()
        start = int(observation.argmax())
        incompatible = [
            j for j in range(multiplier_compatibility.num_rare_nets)
            if not multiplier_compatibility.compatible(start, j)
        ]
        if not incompatible:
            pytest.skip("every pair is compatible in this circuit")
        result = env.step(incompatible[0])
        assert result.reward == 0.0
        assert np.array_equal(result.observation, observation)

    def test_compatible_action_grows_state_and_rewards_square(self, multiplier_compatibility):
        env = self.make_env(multiplier_compatibility, masking=True)
        observation = env.reset()
        mask = env.action_mask()
        action = int(mask.argmax())
        result = env.step(action)
        assert result.observation.sum() == observation.sum() + 1
        assert result.reward == pytest.approx(result.observation.sum() ** 2)

    def test_mask_excludes_selected_and_incompatible(self, multiplier_compatibility):
        env = self.make_env(multiplier_compatibility)
        observation = env.reset()
        start = int(observation.argmax())
        mask = env.action_mask()
        assert mask[start] == 0.0
        for action in range(multiplier_compatibility.num_rare_nets):
            if mask[action] == 1.0:
                assert multiplier_compatibility.compatible(start, action)

    def test_no_masking_allows_everything(self, multiplier_compatibility):
        env = self.make_env(multiplier_compatibility, masking=False)
        env.reset()
        assert env.action_mask().sum() == multiplier_compatibility.num_rare_nets

    def test_episode_ends_at_horizon(self, multiplier_compatibility):
        env = self.make_env(multiplier_compatibility, episode_length=3, masking=False)
        env.reset()
        done_flags = [env.step(0).done for _ in range(3)]
        assert done_flags[-1]

    def test_end_of_episode_reward_only_at_end(self, multiplier_compatibility):
        env = self.make_env(multiplier_compatibility, reward_mode="end_of_episode",
                            episode_length=4, masking=False)
        env.reset()
        rewards = []
        done = False
        while not done:
            mask = env.action_mask()
            result = env.step(int(mask.argmax()))
            rewards.append(result.reward)
            done = result.done
        assert all(reward == 0.0 for reward in rewards[:-1])
        assert rewards[-1] > 0.0

    def test_final_info_reports_selected_nets(self, multiplier_compatibility):
        env = self.make_env(multiplier_compatibility, episode_length=2, masking=False)
        env.reset()
        env.step(0)
        result = env.step(1)
        assert result.done
        assert result.info["size"] == len(result.info["selected_indices"])
        assert len(result.info["selected_nets"]) == result.info["size"]

    def test_exact_transition_keeps_sets_satisfiable(self, multiplier_compatibility):
        env = self.make_env(multiplier_compatibility, exact_set_reward=True,
                            episode_length=12)
        env.reset()
        done = False
        while not done:
            mask = env.action_mask()
            result = env.step(int(mask.argmax()))
            done = result.done
        selected = result.info["selected_indices"]
        assert multiplier_compatibility.set_is_satisfiable(selected)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=100))
    def test_masking_theorem(self, multiplier_compatibility, seed):
        """Theorem 3.1: any state reachable without masking is reachable with it.

        Run an unmasked episode; replay the accepted actions in a masked
        environment seeded identically and check the masked agent reaches a
        superset-or-equal state.
        """
        unmasked = self.make_env(multiplier_compatibility, masking=False, seed=seed,
                                 episode_length=8)
        masked = self.make_env(multiplier_compatibility, masking=True, seed=seed,
                               episode_length=8)
        unmasked.reset()
        masked.reset()
        rng = np.random.default_rng(seed)
        final_unmasked = None
        for _ in range(8):
            action = int(rng.integers(multiplier_compatibility.num_rare_nets))
            result = unmasked.step(action)
            final_unmasked = result.observation
            if masked.action_mask()[action] == 1.0:
                masked.step(action)
        unmasked_state = set(np.nonzero(final_unmasked)[0])
        masked_state = set(np.nonzero(masked._observation())[0])
        assert unmasked_state <= masked_state | unmasked_state  # masked loses nothing it was offered


class TestAgentAndPatterns:
    def test_agent_collects_distinct_sets(self, multiplier_compatibility, tiny_config):
        agent = DeterrentAgent(multiplier_compatibility, tiny_config)
        result = agent.train()
        assert result.summary.total_episodes > 0
        assert result.distinct_sets
        assert result.max_compatible_set_size >= 1
        assert len(result.largest_sets(3)) <= 3

    def test_largest_sets_sorted_by_size(self, multiplier_compatibility, tiny_config):
        agent = DeterrentAgent(multiplier_compatibility, tiny_config)
        result = agent.train()
        sizes = [len(s) for s in result.largest_sets(5)]
        assert sizes == sorted(sizes, reverse=True)

    def test_generate_patterns_respects_sets(self, multiplier_compatibility):
        sets = [frozenset({0}), frozenset({1})]
        pattern_set = generate_patterns(multiplier_compatibility, sets)
        assert len(pattern_set) == 2
        for row, indices in enumerate(sets):
            assignment = dict(zip(pattern_set.sources, pattern_set.patterns[row]))
            simulated = simulate_pattern(multiplier_compatibility.netlist, assignment)
            for index in indices:
                rare = multiplier_compatibility.rare_nets[index]
                assert simulated[rare.net] == rare.rare_value

    def test_pattern_set_container_operations(self, c17):
        empty = PatternSet.empty(c17, technique="x")
        assert len(empty) == 0
        combined = empty.concatenated(
            PatternSet.from_assignments(c17, [{net: 1 for net in c17.inputs}])
        )
        assert len(combined) == 1
        truncated = combined.truncated(0)
        assert len(truncated) == 0

    def test_pattern_set_width_checked(self, c17):
        with pytest.raises(ValueError):
            PatternSet(sources=c17.combinational_sources(),
                       patterns=np.zeros((1, 2), dtype=np.uint8))

    def test_concatenation_requires_same_sources(self, c17, small_multiplier):
        a = PatternSet.empty(c17)
        b = PatternSet.empty(small_multiplier)
        with pytest.raises(ValueError):
            a.concatenated(b)


class TestPipeline:
    def test_end_to_end_run(self, small_multiplier, tiny_config):
        pipeline = DeterrentPipeline(tiny_config.with_overrides(rareness_threshold=0.2))
        result = pipeline.run(small_multiplier)
        assert result.rare_nets
        assert result.test_length > 0
        assert result.max_compatible_set_size >= 1
        assert set(result.timings) == {
            "compile", "rare_net_extraction", "compatibility", "training",
            "pattern_generation",
        }

    def test_pipeline_patterns_activate_their_sets(self, small_multiplier, tiny_config):
        pipeline = DeterrentPipeline(tiny_config.with_overrides(rareness_threshold=0.2))
        result = pipeline.run(small_multiplier)
        sizes = result.pattern_set.metadata["set_sizes"]
        assert len(sizes) == result.test_length
        assert all(size >= 1 for size in sizes)

    def test_pipeline_rejects_circuit_without_rare_nets(self, c17, tiny_config):
        pipeline = DeterrentPipeline(tiny_config)
        with pytest.raises(ValueError, match="no rare nets"):
            pipeline.run(c17)

    def test_pipeline_accepts_precomputed_offline_phase(
        self, small_multiplier, multiplier_rare_nets, multiplier_compatibility, tiny_config
    ):
        pipeline = DeterrentPipeline(tiny_config.with_overrides(rareness_threshold=0.2))
        result = pipeline.run(
            small_multiplier,
            rare_nets=multiplier_rare_nets,
            compatibility=multiplier_compatibility,
        )
        assert result.compatibility is multiplier_compatibility
