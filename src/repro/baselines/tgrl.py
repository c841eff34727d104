"""TGRL: RL-based test generation with a rareness + testability reward
[Pan & Mishra, ASP-DAC 2021].

TGRL's agent operates directly on test patterns: the state is the current
input pattern, an action flips one input bit, and the reward is a weighted sum
over the rare nets the new pattern activates, where each rare net is weighted
by its rareness and its SCOAP testability difficulty.  The patterns visited
during training form the (large) test set.  The paper contrasts this
formulation with DETERRENT's set-cover view: TGRL attains good coverage but
needs orders of magnitude more patterns and degrades quickly as the trigger
width grows — behaviours this reimplementation reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.netlist import Netlist
from repro.core.patterns import PatternSet
from repro.rl.env import Environment, StepResult, VectorizedEnvironment
from repro.rl.ppo import PpoConfig, PpoTrainer
from repro.simulation.compiled import CompiledNetlist, compile_netlist
from repro.simulation.rare_nets import RareNet
from repro.simulation.testability import scoap_testability
from repro.utils.rng import RngLike, make_rng, spawn_rngs


@dataclass
class TgrlConfig:
    """TGRL hyper-parameters."""

    total_training_steps: int = 4096
    episode_length: int = 24
    num_envs: int = 2
    max_patterns: int = 4096
    rareness_weight: float = 1.0
    testability_weight: float = 0.2
    ppo: PpoConfig | None = None
    seed: int = 0


class TgrlEnv(Environment):
    """Bit-flip environment over test patterns with the TGRL reward."""

    def __init__(
        self,
        simulator: CompiledNetlist,
        rare_nets: list[RareNet],
        weights: np.ndarray,
        episode_length: int,
        seed: RngLike = None,
    ) -> None:
        self._simulator = simulator
        self._requirements = [(rare.net, rare.rare_value) for rare in rare_nets]
        self._weights = weights
        self._episode_length = episode_length
        self._rng = make_rng(seed)
        self._num_bits = len(simulator.sources)
        self._pattern = np.zeros(self._num_bits, dtype=np.uint8)
        self._steps = 0
        self.visited_patterns: list[np.ndarray] = []
        self.reset()

    @property
    def observation_dim(self) -> int:
        """One observation entry per controllable input bit."""
        return self._num_bits

    @property
    def num_actions(self) -> int:
        """One action per input bit (flip that bit)."""
        return self._num_bits

    def reset(self) -> np.ndarray:
        """Start from a fresh random pattern."""
        self._pattern = self._rng.integers(0, 2, size=self._num_bits, dtype=np.uint8)
        self._steps = 0
        return self._pattern.astype(np.float64)

    def step(self, action: int) -> StepResult:
        """Flip one bit and reward by weighted rare-net activation."""
        if not 0 <= action < self._num_bits:
            raise ValueError(f"action {action} out of range [0, {self._num_bits})")
        self._steps += 1
        self._pattern[action] ^= 1
        reward = self._pattern_reward(self._pattern)
        self.visited_patterns.append(self._pattern.copy())
        done = self._steps >= self._episode_length
        return StepResult(self._pattern.astype(np.float64), reward, done, {})

    def _pattern_reward(self, pattern: np.ndarray) -> float:
        """Weighted rare-net activation, evaluated on the compiled engine.

        This runs once per training step, so only the rare-net rows of the
        packed value matrix are unpacked.
        """
        activated = self._simulator.activations(pattern[None, :], self._requirements)[0]
        return float((activated * self._weights).sum())


def _reward_weights(
    netlist: Netlist, rare_nets: list[RareNet], config: TgrlConfig
) -> np.ndarray:
    """Per-rare-net weights combining rareness and SCOAP testability."""
    testability = scoap_testability(netlist)
    weights = np.zeros(len(rare_nets))
    for index, rare in enumerate(rare_nets):
        rareness_term = 1.0 - rare.probability
        scoap = testability[rare.net]
        controllability = scoap.cc1 if rare.rare_value == 1 else scoap.cc0
        observability = scoap.co if np.isfinite(scoap.co) else controllability
        testability_term = np.log1p(controllability + observability)
        weights[index] = (
            config.rareness_weight * rareness_term
            + config.testability_weight * testability_term
        )
    return weights


def tgrl_pattern_set(
    netlist: Netlist,
    rare_nets: list[RareNet],
    config: TgrlConfig | None = None,
    seed: RngLike = None,
) -> PatternSet:
    """Train the TGRL agent and return the patterns it visited (deduplicated)."""
    config = config or TgrlConfig()
    if not rare_nets:
        return PatternSet.empty(netlist, technique="TGRL")
    simulator = compile_netlist(netlist)
    weights = _reward_weights(netlist, rare_nets, config)
    rngs = spawn_rngs(seed if seed is not None else config.seed, config.num_envs)
    environments = [
        TgrlEnv(simulator, rare_nets, weights, config.episode_length, seed=rng)
        for rng in rngs
    ]
    vec_env = VectorizedEnvironment(environments)
    ppo_config = config.ppo or PpoConfig(num_steps=64, minibatch_size=64, hidden_sizes=(64, 64))
    trainer = PpoTrainer(vec_env, config=ppo_config, seed=config.seed)
    trainer.train(config.total_training_steps)

    visited: dict[bytes, np.ndarray] = {}
    for environment in environments:
        for pattern in environment.visited_patterns:
            visited.setdefault(pattern.tobytes(), pattern)
            if len(visited) >= config.max_patterns:
                break
    patterns = (
        np.stack(list(visited.values()))
        if visited
        else np.zeros((0, len(simulator.sources)), dtype=np.uint8)
    )
    return PatternSet(
        sources=simulator.sources,
        patterns=patterns,
        technique="TGRL",
        metadata={"training_steps": config.total_training_steps},
    )


__all__ = ["TgrlConfig", "TgrlEnv", "tgrl_pattern_set"]
