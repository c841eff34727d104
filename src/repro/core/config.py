"""Configuration of the DETERRENT pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.rl.ppo import PpoConfig


@dataclass
class DeterrentConfig:
    """All knobs of the DETERRENT pipeline, with paper-faithful defaults.

    Attributes:
        rareness_threshold: probability below which a net counts as rare
            (paper default 0.1).
        num_probability_patterns: random patterns used to estimate signal
            probabilities for rare-net extraction.
        reward_mode: ``"per_step"`` computes the (SAT-verified) reward and
            state transition at every step — the configuration Figure 2
            identifies as best for set quality; ``"end_of_episode"`` computes
            the expensive check once per episode (§3.2), trading a small
            quality drop for a large training-rate increase.
        masking: state-dependent action masking (§3.3).
        reward_power: exponent applied to the compatible-set size in the reward
            (the paper uses the square; any power > 1 keeps the reward convex).
        exact_set_reward: verify the accumulated set with a full SAT check when
            computing the reward; when False the pairwise-compatibility
            approximation is used (cheaper, slightly optimistic).
        episode_length: maximum steps per episode (T in the paper).
        num_envs: parallel environment copies (the paper uses 16 for MIPS).
        total_training_steps: environment steps of PPO training.
        k_patterns: number of largest distinct compatible sets converted into
            test patterns (the paper's hyper-parameter k).
        ppo: PPO hyper-parameters; see :class:`repro.rl.ppo.PpoConfig`.
        boosted_exploration: apply the §3.4 exploration boost (entropy
            coefficient 1.0, GAE λ 0.99) on top of ``ppo``.
        seed: master seed for the whole pipeline.
    """

    rareness_threshold: float = 0.1
    num_probability_patterns: int = 4096
    reward_mode: str = "per_step"
    masking: bool = True
    reward_power: float = 2.0
    exact_set_reward: bool = True
    episode_length: int = 40
    num_envs: int = 4
    total_training_steps: int = 6000
    k_patterns: int = 16
    ppo: PpoConfig = field(default_factory=PpoConfig)
    boosted_exploration: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.reward_mode not in ("per_step", "end_of_episode"):
            raise ValueError(
                f"reward_mode must be 'per_step' or 'end_of_episode', got {self.reward_mode!r}"
            )
        if not 0.0 < self.rareness_threshold <= 0.5:
            raise ValueError(
                f"rareness_threshold must be in (0, 0.5], got {self.rareness_threshold}"
            )
        if self.reward_power < 1.0:
            raise ValueError(f"reward_power must be >= 1, got {self.reward_power}")
        if self.episode_length <= 0 or self.num_envs <= 0 or self.k_patterns <= 0:
            raise ValueError("episode_length, num_envs, and k_patterns must be positive")

    def effective_ppo(self) -> PpoConfig:
        """The PPO config actually used (with the exploration boost applied if set)."""
        return self.ppo.boosted_exploration() if self.boosted_exploration else self.ppo

    def with_overrides(self, **changes) -> "DeterrentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: Small configuration for quick runs and unit tests.
QUICK_PROFILE = DeterrentConfig(
    num_probability_patterns=1024,
    episode_length=20,
    num_envs=2,
    total_training_steps=1024,
    k_patterns=8,
    ppo=PpoConfig(num_steps=64, minibatch_size=32, hidden_sizes=(32, 32)),
)


__all__ = ["DeterrentConfig", "QUICK_PROFILE"]
