"""Proximal Policy Optimization (clipped surrogate) in numpy.

The trainer follows the standard PPO recipe [Schulman et al., 2017]:

1. roll out ``num_steps`` transitions from a vectorised environment,
2. compute GAE(λ) advantages,
3. run several epochs of minibatch updates on the clipped surrogate objective
   with a value-function loss and an entropy bonus,

with the composite loss of the paper (§3.4): ``l = l_pi + c_ent * l_ent +
c_value * l_value`` where ``l_ent`` is the (negative) entropy.  Raising
``c_ent`` and the GAE λ is exactly the "boosted exploration" configuration the
paper uses for circuits such as c2670.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.rl.buffer import RolloutBuffer
from repro.rl.env import VectorizedEnvironment
from repro.rl.nn import Adam, clip_gradients
from repro.rl.policy import MaskedCategoricalPolicy
from repro.utils.rng import RngLike, make_rng


@dataclass
class PpoConfig:
    """Hyper-parameters of the PPO trainer.

    Defaults match the paper's statement that PPO is used "with default
    parameters unless specified otherwise"; ``entropy_coef`` and
    ``gae_lambda`` are the two knobs §3.4 overrides for boosted exploration.
    """

    num_steps: int = 128
    num_epochs: int = 4
    minibatch_size: int = 64
    learning_rate: float = 3e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_range: float = 0.2
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    hidden_sizes: tuple[int, ...] = (64, 64)
    normalize_advantages: bool = True

    def boosted_exploration(self) -> "PpoConfig":
        """Copy of this config with the paper's boosted-exploration settings."""
        return PpoConfig(
            num_steps=self.num_steps,
            num_epochs=self.num_epochs,
            minibatch_size=self.minibatch_size,
            learning_rate=self.learning_rate,
            gamma=self.gamma,
            gae_lambda=0.99,
            clip_range=self.clip_range,
            entropy_coef=1.0,
            value_coef=self.value_coef,
            max_grad_norm=self.max_grad_norm,
            hidden_sizes=self.hidden_sizes,
            normalize_advantages=self.normalize_advantages,
        )


@dataclass
class TrainingSummary:
    """Aggregated statistics of one training run."""

    total_steps: int = 0
    total_episodes: int = 0
    episode_rewards: list[float] = field(default_factory=list)
    episode_infos: list[dict] = field(default_factory=list)
    loss_history: list[float] = field(default_factory=list)
    policy_loss_history: list[float] = field(default_factory=list)
    value_loss_history: list[float] = field(default_factory=list)
    entropy_history: list[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def steps_per_minute(self) -> float:
        """Environment steps per minute (Table 1 metric)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return 60.0 * self.total_steps / self.elapsed_seconds

    @property
    def episodes_per_minute(self) -> float:
        """Episodes per minute (Table 1 / Figure 2 metric)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return 60.0 * self.total_episodes / self.elapsed_seconds


class PpoTrainer:
    """PPO training loop over a vectorised environment."""

    def __init__(
        self,
        environments: VectorizedEnvironment,
        config: PpoConfig | None = None,
        seed: RngLike = None,
    ) -> None:
        self.envs = environments
        self.config = config or PpoConfig()
        self._rng = make_rng(seed)
        self.policy = MaskedCategoricalPolicy(
            observation_dim=environments.observation_dim,
            num_actions=environments.num_actions,
            hidden_sizes=self.config.hidden_sizes,
            seed=self._rng,
        )
        parameters = self.policy.policy_net.parameters + self.policy.value_net.parameters
        self._optimizer = Adam(parameters, learning_rate=self.config.learning_rate)
        self._num_policy_params = len(self.policy.policy_net.parameters)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(self, total_steps: int) -> TrainingSummary:
        """Run PPO for approximately ``total_steps`` (vectorised) environment steps."""
        config = self.config
        summary = TrainingSummary()
        started = time.perf_counter()
        num_envs = len(self.envs)
        buffer = RolloutBuffer(
            config.num_steps, num_envs, self.envs.observation_dim, self.envs.num_actions
        )
        observations = self.envs.reset()
        episode_returns = np.zeros(num_envs)

        while summary.total_steps < total_steps:
            buffer.reset()
            for _ in range(config.num_steps):
                masks = self.envs.action_masks()
                output = self.policy.act(observations, masks)
                values = self.policy.value(observations)
                next_observations, rewards, dones, infos = self.envs.step(output.actions)
                buffer.add(
                    observations, output.actions, masks, rewards, dones,
                    output.log_probs, values,
                )
                episode_returns += rewards
                for env_index, done in enumerate(dones):
                    if done:
                        summary.total_episodes += 1
                        summary.episode_rewards.append(float(episode_returns[env_index]))
                        summary.episode_infos.append(infos[env_index])
                        episode_returns[env_index] = 0.0
                observations = next_observations
                summary.total_steps += num_envs
            last_values = self.policy.value(observations)
            advantages, returns = buffer.compute_returns(
                last_values, config.gamma, config.gae_lambda
            )
            batch = buffer.batch(advantages, returns)
            self._update(batch, summary)

        summary.elapsed_seconds = time.perf_counter() - started
        return summary

    # ------------------------------------------------------------------
    # PPO update
    # ------------------------------------------------------------------
    def _update(self, batch, summary: TrainingSummary) -> None:
        config = self.config
        batch_size = batch.observations.shape[0]
        advantages = batch.advantages
        if config.normalize_advantages and batch_size > 1:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

        indices = np.arange(batch_size)
        for _ in range(config.num_epochs):
            self._rng.shuffle(indices)
            for start in range(0, batch_size, config.minibatch_size):
                selection = indices[start:start + config.minibatch_size]
                losses = self._update_minibatch(batch, advantages, selection)
                summary.loss_history.append(losses[0])
                summary.policy_loss_history.append(losses[1])
                summary.value_loss_history.append(losses[2])
                summary.entropy_history.append(losses[3])

    def _update_minibatch(
        self, batch, advantages: np.ndarray, selection: np.ndarray
    ) -> tuple[float, float, float, float]:
        config = self.config
        observations = batch.observations[selection]
        actions = batch.actions[selection]
        masks = batch.masks[selection]
        old_log_probs = batch.log_probs[selection]
        advantage = advantages[selection]
        returns = batch.returns[selection]
        count = len(selection)

        log_probs, entropies, probabilities = self.policy.evaluate_actions(
            observations, actions, masks
        )
        ratios = np.exp(log_probs - old_log_probs)
        clipped_ratios = np.clip(ratios, 1.0 - config.clip_range, 1.0 + config.clip_range)
        unclipped_objective = ratios * advantage
        clipped_objective = clipped_ratios * advantage
        policy_loss = -float(np.minimum(unclipped_objective, clipped_objective).mean())
        entropy = float(entropies.mean())

        # Gradient of the policy part of the loss with respect to the logits.
        batch_rows = np.arange(count)
        one_hot = np.zeros_like(probabilities)
        one_hot[batch_rows, actions] = 1.0
        dlogp_dlogits = one_hot - probabilities
        unclipped_active = unclipped_objective <= clipped_objective
        dloss_dlogp = np.where(unclipped_active, -advantage * ratios, 0.0) / count
        grad_logits = dlogp_dlogits * dloss_dlogp[:, None]

        # Entropy bonus: loss term is -entropy_coef * H, dH/dlogit = -p (log p + H).
        log_probabilities = np.log(np.clip(probabilities, 1e-12, None))
        dentropy_dlogits = -probabilities * (log_probabilities + entropies[:, None])
        grad_logits += -config.entropy_coef * dentropy_dlogits / count

        policy_weight_grads, policy_bias_grads = self.policy.policy_net.backward(grad_logits)
        policy_grads = self.policy.policy_net.apply_gradients(
            policy_weight_grads, policy_bias_grads
        )

        # Value loss: c_v * MSE(value, return).
        values = self.policy.value_net.forward(observations)[:, 0]
        value_error = values - returns
        value_loss = float(np.mean(value_error**2))
        grad_values = (2.0 * config.value_coef * value_error / count)[:, None]
        value_weight_grads, value_bias_grads = self.policy.value_net.backward(grad_values)
        value_grads = self.policy.value_net.apply_gradients(value_weight_grads, value_bias_grads)

        gradients = clip_gradients(policy_grads + value_grads, config.max_grad_norm)
        self._optimizer.step(gradients)

        total_loss = policy_loss + config.entropy_coef * (-entropy) + config.value_coef * value_loss
        return total_loss, policy_loss, value_loss, entropy


__all__ = ["PpoConfig", "PpoTrainer", "TrainingSummary"]
