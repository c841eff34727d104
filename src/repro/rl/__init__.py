"""Reinforcement-learning substrate: numpy PPO with invalid-action masking.

The paper trains its agent with Proximal Policy Optimization (PPO) [Schulman
et al., 2017] implemented on PyTorch; this subpackage provides an equivalent
PPO implementation in pure numpy, including the two "boosted exploration"
knobs the paper tunes in §3.4 (entropy-loss coefficient and the GAE smoothing
parameter λ) and the state-dependent action masking of §3.3.
"""
