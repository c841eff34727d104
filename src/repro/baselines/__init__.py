"""Comparison baselines used in the paper's evaluation.

Every baseline produces a :class:`repro.core.patterns.PatternSet`, so the
Trojan-coverage evaluator and the experiment harnesses treat all techniques
uniformly:

- :mod:`repro.baselines.random_patterns` — uniformly random test patterns.
- :mod:`repro.baselines.atpg` — a TestMAX-style ATPG proxy that targets each
  rare net individually (stuck-at-style justification), reproducing the
  paper's observation that conventional ATPG misses joint rare conditions.
- :mod:`repro.baselines.tarmac` — TARMAC [Lyu & Mishra, TCAD 2021]: repeated
  maximal-clique sampling on the rare-net compatibility graph.
- :mod:`repro.baselines.tgrl` — TGRL [Pan & Mishra, ASP-DAC 2021]: RL over
  test-pattern bit flips rewarded by rareness and SCOAP testability.
"""
