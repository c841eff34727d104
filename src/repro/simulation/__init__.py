"""Logic simulation, signal probabilities, rare nets, and testability.

One simulator: the compiled bit-parallel engine (:mod:`repro.simulation.compiled`),
combinational and multi-cycle.  The slow references it is tested against (a
per-gate interpreter and a naive cycle loop) live in ``tests/oracles.py``.
"""
