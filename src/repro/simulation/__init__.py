"""Logic simulation, signal probabilities, rare nets, and testability.

The hot path is the compiled engine (:mod:`repro.simulation.compiled`);
:class:`BitParallelSimulator` is not used in production: it keeps the per-net
dict API for tests and, with ``engine="reference"``, the per-gate oracle the
compiled engine is tested against.
"""
