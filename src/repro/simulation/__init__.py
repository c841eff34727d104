"""Logic simulation, signal probabilities, rare nets, and testability.

The hot path is the compiled engine (:mod:`repro.simulation.compiled`);
:class:`BitParallelSimulator` remains as a dict-API compatibility shim.
"""
