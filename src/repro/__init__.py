"""repro — reproduction of DETERRENT (DAC 2022).

DETERRENT generates compact test-pattern sets that activate rare hardware
Trojan trigger conditions by training a PPO agent to enumerate maximal sets of
*compatible rare nets* and converting those sets to input patterns with a SAT
solver.

The package is organised into substrates plus the paper's core contribution:

- :mod:`repro.circuits` — gate-level netlists, builders, benchmark generators.
- :mod:`repro.simulation` — bit-parallel logic simulation, signal
  probabilities, rare-net extraction, SCOAP testability.
- :mod:`repro.sat` — CNF, a CDCL SAT solver, Tseitin encoding, justification.
- :mod:`repro.rl` — numpy PPO with action masking and vectorised environments.
- :mod:`repro.core` — the DETERRENT environment, agent, and pipeline.
- :mod:`repro.trojan` — hardware Trojan model, insertion, coverage evaluation.
- :mod:`repro.baselines` — random, MERO, TARMAC, TGRL, and ATPG baselines.
- :mod:`repro.experiments` — harnesses that regenerate every paper table and
  figure.

Packages re-export nothing: import each name from the module that defines
it, e.g. ``from repro.core.pipeline import DeterrentPipeline``.  Importing a
module then loads only what it uses; ``repro.sat.solver`` loads no numpy.
"""

__version__ = "1.0.0"
