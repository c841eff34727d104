"""DETERRENT core: the paper's primary contribution.

The flow mirrors Figure 4 of the paper:

1. offline — rare-net extraction (:mod:`repro.simulation.rare_nets`) and
   pairwise compatibility precomputation (:mod:`repro.core.compatibility`);
2. online — the RL agent (:mod:`repro.core.agent`) interacts with the trigger
   activation environment (:mod:`repro.core.environment`) to learn maximal
   sets of compatible rare nets;
3. pattern generation — the ``k`` largest distinct sets are converted to test
   patterns with a SAT solver (:mod:`repro.core.patterns`).

:class:`repro.core.pipeline.DeterrentPipeline` stitches the three stages
together behind one call.  :mod:`repro.core.sequence_gen` mirrors the same
pipeline on raw sequential netlists: temporal activatability pre-filter,
greedy compatibility sets via joint unrolled justification, and SAT-guided
multi-cycle test sequences.
"""
