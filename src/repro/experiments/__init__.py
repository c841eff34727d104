"""Experiment harnesses that regenerate every table and figure of the paper.

Each module exposes ``run(profile=...)`` returning structured results and a
``main()`` entry point that prints the same rows/series the paper reports
(paper reference values alongside the measured ones).  Modules:

- :mod:`repro.experiments.table1`   — reward-timing comparison (Table 1).
- :mod:`repro.experiments.table2`   — coverage / test-length comparison (Table 2).
- :mod:`repro.experiments.figure2`  — reward × masking combinations (Figure 2).
- :mod:`repro.experiments.figure3`  — loss trends, default vs boosted exploration (Figure 3).
- :mod:`repro.experiments.figure5`  — trigger-width sweep (Figure 5).
- :mod:`repro.experiments.figure6`  — coverage vs number of patterns (Figure 6).
- :mod:`repro.experiments.figure7`  — rareness-threshold sweep (Figure 7).
- :mod:`repro.experiments.transfer` — §4.5 threshold-transfer experiment.
- :mod:`repro.experiments.ablations`— design-choice ablations from DESIGN.md.
- :mod:`repro.experiments.pipeline_run` — end-to-end Figure-4 pipeline flow.

Every harness implements the runner protocol (``cells`` / ``run_cell`` /
``collect`` / ``report``) and is registered in
:mod:`repro.runner.registry`, so it can execute through
``deterrent run <name>`` with any profile (``tiny``, ``quick``, ``full``)
and any worker-process count; the module-level ``run(...)`` functions remain
as thin wrappers over the runner for programmatic use.
"""
