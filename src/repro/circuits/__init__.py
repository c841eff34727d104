"""Gate-level circuit infrastructure.

This subpackage provides the netlist data model that every other part of the
library operates on, plus construction helpers, file I/O, scan conversion and
the benchmark suite used by the experiments.
"""
