"""Search-path pins for the CDCL solver.

The solver is deterministic, so a fixed input fixes the whole search: the
trail order, the clause literal order, the watch lists, the heap operations
and therefore every :class:`~repro.sat.solver.SolverStats` counter and every
SAT model.  These tests pin that search on three small workloads:

- ``generate_sequences`` on the tiny s13207_like cell (4 cycles,
  cumulative, k=2): full solver stats plus a sha256 of the emitted
  sequences and their compatible sets;
- pairwise :class:`~repro.sat.justify.Justifier` queries over the first 30
  rare nets of c6288_like, plus five biased witnesses: the verdict list,
  the witness digest and the solver stats;
- seeded random 3-SAT under a small ``restart_base``/``reduce_base``, so
  that Luby restarts and clause deletion run, with ``verify_models=True``.

A speed-up of the solver must leave every constant here unchanged.  If one
of them has to be re-recorded, the change altered the search, not just its
cost: that is a behaviour change, and the benchmark goldens
(``perfbench/golden.json``) must be re-recorded with it in a benchmark
change.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.circuits.library import load_benchmark
from repro.core.sequence_gen import generate_sequences
from repro.sat.cnf import CNF
from repro.sat.justify import Justifier
from repro.sat.solver import CdclSolver, SolverConfig
from repro.simulation.rare_nets import extract_rare_nets


def _digest(*parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            hasher.update(np.ascontiguousarray(part, dtype=np.uint8).tobytes())
        else:
            hasher.update(json.dumps(part, sort_keys=True).encode())
    return hasher.hexdigest()


SEQUENCE_STATS = {
    "conflicts": 617,
    "decisions": 2259,
    "propagations": 135215,
    "restarts": 0,
    "learned_clauses": 617,
    "deleted_clauses": 0,
    "max_trail": 4282,
}
SEQUENCE_DIGEST = "274a520e2ea1429978a56302c884f0cd266060339409eacc299bad8838b71d00"

PAIR_VERDICTS = (
    "111100011101010011010000111111110001110101001101000011111011111011111111111111011111111"
    "111011111111111110111111111111111111101111011111011011111111111111100111111101111111101"
    "111111111111111111111111111111111111111111110111111011110101101010111111111111111101111"
    "111101111110111111111011111111111111111111111111111111111101110111111111101111111111110"
    "111111111101111111111111111111111110011111111111111110110111111011111101111011111111111"
)
PAIR_WITNESS_DIGEST = "60860948c34b11a585796bf5719553c27539916cbce0b8986a44ce3ee0193ce2"
PAIR_STATS = {
    "conflicts": 344,
    "decisions": 2622,
    "propagations": 91500,
    "restarts": 0,
    "learned_clauses": 344,
    "deleted_clauses": 0,
    "max_trail": 196,
}

#: seed -> (digest of the four answers and models, final solver stats).
RANDOM_RUNS = {
    0: (
        "89f6e6d369a0206b9bc977d936e06a080a6f79293d30aae809b26e2455127773",
        dict(
            conflicts=1120,
            decisions=2061,
            propagations=29771,
            restarts=124,
            learned_clauses=1120,
            deleted_clauses=920,
            max_trail=110,
        ),
    ),
    1: (
        "31b6f36a6a916a7d071ddae48480e51d5a05d34b00b332e0ad1de3484e7dc33e",
        dict(
            conflicts=857,
            decisions=1471,
            propagations=21835,
            restarts=76,
            learned_clauses=856,
            deleted_clauses=687,
            max_trail=55,
        ),
    ),
    2: (
        "9f585ad923a5ac181817bac656a46f7c5f4718b00f320a68374ffec5a7379e9d",
        dict(
            conflicts=1385,
            decisions=2422,
            propagations=39390,
            restarts=124,
            learned_clauses=1385,
            deleted_clauses=1166,
            max_trail=110,
        ),
    ),
    3: (
        "31b6f36a6a916a7d071ddae48480e51d5a05d34b00b332e0ad1de3484e7dc33e",
        dict(
            conflicts=1226,
            decisions=2074,
            propagations=31207,
            restarts=111,
            learned_clauses=1225,
            deleted_clauses=1047,
            max_trail=58,
        ),
    ),
}


def test_sequence_generation_search_path():
    netlist = load_benchmark("s13207_like", combinational_view=False)
    rare_nets = extract_rare_nets(
        netlist, threshold=0.1, num_patterns=512, seed=0, cycles=4
    )
    produced = generate_sequences(
        netlist, rare_nets, 4, mode="cumulative", count=2, num_sequences=16, seed=3
    )
    assert produced.metadata["solver_stats"] == SEQUENCE_STATS
    assert _digest(produced.sequences, produced.metadata["sets"]) == SEQUENCE_DIGEST


def test_justifier_pair_queries_search_path():
    netlist = load_benchmark("c6288_like")
    rare_nets = extract_rare_nets(netlist, threshold=0.1, num_patterns=512, seed=0)[:30]
    justifier = Justifier(netlist)
    justifier.set_preferred_values({rare.net: rare.rare_value for rare in rare_nets})
    verdicts = []
    for first in range(len(rare_nets)):
        for second in range(first + 1, len(rare_nets)):
            requirements = {
                rare_nets[first].net: rare_nets[first].rare_value,
                rare_nets[second].net: rare_nets[second].rare_value,
            }
            verdicts.append("1" if justifier.is_satisfiable(requirements) else "0")
    witnesses = [
        sorted(justifier.witness({rare.net: rare.rare_value}).items())
        for rare in rare_nets[:5]
    ]
    assert "".join(verdicts) == PAIR_VERDICTS
    assert _digest(witnesses) == PAIR_WITNESS_DIGEST
    assert justifier.stats().as_dict() == PAIR_STATS


def _random_3sat(seed: int, num_vars: int = 110) -> CNF:
    rng = np.random.default_rng(seed)
    cnf = CNF()
    for _ in range(num_vars):
        cnf.new_var()
    for _ in range(int(4.26 * num_vars)):
        variables = rng.choice(num_vars, size=3, replace=False) + 1
        cnf.add_clause([int(v) if rng.random() < 0.5 else -int(v) for v in variables])
    return cnf


@pytest.mark.parametrize("seed", sorted(RANDOM_RUNS))
def test_random_3sat_search_path(seed):
    config = SolverConfig(
        restart_base=4, reduce_base=40, reduce_growth=10, verify_models=True
    )
    solver = CdclSolver(_random_3sat(seed), config=config)
    answers = []
    for assumptions in ([], [1, -2], [-3], [4, 5, -6]):
        result = solver.solve(assumptions)
        model = None
        if result.satisfiable:
            model = "".join("1" if result.model[v] else "0" for v in sorted(result.model))
        answers.append([result.satisfiable, model])
    expected_answers, expected_stats = RANDOM_RUNS[seed]
    assert _digest(answers) == expected_answers
    assert solver.stats().as_dict() == expected_stats
