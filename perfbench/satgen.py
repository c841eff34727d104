"""Seeded, offline generator of the ``sat_random`` SAT/UNSAT pairs.

Each pair follows the NeuroSAT scheme: draw random 3-literal clauses over
``n`` variables (three distinct variables, random signs) and add them one at
a time until the formula turns UNSAT.  The last clause ``c`` is the one that
made it UNSAT; flipping the sign of its first literal gives the SAT twin.
Every model ``M`` of the prefix falsifies all literals of ``c``, so ``M``
satisfies the flipped clause and the twin is SAT with ``M`` as certificate.

Labels are verified here, when the pool is generated, by code that does not
trust the solver's SAT answers:

- SAT twin: the prefix model is checked clause by clause against the twin.
- UNSAT formula: the default CDCL configuration and a second configuration
  (geometric restarts, no clause deletion) must both answer UNSAT, and the
  prefix model must falsify every literal of the last clause.

The pool is written to ``perfbench/data/sat_pairs.json`` and committed, so
benchmark runs never pay the generation cost.  Regenerate it with::

    python3 perfbench/satgen.py

Small ``n`` and a single-pair spec keep the self-test fast; the committed
spec (``POOL_SPEC``) uses 130-170 variables, where UNSAT instances need a
few thousand conflicts and so reach Luby restarts and LBD clause deletion
with the default ``SolverConfig`` (``reduce_base=2000``).
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "data" / "sat_pairs.json"

#: Master seed and variable counts of the committed pool (one pair per n).
POOL_SEED = 20221
POOL_SPEC = (130, 140, 150, 160, 170)

#: Clauses are only tested for satisfiability past this clause/variable
#: ratio; random 3-SAT below it is satisfiable with overwhelming probability,
#: and the final UNSAT check decides the label anyway.
_FIRST_CHECK_RATIO = 3.0


def satisfies(clauses: list[list[int]], true_vars: set[int]) -> bool:
    """Whether the assignment (variables in ``true_vars`` are true) satisfies every clause."""
    return all(any((lit > 0) == (abs(lit) in true_vars) for lit in clause) for clause in clauses)


def _true_vars(model: dict[int, bool]) -> set[int]:
    return {var for var, value in model.items() if value}


def _solve(clauses: list[list[int]], config=None):
    from repro.sat.solver import CdclSolver

    solver = CdclSolver(config=config)
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve()


def generate_pair(num_vars: int, rng: random.Random) -> dict:
    """One verified (UNSAT, SAT) pair over ``num_vars`` variables."""
    from repro.sat.solver import CdclSolver, SolverConfig

    solver = CdclSolver()
    clauses: list[list[int]] = []
    model = None
    while True:
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clause = [var if rng.random() < 0.5 else -var for var in chosen]
        clauses.append(clause)
        solver.add_clause(clause)
        if len(clauses) < _FIRST_CHECK_RATIO * num_vars:
            continue
        result = solver.solve()
        if not result.satisfiable:
            break
        model = result.model
    if model is None:
        raise RuntimeError(f"n={num_vars}: UNSAT before the first check; lower the ratio")
    last = clauses[-1]
    prefix_true = _true_vars(model)
    twin = clauses[:-1] + [[-last[0]] + last[1:]]
    if not satisfies(clauses[:-1], prefix_true) or satisfies([last], prefix_true):
        raise RuntimeError(f"n={num_vars}: prefix model does not fit the construction")
    if not satisfies(twin, prefix_true):
        raise RuntimeError(f"n={num_vars}: SAT twin label failed its model check")
    second_opinion = SolverConfig(restart_policy="geometric", reduce_base=10**9)
    for config in (None, second_opinion):
        if _solve(clauses, config).satisfiable:
            raise RuntimeError(f"n={num_vars}: UNSAT label not confirmed")
    return {
        "num_vars": num_vars,
        "unsat": clauses,
        "sat": twin,
        "sat_certificate": sorted(prefix_true),
    }


def generate_pool(spec=POOL_SPEC, seed: int = POOL_SEED) -> dict:
    """The instance pool: a list of labelled instances, UNSAT then SAT per pair."""
    rng = random.Random(seed)
    instances = []
    for num_vars in spec:
        pair = generate_pair(num_vars, rng)
        instances.append({
            "name": f"n{num_vars}-unsat", "num_vars": num_vars,
            "label": "unsat", "clauses": pair["unsat"],
        })
        instances.append({
            "name": f"n{num_vars}-sat", "num_vars": num_vars,
            "label": "sat", "clauses": pair["sat"],
        })
    return {"seed": seed, "spec": list(spec), "instances": instances}


def pool_digest(pool: dict) -> str:
    """SHA-256 of the pool's instances (names, labels and clauses)."""
    canonical = json.dumps(pool["instances"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_pool(path: Path = POOL_PATH) -> dict:
    """The committed pool, with the digest it was written with re-checked."""
    pool = json.loads(Path(path).read_text())
    if pool_digest(pool) != pool.get("digest"):
        raise ValueError(f"{path}: instance digest mismatch (file edited or truncated)")
    return pool


def write_pool(pool: dict, path: Path = POOL_PATH) -> None:
    pool = {**pool, "digest": pool_digest(pool)}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(pool, separators=(",", ":")) + "\n")


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    pool = generate_pool()
    write_pool(pool)
    print(f"wrote {len(pool['instances'])} instances to {POOL_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
