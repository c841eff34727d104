"""CNF formula representation and DIMACS I/O.

Literals follow the DIMACS convention: variables are positive integers and a
negative integer denotes the negated variable.  :class:`CNF` is a thin,
append-only container; the solver consumes its clause list directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

Literal = int


@dataclass
class CNF:
    """A CNF formula: a number of variables and a list of clauses."""

    num_vars: int = 0
    clauses: list[list[Literal]] = field(default_factory=list)

    def new_var(self) -> int:
        """Allocate and return a fresh variable index (1-based)."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: list[Literal] | tuple[Literal, ...]) -> None:
        """Append a clause, validating its literals."""
        clause = list(literals)
        if not clause:
            raise ValueError("empty clause added to CNF (formula is trivially UNSAT)")
        for literal in clause:
            if literal == 0:
                raise ValueError("0 is not a valid DIMACS literal")
            if abs(literal) > self.num_vars:
                raise ValueError(
                    f"literal {literal} references variable {abs(literal)} "
                    f"but only {self.num_vars} variables are allocated"
                )
        self.clauses.append(clause)

    @property
    def num_clauses(self) -> int:
        """Number of clauses."""
        return len(self.clauses)

    def copy(self) -> "CNF":
        """Structural copy (clauses are copied, literals shared)."""
        return CNF(num_vars=self.num_vars, clauses=[list(c) for c in self.clauses])

    # ------------------------------------------------------------------
    # DIMACS
    # ------------------------------------------------------------------
    def to_dimacs(self) -> str:
        """Serialise to DIMACS CNF text."""
        lines = [f"p cnf {self.num_vars} {self.num_clauses}"]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    def write_dimacs(self, path: str | Path) -> None:
        """Write DIMACS CNF to a file."""
        Path(path).write_text(self.to_dimacs())

    @classmethod
    def from_dimacs(cls, text: str) -> "CNF":
        """Parse DIMACS CNF text."""
        cnf = cls()
        declared_vars = 0
        for raw_line in text.splitlines():
            line = raw_line.strip()
            if not line or line.startswith(("c", "%")):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError(f"malformed problem line: {raw_line!r}")
                declared_vars = int(parts[2])
                cnf.num_vars = declared_vars
                continue
            literals = [int(token) for token in line.split()]
            if literals and literals[-1] == 0:
                literals = literals[:-1]
            if not literals:
                continue
            highest = max(abs(lit) for lit in literals)
            if highest > cnf.num_vars:
                cnf.num_vars = highest
            cnf.add_clause(literals)
        return cnf


__all__ = ["CNF", "Literal"]
