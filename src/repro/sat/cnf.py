"""CNF formula representation.

Literals follow the DIMACS convention: variables are positive integers and a
negative integer denotes the negated variable.  :class:`CNF` is a thin,
append-only container; the solver consumes its clause list directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def copy(self) -> "CNF":
        """Structural copy (clauses are copied, literals shared)."""
        return CNF(num_vars=self.num_vars, clauses=[list(c) for c in self.clauses])


__all__ = ["CNF", "Literal"]
