"""Indexed max-heap over variable activities (the EVSIDS branch order).

The solver's branch heuristic needs three operations to be fast: *pop the
unassigned variable of maximum activity*, *bump one variable's activity*, and
*re-insert a variable after backtracking*.  A plain ``dict``/linear scan makes
the first O(num_vars) per decision — the dominant cost on deep time-frame
unrolls — so :class:`ActivityHeap` keeps variables in a binary max-heap with
an inverse position index, giving O(log n) for all three.

Deletion is **lazy** in the MiniSat style: assigning a variable does not
remove it from the heap; :meth:`pop_unassigned` discards assigned variables
as it pops, and :meth:`push_many` re-inserts on backtrack (skipping variables
still in the heap).  Both take the solver's literal codes (``2v`` for ``v``,
``2v + 1`` for ``-v``).  Activities live here, not in the solver, so a bump
can restore the heap order in the same O(log n) sift.  The three tables come
from :func:`repro.sat.native.table`.  The solver's C kernel (``_kernel.c``)
mirrors both methods, and :meth:`ActivityHeap.clear`, on these same tables
inside its ``solve``.

All comparisons are on activity alone; equal activities keep a deterministic
(insertion/sift) order, which is what makes solver runs — and therefore
SAT-guided witness sets — bit-reproducible for a fixed seed.
"""

from __future__ import annotations

from repro.sat import native


class ActivityHeap:
    """Binary max-heap of variables keyed by activity, with position index."""

    __slots__ = ("_heap", "_pos", "_act")

    def __init__(self, num_vars: int = 0) -> None:
        # Index 0 of ``_act``/``_pos`` is unused (variables are 1-based).
        self._act = native.table("d", [0.0] * (num_vars + 1))
        self._heap = native.table("i", range(1, num_vars + 1))
        self._pos = native.table("i", range(-1, num_vars))

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, variable: int) -> bool:
        return 0 < variable < len(self._pos) and self._pos[variable] >= 0

    @property
    def num_vars(self) -> int:
        """Highest variable the heap knows about."""
        return len(self._act) - 1

    def activity(self, variable: int) -> float:
        """Current activity of ``variable``."""
        return self._act[variable]

    # ------------------------------------------------------------------
    # Growth and mutation
    # ------------------------------------------------------------------
    def grow(self, num_vars: int) -> None:
        """Extend the variable space to ``num_vars``, inserting new variables.

        Fresh variables start at activity 0.0, which is <= every existing
        activity, so appending them at the leaves preserves the heap order.
        """
        fresh = range(len(self._act), num_vars + 1)
        size = len(self._heap)
        native.extend(self._act, 0.0, len(fresh))
        self._pos.extend(range(size, size + len(fresh)))
        self._heap.extend(fresh)

    def push_many(self, codes) -> None:
        """Re-insert the variable of each literal code that is absent.

        Takes a backtracked trail slice as is.  One inlined sift-up per
        insertion — this is the backtracking hot path.
        """
        heap, pos, act = self._heap, self._pos, self._act
        for code in codes:
            variable = code >> 1
            if pos[variable] >= 0:
                continue
            position = len(heap)
            heap.append(variable)
            activity = act[variable]
            while position > 0:
                parent_position = (position - 1) >> 1
                parent = heap[parent_position]
                if act[parent] >= activity:
                    break
                heap[position] = parent
                pos[parent] = position
                position = parent_position
            heap[position] = variable
            pos[variable] = position

    def pop_unassigned(self, value) -> int | None:
        """Pop maximum-activity variables until one has ``value[2v] == -1``.

        ``value`` is indexed by literal code.  Popped assigned variables stay
        out of the heap (lazy deletion); None when the heap runs empty.  The
        sift-down is inlined: this is the decision hot path.
        """
        heap, pos, act = self._heap, self._pos, self._act
        while heap:
            top = heap[0]
            pos[top] = -1
            last = heap.pop()
            size = len(heap)
            if size:
                activity = act[last]
                position = 0
                child_position = 1
                while child_position < size:
                    right = child_position + 1
                    if right < size and act[heap[right]] > act[heap[child_position]]:
                        child_position = right
                    child = heap[child_position]
                    if activity >= act[child]:
                        break
                    heap[position] = child
                    pos[child] = position
                    position = child_position
                    child_position = 2 * position + 1
                heap[position] = last
                pos[last] = position
            if value[top << 1] == -1:
                return top
        return None

    def clear(self) -> None:
        """Empty the heap in O(n) and keep every activity.  With every
        variable assigned, this is the state that draining it leaves."""
        pos = self._pos
        for variable in self._heap:
            pos[variable] = -1
        del self._heap[:]

    def bump(self, variable: int, increment: float) -> float:
        """Add ``increment`` to the activity; restore heap order; return it."""
        heap, pos, act = self._heap, self._pos, self._act
        activity = act[variable] + increment
        act[variable] = activity
        position = pos[variable]
        while position > 0:
            parent_position = (position - 1) >> 1
            parent = heap[parent_position]
            if act[parent] >= activity:
                break
            heap[position] = parent
            pos[parent] = position
            position = parent_position
        if position >= 0:
            heap[position] = variable
            pos[variable] = position
        return activity

    def rescale(self, factor: float) -> None:
        """Multiply every activity by ``factor`` in place (order-preserving)."""
        act = self._act
        for variable in range(len(act)):
            act[variable] *= factor

    def check_invariants(self) -> None:
        """Raise AssertionError unless heap order and position index agree.

        Test hook: O(n), called by the unit tests after random operation
        sequences — never on the solving hot path.
        """
        heap, pos, act = self._heap, self._pos, self._act
        for position, variable in enumerate(heap):
            assert pos[variable] == position, (
                f"position index broken: var {variable} at {position}, "
                f"index says {pos[variable]}"
            )
            if position > 0:
                parent = heap[(position - 1) >> 1]
                assert act[parent] >= act[variable], (
                    f"heap order broken: parent {parent} ({act[parent]}) < "
                    f"child {variable} ({act[variable]})"
                )
        in_heap = sum(1 for position in pos if position >= 0)
        assert in_heap == len(heap), "position index counts a phantom entry"


__all__ = ["ActivityHeap"]

