"""GF(2) linear algebra on Python int bitsets: one elimination engine.

Every rank, homology basis and tau in the package comes from an
Elimination built with new_engine.  Columns, and every other GF(2)
vector in the package, cycles included, are Python integers: bit i set
means a 1 in row i.  Pivoting is deterministic, lowest row index first,
so echelon columns and canonical residues are reproducible across runs.

A column added to the engine is reduced against existing pivot columns
until its lowest set bit is a fresh row (then it becomes a pivot) or it
vanishes.  Every stored pivot column has its pivot row as the lowest
set bit, so reducing a target by repeatedly clearing its lowest pivot bit
terminates and yields the unique coset representative supported away from
all pivot rows.  With rows ordered by priority (bit 0 strongest), that
representative is lexicographically minimal in its coset.  The pivot rows
are the leading rows of the span's nonzero vectors, whatever order the
columns were added in: exactly rank many, one per dimension.

essential_rows is the one persistence sweep with clearing behind every
homology basis, tau and knot Floer rank: complexes.homology_basis,
grid.tau, and grid.graded_ranks down each Alexander level.
"""

from __future__ import annotations

# Named in benchmark run records.
BACKEND_NAME = "python"


def _bit_positions(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class Elimination:
    """Incremental column echelon over GF(2)."""

    def __init__(self, nrows: int):
        self.nrows = nrows
        self._pivot_of_row: dict[int, int] = {}
        self._cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._cols)

    @property
    def pivot_rows(self):
        """The rows that lead some vector of the span (a set-like view)."""
        return self._pivot_of_row.keys()

    def add_column(self, col: int) -> None:
        """Feed one column; it becomes a pivot column or vanishes."""
        if col >> self.nrows:
            raise ValueError("column has bits outside the row range")
        while col:
            row = (col & -col).bit_length() - 1
            idx = self._pivot_of_row.get(row)
            if idx is None:
                self._pivot_of_row[row] = len(self._cols)
                self._cols.append(col)
                return
            col ^= self._cols[idx]

    def reduce(self, target: int) -> int:
        """Canonical representative of target modulo the column span."""
        if target >> self.nrows:
            raise ValueError("target has bits outside the row range")
        out = 0
        cur = target
        while cur:
            row = (cur & -cur).bit_length() - 1
            idx = self._pivot_of_row.get(row)
            if idx is None:
                bit = 1 << row
                out |= bit
                cur ^= bit
            else:
                cur ^= self._cols[idx]
        return out


def new_engine(nrows: int) -> Elimination:
    """Fresh incremental elimination engine."""
    return Elimination(nrows)


def essential_rows(boundaries, cycles, boundary_of_row) -> list[int]:
    """Birth rows of the essential classes: persistence with clearing.

    The engine boundaries spans the boundaries into the rows, and its
    pivot rows are skipped.  boundary_of_row(row), the boundary out of a
    row, of every other row is fed to the engine cycles, highest row
    first.  A row whose column adds no pivot is a birth.  Births come
    highest row first.

    A skipped row leads a boundary whose other rows are higher and whose
    boundary is zero, so from the highest down each skipped column is a
    sum of fed ones.  The births thus number the rows less the ranks in
    and out: the homology rank, in any row order.  With the rows in
    filtration order, highest grading first, each birth leads a cycle
    that no boundary leads: a filtration birth.
    """
    dying = boundaries.pivot_rows
    births = []
    for row in reversed(range(boundaries.nrows)):
        if row in dying:
            continue
        pivots = cycles.rank
        cycles.add_column(boundary_of_row(row))
        if cycles.rank == pivots:
            births.append(row)
    return births
