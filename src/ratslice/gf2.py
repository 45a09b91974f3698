"""GF(2) linear algebra on Python int bitsets: one elimination engine.

Every rank, homology basis and tau in the package comes from an
Elimination built with new_engine.  Columns, and every other GF(2)
vector in the package, cycles included, are Python integers: bit i set
means a 1 in row i.  Pivoting is deterministic, lowest row index first,
so echelon columns and leading rows are reproducible across runs.

The engine keeps one pivot column per pivot row, its lowest set bit.
A column is reduced by adding the pivot column of its lowest row until
that row leads no pivot or the column vanishes; add_column keeps what
is left as a new pivot column.  The pivot rows are the leading rows of
the span's nonzero vectors, whatever order the columns were added in:
exactly rank many, one per dimension.  leading_row(target) is the
lowest row of the reduced target, None when the target lies in the
span.  No vector of the coset target + span has a higher lowest row,
so with rows ordered highest grading first, leading_row is the least
top grading among the coset's representatives.

essential_rows is the one persistence sweep with clearing behind every
homology basis, tau and knot Floer rank: grid.tau and grid.graded_ranks
(down each Alexander level) fill a boundaries engine first, and a
FilteredComplex passes its one engine as both boundaries and cycles.
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
    """Incremental column echelon over GF(2): one dict from pivot row to
    its pivot column."""

    def __init__(self, nrows: int):
        self.nrows = nrows
        self._pivots: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivot_rows(self):
        """The rows that lead some vector of the span (a set-like view)."""
        return self._pivots.keys()

    def _reduce(self, col: int) -> int:
        """col less pivot columns, until its lowest row leads no pivot (or 0)."""
        if col >> self.nrows:
            raise ValueError("vector has bits outside the row range")
        pivots = self._pivots
        while col:
            pivot = pivots.get((col & -col).bit_length() - 1)
            if pivot is None:
                break
            col ^= pivot
        return col

    def add_column(self, col: int) -> None:
        """Feed one column; it becomes a pivot column or vanishes."""
        col = self._reduce(col)
        if col:
            self._pivots[(col & -col).bit_length() - 1] = col

    def leading_row(self, target: int) -> int | None:
        """Lowest row of target reduced modulo the span; None if in the span."""
        target = self._reduce(target)
        return (target & -target).bit_length() - 1 if target else None


def new_engine(nrows: int) -> Elimination:
    """Fresh incremental elimination engine."""
    return Elimination(nrows)


def essential_rows(boundaries, cycles, boundary_of_row, order=None) -> list[int]:
    """Birth rows of the essential classes: persistence with clearing.

    Rows are visited in order, highest row first by default.  A pivot row
    of the engine boundaries, which spans the boundaries into the rows,
    is skipped; boundary_of_row(row), the boundary out of any other row,
    is fed to the engine cycles, which may be the same engine.  A row
    whose column adds no pivot is a birth.  Births come in visit order.

    Precondition: the differential lowers a homological degree by exactly
    1, and when a row is visited, boundaries holds every pivot row of its
    degree and the higher rows of that degree have been visited.  Filling
    boundaries first meets it, and so does one engine fed by descending
    degree: a degree's pivot rows come from the columns of the one above.

    A skipped row leads a boundary whose other rows are higher, so visited
    earlier, and whose boundary is zero: from the highest down, each
    skipped column is a sum of fed ones (Chen-Kerber's twist).  The births
    thus number the rows less the ranks in and out: the homology rank.
    With the rows in filtration order, highest grading first, each birth
    leads a cycle that no boundary leads: a filtration birth.
    """
    dying = boundaries.pivot_rows
    births = []
    for row in reversed(range(boundaries.nrows)) if order is None else order:
        if row in dying:
            continue
        pivots = cycles.rank
        cycles.add_column(boundary_of_row(row))
        if cycles.rank == pivots:
            births.append(row)
    return births
