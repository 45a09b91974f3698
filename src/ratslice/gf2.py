"""GF(2) linear algebra on Python int bitsets: one elimination engine.

Every rank, cycle basis and tau residue in the package comes from an
Elimination built with new_engine; VectorGF2 is the value type of cycle
representatives.  Columns are Python integers: bit i set means the
column has a 1 in row i.  Pivoting is deterministic, lowest row index
first, so echelon columns, kernel combinations and canonical residues
are reproducible across runs.

A column added to the engine is reduced against existing pivot columns
until its lowest set bit is a fresh row (then it becomes a pivot) or it
vanishes (then its combination mask is a kernel vector of the column set
added so far).  Every stored pivot column has its pivot row as the lowest
set bit, so reducing a target by repeatedly clearing its lowest pivot bit
terminates and yields the unique coset representative supported away from
all pivot rows.  With rows ordered by priority (bit 0 strongest), that
representative is lexicographically minimal in its coset.  The pivot rows
are the leading rows of the span's nonzero vectors, whatever order the
columns were added in: exactly rank many, one per dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Named in benchmark run records.
BACKEND_NAME = "python"


def _lsb(x: int) -> int:
    return (x & -x).bit_length() - 1


def _bit_positions(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class Elimination:
    """Incremental column echelon over GF(2) with combination tracking."""

    def __init__(self, nrows: int, track: bool = True):
        self.nrows = nrows
        self.track = track
        self.ncols = 0
        self._pivot_of_row: dict[int, int] = {}
        self._cols: list[int] = []
        self._combos: list[int] = []
        self.kernel_combos: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._cols)

    @property
    def pivot_rows(self):
        """The rows that lead some vector of the span (a set-like view)."""
        return self._pivot_of_row.keys()

    def add_column(self, col: int) -> None:
        """Feed one column; may create a pivot or a kernel combination."""
        if col >> self.nrows:
            raise ValueError("column has bits outside the row range")
        combo = 1 << self.ncols if self.track else 0
        self.ncols += 1
        while col:
            row = _lsb(col)
            idx = self._pivot_of_row.get(row)
            if idx is None:
                self._pivot_of_row[row] = len(self._cols)
                self._cols.append(col)
                self._combos.append(combo)
                return
            col ^= self._cols[idx]
            if self.track:
                combo ^= self._combos[idx]
        if self.track:
            self.kernel_combos.append(combo)

    def reduce(self, target: int) -> int:
        """Canonical representative of target modulo the column span."""
        if target >> self.nrows:
            raise ValueError("target has bits outside the row range")
        out = 0
        cur = target
        while cur:
            row = _lsb(cur)
            idx = self._pivot_of_row.get(row)
            if idx is None:
                bit = 1 << row
                out |= bit
                cur ^= bit
            else:
                cur ^= self._cols[idx]
        return out


def new_engine(nrows: int, track: bool = True) -> Elimination:
    """Fresh incremental elimination engine."""
    return Elimination(nrows, track)


@dataclass(frozen=True)
class VectorGF2:
    """A GF(2) vector given by its length and support set."""

    length: int
    support: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "support", frozenset(self.support))
        if any(not (0 <= i < self.length) for i in self.support):
            raise ValueError("support index out of range")

    @classmethod
    def from_int(cls, length: int, bits: int) -> "VectorGF2":
        return cls(length, frozenset(_bit_positions(bits)))

    def to_int(self) -> int:
        bits = 0
        for i in self.support:
            bits |= 1 << i
        return bits
