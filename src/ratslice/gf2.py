"""Sparse linear algebra over GF(2): rank, kernel, image membership.

Matrices are immutable value objects: two matrices are equal exactly when
their (rows, cols, entry set) data agree.  All computations run through
one elimination engine, the pure-Python int-bitset engine in
ratslice._gf2py, with deterministic lowest-row-first pivoting, so kernel
bases and witnesses are bit-identical across runs.  Entries are stored
as a sparse set at the API boundary and packed into dense column bitsets
for computation, which covers both the sparse and the dense regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import _gf2py

# Named in benchmark run records.
BACKEND_NAME = "python"


def new_engine(nrows: int, track: bool = True):
    """Fresh incremental elimination engine."""
    return _gf2py.Elimination(nrows, track)


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

    def is_zero(self) -> bool:
        return not self.support


@dataclass(frozen=True)
class SparseMatrixGF2:
    """A GF(2) matrix as a set of (row, col) positions of nonzero entries."""

    rows: int
    cols: int
    entries: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "entries", frozenset(self.entries))
        for r, c in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry ({r}, {c}) out of range")

    @classmethod
    def from_columns(cls, rows: int, columns: list[int]) -> "SparseMatrixGF2":
        entries = {
            (r, c) for c, bits in enumerate(columns) for r in _bit_positions(bits)
        }
        return cls(rows, len(columns), frozenset(entries))

    def column_bits(self) -> list[int]:
        out = [0] * self.cols
        for r, c in self.entries:
            out[c] |= 1 << r
        return out

    def transpose(self) -> "SparseMatrixGF2":
        return SparseMatrixGF2(self.cols, self.rows, frozenset((c, r) for r, c in self.entries))

    def density(self) -> float:
        total = self.rows * self.cols
        return len(self.entries) / total if total else 0.0

    def apply(self, v: VectorGF2) -> VectorGF2:
        """Matrix-vector product Mv over GF(2)."""
        if v.length != self.cols:
            raise ValueError(f"vector length {v.length} != matrix cols {self.cols}")
        bits = 0
        cols = self.column_bits()
        for c in v.support:
            bits ^= cols[c]
        return VectorGF2.from_int(self.rows, bits)


def _bit_positions(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def rank(m: SparseMatrixGF2) -> int:
    """Rank of m over GF(2)."""
    engine = new_engine(m.rows, track=False)
    for col in m.column_bits():
        engine.add_column(col)
    return engine.rank


def kernel_basis(m: SparseMatrixGF2) -> list[VectorGF2]:
    """Deterministic basis of the null space; len == cols - rank(m)."""
    engine = new_engine(m.rows, track=True)
    for col in m.column_bits():
        engine.add_column(col)
    return [VectorGF2.from_int(m.cols, combo) for combo in engine.kernel_combos]


def in_image(m: SparseMatrixGF2, v: VectorGF2) -> VectorGF2 | None:
    """A witness x with Mx = v if v lies in the column space, else None."""
    if v.length != m.rows:
        raise ValueError(f"vector length {v.length} != matrix rows {m.rows}")
    engine = new_engine(m.rows, track=True)
    for col in m.column_bits():
        engine.add_column(col)
    combo = engine.solve(v.to_int())
    if combo is None:
        return None
    return VectorGF2.from_int(m.cols, combo)
