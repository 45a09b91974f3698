"""Filtered GF(2) chain complexes and their tau invariants.

A FilteredComplex is a finite chain complex over GF(2) whose generators
carry an exact-rational Maslov grading, an exact-rational Alexander
grading, and a Spin^c label.  The differential drops Maslov by exactly 1,
never raises Alexander, preserves the Spin^c label, and squares to zero.
The Alexander grading of a chain is the maximum over its support, so every
Alexander level j cuts out a subcomplex (all generators with A <= j).

Every tau here comes from one persistence sweep with clearing
(gf2.essential_rows; Zomorodian-Carlsson, Bauer-Kerber-Reininghaus) into
one engine (FilteredComplex._persistence).  Rows are generators in
TauRowOrder, highest Alexander grading first.  The boundaries are fed by
descending Maslov grading, in ascending filtration order within one,
skipping each row that is already a pivot: a cycle that dies.  A row
whose boundary adds no pivot is the birth of an essential class.  A
cycle is an int bitset over generator indices, bit i for generator i.

For a nonzero homology class alpha, tau(alpha) is the least level j at
which alpha is hit by the map H(level-j subcomplex) -> H(total complex);
equivalently the minimum over cycle representatives z of alpha of the top
Alexander grading in z.  The births are the leading rows of the cycles
that no boundary leads, so the cycles born there are a filtered basis:
tau of a sum of them is the largest of their birth gradings.
tau_spectrum lists every such sum up to rank FULL_ENUMERATION_CAP as a
sums.BasisSums, a Mapping that yields them in document order a table at
a time and never holds all 2^rank - 1 of them.  The test
suite checks this against the exhaustive minimum over representatives
and the ascending level sweep on small complexes, and the births against
a textbook persistence reduction without clearing.

The survivor deduction behind deep-slice reads a Poincare polynomial,
not a complex, and lives beside that record in paperdata.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .gf2 import _bit_positions, essential_rows, new_engine

if TYPE_CHECKING:
    from .sums import TauSpectrum

FULL_ENUMERATION_CAP = 20
# The largest document tau --complex reads: its bytes are counted before
# json.loads, its generators before any is parsed.  Columns are ints as
# wide as the complex, so memory grows with the square of the generators.
# Answered near the limits: compiled n=8 T(3,-5) (40,320 generators,
# 8.3 MB) in 3.2-4.3 s at 341 MB; 12,499 copies of x -> y + v, y and
# v -> z + s (49,997 generators, all columns of y and v as wide as the
# complex) in 1.8 s at 430 MB.  Without them, the 150,000-pair document
# (24 MB) and compiled n=9 T(2,-7) (88 MB) ran out of 3 GiB.  Counts bound
# memory, not the time of an elimination that fills in.
MAX_GENERATORS = 50_000
MAX_DOCUMENT_BYTES = 16_000_000


class InvalidComplexError(ValueError):
    """The generator/differential data violate a complex invariant."""


class Generator(NamedTuple):
    id: str
    maslov: Fraction
    alexander: Fraction
    spinc: str


class TauRowOrder:
    """Rows ordered highest Alexander grading first, ties in input order.

    The engine pivots on a column's lowest row, which in this order is its
    top grading, so the leading row of a cycle modulo boundaries is the
    smallest top grading among its representatives, and the pivot rows of
    a span are the top gradings its nonzero vectors can have.
    """

    def __init__(self, alexanders: Sequence[Fraction | int]):
        self.order = sorted(range(len(alexanders)), key=lambda i: (-alexanders[i], i))
        self.alexanders = [alexanders[i] for i in self.order]
        self.position = [0] * len(self.order)
        for row, i in enumerate(self.order):
            self.position[i] = row

    def permute(self, bits: int) -> int:
        """Move bit i (input index) to bit position[i] (row)."""
        out = 0
        for i in _bit_positions(bits):
            out |= 1 << self.position[i]
        return out


class FilteredComplex:
    """Immutable filtered complex; invariants verified at construction."""

    def __init__(
        self,
        generators: Iterable[Generator | tuple[str, Fraction, Fraction, str]],
        differential: Mapping[str, Iterable[str]],
    ):
        # Over GF(2) a repeated target cancels: refused first, naming its first repeat.
        self.differential: dict[str, frozenset[str]] = {}
        for src, dsts in differential.items():
            dsts = tuple(dsts)
            if len(targets := frozenset(dsts)) < len(dsts):
                seen: set[str] = set()
                dst = next(d for d in dsts if d in seen or seen.add(d))
                raise InvalidComplexError(f"differential[{src!r}]: repeated target {dst!r}")
            if targets:
                self.differential[src] = targets
        self.generators: tuple[Generator, ...] = tuple(
            g if isinstance(g, Generator) else Generator(*g) for g in generators
        )
        self.index = {g.id: i for i, g in enumerate(self.generators)}
        violations = validate(self)
        if violations:
            raise InvalidComplexError("; ".join(violations))

    def generator(self, gid: str) -> Generator:
        return self.generators[self.index[gid]]

    @cached_property
    def boundary_columns(self) -> list[int]:
        """Column bitsets of the differential in generator input order."""
        cols = []
        for g in self.generators:
            bits = 0
            for dst in self.differential.get(g.id, ()):
                bits |= 1 << self.index[dst]
            cols.append(bits)
        return cols

    def boundary_of(self, bits: int) -> int:
        out = 0
        cols = self.boundary_columns
        for i in _bit_positions(bits):
            out ^= cols[i]
        return out

    @cached_property
    def _tau_rows(self) -> TauRowOrder:
        return TauRowOrder([g.alexander for g in self.generators])

    @cached_property
    def _persistence(self):
        """The one engine, rows in TauRowOrder, and its birth rows:
        essential_rows' precondition holds, since the differential lowers
        Maslov by exactly 1 and the rows go by descending Maslov grading."""
        rows = self._tau_rows
        cols = self.boundary_columns
        maslov = [self.generators[i].maslov for i in rows.order]
        engine = new_engine(len(maslov))
        order = sorted(reversed(range(len(maslov))), key=maslov.__getitem__, reverse=True)
        births = essential_rows(
            engine, engine, lambda row: rows.permute(cols[rows.order[row]]), order
        )
        return engine, births


def validate(complex_: FilteredComplex) -> tuple[str, ...]:
    """Check all four datatype invariants; return every violation found."""
    violations: list[str] = []
    seen: set[str] = set()
    for g in complex_.generators:
        if g.id in seen:
            violations.append(f"duplicate generator id {g.id!r}")
        seen.add(g.id)
    for src, dsts in complex_.differential.items():
        if src not in complex_.index:
            violations.append(f"differential source {src!r} is not a generator")
            continue
        gs = complex_.generator(src)
        for dst in sorted(dsts):
            if dst not in complex_.index:
                violations.append(f"differential target {dst!r} is not a generator")
                continue
            gd = complex_.generator(dst)
            if gd.maslov != gs.maslov - 1:
                violations.append(
                    f"arrow {src} -> {dst}: Maslov drop "
                    f"{gs.maslov - gd.maslov}, expected 1"
                )
            if gd.alexander > gs.alexander:
                violations.append(
                    f"arrow {src} -> {dst}: Alexander grading raised "
                    f"({gs.alexander} -> {gd.alexander})"
                )
            if gd.spinc != gs.spinc:
                violations.append(
                    f"arrow {src} -> {dst}: Spin^c label changed "
                    f"({gs.spinc} -> {gd.spinc})"
                )
    if not violations:
        cols = complex_.boundary_columns
        for g in complex_.generators:
            square = 0
            for dst in complex_.differential.get(g.id, ()):
                square ^= cols[complex_.index[dst]]
            if square:
                offender = min(
                    complex_.generators[i].id
                    for i in _bit_positions(square)
                )
                violations.append(
                    f"d o d != 0 starting at {g.id} (hits {offender} oddly)"
                )
    return tuple(violations)


def homology_basis(complex_: FilteredComplex) -> list[int]:
    """Birth generators of a filtered basis of the total homology.

    Each index is the generator of an essential_rows birth: a class is
    born there, whose tau is the birth's Alexander grading.  The
    differential is block diagonal, so the class lies in the (Spin^c,
    Maslov) block of its birth.  Births are ordered by Spin^c label, then
    descending Maslov grading, then generator index.
    """
    gens = complex_.generators
    order = complex_._tau_rows.order
    _, births = complex_._persistence
    return sorted(
        (order[row] for row in births),
        key=lambda i: (gens[i].spinc, -gens[i].maslov, i),
    )


def _check_cycle(complex_: FilteredComplex, bits: int) -> None:
    n = len(complex_.generators)
    if bits < 0 or bits >> n:
        raise ValueError(f"representative has bits outside the {n} generators")
    if complex_.boundary_of(bits):
        raise ValueError("representative is not a cycle")


def tau(complex_: FilteredComplex, cycle: int) -> Fraction:
    """Minimal Alexander level at which the class of cycle (an int
    bitset over generator indices) appears in homology.

    In TauRowOrder a vector's lowest row is its top grading, so the
    leading row of the cycle modulo the boundaries is the least top
    grading over the class's representatives.
    """
    _check_cycle(complex_, cycle)
    rows = complex_._tau_rows
    engine, _ = complex_._persistence
    row = engine.leading_row(rows.permute(cycle))
    if row is None:
        raise ValueError("class is zero in homology")
    return rows.alexanders[row]


def tau_spectrum(complex_: FilteredComplex) -> TauSpectrum:
    """tau of every nonzero class; per_class lists them all up to rank 20
    as a sums.BasisSums, in the sorted order of their ids, and the basis
    only above it.

    The homology basis is filtered, so tau of a sum of basis classes is
    the grading of the smallest birth row in it, and the extremes are the
    gradings of the smallest and largest birth rows, at any rank.
    """
    from .sums import BasisSums, TauSpectrum

    basis = homology_basis(complex_)
    if not basis:
        raise ValueError("total homology is zero")
    rows = complex_._tau_rows
    births = [rows.position[i] for i in basis]
    taus = [rows.alexanders[row] for row in births]
    complete = len(basis) <= FULL_ENUMERATION_CAP
    if complete:
        per_class: Mapping[str, Fraction] = BasisSums(births, taus)
    else:
        per_class = dict(sorted((f"b{i}", t) for i, t in enumerate(taus)))
    return TauSpectrum(
        per_class=per_class,
        tau_max=rows.alexanders[min(births)],
        tau_min=rows.alexanders[max(births)],
        enumeration_complete=complete,
    )


def connected_sum_shift(spectrum: TauSpectrum, t: Fraction) -> TauSpectrum:
    """Connected sum with a local knot shifts every tau value uniformly."""
    from .sums import TauSpectrum

    t = Fraction(t)
    return TauSpectrum(
        per_class={cid: v + t for cid, v in spectrum.per_class.items()},
        tau_max=spectrum.tau_max + t,
        tau_min=spectrum.tau_min + t,
        enumeration_complete=spectrum.enumeration_complete,
    )
