"""Filtered GF(2) chain complexes and their tau invariants.

A FilteredComplex is a finite chain complex over GF(2) whose generators
carry an exact-rational Maslov grading, an exact-rational Alexander
grading, and a Spin^c label.  The differential drops Maslov by exactly 1,
never raises Alexander, preserves the Spin^c label, and squares to zero.
The Alexander grading of a chain is the maximum over its support, so every
Alexander level j cuts out a subcomplex (all generators with A <= j).

Every tau here comes from one persistence sweep with clearing
(gf2.essential_rows; Zomorodian-Carlsson, Bauer-Kerber-Reininghaus).  Rows
are generators in TauRowOrder, highest Alexander grading first.  The
pivot rows of the boundaries (FilteredComplex._tau_engine) are the
cycles that die; the boundaries out of the other rows are fed in
ascending filtration order, and a row whose boundary adds no pivot is
the birth of an essential class.  A cycle is an int bitset over
generator indices, bit i for generator i.

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
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .gf2 import _bit_positions, essential_rows, new_engine
from .record import record

if TYPE_CHECKING:
    from .sums import TauSpectrum

FULL_ENUMERATION_CAP = 20


class InvalidComplexError(ValueError):
    """The generator/differential data violate a complex invariant."""


class DeductionError(ValueError):
    """A survivor deduction is infeasible; the message names the obstruction."""


class Generator(NamedTuple):
    id: str
    maslov: Fraction
    alexander: Fraction
    spinc: str


@record
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


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
        report = validate(self)
        if not report.ok:
            raise InvalidComplexError("; ".join(report.violations))

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
    def _tau_engine(self):
        """The boundaries into the rows: boundary columns in generator
        order, rows in TauRowOrder.  Its pivot rows are the cycles that die.
        """
        engine = new_engine(len(self.generators))
        for col in self.boundary_columns:
            engine.add_column(self._tau_rows.permute(col))
        return engine


def validate(complex_: FilteredComplex) -> ValidationReport:
    """Check all four datatype invariants; list every violation found."""
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
    return ValidationReport(tuple(violations))


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
    cols = complex_.boundary_columns
    births = essential_rows(
        complex_._tau_engine, new_engine(len(gens)), lambda row: cols[order[row]]
    )
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
    row = complex_._tau_engine.leading_row(rows.permute(cycle))
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


RankEntry = tuple[Fraction, Fraction, int]


def _normalize_ranks(ranks: Sequence[RankEntry]) -> list[RankEntry]:
    merged: dict[tuple[Fraction, Fraction], int] = {}
    for alexander, maslov, count in ranks:
        if count < 0:
            raise DeductionError("negative rank")
        key = (Fraction(alexander), Fraction(maslov))
        merged[key] = merged.get(key, 0) + count
    return sorted((a, m, c) for (a, m), c in merged.items() if c > 0)


def _cancellation_plan(
    ranks: Sequence[RankEntry], target_rank: int
) -> tuple[list[RankEntry], list[tuple[int, int]], int]:
    """Merged entries, cancellable (hi, lo) pairs and the number of
    cancellations down to the target, after the refusals every deduction
    shares: total below the target, odd difference, and a target below
    the Maslov parity imbalance.

    The entries are sorted by Alexander grading, so an entry's partners
    are a prefix of the entries one Maslov grading down.
    """
    entries = _normalize_ranks(ranks)
    total = sum(c for _, _, c in entries)
    if total < target_rank:
        raise DeductionError(
            f"total rank {total} is below the target rank {target_rank}"
        )
    if (total - target_rank) % 2:
        raise DeductionError(
            f"parity mismatch: cancellations remove rank in pairs, but "
            f"total {total} - target {target_rank} is odd"
        )
    # A cancellation removes one unit at M and one at M + 1, so per
    # residue M mod 1 the units at even floor(M) minus those at odd
    # floor(M) never change, and at least |that| many survive.
    parity: Counter = Counter()
    for _, m, count in entries:
        parity[m % 1] += -count if math.floor(m) % 2 else count
    imbalance = sum(abs(d) for d in parity.values())
    if target_rank < imbalance:
        raise DeductionError(
            f"target rank {target_rank} unreachable: a cancellation "
            f"pairs units at Maslov M and M + 1, so the imbalance "
            f"{imbalance} between units at even and odd floor(M) (per "
            f"residue M mod 1) always survives"
        )
    levels: dict[Fraction, list[int]] = {}
    for i, (_, m, _) in enumerate(entries):
        levels.setdefault(m, []).append(i)
    pairs: list[tuple[int, int]] = []
    for hi, (a_hi, m_hi, _) in enumerate(entries):
        below = levels.get(m_hi - 1, [])
        cut = bisect_left(below, a_hi, key=lambda lo: entries[lo][0])
        pairs.extend((hi, lo) for lo in below[:cut])
    return entries, pairs, (total - target_rank) // 2


_UNREACHABLE = (
    "target rank unreachable: no sequence of cancellable pairs "
    "(Maslov difference 1, Alexander strictly dropping) reaches it"
)


def survivor_deduction(
    ranks: Sequence[RankEntry], target_rank: int
) -> frozenset[tuple[Fraction, ...]]:
    """All multisets of Alexander gradings that can survive cancellation.

    One cancellation removes a unit of rank from each member of a pair of
    bigradings whose Maslov gradings differ by exactly 1 and whose
    higher-Maslov member sits at strictly greater Alexander grading
    (page >= 1 differentials strictly drop the filtration).  Outcomes are
    collected by a sweep over rank levels: each step applies every
    cancellable pair to every rank vector of the current level, and the
    survivors are read off the level whose sum is the target.

    No command runs this sweep.  It is the reference the tests hold
    survivable_gradings to, and perfbench/shim.py hooks it by name; it
    moves to the tests with the next benchmark change.
    """
    entries, pairs, cancellations = _cancellation_plan(ranks, target_rank)
    level = {tuple(c for _, _, c in entries)}
    for _ in range(cancellations):
        after: set[tuple[int, ...]] = set()
        for vector in level:
            for hi, lo in pairs:
                if vector[hi] and vector[lo]:
                    nxt = list(vector)
                    nxt[hi] -= 1
                    nxt[lo] -= 1
                    after.add(tuple(nxt))
        level = after
    alexanders = [a for a, _, _ in entries]
    outcomes = frozenset(
        tuple(a for a, count in zip(alexanders, vector) for _ in range(count))
        for vector in level
    )
    if not outcomes:
        raise DeductionError(_UNREACHABLE)
    return outcomes


def survivable_gradings(
    ranks: Sequence[RankEntry], target_rank: int
) -> frozenset[Fraction]:
    """The Alexander gradings at which some unit can survive cancellation.

    Equal to the union of survivor_deduction's outcomes, with the same
    refusals; one max-flow answers it instead of a listing of rank
    vectors.

    Why it is exact: a multiset of k cancellable pairs that uses each
    entry i at most c_i times can be applied in any order, since every
    unit a later pair needs is still there.  So the outcomes of k
    cancellations are exactly c minus the degrees of the b-matchings of
    size k in the graph of cancellable pairs, with capacities c.  A pair
    joins M and M + 1 in one residue M mod 1, so the graph is bipartite:
    entries at even floor(M) on one side, odd floor(M) on the other.  A
    larger b-matching shrinks to size k by dropping pairs, so k
    cancellations exist exactly when the maximum flow from the even
    entries to the odd ones reaches k.  Any other flow of value k is this
    one plus residual cycles; a cycle that frees a unit at a saturated
    even entry runs through the reverse of its source edge, and the rest
    of it is a residual path from the source to that entry.  So an even
    entry can keep a unit exactly when the source reaches it in the
    residual graph, and an odd entry exactly when it reaches the sink.
    """
    entries, pairs, cancellations = _cancellation_plan(ranks, target_rank)
    flow, residual = _cancellation_flow(entries, pairs, cancellations)
    if flow < cancellations:
        raise DeductionError(_UNREACHABLE)
    transposed = [{u: residual[u][v] for u in out} for v, out in enumerate(residual)]
    reached = (_reached(residual, len(entries)), _reached(transposed, len(entries) + 1))
    return frozenset(
        a for i, (a, m, _) in enumerate(entries) if i in reached[math.floor(m) % 2]
    )


def _reached(graph, start, stop=None) -> dict[int, int]:
    """BFS parents of the nodes start reaches by positive capacities, up to stop."""
    parent = {start: start}
    queue = [start]
    for u in queue:
        for v, cap in graph[u].items():
            if cap and v not in parent:
                parent[v] = u
                queue.append(v)
        if stop in parent:
            break
    return parent


def _cancellation_flow(entries, pairs, limit) -> tuple[int, list[dict[int, int]]]:
    """Size and residual graph of a maximum b-matching of cancellable
    pairs with capacities the ranks, stopped at limit pairs.

    Edmonds-Karp: a source feeds the entries at even floor(M), the
    entries at odd floor(M) drain into a sink, each pair is an edge from
    its even member to its odd one, and every BFS augmenting path carries
    its bottleneck.  Nodes n and n + 1 are the source and the sink, and
    residual[u][v] is the capacity left from u to v.  The cost depends on
    the number of entries, not the ranks.
    """
    n = len(entries)
    source, sink = n, n + 1
    residual: list[dict[int, int]] = [{} for _ in range(n + 2)]
    for i, (_, m, count) in enumerate(entries):
        u, v = (i, sink) if math.floor(m) % 2 else (source, i)
        residual[u][v] = count
        residual[v][u] = 0
    for hi, lo in pairs:
        u, v = (lo, hi) if math.floor(entries[hi][1]) % 2 else (hi, lo)
        residual[u][v] = limit
        residual[v][u] = 0
    flow = 0
    while flow < limit:
        parent = _reached(residual, source, sink)
        if sink not in parent:
            break
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        push = min(limit - flow, *(residual[u][v] for v, u in zip(path, path[1:])))
        for v, u in zip(path, path[1:]):
            residual[u][v] -= push
            residual[v][u] += push
        flow += push
    return flow, residual
