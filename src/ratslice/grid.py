"""Grid diagrams for knots in the 3-sphere and their filtered complexes.

A grid of size n is a pair of permutations X, O of {0..n-1} marking one X
and one O in each row and column, never in the same cell.  Generators of
the associated complex are the n! one-point-per-row-and-column states;
the differential counts rectangles on the torus that contain no state
point and no O marking in their interior (X markings are allowed and each
one drops the Alexander filtration by 1).  Maslov and Alexander gradings
come from the planar dominance counts, with the Alexander grading shifted
by -(n-1)/2 so that the unknot's surviving class sits at level 0.

The total homology of this complex is the homology of the 3-sphere
tensored with one two-dimensional factor per extra marking pair: rank
2^(n-1), with rank binomial(n-1, k) in Maslov grading -k.  The knot
invariants live in the Maslov-0 piece, which has rank one; tau of the
grid is tau of that class.  Knot Floer ranks are recovered from the
graded (rectangle count zero X, zero O) homology by deconvolving the
binomial tower, after which they are symmetric in the Alexander grading.

Size cap: n <= 10.  tau reads only the three Maslov slices around zero
and never stores the full differential: it is the birth of the one
essential Maslov-0 persistence bar, found by eliminating the boundaries
into Maslov 0 and then the boundaries out of it with clearing.  The knot
Floer ranks compile the whole complex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .complexes import FilteredComplex, FloerClass, TauRowOrder, homology_basis
from .gf2 import new_engine
from .parallel import ordered_map

MAX_GRID_SIZE = 10


@dataclass(frozen=True)
class GridDiagram:
    """Two disjoint permutations: column -> row of the X and O markings."""

    x_markings: tuple[int, ...]
    o_markings: tuple[int, ...]

    def __post_init__(self):
        n = len(self.x_markings)
        if len(self.o_markings) != n or n == 0:
            raise ValueError("X and O rows must be nonempty and equal length")
        if sorted(self.x_markings) != list(range(n)) or sorted(self.o_markings) != list(range(n)):
            raise ValueError("X and O must each be a permutation of 0..n-1")
        if any(x == o for x, o in zip(self.x_markings, self.o_markings)):
            raise ValueError("X and O may not share a cell")

    @property
    def n(self) -> int:
        return len(self.x_markings)

    def components(self) -> int:
        """Number of link components: cycles of the column return map."""
        x_inverse = [0] * self.n
        for col, row in enumerate(self.x_markings):
            x_inverse[row] = col
        seen = [False] * self.n
        count = 0
        for start in range(self.n):
            if seen[start]:
                continue
            count += 1
            col = start
            while not seen[col]:
                seen[col] = True
                col = x_inverse[self.o_markings[col]]
        return count

    def is_knot(self) -> bool:
        return self.components() == 1

    def mirror(self) -> "GridDiagram":
        """Reflect across a vertical axis; represents the mirror knot."""
        return GridDiagram(tuple(reversed(self.x_markings)), tuple(reversed(self.o_markings)))


def torus_knot_grid(p: int, q: int) -> GridDiagram:
    """The standard (p + |q|)-size grid of the (p, q) torus knot.

    The positive-q convention is calibrated so that the positive trefoil
    torus_knot_grid(2, 3) compiles to tau = +1; negative q mirrors the
    positive grid.
    """
    from math import gcd

    if p < 1:
        raise ValueError("p must be >= 1")
    if q == 0:
        raise ValueError("q = 0 needs a 1x1 grid; use (1, 1) for the unknot")
    if gcd(p, abs(q)) != 1:
        raise ValueError(f"T({p},{q}) is a link, not a knot: gcd = {gcd(p, abs(q))}")
    n = p + abs(q)
    x = tuple(range(n))
    o = tuple((i + p) % n for i in range(n))
    # The diagonal-shift grid presents the negative (left-handed) torus
    # knot in this package's conventions, so the positive knot is its
    # mirror.  Frozen by the positive-trefoil tau = +1 calibration test.
    grid = GridDiagram(x, o)
    if q > 0:
        grid = grid.mirror()
    return grid


class _DominanceTables:
    """Suffix/prefix dominance counts for the planar grading formulas.

    For a marking permutation m, suf[i][v] counts columns j >= i with
    m(j) >= v and pre[i][v] counts columns j < i with m(j) < v, so the
    strict-southwest pair counts against a state are plain sums.
    """

    def __init__(self, markings: tuple[int, ...]):
        n = len(markings)
        self.suf = [[0] * (n + 1) for _ in range(n + 1)]
        self.pre = [[0] * (n + 1) for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            row = self.suf[i]
            nxt = self.suf[i + 1]
            for v in range(n + 1):
                row[v] = nxt[v] + (1 if markings[i] >= v else 0)
        for i in range(1, n + 1):
            row = self.pre[i]
            prev = self.pre[i - 1]
            for v in range(n + 1):
                row[v] = prev[v] + (1 if markings[i - 1] < v else 0)
        self.self_pairs = sum(
            1
            for j in range(n)
            for k in range(j + 1, n)
            if markings[j] < markings[k]
        )


class _Grader:
    def __init__(self, grid: GridDiagram):
        self.n = grid.n
        self.ox = _DominanceTables(grid.o_markings)
        self.xx = _DominanceTables(grid.x_markings)
        self.a_shift = Fraction(grid.n - 1, 2)

    def _pair_counts(self, state: tuple[int, ...], tables: _DominanceTables) -> int:
        # I(state, markings) + I(markings, state), strict dominance both ways.
        total = 0
        suf = tables.suf
        pre = tables.pre
        for i, v in enumerate(state):
            total += suf[i][v] + pre[i][v]
        return total

    def maslov(self, state: tuple[int, ...]) -> int:
        inv = sum(
            1
            for j in range(self.n)
            for k in range(j + 1, self.n)
            if state[j] < state[k]
        )
        return inv - self._pair_counts(state, self.ox) + self.ox.self_pairs + 1

    def gradings(self, state: tuple[int, ...]) -> tuple[int, Fraction]:
        m_o = self.maslov(state)
        m_x = (
            sum(
                1
                for j in range(self.n)
                for k in range(j + 1, self.n)
                if state[j] < state[k]
            )
            - self._pair_counts(state, self.xx)
            + self.xx.self_pairs
            + 1
        )
        return m_o, Fraction(m_o - m_x, 2) - self.a_shift


def _in_open(value: int, lo: int, hi: int) -> bool:
    # Cyclic open interval (lo, hi); empty when lo == hi.
    if lo < hi:
        return lo < value < hi
    return value > lo or value < hi


def _in_halfopen(value: int, lo: int, hi: int) -> bool:
    # Cyclic half-open interval [lo, hi).
    if lo < hi:
        return lo <= value < hi
    return value >= lo or value < hi


def _rectangle_targets(
    grid: GridDiagram, state: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Targets of the differential arrows leaving `state`.

    For each pair of columns there are two complementary rectangles on the
    torus with the right corner convention; a rectangle counts when its
    interior holds no state point and no O marking.  Two surviving
    rectangles to the same target cancel mod 2 (this already happens for
    the 2x2 unknot grid).
    """
    n = grid.n
    o = grid.o_markings
    parity: dict[tuple[int, ...], int] = {}
    for i in range(n):
        for j in range(i + 1, n):
            a, b = state[i], state[j]
            swapped = list(state)
            swapped[i], swapped[j] = b, a
            target = tuple(swapped)
            for (ci, cj, ra, rb) in ((i, j, a, b), (j, i, b, a)):
                blocked = False
                for c in range(n):
                    if not _in_halfopen(c, ci, cj):
                        continue
                    if c != ci and _in_open(state[c], ra, rb):
                        blocked = True
                        break
                    if _in_halfopen(o[c], ra, rb):
                        blocked = True
                        break
                if not blocked:
                    parity[target] = parity.get(target, 0) ^ 1
    return [t for t, flag in sorted(parity.items()) if flag]


def _state_id(state: tuple[int, ...]) -> str:
    return "x" + "".join(str(v) for v in state)


def _check_knot_grid(grid: GridDiagram) -> None:
    n = grid.n
    if n > MAX_GRID_SIZE:
        raise ValueError(
            f"grid size {n} exceeds the cap {MAX_GRID_SIZE}: the complex has n! "
            f"generators and {n}! is out of reach for exact elimination here"
        )
    if not grid.is_knot():
        raise ValueError(
            f"grid represents a {grid.components()}-component link, not a knot"
        )


def compile_grid(grid: GridDiagram) -> FilteredComplex:
    """Compile the grid into its filtered complex over GF(2)."""
    _check_knot_grid(grid)
    n = grid.n
    grader = _Grader(grid)
    states = list(itertools.permutations(range(n)))

    def build(state: tuple[int, ...]):
        maslov, alexander = grader.gradings(state)
        targets = _rectangle_targets(grid, state)
        return state, maslov, alexander, targets

    rows = ordered_map(build, states)
    generators = [
        (_state_id(state), Fraction(maslov), alexander, "0")
        for state, maslov, alexander, _ in rows
    ]
    differential = {
        _state_id(state): frozenset(_state_id(t) for t in targets)
        for state, _, _, targets in rows
        if targets
    }
    return FilteredComplex(generators, differential)


def maslov_zero_class(complex_: FilteredComplex) -> FloerClass:
    """The generator of the homology in Maslov grading zero."""
    classes = [c for c in homology_basis(complex_) if c.maslov == 0]
    if len(classes) != 1:
        raise ValueError(
            f"expected a single Maslov-0 class, found {len(classes)}"
        )
    return classes[0]


def tau(grid: GridDiagram) -> Fraction:
    """tau of the knot presented by the grid.

    Filter the Maslov-0 states by Alexander grading.  Eliminating the
    boundaries of the Maslov-1 states, rows in TauRowOrder, marks the
    Maslov-0 states whose cycles die (the pivot rows).  The boundaries of
    the other Maslov-0 states are then fed in ascending filtration order;
    a state whose boundary adds no pivot is born a new cycle, and the one
    such state that never dies generates the Maslov-0 homology.  Its
    Alexander grading is the least level that carries the class: tau.
    """
    _check_knot_grid(grid)
    grader = _Grader(grid)
    slices: dict[int, list[tuple[int, ...]]] = {-1: [], 0: [], 1: []}
    for state in itertools.permutations(range(grid.n)):
        m = grader.maslov(state)
        if m in slices:
            slices[m].append(state)
    middle = slices[0]
    rows = TauRowOrder([grader.gradings(s)[1] for s in middle])
    row_of = {state: rows.position[i] for i, state in enumerate(middle)}

    boundaries = new_engine(len(middle), track=False)
    for state in slices[1]:
        bits = 0
        for target in _rectangle_targets(grid, state):
            bits |= 1 << row_of[target]
        boundaries.add_column(bits)
    dying = boundaries.pivot_rows

    below = {state: i for i, state in enumerate(slices[-1])}
    cycles = new_engine(len(below), track=False)
    essential = []
    for row in reversed(range(len(middle))):
        if row in dying:
            continue
        bits = 0
        for target in _rectangle_targets(grid, middle[rows.order[row]]):
            bits |= 1 << below[target]
        pivots = cycles.rank
        cycles.add_column(bits)
        if cycles.rank == pivots:
            essential.append(row)
    if len(essential) != 1:
        raise AssertionError(
            f"expected one essential Maslov-0 class, found {len(essential)}"
        )
    return rows.alexanders[essential[0]]


def graded_ranks(
    grid: GridDiagram, complex_: Optional[FilteredComplex] = None
) -> dict[tuple[Fraction, Fraction], int]:
    """Homology ranks of the associated graded object, keyed (M, A).

    The graded differential keeps only filtration-preserving arrows, i.e.
    rectangles containing neither X nor O markings.
    """
    if complex_ is None:
        complex_ = compile_grid(grid)
    blocks: dict[tuple[Fraction, Fraction], list[str]] = {}
    gradings: dict[str, tuple[Fraction, Fraction]] = {}
    for g in complex_.generators:
        gradings[g.id] = (g.maslov, g.alexander)
        blocks.setdefault((g.maslov, g.alexander), []).append(g.id)
    n_all = len(complex_.generators)
    cols: dict[str, int] = {}
    for g in complex_.generators:
        bits = 0
        for dst in complex_.differential.get(g.id, ()):
            if gradings[dst][1] == g.alexander:
                bits |= 1 << complex_.index[dst]
        cols[g.id] = bits
    block_rank: dict[tuple[Fraction, Fraction], int] = {}
    for key, members in blocks.items():
        engine = new_engine(n_all, track=False)
        for gid in members:
            engine.add_column(cols[gid])
        block_rank[key] = engine.rank
    ranks: dict[tuple[Fraction, Fraction], int] = {}
    for (m, a), members in blocks.items():
        r = len(members) - block_rank[(m, a)] - block_rank.get((m + 1, a), 0)
        if r:
            ranks[(m, a)] = r
    return ranks


def hfk_bigraded_ranks(
    grid: GridDiagram, complex_: Optional[FilteredComplex] = None
) -> dict[tuple[Fraction, Fraction], int]:
    """Knot Floer homology ranks, binomial tower deconvolved, keyed (M, A).

    The graded grid homology is the knot homology tensored with n-1 copies
    of a rank-2 bigraded factor supported at (0, 0) and (-1, -1); peeling
    the tower from the top Alexander grading down recovers the knot ranks.
    """
    raw = graded_ranks(grid, complex_)
    n = grid.n
    remaining = dict(raw)
    result: dict[tuple[Fraction, Fraction], int] = {}
    for (m, a) in sorted(remaining, key=lambda k: (-k[1], -k[0])):
        count = remaining.get((m, a), 0)
        if count < 0:
            raise AssertionError("tower deconvolution went negative")
        if count == 0:
            continue
        result[(m, a)] = count
        for k in range(0, n):
            shifted = (m - k, a - k)
            weight = comb(n - 1, k) * count
            if weight == 0:
                continue
            left = remaining.get(shifted, 0) - weight
            if left:
                remaining[shifted] = left
            else:
                remaining.pop(shifted, None)
    if remaining:
        raise AssertionError(f"tower deconvolution left residue: {remaining}")
    return result


def hfk_ranks(
    grid: GridDiagram, complex_: Optional[FilteredComplex] = None
) -> dict[Fraction, int]:
    """Knot Floer ranks per Alexander grading (symmetric under A -> -A)."""
    out: dict[Fraction, int] = {}
    for (m, a), r in hfk_bigraded_ranks(grid, complex_).items():
        out[a] = out.get(a, 0) + r
    return out
