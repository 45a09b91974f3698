"""Grid diagrams for knots in the 3-sphere and their filtered complexes.

A grid of size n is a pair of permutations X, O of {0..n-1} marking one X
and one O in each row and column, never in the same cell.  Generators of
the associated complex are the n! one-point-per-row-and-column states;
the differential counts rectangles on the torus that contain no state
point and no O marking in their interior (X markings are allowed and each
one drops the Alexander filtration by 1).  Maslov and Alexander gradings
come from the planar dominance counts, with the Alexander grading shifted
by -(n-1)/2 so that the unknot's surviving class sits at level 0.

Both per-state loops are integer loops.  The grading scan reads the
Maslov grading and the doubled Alexander grading 2A from precombined
dominance tables and a bitmask of the rows seen (_Grader).  The empty
rectangles leaving a state are found in O(n^2) by sweeping rightwards
from each state point while tracking the nearest blocker above it; the
distance from each row up to the first blocking marking of each column
is a table computed once per grid and blocking set (GridDiagram.o_near,
GridDiagram.ox_near).

The total homology of this complex is the homology of the 3-sphere
tensored with one two-dimensional factor per extra marking pair: rank
2^(n-1), with rank binomial(n-1, k) in Maslov grading -k.  The knot
invariants live in the Maslov-0 piece, which has rank one; tau of the
grid is tau of that class.  Knot Floer ranks are recovered from the
graded (rectangle count zero X, zero O) homology by deconvolving the
binomial tower, after which they are symmetric in the Alexander grading.

Size cap: n <= 10.  Neither tau nor the knot Floer ranks store the full
differential.  tau reads only the three Maslov slices around zero: it is
the birth of the one essential Maslov-0 persistence bar, found by the
same clearing sweep that gives a filtered complex its homology basis
(complexes.essential_rows), run on the boundaries into Maslov 0 and the
boundaries out of it.  The graded differential preserves the Alexander
grading, so the knot Floer ranks take the rank of each (M, A) block
against the (M - 1, A) block alone.  compile_grid builds the whole
filtered complex; only the tests use it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .complexes import FilteredComplex, TauRowOrder, essential_rows
from .gf2 import new_engine

MAX_GRID_SIZE = 10
# Knot Floer ranks grade every one of the n! states: at n = 9 T(2,7) takes
# 12 s at 134 MB, and at n = 10 T(3,7) runs out of 3 GB after 102 s.
MAX_HFK_SIZE = 9
# The largest Maslov-0 slice grid tau is measured to answer within 3 GB:
# T(2,-7) at n = 9.  T(3,-7) at n = 10 has 478,886 states and runs out.
MAX_TAU_SLICE = 58_748


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

    @cached_property
    def o_near(self) -> tuple[tuple[int, ...], ...]:
        """_empty_rectangles' near table for the O markings (the differential)."""
        return _near_table(self.n, [(o,) for o in self.o_markings])

    @cached_property
    def ox_near(self) -> tuple[tuple[int, ...], ...]:
        """_empty_rectangles' near table for O and X (the graded differential)."""
        return _near_table(self.n, list(zip(self.o_markings, self.x_markings)))

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
    positive grid.  A size over the cap is refused before anything is
    allocated.
    """
    from math import gcd

    if p < 1:
        raise ValueError("p must be >= 1")
    if q == 0:
        raise ValueError("q = 0 needs a 1x1 grid; use (1, 1) for the unknot")
    if gcd(p, abs(q)) != 1:
        raise ValueError(f"T({p},{q}) is a link, not a knot: gcd = {gcd(p, abs(q))}")
    n = p + abs(q)
    _check_size(n)
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
    """Dominance sums of one marking permutation m, for the grading scan.

    sums[i][v] counts the columns j >= i with m(j) >= v plus the columns
    j < i with m(j) < v, so the strict-dominance pair counts
    I(state, m) + I(m, state) are the sum of sums[i][state[i]] over i.
    """

    def __init__(self, markings: tuple[int, ...]):
        n = len(markings)
        self.sums = tuple(
            tuple(
                sum(1 for j in range(i, n) if markings[j] >= v)
                + sum(1 for j in range(i) if markings[j] < v)
                for v in range(n)
            )
            for i in range(n)
        )
        self.self_pairs = sum(
            1
            for j in range(n)
            for k in range(j + 1, n)
            if markings[j] < markings[k]
        )


class _Grader:
    """Maslov and doubled Alexander gradings of states, as integers.

    M(state) = I(state, state) - I(state, O) - I(O, state) + I(O, O) + 1,
    with I counting strictly dominating pairs and the inversions
    I(state, state) read from a bitmask of the rows already seen.  The X
    Maslov grading is the same with X, and the Alexander grading is
    A = (M_O - M_X - n + 1) / 2, so 2A = I(state, X) + I(X, state)
    - I(state, O) - I(O, state) + I(O, O) - I(X, X) - n + 1 needs no
    inversions.  Callers build a Fraction only for the values they keep.
    """

    def __init__(self, grid: GridDiagram):
        n = grid.n
        o = _DominanceTables(grid.o_markings)
        x = _DominanceTables(grid.x_markings)
        self.o_sums = o.sums
        self.x_sums = x.sums
        self.below = tuple((1 << v) - 1 for v in range(n))
        self.maslov_shift = o.self_pairs + 1
        self.alexander_shift = o.self_pairs - x.self_pairs - n + 1

    def maslov(self, state: tuple[int, ...]) -> int:
        below = self.below
        seen = 0
        maslov = self.maslov_shift
        for o_row, v in zip(self.o_sums, state):
            maslov += (seen & below[v]).bit_count() - o_row[v]
            seen |= 1 << v
        return maslov

    def gradings(self, state: tuple[int, ...]) -> tuple[int, int]:
        """(M, 2A) of the state."""
        below = self.below
        seen = 0
        maslov = self.maslov_shift
        alexander = self.alexander_shift
        for o_row, x_row, v in zip(self.o_sums, self.x_sums, state):
            o = o_row[v]
            maslov += (seen & below[v]).bit_count() - o
            alexander += x_row[v] - o
            seen |= 1 << v
        return maslov, alexander


def _near_table(n: int, blocking: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    # near[a][c] = near[a][c + n]: cyclic distance from row a up to the
    # first row of blocking[c] (0 when a itself is blocked).
    near = []
    for a in range(n):
        row = [min((r - a) % n for r in rows) for rows in blocking]
        near.append(tuple(row + row))
    return tuple(near)


def _empty_rectangles(
    state: tuple[int, ...], near: tuple[tuple[int, ...], ...]
) -> list[tuple[int, ...]]:
    """Targets of the rectangles leaving `state` with an empty interior.

    A rectangle from column ci to cj and row a = state[ci] to b = state[cj]
    covers the marking cells of columns [ci, cj) and rows [a, b), all
    cyclic; its lower left corner is the state point (ci, a), so the other
    state points it may not contain are those of columns (ci, cj) in rows
    [a, b).  near[a][c] is the cyclic distance from row a up to the first
    marking in column c that a rectangle may not contain (see _near_table).

    From each state point the sweep walks cj rightwards, keeping d, the
    distance up from a to the nearest blocker in the columns covered so
    far (markings of [ci, cj), state points of (ci, cj)).  The rectangle
    to cj is empty exactly when (b - a) mod n <= d, and the walk stops
    when d reaches 0, so a state costs O(n^2).  The two complementary
    rectangles between a pair of columns have the same target, listed
    twice when both are empty (as on the 2x2 unknot grid): callers sum
    the targets mod 2 as they build each column.
    """
    n = len(state)
    wrapped = state + state
    targets = []
    for ci in range(n):
        a = state[ci]
        reach = near[a]
        d = reach[ci]
        c = ci + 1
        while d and c < ci + n:
            h = (wrapped[c] - a) % n
            if h <= d:
                cj = c - n if c >= n else c
                target = list(state)
                target[ci], target[cj] = target[cj], target[ci]
                targets.append(tuple(target))
                d = h
            if reach[c] < d:
                d = reach[c]
            c += 1
    return targets


def _rectangle_targets(
    grid: GridDiagram, state: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Targets of the differential arrows leaving `state`.

    A rectangle counts when its interior holds no state point and no O
    marking; each X marking inside drops the Alexander filtration by 1.
    """
    return _empty_rectangles(state, grid.o_near)


def _graded_targets(
    grid: GridDiagram, state: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Targets of the associated graded differential leaving `state`.

    These are the arrows that preserve the Alexander grading: rectangles
    with no state point, no O and no X marking inside.
    """
    return _empty_rectangles(state, grid.ox_near)


def _state_id(state: tuple[int, ...]) -> str:
    return "x" + "".join(str(v) for v in state)


def _check_size(n: int) -> None:
    if n > MAX_GRID_SIZE:
        raise ValueError(
            f"grid size {n} exceeds the cap {MAX_GRID_SIZE}: the complex has n! "
            f"generators and {n}! is out of reach for exact elimination here"
        )


def _check_knot_grid(grid: GridDiagram) -> None:
    _check_size(grid.n)
    if not grid.is_knot():
        raise ValueError(
            f"grid represents a {grid.components()}-component link, not a knot"
        )


def compile_grid(grid: GridDiagram) -> FilteredComplex:
    """Compile the grid into its filtered complex over GF(2)."""
    _check_knot_grid(grid)
    grader = _Grader(grid)
    rows = [
        (state, *grader.gradings(state), _rectangle_targets(grid, state))
        for state in itertools.permutations(range(grid.n))
    ]
    generators = [
        (_state_id(state), Fraction(maslov), Fraction(alexander2, 2), "0")
        for state, maslov, alexander2, _ in rows
    ]
    differential = {
        _state_id(state): frozenset(map(_state_id, odd))
        for state, _, _, targets in rows
        if (odd := {t for t, k in Counter(targets).items() if k % 2})
    }
    return FilteredComplex(generators, differential)


def tau(grid: GridDiagram) -> Fraction:
    """tau of the knot presented by the grid.

    Filter the Maslov-0 states by Alexander grading, rows in TauRowOrder
    by the doubled integer grading 2A.  The boundaries of the Maslov-1
    states mark the Maslov-0 states whose cycles die, and essential_rows
    feeds the boundaries of the others into Maslov -1 with clearing.  The
    one row born that never dies generates the Maslov-0 homology; its
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
    if len(middle) > MAX_TAU_SLICE:
        raise ValueError(
            f"the Maslov-0 slice holds {len(middle)} states, above the limit "
            f"of {MAX_TAU_SLICE} that grid tau is measured to answer"
        )
    rows = TauRowOrder([grader.gradings(s)[1] for s in middle])
    row_of = {state: rows.position[i] for i, state in enumerate(middle)}

    boundaries = new_engine(len(middle))
    for state in slices[1]:
        bits = 0
        for target in _rectangle_targets(grid, state):
            bits ^= 1 << row_of[target]
        boundaries.add_column(bits)

    below = {state: i for i, state in enumerate(slices[-1])}

    def boundary_of_row(row: int) -> int:
        bits = 0
        for target in _rectangle_targets(grid, middle[rows.order[row]]):
            bits ^= 1 << below[target]
        return bits

    essential = essential_rows(boundaries, new_engine(len(below)), boundary_of_row)
    if len(essential) != 1:
        raise AssertionError(
            f"expected one essential Maslov-0 class, found {len(essential)}"
        )
    return Fraction(rows.alexanders[essential[0]], 2)


def graded_ranks(grid: GridDiagram) -> dict[tuple[Fraction, Fraction], int]:
    """Homology ranks of the associated graded object, keyed (M, A).

    The graded differential keeps only the filtration-preserving arrows,
    i.e. rectangles containing neither X nor O markings, so it maps the
    block of states graded (M, A) into the block graded (M - 1, A).  Each
    Alexander level is walked in ascending Maslov order: a block's columns
    are bitsets over the block below it, and the columns of that block are
    kept to check that the differential squares to zero.  The rank at
    (M, A) is |block| - rank out - rank in.  Raises if an arrow leaves the
    block below or the square of the differential is nonzero.
    """
    _check_knot_grid(grid)
    grader = _Grader(grid)
    # Keyed (M, 2A), integers until the ranks are returned.
    blocks: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for state in itertools.permutations(range(grid.n)):
        blocks.setdefault(grader.gradings(state), []).append(state)

    rank_out: dict[tuple[int, int], int] = {}
    # In this order the block below, when there is one, is the block just
    # reduced, so columns_below holds its columns.
    columns_below: list[int] = []
    for key in sorted(blocks, key=lambda k: (k[1], k[0])):
        m, a2 = key
        row_of = {state: i for i, state in enumerate(blocks.get((m - 1, a2), ()))}
        engine = new_engine(len(row_of))
        columns = []
        for state in blocks[key]:
            bits = 0
            square = 0
            for target in _graded_targets(grid, state):
                row = row_of.get(target)
                if row is None:
                    raise AssertionError(
                        f"graded arrow {state} -> {target} leaves the block "
                        f"below (M, A) = ({m}, {Fraction(a2, 2)})"
                    )
                bits ^= 1 << row
                square ^= columns_below[row]
            if square:
                raise AssertionError(
                    f"graded differential squares to nonzero on {state} at "
                    f"(M, A) = ({m}, {Fraction(a2, 2)})"
                )
            engine.add_column(bits)
            columns.append(bits)
        rank_out[key] = engine.rank
        columns_below = columns

    ranks: dict[tuple[Fraction, Fraction], int] = {}
    for (m, a2), members in blocks.items():
        r = len(members) - rank_out[(m, a2)] - rank_out.get((m + 1, a2), 0)
        if r:
            ranks[(Fraction(m), Fraction(a2, 2))] = r
    return ranks


def hfk_bigraded_ranks(grid: GridDiagram) -> dict[tuple[Fraction, Fraction], int]:
    """Knot Floer homology ranks, binomial tower deconvolved, keyed (M, A).

    The graded grid homology is the knot homology tensored with n-1 copies
    of a rank-2 bigraded factor supported at (0, 0) and (-1, -1); peeling
    the tower from the top Alexander grading down recovers the knot ranks.
    """
    raw = graded_ranks(grid)
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
            left = remaining.get(shifted, 0) - weight
            if left:
                remaining[shifted] = left
            else:
                remaining.pop(shifted, None)
    if remaining:
        raise AssertionError(f"tower deconvolution left residue: {remaining}")
    return result


def hfk_ranks(grid: GridDiagram) -> dict[Fraction, int]:
    """Knot Floer ranks per Alexander grading (symmetric under A -> -A)."""
    out: dict[Fraction, int] = {}
    for (m, a), r in hfk_bigraded_ranks(grid).items():
        out[a] = out.get(a, 0) + r
    return out
