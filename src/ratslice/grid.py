"""Grid diagrams for knots in the 3-sphere and their filtered complexes.

A grid of size n is a pair of permutations X, O of {0..n-1} marking one X
and one O in each row and column, never in the same cell.  Generators of
the associated complex are the n! one-point-per-row-and-column states;
the differential counts rectangles on the torus that contain no state
point and no O marking in their interior (X markings are allowed and each
one drops the Alexander filtration by 1).  Maslov and Alexander gradings
come from the planar dominance counts, with the Alexander grading shifted
by -(n-1)/2 so that the unknot's surviving class sits at level 0.

Both per-state loops are integer loops.  The Maslov grading and the
doubled Alexander grading 2A are sums of per-column terms read from
precombined dominance tables and a bitmask of the rows seen (_Grader),
which the walks below add up column by column.  The empty
rectangles leaving a state are found in O(n^2) by sweeping rightwards
from each state point while tracking the nearest blocker above it; the
distance from each row up to the first blocking marking of each column
is a table computed once per grid and blocking set (GridDiagram.o_near,
GridDiagram.ox_near).  A state that is kept is stored as bytes, one byte
per column, and each rectangle's target is one bytes.translate of it.

The total homology of this complex is the homology of the 3-sphere
tensored with one two-dimensional factor per extra marking pair: rank
2^(n-1), with rank binomial(n-1, k) in Maslov grading -k.  The knot
invariants live in the Maslov-0 piece, which has rank one; tau of the
grid is tau of that class.  Knot Floer ranks are recovered from the
graded (rectangle count zero X, zero O) homology with A >= 0 by
deconvolving the binomial tower; the symmetry HFK_m(K, -a) =
HFK_{m-2a}(K, a) gives those with A < 0.

Size cap: n <= 10.  Neither tau nor the knot Floer ranks store the full
differential.  tau reads only the three Maslov slices around zero: it is
the birth of the one essential Maslov-0 persistence bar, found by the
same clearing sweep that gives a filtered complex its homology basis
(gf2.essential_rows), run on the boundaries into Maslov 0 and the
boundaries out of it.  Since tau(K) = -tau(mirror K) (Ozsvath-Szabo,
Knot Floer homology and the four-ball genus), tau is read on the grid
or on its mirror, whichever has the smaller slices.  The Maslov term of
a state's column i depends only on the set of rows in columns 0..i-1
and the row in column i, so one table over the 2^n row sets counts
every Maslov slice of a side before any state is visited
(_Grader.suffix_counts).  The graded differential preserves the
Alexander grading, so the knot Floer ranks sweep each Alexander level
alone, by essential_rows in descending Maslov order, the engine of the
(M + 1, A) block clearing the (M, A) block.  Only the blocks with A >= 0
are needed.  The 2A term of a state's column i depends only on i
and the row placed, so the same table keyed by 2A counts the states
with 2A >= 0, which check_hfk_size refuses above MAX_HFK_STATES for
every caller.  Both then keep their states by one depth-first walk over
partial states (_Grader.walk), which enters a prefix only when the
table says it can still finish with its Maslov grading in [-1, 1] (tau)
or its 2A at 0 or above (graded_ranks).
compile_grid builds the whole filtered complex; only the tests use it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache, cached_property
from math import comb
from typing import TYPE_CHECKING

from .gf2 import essential_rows, new_engine
from .record import record

if TYPE_CHECKING:
    from .complexes import FilteredComplex

# The largest grid accepted; MAX_HFK_STATES and MAX_TAU_SLICE below bound
# the work, and were measured on grids up to this size.
MAX_GRID_SIZE = 10
# The most states with 2A >= 0 that knot Floer ranks are measured to
# answer, counted before any state is visited; set when the heaviest grid
# below took 23 s, before clearing.  grid-tau --hfk, medians of 3 runs
# under a 3 GiB address-space limit on 2 cores: n = 10 T(3,7) keeps
# 105,721 and takes 1.4 s at 72 MB; the heaviest of 30 random n = 10
# knot grids (seed 1), X 0 9 8 7 2 6 5 4 3 1 and O 7 3 4 6 9 8 2 5 1 0,
# keeps 298,367 and takes 8.0 s at 785 MB, the peak of its tau; with the
# limit lifted, grids keeping 415,683 and 439,269 take 6.7-8.0 s at
# 590-643 MB.
MAX_HFK_STATES = 300_000
# The largest Maslov-0 slice grid tau is measured to answer within 3 GB,
# on the side it reduces: T(2,-7)'s own at n = 9, 20-28 s at 426 MB.
# Both sides' slices are counted before any state is visited, so a grid
# over it is refused at once: a random n = 10 grid tried holds 65,008 on
# its cheaper side.  T(3,-7) at n = 10 has 478,886 states there, but its
# mirror's slice holds one state.  The heaviest of 400 random n = 10 grids
# that pass, X 5 4 1 6 7 2 8 9 0 3 and O 6 5 2 3 8 9 1 4 7 0, has slices
# of 163,362 / 57,197 / 14,070 and takes 4.5-6.7 s at 841 MB in process
# on 2 cores.
MAX_TAU_SLICE = 58_748


@record
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


def _dominance(markings: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Dominance sums of one marking permutation m, for the grading scan.

    sums[i][v] counts the columns j >= i with m(j) >= v plus the columns
    j < i with m(j) < v, so the strict-dominance pair counts
    I(state, m) + I(m, state) are the sum of sums[i][state[i]] over i.
    Returns (sums, I(m, m)).
    """
    n = len(markings)
    sums = tuple(
        tuple(
            sum(1 for j in range(i, n) if markings[j] >= v)
            + sum(1 for j in range(i) if markings[j] < v)
            for v in range(n)
        )
        for i in range(n)
    )
    self_pairs = sum(
        1 for j in range(n) for k in range(j + 1, n) if markings[j] < markings[k]
    )
    return sums, self_pairs


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
        self.o_sums, o_pairs = _dominance(grid.o_markings)
        self.x_sums, x_pairs = _dominance(grid.x_markings)
        self.below = tuple((1 << v) - 1 for v in range(n))
        self.maslov_shift = o_pairs + 1
        self.alexander_shift = o_pairs - x_pairs - n + 1

    def maslov(self, state: tuple[int, ...]) -> int:
        """M of one state: the per-state reference that the tests hold
        suffix_counts and walk to.  Grid tau grades no state this way."""
        return self.gradings(state)[0]

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

    def suffix_counts(self, alexander: bool = False) -> list[dict[int, int]]:
        """counts[S]: the ways to finish a state whose first |S| columns
        hold the rows in the bitmask S, by the Maslov terms still to come,
        or with alexander by the 2A terms.

        Row v in column i = |S| adds popcount(S & below[v]) - o_sums[i][v]
        to M and x_sums[i][v] - o_sums[i][v] to 2A, terms fixed by (S, v).
        So counts[S] maps each sum of the terms of the columns after S to
        the number of ways to place the rows outside S, filled from the
        full set down, and counts[0] shifted by maslov_shift (or by
        alexander_shift) is the Maslov (or 2A) histogram of all n! states,
        found without visiting one.
        """
        n = len(self.below)
        full = (1 << n) - 1
        counts: list[dict[int, int]] = [{}] * full + [{0: 1}]
        for rows in range(full - 1, -1, -1):
            i = rows.bit_count()
            o_row, x_row = self.o_sums[i], self.x_sums[i]
            table: dict[int, int] = {}
            for v in range(n):
                if not rows >> v & 1:
                    if alexander:
                        term = x_row[v] - o_row[v]
                    else:
                        term = (rows & self.below[v]).bit_count() - o_row[v]
                    for rest, ways in counts[rows | 1 << v].items():
                        table[rest + term] = table.get(rest + term, 0) + ways
            counts[rows] = table
        return counts

    def walk(
        self, counts: list[dict[int, int]], lo: int, hi: int, alexander: bool = False
    ) -> dict[tuple[int, int], list[bytes]]:
        """The states whose M (with alexander, whose 2A) lies in [lo, hi],
        in blocks keyed (M, 2A), each block in lexicographic order.

        A depth-first walk over partial states carries M and 2A, and enters
        a prefix only when some sum in its counts (self.suffix_counts with
        the same alexander) lands the tracked grading in [lo, hi]: reach[S]
        holds the tracked gradings for which one does, so the test is one
        set lookup.  Every prefix it visits then extends to a kept state,
        so the walk costs at most n steps per kept state.
        """
        n = len(self.below)
        full = (1 << n) - 1
        reach = [{t for s in rest for t in range(lo - s, hi - s + 1)} for rest in counts]
        blocks: dict[tuple[int, int], list[bytes]] = {}
        state = bytearray(n)

        def descend(rows: int, maslov: int, alexander2: int) -> None:
            i = rows.bit_count()
            o_row, x_row = self.o_sums[i], self.x_sums[i]
            for v in range(n):
                if rows >> v & 1:
                    continue
                seen = rows | 1 << v
                m = maslov + (rows & self.below[v]).bit_count() - o_row[v]
                a2 = alexander2 + x_row[v] - o_row[v]
                if (a2 if alexander else m) in reach[seen]:
                    state[i] = v
                    if seen != full:
                        descend(seen, m, a2)
                    else:
                        blocks.setdefault((m, a2), []).append(bytes(state))

        descend(0, self.maslov_shift, self.alexander_shift)
        return blocks


def _near_table(n: int, blocking: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    # near[a][c] = near[a][c + n]: cyclic distance from row a up to the
    # first row of blocking[c] (0 when a itself is blocked).
    near = []
    for a in range(n):
        row = [min((r - a) % n for r in rows) for rows in blocking]
        near.append(tuple(row + row))
    return tuple(near)


@cache
def _swap_tables(n: int) -> tuple[tuple[bytes, ...], ...]:
    """_swap_tables(n)[a][b] is the bytes.translate table swapping a and b."""
    return tuple(
        tuple(bytes.maketrans(bytes((a, b)), bytes((b, a))) for b in range(n))
        for a in range(n)
    )


def _empty_rectangles(state: bytes, near: tuple[tuple[int, ...], ...]) -> list[bytes]:
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
    when d reaches 0, so a state costs O(n^2).  A state is a permutation,
    so swapping the values of columns ci and cj swaps the values a and b
    wherever they are: each target is one bytes.translate.  The two
    complementary rectangles between a pair of columns have the same
    target, listed twice when both are empty (as on the 2x2 unknot grid):
    callers sum the targets mod 2 as they build each column.
    """
    n = len(state)
    swaps = _swap_tables(n)
    wrapped = state + state
    targets = []
    for ci in range(n):
        a = state[ci]
        reach = near[a]
        swap = swaps[a]
        d = reach[ci]
        c = ci + 1
        while d and c < ci + n:
            b = wrapped[c]
            h = (b - a) % n
            if h <= d:
                targets.append(state.translate(swap[b]))
                d = h
            if reach[c] < d:
                d = reach[c]
            c += 1
    return targets


def _rectangle_targets(grid: GridDiagram, state: bytes) -> list[bytes]:
    """Targets of the differential arrows leaving `state`.

    A rectangle counts when its interior holds no state point and no O
    marking; each X marking inside drops the Alexander filtration by 1.
    """
    return _empty_rectangles(state, grid.o_near)


def _graded_targets(grid: GridDiagram, state: bytes) -> list[bytes]:
    """Targets of the associated graded differential leaving `state`.

    These are the arrows that preserve the Alexander grading: rectangles
    with no state point, no O and no X marking inside.
    """
    return _empty_rectangles(state, grid.ox_near)


def _state_id(state: bytes) -> str:
    return "x" + "".join(str(v) for v in state)


def _check_size(n: int) -> None:
    if n > MAX_GRID_SIZE:
        raise ValueError(f"grid size {n} exceeds the cap {MAX_GRID_SIZE}")


def check_hfk_size(grid: GridDiagram) -> tuple[_Grader, list[dict[int, int]]]:
    """Refuse knot Floer ranks of a grid whose 2A >= 0 states number over
    MAX_HFK_STATES, counted before any state is visited.

    Returns the grid's grader and its 2A table (suffix_counts with
    alexander), which graded_ranks walks once the count has passed.
    """
    check_knot_grid(grid)
    grader = _Grader(grid)
    counts = grader.suffix_counts(alexander=True)
    kept = sum(ways for rest, ways in counts[0].items() if rest >= -grader.alexander_shift)
    if kept > MAX_HFK_STATES:
        raise ValueError(
            f"the A >= 0 half holds {kept} states, above the limit of "
            f"{MAX_HFK_STATES} that knot Floer ranks are measured to answer"
        )
    return grader, counts


def check_knot_grid(grid: GridDiagram) -> None:
    """Refuse a grid over the size cap or one that presents a link."""
    _check_size(grid.n)
    if not grid.is_knot():
        raise ValueError(
            f"grid represents a {grid.components()}-component link, not a knot"
        )


def compile_grid(grid: GridDiagram) -> FilteredComplex:
    """Compile the grid into its filtered complex over GF(2)."""
    from .complexes import FilteredComplex

    check_knot_grid(grid)
    grader = _Grader(grid)
    rows = [
        (state, *grader.gradings(state), _rectangle_targets(grid, state))
        for state in map(bytes, itertools.permutations(range(grid.n)))
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

    tau(K) = -tau(mirror K), so tau is read on the grid or on its mirror,
    whichever has fewer Maslov-0 and +1 states (the grid on a tie).  Each
    side's slice sizes come from its own suffix_counts, before any state
    is visited, and a Maslov-0 slice above MAX_TAU_SLICE is refused there.
    The walk (_Grader.walk) then keeps that side's Maslov -1, 0 and +1
    states in (M, 2A) blocks.

    Filter the Maslov-0 states by Alexander grading: their blocks in
    descending 2A, each in lexicographic order, are the rows, highest
    grading first as essential_rows expects.  The Maslov +1 slice is the
    top of the chain, so nothing there is cleared: essential_rows feeds
    every +1 boundary into an engine over Maslov 0, whose pivot rows are
    the Maslov-0 states whose cycles die.  A second essential_rows feeds
    the boundaries of the others into Maslov -1 with clearing.  The one row
    born that never dies generates the Maslov-0 homology; its Alexander
    grading is the least level that carries the class: tau.  Raises if
    an arrow leaves the Maslov slice below its source.
    """
    check_knot_grid(grid)
    sides = []
    for sign, side in ((1, grid), (-1, grid.mirror())):
        grader = _Grader(side)
        counts = grader.suffix_counts()
        zero, one = (counts[0].get(m - grader.maslov_shift, 0) for m in (0, 1))
        sides.append((zero + one, zero, sign, side, grader, counts))
    _, size, sign, side, grader, counts = min(sides, key=lambda s: s[0])
    if size > MAX_TAU_SLICE:
        raise ValueError(
            f"the Maslov-0 slice holds {size} states, above the limit "
            f"of {MAX_TAU_SLICE} that grid tau is measured to answer"
        )
    blocks = grader.walk(counts, -1, 1)
    keys = sorted(blocks, reverse=True)
    below, middle, above = (
        [state for key in keys if key[0] == m for state in blocks[key]] for m in (-1, 0, 1)
    )
    alexanders = [a2 for m, a2 in keys if m == 0 for _ in blocks[m, a2]]

    def columns(sources, targets, m):
        """Column builder: the boundary of sources[i] as a bitset over targets."""
        row_of = {state: row for row, state in enumerate(targets)}

        def column(i):
            bits = 0
            try:
                for target in _rectangle_targets(side, sources[i]):
                    bits ^= 1 << row_of[target]
            except KeyError:
                raise AssertionError(
                    f"arrow {tuple(sources[i])} -> {tuple(target)} leaves the "
                    f"Maslov {m} slice"
                ) from None
            return bits

        return column

    boundaries = new_engine(len(middle))
    essential_rows(new_engine(len(above)), boundaries, columns(above, middle, 0))
    essential = essential_rows(
        boundaries, new_engine(len(below)), columns(middle, below, -1)
    )
    if len(essential) != 1:
        raise AssertionError(
            f"expected one essential Maslov-0 class, found {len(essential)}"
        )
    return sign * Fraction(alexanders[essential[0]], 2)


def graded_ranks(grid: GridDiagram) -> dict[tuple[Fraction, Fraction], int]:
    """Homology ranks of the associated graded object with A >= 0, keyed (M, A).

    The graded differential keeps only the filtration-preserving arrows,
    i.e. rectangles containing neither X nor O markings, so it maps the
    block of states graded (M, A) into the block graded (M - 1, A).  Once
    check_hfk_size has passed, the walk (_Grader.walk with alexander)
    keeps the blocks with A >= 0, and with them every block they map into.
    Each Alexander level is swept by essential_rows in descending Maslov
    order: a block's columns are bitsets over the block below, the engine
    of the block above is its boundaries, and its rank is the number of
    births.  Cleared states still build their columns, so the square of
    the differential is checked on every state of the block above.
    Raises if an arrow leaves the block below or the square is nonzero.
    """
    grader, counts = check_hfk_size(grid)
    top = grader.alexander_shift + max(counts[0])
    blocks = grader.walk(counts, 0, top, alexander=True)

    ranks: dict[tuple[Fraction, Fraction], int] = {}
    for m, a2 in sorted(blocks, key=lambda k: (k[1], k[0]), reverse=True):
        if (m + 1, a2) not in blocks:
            # Nothing maps into a top block, so nothing there is cleared.
            above, above_rows = new_engine(len(blocks[m, a2])), []
        below = blocks.get((m - 1, a2), ())
        row_of = {state: i for i, state in enumerate(below)}
        columns = []
        block_rows = []
        for state in blocks[m, a2]:
            rows = []
            bits = 0
            for target in _graded_targets(grid, state):
                row = row_of.get(target)
                if row is None:
                    raise AssertionError(
                        f"graded arrow {tuple(state)} -> {tuple(target)} leaves the block "
                        f"below (M, A) = ({m}, {Fraction(a2, 2)})"
                    )
                rows.append(row)
                bits ^= 1 << row
            columns.append(bits)
            block_rows.append(rows)
        for state, rows in zip(blocks.get((m + 1, a2), ()), above_rows):
            square = 0
            for row in rows:
                square ^= columns[row]
            if square:
                raise AssertionError(
                    f"graded differential squares to nonzero on {tuple(state)} at "
                    f"(M, A) = ({m + 1}, {Fraction(a2, 2)})"
                )
        engine = new_engine(len(below))
        rank = len(essential_rows(above, engine, columns.__getitem__))
        if rank:
            ranks[(Fraction(m), Fraction(a2, 2))] = rank
        above, above_rows = engine, block_rows
    return ranks


def hfk_bigraded_ranks(grid: GridDiagram) -> dict[tuple[Fraction, Fraction], int]:
    """Knot Floer homology ranks, binomial tower deconvolved, keyed (M, A).

    The graded grid homology is the knot homology tensored with n-1 copies
    of a rank-2 bigraded factor supported at (0, 0) and (-1, -1); peeling
    the tower from the top Alexander grading down to A = 0 recovers the
    knot ranks with A >= 0 from graded_ranks, and the symmetry
    HFK_m(K, -a) = HFK_{m-2a}(K, a) (Ozsvath-Szabo, Holomorphic disks and
    knot invariants) gives the rest.  Raises unless the graded Euler
    characteristic, the sum of (-1)^M rank, is the Alexander polynomial
    at t = 1, which is 1.
    """
    n = grid.n
    remaining = graded_ranks(grid)
    result: dict[tuple[Fraction, Fraction], int] = {}
    for (m, a) in sorted(remaining, key=lambda k: (-k[1], -k[0])):
        count = remaining.get((m, a), 0)
        if count < 0:
            raise AssertionError("tower deconvolution went negative")
        if count == 0:
            continue
        result[(m, a)] = count
        for k in range(0, min(n - 1, int(a)) + 1):
            shifted = (m - k, a - k)
            weight = comb(n - 1, k) * count
            left = remaining.get(shifted, 0) - weight
            if left:
                remaining[shifted] = left
            else:
                remaining.pop(shifted, None)
    if remaining:
        raise AssertionError(f"tower deconvolution left residue: {remaining}")
    for (m, a), r in list(result.items()):
        if a:
            result[(m - 2 * a, -a)] = r
    euler = sum(r if m % 2 == 0 else -r for (m, _), r in result.items())
    if euler != 1:
        raise AssertionError(f"graded Euler characteristic is {euler}, not Delta(1) = 1")
    return result


def hfk_ranks(grid: GridDiagram) -> dict[Fraction, int]:
    """Knot Floer ranks per Alexander grading (symmetric under A -> -A)."""
    out: dict[Fraction, int] = {}
    for (m, a), r in hfk_bigraded_ranks(grid).items():
        out[a] = out.get(a, 0) + r
    return out
