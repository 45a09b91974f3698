"""Independent oracles, random-instance generators and shared checks.

The oracles deliberately avoid the package's elimination engine: the
dense rank oracle is textbook row reduction on lists of lists, the
exhaustive tau oracle enumerates the entire boundary subspace, the level
sweep asks the dense oracle one membership question per level, the
persistence oracle is the textbook reduction (Zomorodian-Carlsson) with
no clearing, the survivor enumerator is a plain recursion without
memoization (poincare builds the survivor deduction's input record from
the same drawn entries), and the grid oracles test every pair of columns
for empty rectangles and count dominating pairs of points for the
gradings.  The graded-rank oracle grades all n! states of a grid, where
the package walks only the A >= 0 half, and deconvolves the whole
binomial tower; the torus oracle reads knot Floer ranks off the
Alexander polynomial.
basis_cycles, maslov_zero_class and structural_checks are shared test
code that holds the package's homology basis to the persistence oracle;
homology_ranks and total_homology_rank count that basis.  The surface
bound at a fixed boundary constant, swept over integer constants, is an
oracle for the breadth genus bound, and the satellite breadth growth
states the paper's unbounded PL slice genus as a sequence.  The document
writers at the end build the input files that no verb writes: complex,
framed-knot and polynomial documents and grid text.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from math import comb

from ratslice.complexes import (
    FilteredComplex,
    homology_basis,
    tau,
    validate,
)
from ratslice.formats import spectrum_to_json
import ratslice.grid as grid_module
from ratslice.grid import (
    GridDiagram,
    compile_grid,
    graded_ranks,
    hfk_bigraded_ranks,
    hfk_ranks,
)
from ratslice.paperdata import PoincarePolynomial, dual_knot_breadth
from ratslice.rationals import format_rational


# -- dense GF(2) oracle ----------------------------------------------------
#
# A matrix is given as (rows, columns): the row count and one int bitset
# per column, bit r set for an entry in row r.

def dense_rank(rows: int, columns: list[int]) -> int:
    """Row-reduction rank over GF(2) on a dense list-of-lists copy."""
    cols = len(columns)
    table = [[columns[c] >> r & 1 for c in range(cols)] for r in range(rows)]
    rank = 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, rows):
            if table[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        table[pivot_row], table[pivot] = table[pivot], table[pivot_row]
        for r in range(rows):
            if r != pivot_row and table[r][col]:
                table[r] = [a ^ b for a, b in zip(table[r], table[pivot_row])]
        rank += 1
        pivot_row += 1
        if pivot_row == rows:
            break
    return rank


def dense_in_image(rows: int, columns: list[int], target: int) -> bool:
    """Membership via the augmented-rank criterion."""
    return dense_rank(rows, columns + [target]) == dense_rank(rows, columns)


def random_columns(rng: random.Random, rows: int, cols: int) -> list[int]:
    """Column bitsets of a random rows x cols matrix of random density."""
    density = rng.choice([0.1, 0.3, 0.5])
    return [
        sum(1 << r for r in range(rows) if rng.random() < density)
        for _ in range(cols)
    ]


# -- random filtered complexes ----------------------------------------------

_GRADING_POOL = [
    Fraction(v, d) for d in (1, 2, 4, 9) for v in range(-6, 7)
]


def random_complex(rng: random.Random, max_generators: int = 12) -> FilteredComplex:
    """A random valid filtered complex of at most max_generators generators."""
    n = rng.randint(1, max_generators)
    spincs = ["0", "1"][: rng.randint(1, 2)]
    return disguised_complex(rng, n, rng.randint(0, n // 2), spincs)


def disguised_complex(
    rng: random.Random, n: int, n_pairs: int, spincs: list[str]
) -> FilteredComplex:
    """A random valid filtered complex of n generators, n_pairs of them paired.

    Built as a direct sum of free generators and cancelling arrow pairs
    with admissible gradings, then disguised by random filtered basis
    changes (x -> x + z with equal Maslov, equal Spin^c and A(z) <= A(x)),
    which preserve every invariant.  Its homology has rank n - 2 n_pairs.
    """
    maslov = []
    alexander = []
    labels = []
    columns = [0] * n
    for k in range(n_pairs):
        x, y = 2 * k, 2 * k + 1
        label = rng.choice(spincs)
        m = rng.choice(_GRADING_POOL)
        a_top = rng.choice(_GRADING_POOL)
        a_bot = rng.choice([g for g in _GRADING_POOL if g <= a_top])
        maslov += [m, m - 1]
        alexander += [a_top, a_bot]
        labels += [label, label]
        columns[x] = 1 << y
    for i in range(2 * n_pairs, n):
        maslov.append(rng.choice(_GRADING_POOL))
        alexander.append(rng.choice(_GRADING_POOL))
        labels.append(rng.choice(spincs))
    for _ in range(3 * n):
        x = rng.randrange(n)
        candidates = [
            z
            for z in range(n)
            if z != x
            and maslov[z] == maslov[x]
            and labels[z] == labels[x]
            and alexander[z] <= alexander[x]
        ]
        if not candidates:
            continue
        z = rng.choice(candidates)
        columns[x] ^= columns[z]
        for w in range(n):
            if columns[w] >> x & 1:
                columns[w] ^= 1 << z
    generators = [
        (f"g{i}", maslov[i], alexander[i], labels[i]) for i in range(n)
    ]
    differential = {
        f"g{i}": frozenset(
            f"g{j}" for j in range(n) if columns[i] >> j & 1
        )
        for i in range(n)
        if columns[i]
    }
    return FilteredComplex(generators, differential)


def max_alexander(complex_: FilteredComplex, bits: int) -> Fraction:
    """Top Alexander grading over the support of a chain (chain nonzero)."""
    assert bits
    values = [
        complex_.generators[i].alexander
        for i in range(len(complex_.generators))
        if bits >> i & 1
    ]
    return max(values)


def exhaustive_tau(complex_: FilteredComplex, cycle_bits: int) -> Fraction:
    """Brute-force tau: minimum top grading over the entire coset.

    Enumerates every element of the boundary subspace by Gray-coding over
    all subsets of the boundary columns (complexes small enough that 2^n
    is tractable), with no echelon structure involved.
    """
    cols = complex_.boundary_columns
    n = len(cols)
    best = max_alexander(complex_, cycle_bits)
    current = cycle_bits
    for step in range(1, 1 << n):
        flip = (step & -step).bit_length() - 1
        current ^= cols[flip]
        if current:
            value = max_alexander(complex_, current)
            if value < best:
                best = value
    return best


def tau_by_level_sweep(complex_: FilteredComplex, bits: int) -> Fraction:
    """tau by the ascending level sweep with image-membership tests.

    Visits only Alexander values realized by generators.  At level j the
    class of the cycle z appears iff z = c + b with c supported in the
    level-j subcomplex and b a boundary (c = z - b is then a cycle too),
    i.e. iff z lies in the span of the boundary columns and the level-j
    generators.
    """
    n = len(complex_.generators)
    assert bits and complex_.boundary_of(bits) == 0
    for level in sorted({g.alexander for g in complex_.generators}):
        below = [1 << i for i, g in enumerate(complex_.generators) if g.alexander <= level]
        if dense_in_image(n, complex_.boundary_columns + below, bits):
            return level
    raise ValueError("class is zero in homology")


def spectrum_by_definition(complex_: FilteredComplex) -> dict[str, Fraction]:
    """tau of every nonzero homology class, keyed by its basis names.

    A class is a nonempty set of homology_basis classes; its id joins
    their names b<i> in ascending i with "+", and its value is tau of the
    sum of their cycles from the persistence oracle.
    """
    cycles = basis_cycles(complex_)
    per_class = {}
    for mask in range(1, 1 << len(cycles)):
        members = [i for i in range(len(cycles)) if mask >> i & 1]
        bits = 0
        for i in members:
            bits ^= cycles[i]
        per_class["+".join(f"b{i}" for i in members)] = tau(complex_, bits)
    return per_class


def _set_bits(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def essential_cycles(complex_: FilteredComplex) -> dict[int, int]:
    """Birth generator -> a cycle born there, by textbook persistence.

    Generators enter in ascending filtration: Alexander ascending, ties
    by descending index.  Chains are kept as bitsets over entry times, so
    a chain's latest generator is its highest bit.  Each boundary column
    is reduced on its latest generator against the columns reduced
    before it, tracking the combination of generators whose boundaries
    it sums.  A column that vanishes, at a generator that is no column's
    latest generator, is essential: its combination is a cycle born at
    that generator that no boundary kills.  There is no clearing.
    """
    gens = complex_.generators
    entry = sorted(range(len(gens)), key=lambda i: (gens[i].alexander, -i))
    time = {i: t for t, i in enumerate(entry)}
    reduced: dict[int, tuple[int, int]] = {}  # latest time -> (column, combination)
    vanished = []
    for t, i in enumerate(entry):
        col = sum(1 << time[j] for j in _set_bits(complex_.boundary_columns[i]))
        combo = 1 << t
        while col:
            latest = col.bit_length() - 1
            if latest not in reduced:
                reduced[latest] = (col, combo)
                break
            other_col, other_combo = reduced[latest]
            col ^= other_col
            combo ^= other_combo
        else:
            vanished.append((t, combo))
    return {
        entry[t]: sum(1 << entry[s] for s in _set_bits(combo))
        for t, combo in vanished
        if t not in reduced
    }


def basis_cycles(complex_: FilteredComplex) -> list[int]:
    """The persistence oracle's cycle of each homology_basis birth, in
    basis order, after checking that both find the same births."""
    cycles = essential_cycles(complex_)
    basis = homology_basis(complex_)
    assert sorted(cycles) == sorted(basis)
    return [cycles[i] for i in basis]


def homology_ranks(complex_: FilteredComplex) -> dict[tuple[str, Fraction], int]:
    """Rank of the homology per (Spin^c label, Maslov grading): the
    homology_basis births counted per block."""
    gens = complex_.generators
    return dict(Counter((gens[i].spinc, gens[i].maslov) for i in homology_basis(complex_)))


def total_homology_rank(complex_: FilteredComplex) -> int:
    return len(homology_basis(complex_))


def boundary_subspace_contains(complex_: FilteredComplex, bits: int) -> bool:
    cols = complex_.boundary_columns
    current = 0
    for step in range(1, 1 << len(cols)):
        flip = (step & -step).bit_length() - 1
        current ^= cols[flip]
        if current == bits:
            return True
    return bits == 0


# -- compiled-complex graded ranks ---------------------------------------------

def _xor_rank(columns: list[int]) -> int:
    """Rank of int-bitset columns, pivoting on the highest set bit."""
    basis: dict[int, int] = {}
    for v in columns:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def compiled_graded_ranks(complex_: FilteredComplex) -> dict[tuple[Fraction, Fraction], int]:
    """Graded homology ranks of a compiled grid complex, keyed (M, A).

    Keeps the arrows of the full differential that preserve the Alexander
    grading, takes the rank of each (M, A) block's columns over all
    generators, and reads the homology as |block| - rank out - rank in.
    """
    blocks: dict[tuple[Fraction, Fraction], list[int]] = {}
    for i, g in enumerate(complex_.generators):
        blocks.setdefault((g.maslov, g.alexander), []).append(i)
    columns = []
    for g in complex_.generators:
        bits = 0
        for dst in complex_.differential.get(g.id, ()):
            j = complex_.index[dst]
            if complex_.generators[j].alexander == g.alexander:
                bits |= 1 << j
        columns.append(bits)
    block_rank = {
        key: _xor_rank([columns[i] for i in members]) for key, members in blocks.items()
    }
    ranks = {}
    for (m, a), members in blocks.items():
        r = len(members) - block_rank[(m, a)] - block_rank.get((m + 1, a), 0)
        if r:
            ranks[(m, a)] = r
    return ranks


def upper_half(ranks: dict[tuple[Fraction, Fraction], int]) -> dict[tuple[Fraction, Fraction], int]:
    """The entries of ranks keyed (M, A) with A >= 0."""
    return {key: r for key, r in ranks.items() if key[1] >= 0}


def full_graded_ranks(grid: GridDiagram) -> dict[tuple[Fraction, Fraction], int]:
    """Graded homology ranks from a scan of all n! states, keyed (M, A).

    Every state is graded into its (M, 2A) block by _Grader.gradings; a
    block's graded-differential columns are bitsets over the block below,
    and the rank at (M, A) is |block| - rank out - rank in, each rank by
    _xor_rank rather than the package's engine.
    """
    gradings = grid_module._Grader(grid).gradings
    blocks: dict[tuple[int, int], list[bytes]] = {}
    for state in map(bytes, itertools.permutations(range(grid.n))):
        blocks.setdefault(gradings(state), []).append(state)
    rank_out = {}
    for (m, a2), members in blocks.items():
        row_of = {state: i for i, state in enumerate(blocks.get((m - 1, a2), ()))}
        columns = []
        for state in members:
            bits = 0
            for target in grid_module._graded_targets(grid, state):
                bits ^= 1 << row_of[target]
            columns.append(bits)
        rank_out[(m, a2)] = _xor_rank(columns)
    ranks = {}
    for (m, a2), members in blocks.items():
        r = len(members) - rank_out[(m, a2)] - rank_out.get((m + 1, a2), 0)
        if r:
            ranks[(Fraction(m), Fraction(a2, 2))] = r
    return ranks


def deconvolved_hfk(
    graded: dict[tuple[Fraction, Fraction], int], n: int
) -> dict[tuple[Fraction, Fraction], int]:
    """Knot Floer ranks from the graded ranks of every Alexander grading.

    Peels the tower of n-1 rank-2 factors at (0, 0) and (-1, -1) from the
    top Alexander grading all the way down, with no symmetry assumed, and
    requires that nothing is left over.
    """
    remaining = dict(graded)
    result = {}
    for m, a in sorted(remaining, key=lambda k: (-k[1], -k[0])):
        count = remaining.get((m, a), 0)
        assert count >= 0, (m, a)
        if count == 0:
            continue
        result[(m, a)] = count
        for k in range(n):
            shifted = (m - k, a - k)
            left = remaining.get(shifted, 0) - comb(n - 1, k) * count
            if left:
                remaining[shifted] = left
            else:
                remaining.pop(shifted, None)
    assert not remaining, remaining
    return result


def _times(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divided(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials (index = degree), b monic, exact."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for d in range(len(out) - 1, -1, -1):
        out[d] = a[d + len(b) - 1]
        for j, y in enumerate(b):
            a[d + j] -= out[d] * y
    assert not any(a), "inexact division"
    return out


def torus_knot_floer_ranks(p: int, q: int) -> dict[Fraction, int]:
    """Knot Floer ranks of T(p, q), p, q >= 1, per Alexander grading.

    Torus knots are L-space knots, so their ranks are the absolute values
    of the coefficients of the Alexander polynomial
    (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), of degree (p-1)(q-1),
    centred at A = 0.  Mirroring keeps the ranks per Alexander grading.
    """
    def minus_one(k: int) -> list[int]:
        return [-1] + [0] * (k - 1) + [1]

    delta = _divided(
        _times(minus_one(p * q), minus_one(1)), _times(minus_one(p), minus_one(q))
    )
    genus = Fraction(len(delta) - 1, 2)
    return {i - genus: abs(c) for i, c in enumerate(delta) if c}


# -- compiled grid complexes ---------------------------------------------------

def maslov_zero_class(complex_: FilteredComplex) -> int:
    """A cycle generating the homology in Maslov grading zero."""
    cycles = essential_cycles(complex_)
    assert sorted(cycles) == sorted(homology_basis(complex_))
    births = [i for i in cycles if complex_.generators[i].maslov == 0]
    if len(births) != 1:
        raise ValueError(
            f"expected a single Maslov-0 class, found {len(births)}"
        )
    return cycles[births[0]]


def structural_checks(grid: GridDiagram) -> None:
    """The homology of a knot grid's complexes has its known shape."""
    complex_ = compile_grid(grid)  # construction verifies d^2 = 0 and both drops
    assert validate(complex_) == ()
    n = grid.n
    # The filtered grid complex computes the 3-sphere homology tensored
    # with an (n-1)-fold rank-2 tower: rank binomial(n-1, k) at Maslov -k.
    # In particular the knot-bearing Maslov-0 piece has rank exactly 1.
    ranks = homology_ranks(complex_)
    assert ranks == {("0", Fraction(-k)): comb(n - 1, k) for k in range(n)}
    assert ranks[("0", Fraction(0))] == 1
    assert total_homology_rank(complex_) == 2 ** (n - 1)
    # The full scan's graded ranks agree with the compiled complex's, the
    # walked A >= 0 half with both, and the knot Floer ranks with the full
    # scan's deconvolution.
    full = compiled_graded_ranks(complex_)
    assert full_graded_ranks(grid) == full
    assert graded_ranks(grid) == upper_half(full)
    assert hfk_bigraded_ranks(grid) == deconvolved_hfk(full, n)
    # Knot Floer ranks are symmetric under A -> -A after deconvolution.
    hfk = hfk_ranks(grid)
    assert hfk == {-a: r for a, r in hfk.items()}
    assert sum(hfk.values()) % 2 == 1


def forbid_visits(monkeypatch) -> None:
    """Make the walk, the per-state grader and both rectangle sweeps raise."""

    def visit(*args, **kwargs):
        raise AssertionError("a state was visited before the refusal")

    for name in ("maslov", "gradings", "walk"):
        monkeypatch.setattr(grid_module._Grader, name, visit)
    for name in ("_rectangle_targets", "_graded_targets"):
        monkeypatch.setattr(grid_module, name, visit)


# -- grid rectangle and grading oracles ----------------------------------------

def brute_force_rectangles(
    state: tuple[int, ...], blocking: list[int]
) -> list[tuple[int, ...]]:
    """Targets of the empty rectangles leaving `state`, in O(n^3).

    blocking[c] is the bitmask of the marking rows in column c that a
    rectangle may not contain.  For each pair of columns i < j there are
    two complementary rectangles on the torus: columns [i, j) by rows
    [state[i], state[j]) and columns [j, i) by rows [state[j], state[i]),
    all cyclic.  Each is tested cell by cell for blocking markings and
    for state points in its interior columns; two empty rectangles to the
    same target cancel mod 2.  Targets are returned sorted.
    """
    n = len(state)
    every_row = (1 << n) - 1
    parity: dict[tuple[int, ...], int] = {}
    for i in range(n):
        for j in range(i + 1, n):
            a, b = state[i], state[j]
            swapped = list(state)
            swapped[i], swapped[j] = b, a
            target = tuple(swapped)
            # Bitmask of the rows in the cyclic interval [a, b); the
            # complementary rectangle covers the rows [b, a).
            span = (1 << b) - (1 << a) if a < b else every_row ^ ((1 << a) - (1 << b))
            for ci, inner, rows in (
                (i, range(i + 1, j), span),
                (j, itertools.chain(range(j + 1, n), range(i)), every_row ^ span),
            ):
                if blocking[ci] & rows:
                    continue
                for c in inner:
                    if (blocking[c] | 1 << state[c]) & rows:
                        break
                else:
                    parity[target] = parity.get(target, 0) ^ 1
    return [t for t, flag in sorted(parity.items()) if flag]


def _inversions(state: tuple[int, ...]) -> int:
    # Pairs j < k with state[j] < state[k]: I(state, state).
    return sum(a < b for a, b in itertools.combinations(state, 2))


def _dominance_pairs(state: tuple[int, ...], markings: tuple[int, ...]) -> int:
    # I(state, m) + I(m, state): the state point (i, v) sits at a lattice
    # corner and the marking of column j at the centre (j + 1/2, m(j) + 1/2)
    # of its cell, so (i, v) lies strictly southwest of it exactly when
    # i <= j and v <= m(j), and strictly northeast when j < i and m(j) < v.
    return sum(
        (i <= j and v <= m) + (j < i and m < v)
        for i, v in enumerate(state)
        for j, m in enumerate(markings)
    )


def textbook_gradings(grid: GridDiagram, state: tuple[int, ...]) -> tuple[int, Fraction]:
    """(M, A) of a grid state from the planar dominance formulas.

    M_O = I(x, x) - I(x, O) - I(O, x) + I(O, O) + 1, likewise M_X, and
    A = (M_O - M_X - n + 1) / 2.
    """
    def maslov(markings: tuple[int, ...]) -> int:
        return (
            _inversions(state)
            - _dominance_pairs(state, markings)
            + _inversions(markings)
            + 1
        )

    m_o = maslov(grid.o_markings)
    return m_o, Fraction(m_o - maslov(grid.x_markings) - grid.n + 1, 2)


# -- random grids ------------------------------------------------------------

def random_knot_grid(rng: random.Random, n: int) -> GridDiagram:
    """Rejection-sample a valid knot grid of size n."""
    while True:
        x = list(range(n))
        o = list(range(n))
        rng.shuffle(x)
        rng.shuffle(o)
        if any(a == b for a, b in zip(x, o)):
            continue
        grid = GridDiagram(tuple(x), tuple(o))
        if grid.is_knot():
            return grid


# -- grid moves ---------------------------------------------------------------

def _interval(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def commutable_columns(grid: GridDiagram) -> list[int]:
    """Columns i where swapping columns i and i+1 is a legal commutation:
    the two closed vertical marking intervals are nested or disjoint."""
    out = []
    for i in range(grid.n - 1):
        lo1, hi1 = _interval(grid.x_markings[i], grid.o_markings[i])
        lo2, hi2 = _interval(grid.x_markings[i + 1], grid.o_markings[i + 1])
        disjoint = hi1 < lo2 or hi2 < lo1
        nested = (lo1 < lo2 and hi2 < hi1) or (lo2 < lo1 and hi1 < hi2)
        if disjoint or nested:
            out.append(i)
    return out


def commute_columns(grid: GridDiagram, i: int) -> GridDiagram:
    x = list(grid.x_markings)
    o = list(grid.o_markings)
    x[i], x[i + 1] = x[i + 1], x[i]
    o[i], o[i + 1] = o[i + 1], o[i]
    return GridDiagram(tuple(x), tuple(o))


def stabilize(grid: GridDiagram, column: int) -> GridDiagram:
    """Stabilization at the X marking of the given column (X:SW type).

    Splits that column and the X's row; the new 2x2 block holds the X at
    its southwest corner, an O above it, and an X at the northeast.
    """
    n = grid.n
    a = grid.x_markings[column]
    b = grid.o_markings[column]

    def shift_row(r: int) -> int:
        return r if r < a else r + 1

    new_x = [0] * (n + 1)
    new_o = [0] * (n + 1)
    for c in range(n):
        new_c = c if c <= column else c + 1
        if c == column:
            continue
        new_x[new_c] = shift_row(grid.x_markings[c])
        if grid.o_markings[c] == a:
            new_o[new_c] = a
        else:
            new_o[new_c] = shift_row(grid.o_markings[c])
    new_x[column] = a
    new_o[column] = a + 1
    new_x[column + 1] = a + 1
    new_o[column + 1] = shift_row(b)
    return GridDiagram(tuple(new_x), tuple(new_o))


# -- survivor enumeration oracle ----------------------------------------------

def poincare(entries: list[tuple[Fraction, Fraction, int]]) -> PoincarePolynomial:
    """The polynomial of (A, M, rank) entries as the tests draw them:
    ranks at one bigrading add up, and a bigrading of rank 0 is no term."""
    merged: Counter = Counter()
    for a, m, rank in entries:
        merged[Fraction(m), Fraction(a)] += rank
    return PoincarePolynomial(
        tuple((m, a, rank) for (m, a), rank in merged.items() if rank), "0"
    )


def naive_survivors(
    entries: list[tuple[Fraction, Fraction | None, int]], target: int
) -> set[tuple[Fraction, ...]]:
    """Plain recursive outcome enumeration, no memo, order independent."""
    entries = [(a, m, r) for a, m, r in entries if r]

    def expand(vector) -> tuple[Fraction, ...]:
        out = []
        for (a, _, _), count in zip(entries, vector):
            out.extend([a] * count)
        return tuple(sorted(out))

    results: set[tuple[Fraction, ...]] = set()

    def recurse(vector):
        if sum(vector) == target:
            results.add(expand(vector))
            return
        for hi in range(len(entries)):
            for lo in range(len(entries)):
                if entries[hi][0] <= entries[lo][0]:
                    continue
                m_hi, m_lo = entries[hi][1], entries[lo][1]
                if m_hi is not None and m_lo is not None and m_hi != m_lo + 1:
                    continue
                if vector[hi] and vector[lo]:
                    nxt = list(vector)
                    nxt[hi] -= 1
                    nxt[lo] -= 1
                    recurse(tuple(nxt))

    recurse(tuple(r for _, _, r in entries))
    return results


# -- the surface bound at a fixed boundary constant ---------------------------
#
# No command evaluates it: its integer-c sweep is an oracle for
# bounds.genus_lower_bound_breadth, which it meets at c* when c* is an
# integer and exceeds otherwise.

def surface_bound_with_c(tau_max, tau_min, c: int, p: int) -> Fraction:
    """Lower bound for -chi of a degree-p rational slice surface at fixed c.

    For surfaces with boundary constant c the doubled tau extremes obey
    max(2*tau_max + c/p, -2*tau_min - c/p) <= (-chi + p)/p; solving for
    -chi gives the bound.
    """
    lhs = max(
        2 * tau_max + Fraction(c, p),
        -2 * tau_min - Fraction(c, p),
    )
    return p * lhs - p


def optimal_c(tau_max, tau_min, p: int) -> tuple[Fraction, int, Fraction]:
    """(c*, the best integer c, its bound) for surface_bound_with_c.

    The left side max(2*tau_max + c/p, -2*tau_min - c/p) is piecewise
    linear and convex in c with slopes -1/p and +1/p, so its minimum over
    the integers is attained at floor or ceil of the crossing point
    c* = -p*(tau_max + tau_min).
    """
    c_star = -p * (tau_max + tau_min)
    best = min(
        {math.floor(c_star), math.ceil(c_star)},
        key=lambda c: (surface_bound_with_c(tau_max, tau_min, c, p), c),
    )
    return c_star, best, surface_bound_with_c(tau_max, tau_min, best, p)


# -- satellite breadth growth ---------------------------------------------
#
# No command evaluates these: they state the paper's unbounded PL slice
# genus in a fixed manifold as a computed sequence, which the tests check.

def satellite_breadth_lower(p: int, breadth: Fraction) -> Fraction:
    """Breadth growth under index-p braided satellites that close to knots:
    the satellite's tau breadth is at least p*(breadth - 1) + 1."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return p * (Fraction(breadth) - 1) + 1


def satellite_pl_genus_growth(g: int, p: int) -> Fraction:
    """Compose the dual-knot breadth with the satellite breadth growth."""
    return satellite_breadth_lower(p, dual_knot_breadth(g))


# -- document writers -------------------------------------------------------

def complex_to_json(complex_: FilteredComplex) -> dict:
    return {
        "generators": [
            {
                "id": g.id,
                "maslov": format_rational(g.maslov),
                "alexander": format_rational(g.alexander),
                "spinc": g.spinc,
            }
            for g in complex_.generators
        ],
        "differential": {
            src: sorted(dsts)
            for src, dsts in sorted(complex_.differential.items())
        },
    }


def framed_to_json(data) -> dict:
    doc = {
        "order": data.order,
        "slope": data.slope,
        "lk": format_rational(data.lk),
        "tau_spectrum": spectrum_to_json(data.tau_spectrum),
    }
    doc["d_invariants"] = (
        {label: format_rational(v) for label, v in sorted(data.d_invariants.items())}
        if data.d_invariants is not None
        else None
    )
    doc["floer_simple"] = data.floer_simple
    return doc


def poincare_to_json(poly) -> dict:
    return {
        "terms": [
            {
                "maslov": format_rational(m),
                "alexander": format_rational(a),
                "rank": r,
            }
            for m, a, r in poly.terms
        ],
        "spinc": poly.spinc,
    }


def grid_to_text(grid: GridDiagram) -> str:
    return (
        " ".join(str(v) for v in grid.x_markings)
        + "\n"
        + " ".join(str(v) for v in grid.o_markings)
        + "\n"
    )
