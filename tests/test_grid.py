"""Grid diagrams: gradings, differential structure, tau calibration, moves."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial, gcd

import pytest

import ratslice.grid as grid_module
from ratslice.complexes import FilteredComplex, tau
from ratslice.gf2 import new_engine
from ratslice.grid import (
    GridDiagram,
    compile_grid,
    graded_ranks,
    hfk_bigraded_ranks,
    hfk_ranks,
    tau as grid_tau,
    torus_knot_grid,
)

from helpers import (
    brute_force_rectangles,
    commutable_columns,
    commute_columns,
    compiled_graded_ranks,
    deconvolved_hfk,
    forbid_visits,
    full_graded_ranks,
    homology_ranks,
    maslov_zero_class,
    random_knot_grid,
    stabilize,
    structural_checks,
    textbook_gradings,
    torus_knot_floer_ranks,
    total_homology_rank,
    upper_half,
)

F = Fraction

UNKNOT = GridDiagram((0, 1), (1, 0))


def test_unknot_grid_tau_zero():
    assert grid_tau(UNKNOT) == 0


def test_unknot_bigraded_homology():
    c = compile_grid(UNKNOT)
    assert homology_ranks(c) == {("0", F(0)): 1, ("0", F(-1)): 1}


def test_positive_trefoil_calibration():
    trefoil = torus_knot_grid(2, 3)
    assert grid_tau(trefoil) == 1
    assert hfk_bigraded_ranks(trefoil) == {
        (F(0), F(1)): 1,
        (F(-1), F(0)): 1,
        (F(-2), F(-1)): 1,
    }


def test_negative_trefoil_is_mirror():
    assert grid_tau(torus_knot_grid(2, -3)) == -1


def test_t2_minus5_tau():
    assert grid_tau(torus_knot_grid(2, -5)) == -2


def test_torus_knot_tau_equals_seifert_genus():
    # Positive torus knots realize the slice-Bennequin equality:
    # tau(T(p,q)) = (p-1)(q-1)/2, an independent anchor for the whole
    # pipeline (and sign convention) beyond the 2-stranded family.
    cases = [(2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3)]
    for p, q in cases:
        expected = F((p - 1) * (q - 1), 2)
        assert grid_tau(torus_knot_grid(p, q)) == expected
        assert grid_tau(torus_knot_grid(p, -q)) == -expected


def test_t34_hfk_matches_alexander_polynomial(monkeypatch):
    # T(3,4) is an L-space knot: its knot Floer ranks are the absolute
    # values of the Alexander polynomial coefficients
    # t^3 - t^2 + 1 - t^-2 + t^-3.  They come from the graded blocks
    # alone: compiling the filtered complex would raise here.
    def refuse(*args, **kwargs):
        raise AssertionError("knot Floer ranks built a filtered complex")

    monkeypatch.setattr(grid_module, "compile_grid", refuse)
    monkeypatch.setattr(FilteredComplex, "__init__", refuse)
    assert hfk_ranks(torus_knot_grid(3, 4)) == {
        F(3): 1,
        F(2): 1,
        F(0): 1,
        F(-2): 1,
        F(-3): 1,
    }


def test_torus_knot_grid_input_errors():
    with pytest.raises(ValueError, match="link"):
        torus_knot_grid(2, 4)
    with pytest.raises(ValueError):
        torus_knot_grid(0, 1)
    with pytest.raises(ValueError):
        torus_knot_grid(1, 0)


def test_grid_validation_errors():
    with pytest.raises(ValueError, match="share"):
        GridDiagram((0, 1), (0, 1))
    with pytest.raises(ValueError, match="permutation"):
        GridDiagram((0, 0), (1, 0))


def test_two_component_grid_rejected():
    # X and O chosen so the return map has two cycles.
    grid = GridDiagram((0, 1, 2, 3), (1, 0, 3, 2))
    assert grid.components() == 2
    with pytest.raises(ValueError, match="component"):
        compile_grid(grid)
    with pytest.raises(ValueError, match="component"):
        grid_tau(grid)
    with pytest.raises(ValueError, match="component"):
        graded_ranks(grid)


def test_size_cap():
    x = tuple(range(11))
    o = tuple((i + 1) % 11 for i in range(11))
    with pytest.raises(ValueError, match="cap"):
        compile_grid(GridDiagram(x, o))
    with pytest.raises(ValueError, match="cap"):
        grid_tau(GridDiagram(x, o))
    with pytest.raises(ValueError, match="cap"):
        graded_ranks(GridDiagram(x, o))


def test_grid_tau_matches_the_compiled_complex_tau_of_the_maslov_zero_class():
    # Grid tau (persistence on three Maslov slices) against the filtered
    # complex tau of the Maslov-0 class on the whole compiled complex.
    grids = [UNKNOT, torus_knot_grid(2, 3), torus_knot_grid(2, -3), torus_knot_grid(3, -2)]
    rng = random.Random(2023)
    for n in (3, 4, 5, 6):
        grids += [random_knot_grid(rng, n) for _ in range(3)]
    for grid in grids:
        c = compile_grid(grid)
        alpha = maslov_zero_class(c)
        assert tau(c, alpha) == grid_tau(grid)


def test_tau_negates_under_mirror():
    # tau(G) reads the cheaper of G and G.mirror(); on G.mirror() the same
    # side is reached without the state map f, so f and the sign are
    # checked against the direct scan.  Torus grids also pin the value.
    for p in range(1, 8):
        for q in range(1, 9 - p):
            if gcd(p, q) == 1:
                expected = F((p - 1) * (q - 1), 2)
                for sign in (1, -1):
                    grid = torus_knot_grid(p, sign * q)
                    assert grid_tau(grid) == sign * expected, grid
                    assert grid_tau(grid.mirror()) == -sign * expected, grid
    rng = random.Random(1903)
    for n in (3, 4, 5, 6, 7):
        for _ in range(3):
            grid = random_knot_grid(rng, n)
            assert grid_tau(grid) == -grid_tau(grid.mirror()), grid


@pytest.mark.parametrize("p,q", [(2, -5), (3, 4)])
def test_mirror_state_map_on_gradings_and_arrows(p, q):
    # f(s)[c] = s[(-c) mod n] is a bijection onto the mirror's states with
    # M + M' o f = -(n - 1) and 2A + 2A' o f = -2(n - 1), and s -> t is an
    # arrow exactly when f(t) -> f(s) is one of the mirror: mirror(),
    # _Grader and _rectangle_targets checked against each other.
    grid = torus_knot_grid(p, q)
    mirror = grid.mirror()
    n = grid.n

    def f(state: bytes) -> bytes:
        return state[:1] + state[:0:-1]

    grader = grid_module._Grader(grid)
    mirror_grader = grid_module._Grader(mirror)
    arrows = set()
    mirror_arrows = set()
    images = set()
    for s in _states(n):
        images.add(f(s))
        assert f(f(s)) == s
        m, a2 = grader.gradings(s)
        m_mirror, a2_mirror = mirror_grader.gradings(f(s))
        assert (m + m_mirror, a2 + a2_mirror) == (-(n - 1), -2 * (n - 1)), s
        arrows.update((s, t) for t in _odd_targets(grid_module._rectangle_targets(grid, s)))
        mirror_arrows.update(
            (s, t) for t in _odd_targets(grid_module._rectangle_targets(mirror, s))
        )
    assert len(images) == factorial(n)
    assert arrows
    assert {(f(t), f(s)) for s, t in arrows} == mirror_arrows


def _knot_grids(n: int) -> list[GridDiagram]:
    return [
        grid
        for x in itertools.permutations(range(n))
        for o in itertools.permutations(range(n))
        if all(a != b for a, b in zip(x, o))
        and (grid := GridDiagram(x, o)).is_knot()
    ]


def test_overlapping_maslov_windows_at_sizes_two_and_three():
    # The state map f of the test above takes M to M' = -(n - 1) - M, so
    # for n <= 3 it carries some of the grid's Maslov -1, 0, +1 states to
    # the mirror's: the two sides tau chooses between share states.  Every
    # knot grid of sizes 2 and 3, against the whole compiled complex.
    for grid in _knot_grids(2) + _knot_grids(3):
        c = compile_grid(grid)
        expected = tau(c, maslov_zero_class(c))
        assert grid_tau(grid) == expected, grid
        assert grid_tau(grid.mirror()) == -expected, grid


def test_tau_of_compiled_t2_minus5_complex():
    # The filtered-complex tau operation on the full 5040-generator
    # complex, not just the three Maslov slices.
    c = compile_grid(torus_knot_grid(2, -5))
    assert tau(c, maslov_zero_class(c)) == -2


def test_trefoil_hfk_ranks_per_alexander():
    assert hfk_ranks(torus_knot_grid(2, 3)) == {F(1): 1, F(0): 1, F(-1): 1}


def _oracle_grids() -> list[GridDiagram]:
    # Every torus grid up to size 7, both chiralities, and 12 random knot
    # grids of sizes 3-7.
    grids = [
        torus_knot_grid(p, sign * q)
        for p in range(1, 7)
        for q in range(1, 7)
        for sign in (1, -1)
        if p + q <= 7 and gcd(p, q) == 1
    ]
    rng = random.Random(7117)
    return grids + [random_knot_grid(rng, n) for n in (3, 4, 5, 6, 7, 7) for _ in range(2)]


# A size-6 knot grid whose Maslov -1/0/+1 slices hold 117/35/4 states on
# both sides, so the cheaper side still has a Maslov-0 slice of 35.
BALANCED = GridDiagram((5, 1, 4, 0, 2, 3), (0, 2, 5, 3, 4, 1))


def _slice_sizes(grid: GridDiagram) -> tuple[int, int, int]:
    grader = grid_module._Grader(grid)
    counts = Counter(map(grader.maslov, itertools.permutations(range(grid.n))))
    return counts[-1], counts[0], counts[1]


def _maslov_zero_size(grid: GridDiagram) -> int:
    """The Maslov-0 slice of the side tau reduces, each side scanned by its own grader."""
    sizes = _slice_sizes(grid)
    mirrored = _slice_sizes(grid.mirror())
    return (mirrored if sum(mirrored[1:]) < sum(sizes[1:]) else sizes)[1]


def _count_grids() -> list[GridDiagram]:
    # Every knot grid of sizes 2-3, every torus grid up to size 8 (the
    # callers take both sides, and T(p,-q) is the mirror of T(p,q)), and
    # random knot grids of sizes 4-8.
    grids = _knot_grids(2) + _knot_grids(3)
    grids += [
        torus_knot_grid(p, q) for p in range(1, 8) for q in range(1, 9 - p) if gcd(p, q) == 1
    ]
    rng = random.Random(2020)
    return grids + [random_knot_grid(rng, n) for n in (4, 5, 6, 7, 8)]


def test_suffix_counts_and_walk_match_the_per_state_grader():
    # On both sides, counts[0] is the Counter of _Grader.maslov over all
    # states, keyed by 2A the Counter of 2A, and the walk keeps exactly the
    # states whose tracked grading lies in the interval, in their (M, 2A)
    # blocks in lexicographic order.  Grid tau walks M in [-1, 1] and the
    # graded ranks 2A from 0 up; [-2, 0] on M and [-1, 1] on 2A are used by
    # neither, so both ends of the interval are pinned on both gradings.
    for grid in _count_grids():
        for side in (grid, grid.mirror()):
            grader = grid_module._Grader(side)
            graded = [(state, *grader.gradings(state)) for state in _states(side.n)]
            assert all(grader.maslov(state) == m for state, m, _ in graded), side
            top = max(a2 for _, _, a2 in graded)
            for alexander, shift, intervals in (
                (False, grader.maslov_shift, ((-1, 1), (-2, 0))),
                (True, grader.alexander_shift, ((0, top), (-1, 1))),
            ):
                counts = grader.suffix_counts(alexander=alexander)
                tracked = Counter(a2 if alexander else m for _, m, a2 in graded)
                assert {shift + k: ways for k, ways in counts[0].items()} == tracked, side
                for lo, hi in intervals:
                    blocks = {}
                    for state, m, a2 in graded:
                        if lo <= (a2 if alexander else m) <= hi:
                            blocks.setdefault((m, a2), []).append(state)
                    assert grader.walk(counts, lo, hi, alexander) == blocks, (side, lo, hi)


def test_tau_refuses_maslov_zero_slice_above_limit(monkeypatch):
    # T(2,-5)'s cheaper side is its mirror, whose Maslov-0 slice is one
    # state; the balanced grid's is 35 on either side.
    assert _maslov_zero_size(torus_knot_grid(2, -5)) == 1
    grid = BALANCED
    size = _maslov_zero_size(grid)
    assert size == 35
    monkeypatch.setattr(grid_module, "MAX_TAU_SLICE", size)
    assert grid_tau(grid) == 0

    forbid_visits(monkeypatch)
    monkeypatch.setattr(grid_module, "MAX_TAU_SLICE", size - 1)
    with pytest.raises(
        ValueError,
        match=rf"^the Maslov-0 slice holds {size} states, above the limit of "
        rf"{size - 1} ",
    ):
        grid_tau(grid)


def _upper_half_size(grid: GridDiagram) -> int:
    """The states with 2A >= 0, each graded by the per-state grader."""
    gradings = grid_module._Grader(grid).gradings
    return sum(gradings(state)[1] >= 0 for state in _states(grid.n))


def test_hfk_ranks_refuse_a_grid_over_the_cap_before_grading(monkeypatch):
    # The count comes from the 2A table, so the refusal visits no state:
    # at the limit the balanced grid answers, one below it refuses, and
    # size-10 T(3,7), whose A >= 0 half holds 105,721 states, refuses at
    # a limit one below that.
    size = _upper_half_size(BALANCED)
    monkeypatch.setattr(grid_module, "MAX_HFK_STATES", size)
    assert sum(hfk_ranks(BALANCED).values()) % 2 == 1

    forbid_visits(monkeypatch)
    for grid, kept in ((BALANCED, size), (torus_knot_grid(3, 7), 105_721)):
        monkeypatch.setattr(grid_module, "MAX_HFK_STATES", kept - 1)
        with pytest.raises(
            ValueError,
            match=rf"^the A >= 0 half holds {kept} states, above the limit of "
            rf"{kept - 1} that knot Floer ranks are measured to answer$",
        ):
            hfk_ranks(grid)


# The random size-10 grid in README: 65,008 Maslov-0 states on its cheaper side.
README_RANDOM_TEN = GridDiagram((6, 1, 9, 0, 3, 2, 4, 8, 5, 7), (3, 5, 7, 9, 2, 1, 8, 6, 0, 4))


def test_size_ten_refusal_comes_from_the_counts(monkeypatch):
    # The slice sizes come from suffix_counts, so the refusal visits no
    # state, here at the real limit.
    forbid_visits(monkeypatch)
    with pytest.raises(
        ValueError,
        match=r"^the Maslov-0 slice holds 65008 states, above the limit of 58748 ",
    ):
        grid_tau(README_RANDOM_TEN)


def test_targets_listed_twice_cancel(monkeypatch):
    # Columns sum their targets mod 2.  With every target listed twice
    # there are no arrows at all: every Maslov-0 state is a class of its
    # own for tau, and every state with 2A >= 0 is one for the graded
    # ranks.
    grid = BALANCED
    size = _maslov_zero_size(grid)
    rectangle_targets = grid_module._rectangle_targets
    monkeypatch.setattr(
        grid_module, "_rectangle_targets", lambda g, s: 2 * rectangle_targets(g, s)
    )
    with pytest.raises(AssertionError, match=f"found {size}$"):
        grid_tau(grid)
    graded_targets = grid_module._graded_targets
    monkeypatch.setattr(
        grid_module, "_graded_targets", lambda g, s: 2 * graded_targets(g, s)
    )
    assert sum(graded_ranks(grid).values()) == _upper_half_size(grid)


def _odd_targets(targets: list[bytes]) -> list[bytes]:
    """The targets listed an odd number of times: the arrows mod 2."""
    counts = Counter(targets)
    return sorted(t for t, k in counts.items() if k % 2)


def _states(n: int):
    return map(bytes, itertools.permutations(range(n)))


def test_rectangle_sweep_matches_brute_force():
    # Both rectangles of the 2x2 unknot state (0, 1) are empty and end at
    # (1, 0): the sweep lists the target twice, and the arrows cancel.
    state = bytes((0, 1))
    assert grid_module._rectangle_targets(UNKNOT, state) == [bytes((1, 0))] * 2
    assert brute_force_rectangles(state, [1 << o for o in UNKNOT.o_markings]) == []
    for grid in _oracle_grids():
        o_blocking = [1 << o for o in grid.o_markings]
        ox_blocking = [1 << o | 1 << x for o, x in zip(grid.o_markings, grid.x_markings)]
        for state in _states(grid.n):
            assert _odd_targets(grid_module._rectangle_targets(grid, state)) == [
                bytes(t) for t in brute_force_rectangles(state, o_blocking)
            ], (grid, state)
            assert _odd_targets(grid_module._graded_targets(grid, state)) == [
                bytes(t) for t in brute_force_rectangles(state, ox_blocking)
            ], (grid, state)


def test_integer_gradings_match_textbook_formula():
    for grid in _oracle_grids():
        grader = grid_module._Grader(grid)
        for state in itertools.permutations(range(grid.n)):
            m, a = textbook_gradings(grid, state)
            assert grader.gradings(state) == (m, 2 * a), (grid, state)
            assert grader.maslov(state) == m, (grid, state)


@pytest.mark.parametrize(
    "p,q",
    [(p, q) for p in range(1, 6) for q in range(-5, 6)
     if q and p + abs(q) <= 6 and __import__("math").gcd(p, abs(q)) == 1],
)
def test_structure_torus_grids_up_to_six(p, q):
    structural_checks(torus_knot_grid(p, q))


def test_structure_random_grids():
    rng = random.Random(6061)
    for n in (3, 4, 5, 6):
        for _ in range(3):
            structural_checks(random_knot_grid(rng, n))


def test_structure_sampled_size_eight():
    # One sampled size-8 grid (~13 s).
    structural_checks(random_knot_grid(random.Random(88), 8))


@pytest.mark.xfail(
    strict=True,
    reason="the n-fold pointed diagram carries a rank-2^(n-1) tower; the total "
    "homology is never rank 1 for n >= 2 (the Maslov-0 piece is)",
)
def test_total_homology_rank_one_literal():
    assert total_homology_rank(compile_grid(UNKNOT)) == 1


def _moved_trefoils() -> list[GridDiagram]:
    trefoil = torus_knot_grid(2, 3)
    stabilized = stabilize(trefoil, 2)
    double = stabilize(stabilized, 0)
    moved = [stabilized, double, stabilize(trefoil, 4)]
    for source in (trefoil, stabilized, double):
        for i in commutable_columns(source)[:2]:
            moved.append(commute_columns(source, i))
    return moved


def test_tau_invariant_under_grid_moves():
    trefoil = torus_knot_grid(2, 3)
    expected_tau = grid_tau(trefoil)
    expected_hfk = hfk_ranks(trefoil)
    moved = _moved_trefoils()
    assert len(moved) >= 5
    for grid in moved:
        assert grid.is_knot()
        assert grid_tau(grid) == expected_tau
        assert hfk_ranks(grid) == expected_hfk


def test_maslov_zero_class_unique_for_knots():
    c = compile_grid(torus_knot_grid(2, 3))
    cycle = maslov_zero_class(c)
    assert cycle and c.boundary_of(cycle) == 0
    support = [g for i, g in enumerate(c.generators) if cycle >> i & 1]
    assert {(g.maslov, g.spinc) for g in support} == {(0, "0")}


def test_graded_ranks_match_compiled_complex():
    # The torus and random grids are cross-checked in structural_checks.
    for grid in [torus_knot_grid(2, 3)] + _moved_trefoils():
        assert graded_ranks(grid) == upper_half(compiled_graded_ranks(compile_grid(grid)))


def test_graded_ranks_match_the_full_scan():
    # Every torus grid up to size 8 in both chiralities and random knot
    # grids of sizes 3-8, against the oracle that grades all n! states.
    grids = [
        torus_knot_grid(p, sign * q)
        for p in range(1, 8)
        for q in range(1, 9 - p)
        for sign in (1, -1)
        if gcd(p, q) == 1
    ]
    rng = random.Random(3838)
    grids += [random_knot_grid(rng, n) for n in (3, 4, 5, 6, 7, 8) for _ in range(2)]
    for grid in grids:
        full = full_graded_ranks(grid)
        assert graded_ranks(grid) == upper_half(full), grid
        assert hfk_bigraded_ranks(grid) == deconvolved_hfk(full, grid.n), grid


def test_torus_knot_floer_ranks_match_the_alexander_polynomial():
    # Every torus knot grid up to size 9, in both chiralities.
    for p in range(1, 9):
        for q in range(1, 10 - p):
            if gcd(p, q) == 1:
                expected = torus_knot_floer_ranks(p, q)
                for sign in (1, -1):
                    assert hfk_ranks(torus_knot_grid(p, sign * q)) == expected, (p, sign * q)


def test_hfk_ranks_check_the_alexander_polynomial_at_one(monkeypatch):
    # One more rank at (M, A) = (0, 0), where no tower reaches, leaves a
    # valid peel whose Euler characteristic is 2, not Delta(1) = 1.
    ranks = graded_ranks(torus_knot_grid(2, 3))
    assert (F(0), F(0)) not in ranks
    monkeypatch.setattr(
        grid_module, "graded_ranks", lambda grid: {**ranks, (F(0), F(0)): 1}
    )
    with pytest.raises(AssertionError, match=r"Euler characteristic is 2, not Delta\(1\) = 1"):
        hfk_bigraded_ranks(torus_knot_grid(2, 3))


@pytest.mark.parametrize(
    "changed, message",
    [
        # Two fewer at (-1, 0) than the tower from (0, 1) takes there.
        ({(F(0), F(1)): 1, (F(-1), F(0)): 3}, r"^tower deconvolution went negative$"),
        # No rank at (-1, 0), where the tower from (0, 1) reaches.
        ({(F(0), F(1)): 1}, r"^tower deconvolution left residue: \{\(Fraction\(-1, 1\)"),
    ],
)
def test_hfk_ranks_check_the_tower_deconvolution(monkeypatch, changed, message):
    # T(2,3)'s ranks with one entry changed.
    assert graded_ranks(torus_knot_grid(2, 3)) == {(F(0), F(1)): 1, (F(-1), F(0)): 5}
    monkeypatch.setattr(grid_module, "graded_ranks", lambda grid: dict(changed))
    with pytest.raises(AssertionError, match=message):
        hfk_bigraded_ranks(torus_knot_grid(2, 3))


def test_grid_tau_refuses_an_arrow_that_leaves_its_slices(monkeypatch):
    grid = torus_knot_grid(2, 3)
    # This state has Maslov grading -2 on the grid and 2 on its mirror, so
    # it lies outside the Maslov -1, 0 and +1 slices tau walks on either side.
    outside = bytes(range(grid.n))
    assert [grid_module._Grader(side).gradings(outside)[0]
            for side in (grid, grid.mirror())] == [-2, 2]
    rectangle_targets = grid_module._rectangle_targets
    monkeypatch.setattr(
        grid_module, "_rectangle_targets", lambda g, s: rectangle_targets(g, s) + [outside]
    )
    message = r"^arrow \([\d, ]+\) -> \(0, 1, 2, 3, 4\) leaves the Maslov -?[01] slice$"
    with pytest.raises(AssertionError, match=message):
        grid_tau(grid)


def test_graded_ranks_refuse_an_arrow_outside_the_block_below(monkeypatch):
    graded_targets = grid_module._graded_targets

    def with_loop(grid, state):
        # An arrow to the state itself stays in the state's own block.
        return graded_targets(grid, state) + [state]

    monkeypatch.setattr(grid_module, "_graded_targets", with_loop)
    with pytest.raises(AssertionError, match="leaves the block below"):
        graded_ranks(torus_knot_grid(2, 3))


def test_graded_ranks_refuse_a_nonzero_square(monkeypatch):
    grid = torus_knot_grid(2, 5)
    graded_targets = grid_module._graded_targets
    # Dropping an arrow x -> y whose target is no cycle leaves
    # d(d(x)) = d(y), which is nonzero.  x is a state the walk keeps.
    gradings = grid_module._Grader(grid).gradings
    x, y = next(
        (state, target)
        for state in _states(grid.n)
        if gradings(state)[1] >= 0
        for target in graded_targets(grid, state)
        if graded_targets(grid, target)
    )

    def without_arrow(g, state):
        targets = graded_targets(g, state)
        return [t for t in targets if t != y] if state == x else targets

    monkeypatch.setattr(grid_module, "_graded_targets", without_arrow)
    with pytest.raises(AssertionError, match="squares to nonzero"):
        graded_ranks(grid)


def _kept_blocks(grid: GridDiagram) -> tuple[int, dict[tuple[int, int], list[bytes]]]:
    """The count check_hfk_size reads, and the blocks graded_ranks sweeps."""
    grader, counts = grid_module.check_hfk_size(grid)
    kept = sum(ways for rest, ways in counts[0].items() if rest >= -grader.alexander_shift)
    top = grader.alexander_shift + max(counts[0])
    return kept, grader.walk(counts, 0, top, alexander=True)


def test_graded_ranks_check_the_square_on_cleared_states(monkeypatch):
    # A cleared state x leads a boundary from the block above, so
    # essential_rows never reduces its column.  Dropping an arrow x -> y
    # whose target is no cycle leaves d(d(x)) = d(y), and d(d(w)) = y for
    # a state w above whose boundary holds x: both nonzero, and both
    # seen only through x's own arrows, which a sweep that built no
    # column for a cleared state would never read.
    grid = torus_knot_grid(2, 5)
    graded_targets = grid_module._graded_targets
    blocks = _kept_blocks(grid)[1]
    cleared = []
    for (m, a2), block in blocks.items():
        row_of = {state: i for i, state in enumerate(block)}
        engine = new_engine(len(block))
        for state in blocks.get((m + 1, a2), ()):
            targets = _odd_targets(graded_targets(grid, state))
            engine.add_column(sum(1 << row_of[t] for t in targets))
        cleared += [block[row] for row in engine.pivot_rows]
    assert len(cleared) == 56
    x, y = next(
        (state, target)
        for state in cleared
        for target in _odd_targets(graded_targets(grid, state))
        if _odd_targets(graded_targets(grid, target))
    )

    def without_arrow(g, state):
        targets = graded_targets(g, state)
        return [t for t in targets if t != y] if state == x else targets

    monkeypatch.setattr(grid_module, "_graded_targets", without_arrow)
    with pytest.raises(AssertionError, match="squares to nonzero"):
        graded_ranks(grid)


@pytest.mark.parametrize("p,q,cleared", [(2, 5, 56), (3, 4, 91), (3, -5, 735), (2, -7, 1317)])
def test_graded_ranks_clear_every_state_a_boundary_leads(monkeypatch, p, q, cleared):
    # Each block's boundaries are the engine of the block above, and
    # essential_rows skips its pivot rows.  Their ranks add up to the rank
    # of the graded differential, which is half of what homology leaves
    # out of the kept states.
    ranks = []
    sweep = grid_module.essential_rows

    def spy(boundaries, cycles, boundary_of_row):
        ranks.append(boundaries.rank)
        return sweep(boundaries, cycles, boundary_of_row)

    monkeypatch.setattr(grid_module, "essential_rows", spy)
    grid = torus_knot_grid(p, q)
    homology = sum(graded_ranks(grid).values())
    assert sum(ranks) == (_kept_blocks(grid)[0] - homology) // 2 == cleared
