"""Acceptance suite: one test per criterion, exact values, timed.

Each criterion prints a single PASS/FAIL line (visible with pytest -s or
in the captured output).  All numeric comparisons are exact: rationals
are Fractions end to end, and no tolerance is ever applied.
"""

import random
import time
from fractions import Fraction
from math import gcd

from ratslice import bounds, paperdata
from ratslice.braid import BraidWord, components, torus_braid, writhe
from ratslice.complexes import (
    connected_sum_shift,
    tau,
)
from ratslice.grid import (
    GridDiagram,
    tau as grid_tau,
    torus_knot_grid,
)
from ratslice.ratlink import c_value, twist_normalize

from helpers import (
    basis_cycles,
    exhaustive_tau,
    optimal_c,
    random_complex,
    random_knot_grid,
    satellite_breadth_lower,
    structural_checks,
    surface_bound_with_c,
    tau_by_level_sweep,
)

F = Fraction


class Criterion:
    def __init__(self, number: int, label: str, budget_seconds: float):
        self.number = number
        self.label = label
        self.budget = budget_seconds
        self.start = time.monotonic()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {status} ({elapsed:.2f}s): {self.label}")
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_grid_pipeline_exactness():
    with Criterion(1, "grid pipeline: unknot 0, trefoil +1, T(2,-5) -2", 30):
        assert grid_tau(GridDiagram((0, 1), (1, 0))) == 0
        assert grid_tau(torus_knot_grid(2, 3)) == 1
        assert grid_tau(torus_knot_grid(2, -5)) == -2


def test_criterion_2_structural_suite():
    with Criterion(2, "structural suite over torus and random grids", 300):
        torus = [
            (p, q)
            for p in range(1, 6)
            for q in range(-5, 6)
            if q and gcd(p, abs(q)) == 1 and p + abs(q) <= 6
        ]
        for p, q in torus:
            structural_checks(torus_knot_grid(p, q))
        rng = random.Random(52_2024)
        for n in (3, 4, 5, 6, 7):
            for _ in range(10):
                structural_checks(random_knot_grid(rng, n))


def test_criterion_3_tau_oracle_equivalence():
    with Criterion(3, "filtration tau equals exhaustive tau, 200 complexes", 60):
        rng = random.Random(3_1415)
        checked = 0
        while checked < 200:
            c = random_complex(rng, max_generators=12)
            cycles = basis_cycles(c)
            if not cycles:
                continue
            alpha = rng.choice(cycles)
            value = tau(c, alpha)
            assert value == exhaustive_tau(c, alpha)
            if checked % 4 == 0:
                assert value == tau_by_level_sweep(c, alpha)
            checked += 1


def test_criterion_4_composite_example_reproduction():
    with Criterion(4, "composite knot numbers: -7/4, -9/4, -1/4, 9/2, 3", 1):
        rp1 = paperdata.builtin("RP1_in_RP3")
        shifted = connected_sum_shift(rp1.tau_spectrum, F(-2))
        assert shifted.tau_max == F(-7, 4)
        assert shifted.tau_min == F(-9, 4)
        genus = bounds.genus_lower_bound_breadth(shifted.tau_max, shifted.tau_min)
        assert genus.bound_value == F(-1, 4)
        seifert = bounds.seifert_framed_bound(shifted.tau_max, shifted.tau_min, 2)
        assert seifert.inputs["max_abs_two_tau"] == F(9, 2)
        assert bounds.surface_genus_upper(F(4), 2) == F(3)


def test_criterion_5_deep_slice_reproduction():
    with Criterion(5, "lift of 8_20: possible tau {-1,+1}, deep slice", 1):
        verdict = paperdata.deep_slice_report(paperdata.builtin("lift_8_20"), 1)
        assert verdict.possible_tau == frozenset({F(-1), F(1)})
        assert verdict.deep_slice is True


def test_criterion_6_c_ledger_properties():
    with Criterion(6, "c = 0 Seifert-framed; twist invariance, 500 specs", 10):
        for m in range(1, 7):
            for r in range(1, 7):
                for s in range(1, 7):
                    if gcd(r, s) != 1:
                        continue
                    assert c_value(torus_braid(m * r, m * s), F(-s, r)) == 0
        rng = random.Random(66)
        for _ in range(500):
            p = rng.randint(1, 5)
            letters = tuple(
                rng.choice([x for x in range(-(p - 1), p) if x])
                for _ in range(rng.randint(0, 10))
            ) if p > 1 else ()
            den = rng.choice([d for d in (1, 2, 3, 4, 5) if p % d == 0])
            spec = (BraidWord(p, letters), F(rng.randint(-12, 12), den))
            m = rng.randint(-3, 3)
            assert c_value(*twist_normalize(*spec, m)) == c_value(*spec)


def test_criterion_7_torus_braid_consistency_identity():
    with Criterion(7, "bp interval equals cable interval over the sweep", 60):
        quarters = [F(k, 4) for k in range(-8, 9)]
        for p in range(1, 9):
            for n in range(-8, 9):
                braid = torus_braid(p, p * n + 1)
                w = writhe(braid)
                comps = components(braid.permutation())
                assert comps == 1
                for t in range(-3, 4):
                    for lk in quarters:
                        assert bounds.bp_tau_interval(
                            p, F(t), lk, w, comps
                        ) == bounds.cable_tau_interval(p, F(t), lk + n)


def test_criterion_8_grading_table():
    with Criterion(8, "grading table: displayed entries and relations", 10):
        # Displayed block, checked symbolically over several parameter sets.
        for p, maxa, lk in [
            (2, F(3), F(1, 2)),
            (3, F(2), F(1, 3)),
            (5, F(-1, 2), F(2, 5)),
        ]:
            mp = p * maxa + F(p * (p - 1), 2) * lk
            table = bounds.exterior_grading_table(p, 3, lk, maxa, 3)
            displayed = {
                (0, 0): (maxa, mp),
                (0, 1): (maxa - 1, mp - p),
                (0, 2): (maxa - 2, mp - 2 * p),
                (1, 0): (maxa - 1, mp - 1),
                (1, 1): (maxa - 2, mp - p - 1),
                (1, 2): (maxa - 3, mp - 2 * p - 1),
                (2, 0): (maxa - 1, mp - p),
                (2, 1): (maxa - 2, mp - 2 * p),
                (2, 2): (maxa - 3, mp - 3 * p),
                (3, 0): (maxa - 2, mp - p - 1),
                (3, 1): (maxa - 3, mp - 2 * p - 1),
                (4, 0): (maxa - 2, mp - 2 * p),
                (4, 1): (maxa - 3, mp - 3 * p),
                # The last printed column's x3/x4 first coordinates repeat
                # the previous row in the source table, contradicting the
                # odd-step difference rule that generates the table; the
                # rule-generated values (one lower) are asserted instead.
                (3, 2): (maxa - 4, mp - 3 * p - 1),
                (4, 2): (maxa - 4, mp - 4 * p),
            }
            for (i, j), (a, ap) in displayed.items():
                assert table[i][j] == (a, ap), (p, i, j)
        # Difference relations, exhaustive over p <= 6, n <= 6.
        for p in range(1, 7):
            for n in range(1, 7):
                table = bounds.exterior_grading_table(p, n, F(1, p), F(2), 3)
                for j in range(3):
                    for i in range(1, len(table)):
                        (a, ap), (a2, ap2) = table[i - 1][j], table[i][j]
                        assert (a - a2, ap - ap2) == ((1, 1) if i % 2 else (0, p - 1))
                for j in range(1, 3):
                    for i in range(len(table)):
                        (a, ap), (a2, ap2) = table[i][j - 1], table[i][j]
                        assert (a - a2, ap - ap2) == (1, p)


def test_criterion_9_optimal_c_mechanism():
    with Criterion(9, "integer-c sweep never beats the breadth bound", 10):
        rng = random.Random(9_9999)
        for _ in range(100):
            hi = F(rng.randint(-10, 10), rng.choice([1, 2, 3, 4]))
            lo = hi - F(rng.randint(0, 10), rng.choice([1, 2, 3, 4]))
            genus_bound = bounds.genus_lower_bound_breadth(hi, lo).bound_value
            for p in range(1, 7):
                c_star, best, bound = optimal_c(hi, lo, p)
                assert c_star == -p * (hi + lo)
                floor_c = c_star.numerator // c_star.denominator
                sweep = min(
                    surface_bound_with_c(hi, lo, c, p)
                    for c in range(floor_c - 5, floor_c + 7)
                )
                assert bound == sweep
                # The breadth bound (breadth - 1)/2 in the sweep's -chi terms.
                if c_star.denominator == 1:
                    assert sweep == 2 * p * genus_bound
                else:
                    assert sweep > 2 * p * genus_bound


def test_criterion_10_breadth_growth():
    with Criterion(10, "dual knot breadth 2; satellite growth p + 1", 1):
        assert paperdata.dual_knot_breadth(2) == F(2)
        values = [satellite_breadth_lower(p, F(2)) for p in range(1, 21)]
        assert values == [F(p + 1) for p in range(1, 21)]
        assert all(b > a for a, b in zip(values, values[1:]))
