"""Bound evaluators: worked values, algebraic identities, c-sweeps."""

import random
from fractions import Fraction
from math import gcd

import pytest

from ratslice.bounds import (
    Interval,
    bp_tau_interval,
    cable_tau_interval,
    d_invariant_bound,
    exterior_grading_table,
    floer_simple_genus,
    genus_lower_bound_breadth,
    seifert_framed_bound,
    slice_bennequin_check,
    surface_genus_upper,
)
from ratslice.braid import components, torus_braid, writhe

from helpers import optimal_c, satellite_breadth_lower, surface_bound_with_c

F = Fraction


# (tau_max, tau_min) of the composite J and of the core circle in RP^3.
J_EXTREMES = (F(-7, 4), F(-9, 4))
RP1_EXTREMES = (F(1, 4), F(-1, 4))


# -- grading table ---------------------------------------------------------

def maxa_prime(p, maxa, lk):
    return p * F(maxa) + F(p * (p - 1), 2) * F(lk)


def test_grading_table_p1_single_row():
    table = exterior_grading_table(1, 3, F(2), F(5, 2), 4)
    assert len(table) == 1
    for a, a_prime in table[0]:
        assert a == a_prime


def test_grading_table_displayed_entries():
    p, n, lk, maxa = 3, 2, F(1, 3), F(2)
    mp = maxa_prime(p, maxa, lk)
    table = exterior_grading_table(p, n, lk, maxa, 3)
    # Displayed top-left block, columns C(maxa), C(maxa-1), C(maxa-2):
    expected = {
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
        # The printed (x3, C(maxa-2)) and (x4, C(maxa-2)) cells list the
        # same A as the row above, which contradicts the difference rules
        # generating the table; the generated A values drop by one more.
        (3, 2): (maxa - 4, mp - 3 * p - 1),
        (4, 2): (maxa - 4, mp - 4 * p),
    }
    for (i, j), (a, ap) in expected.items():
        assert table[i][j] == (a, ap), (i, j)


def test_grading_table_difference_relations_exhaustive():
    for p in range(1, 7):
        for n in range(1, 7):
            lk = F(1, max(1, p))
            table = exterior_grading_table(p, n, lk, F(3, 2), 4)
            assert len(table) == 2 * n * (p - 1) + 1
            for j in range(4):
                for i in range(1, len(table)):
                    (a, ap), (a2, ap2) = table[i - 1][j], table[i][j]
                    if i % 2:
                        assert (a - a2, ap - ap2) == (1, 1)
                    else:
                        assert (a - a2, ap - ap2) == (0, p - 1)
            for j in range(1, 4):
                for i in range(len(table)):
                    (a, ap), (a2, ap2) = table[i][j - 1], table[i][j]
                    assert (a - a2, ap - ap2) == (1, p)


# -- intervals ----------------------------------------------------------------

def test_cable_interval_examples():
    assert cable_tau_interval(1, F(3), F(5)) == Interval(F(3), F(3))
    assert cable_tau_interval(2, F(-2), F(2)) == Interval(F(-2), F(-1))
    assert cable_tau_interval(3, F(0), F(0)) == Interval(F(0), F(2))


def test_bp_interval_examples():
    assert bp_tau_interval(1, F(5, 2), F(0), 0, 1) == Interval(F(5, 2), F(5, 2))
    assert bp_tau_interval(2, F(1), F(0), 1, 1) == Interval(F(2), F(3))
    with pytest.raises(ValueError):
        bp_tau_interval(2, F(0), F(0), 0, 3)


def test_bp_equals_cable_for_torus_braids():
    quarters = [F(k, 4) for k in range(-8, 9)]
    for p in range(1, 9):
        for n in range(-8, 9):
            q = p * n + 1
            b = torus_braid(p, q)
            comps = components(b.permutation())
            assert comps == gcd(p, abs(q)) if q else p
            for t in range(-3, 4):
                for lk in quarters:
                    assert bp_tau_interval(
                        p, F(t), lk, writhe(b), comps
                    ) == cable_tau_interval(p, F(t), lk + n)


def test_bp_interval_invariant_under_twist_normalization():
    # Trading m framing twists for m opposite full twists shifts the
    # center by m*p(p-1) - m*p(p-1) = 0 and leaves the components alone.
    rng = random.Random(1234)
    for _ in range(60):
        p = rng.randint(1, 6)
        t = F(rng.randint(-6, 6), rng.choice([1, 2, 4]))
        lk = F(rng.randint(-8, 8), rng.choice([1, 2, 4]))
        w = rng.randint(-10, 10)
        comps = rng.randint(1, p)
        base = bp_tau_interval(p, t, lk, w, comps)
        for m in range(-3, 4):
            assert bp_tau_interval(
                p, t, lk + m, w - m * p * (p - 1), comps
            ) == base


def test_crossing_changes_connect_adjacent_cables():
    # p(p-1)/2 crossing changes in one direction cover the n -> n-1 step:
    # turning k positive crossings negative lowers tau by at most k.
    for p in range(1, 7):
        for n in range(-3, 4):
            here = cable_tau_interval(p, F(1, 2), F(n))
            down = cable_tau_interval(p, F(1, 2), F(n - 1))
            widened = Interval(here.lo - p * (p - 1) // 2, here.hi)
            assert widened.lo <= down.lo and down.hi <= widened.hi


# -- genus bounds ----------------------------------------------------------------

def test_genus_bound_breadth_values():
    assert genus_lower_bound_breadth(F(1, 2), F(-1, 2)).bound_value == 0
    assert genus_lower_bound_breadth(F(2), F(-1)).bound_value == 1
    report = genus_lower_bound_breadth(*J_EXTREMES)
    assert report.bound_value == F(-1, 4)
    assert report.clamped_value == 0


def test_surface_bound_with_c_examples():
    assert surface_bound_with_c(*RP1_EXTREMES, 0, 2) == -1
    assert surface_genus_upper(F(4), 2) == 3


def test_optimal_c_symmetric_spectrum():
    c_star, best, bound = optimal_c(F(3, 2), F(-3, 2), 4)
    assert c_star == 0
    assert best == 0
    assert bound == 4 * 3 - 4


def test_optimal_c_example_spectrum():
    c_star, best, bound = optimal_c(*J_EXTREMES, 2)
    assert c_star == 8
    assert best == 8
    assert bound == 2 * (J_EXTREMES[0] - J_EXTREMES[1]) - 2


def test_optimal_c_sweep_random():
    rng = random.Random(90210)
    for _ in range(100):
        hi = F(rng.randint(-12, 12), rng.choice([1, 2, 4]))
        lo = hi - F(rng.randint(0, 12), rng.choice([1, 2, 4]))
        for p in range(1, 7):
            c_star, best, bound = optimal_c(hi, lo, p)
            floor_c = c_star.numerator // c_star.denominator
            sweep = min(
                surface_bound_with_c(hi, lo, c, p)
                for c in range(floor_c - 3, floor_c + 5)
            )
            assert bound == sweep
            breadth_based = 2 * p * genus_lower_bound_breadth(hi, lo).bound_value
            if c_star.denominator == 1:
                assert sweep == breadth_based
            else:
                assert sweep > breadth_based


def test_seifert_framed_bound_values():
    assert seifert_framed_bound(F(0), F(0), 3).bound_value == -3
    report = seifert_framed_bound(*J_EXTREMES, 2)
    assert report.inputs["max_abs_two_tau"] == F(9, 2)
    assert report.bound_value == 2 * (F(9, 2) - 1)
    assert seifert_framed_bound(*RP1_EXTREMES, 2).bound_value == -1


def test_satellite_breadth_lower_values():
    assert satellite_breadth_lower(1, F(5, 2)) == F(5, 2)
    assert satellite_breadth_lower(3, F(2)) == 4
    assert satellite_breadth_lower(10, F(3)) == 21


def test_slice_bennequin_examples():
    ok = slice_bennequin_check(F(0), F(0), 0, 1)
    assert ok.satisfied and ok.bound_value == 0
    wide = slice_bennequin_check(F(-1), F(0), -2, 1)
    assert wide.satisfied and wide.bound_value == 3
    bad = slice_bennequin_check(F(5), F(0), 0, 1)
    assert not bad.satisfied and bad.bound_value == -5


def test_d_invariant_bound_values():
    assert d_invariant_bound({"0": F(1)}, {"0": "0"}) == 0
    assert (
        d_invariant_bound(
            {"0": F(1, 4), "1": F(-1, 4)}, {"0": "1", "1": "0"}
        )
        == F(1, 2)
    )
    rng = random.Random(77)
    for _ in range(40):
        labels = [str(i) for i in range(rng.randint(1, 6))]
        d = {s: F(rng.randint(-8, 8), 4) for s in labels}
        image = labels[:]
        rng.shuffle(image)
        action = dict(zip(labels, image))
        expected = max(d[action[s]] - d[s] for s in labels)
        assert d_invariant_bound(d, action) == expected
    with pytest.raises(ValueError):
        d_invariant_bound({"0": F(0)}, {"0": "1"})


def test_floer_simple_genus_values():
    assert floer_simple_genus(F(1, 2), F(-1, 2)).bound_value == 0
    assert floer_simple_genus(F(1), F(-1)).bound_value == F(1, 2)
    anomalous = floer_simple_genus(*RP1_EXTREMES)
    assert anomalous.bound_value == F(-1, 4)
    assert anomalous.anomaly is not None
    assert anomalous.is_equality


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(F(1), F(0))
