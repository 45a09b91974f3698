"""Embedded datasets and the pipelines built on them."""

from fractions import Fraction

import pytest

from ratslice.bounds import satellite_breadth_lower
from ratslice.paperdata import (
    BUILTIN_NAMES,
    DeepSliceVerdict,
    PoincarePolynomial,
    builtin,
    deep_slice_report,
    dual_knot_breadth,
    satellite_pl_genus_growth,
)
from ratslice.ratlink import FramedKnotData

from helpers import naive_survivors

F = Fraction


def test_builtin_names_rejection():
    with pytest.raises(ValueError) as err:
        builtin("nope")
    for name in BUILTIN_NAMES:
        assert name in str(err.value)


def test_builtin_rp1():
    rp1 = builtin("RP1_in_RP3")
    assert isinstance(rp1, FramedKnotData)
    assert rp1.order == 2
    assert rp1.tau_spectrum.tau_max == F(1, 4)
    assert rp1.tau_spectrum.tau_min == F(-1, 4)
    assert rp1.d_invariants == {"0": F(1, 4), "1": F(-1, 4)}
    assert rp1.floer_simple


def test_builtin_t25():
    t = builtin("T(2,-5)")
    assert t.tau_spectrum.tau_max == F(-2)
    assert t.tau_spectrum.breadth == 0
    assert t.order == 1


def test_builtin_composite():
    j = builtin("J_example_6.2")
    assert j.tau_spectrum.tau_max == F(-7, 4)
    assert j.tau_spectrum.tau_min == F(-9, 4)
    assert j.order == 2
    assert j.tau_spectrum.breadth == builtin("RP1_in_RP3").tau_spectrum.breadth


def test_builtin_lift_polynomial():
    poly = builtin("lift_8_20")
    assert isinstance(poly, PoincarePolynomial)
    base = F(7, 9)
    assert poly.terms == (
        (base - 1, F(-1), 1),
        (base, F(0), 1),
        (base + 1, F(1), 1),
    )


def test_polynomial_validation():
    # The record names the offending term by its index, as a document does.
    with pytest.raises(
        ValueError, match=r"^terms\[0\]\.rank: expected a positive integer, got 0$"
    ):
        PoincarePolynomial(((F(0), F(0), 0),), "0")
    with pytest.raises(
        ValueError, match=r"^terms\[2\]: duplicate bigrading in polynomial$"
    ):
        PoincarePolynomial(
            ((F(0), F(0), 1), (F(1), F(1), 1), (F(0), F(0), 2)), "0"
        )


def test_deep_slice_lift_8_20():
    verdict = deep_slice_report(builtin("lift_8_20"), 1)
    assert verdict.possible_tau == frozenset({F(-1), F(1)})
    assert verdict.deep_slice


def test_deep_slice_survivor_at_zero_is_shallow():
    poly = PoincarePolynomial(((F(1, 2), F(0), 1),), "0")
    verdict = deep_slice_report(poly, 1)
    assert verdict.possible_tau == frozenset({F(0)})
    assert not verdict.deep_slice


def test_deep_slice_forced_cancellation():
    # Maslov gaps force one outcome: only the A = 2 generator survives.
    poly = PoincarePolynomial(
        ((F(0), F(2), 1), (F(5), F(1), 1), (F(4), F(0), 1)), "0"
    )
    entries = [(a, m, r) for m, a, r in poly.terms]
    assert naive_survivors(entries, 1) == {(F(2),)}
    verdict = deep_slice_report(poly, 1)
    assert verdict.possible_tau == frozenset({F(2)})
    assert verdict.deep_slice


def test_deep_slice_stable_under_term_order():
    base = F(7, 9)
    shuffled = PoincarePolynomial(
        terms=(
            (base + 1, F(1), 1),
            (base - 1, F(-1), 1),
            (base, F(0), 1),
        ),
        spinc="+1/-1",
    )
    assert deep_slice_report(shuffled, 1) == deep_slice_report(
        builtin("lift_8_20"), 1
    )


def test_builtin_derived_values():
    # breadth = tau_max - tau_min and lk = -slope/order, as the embedded
    # records stated them before both were derived.
    expected = {
        "RP1_in_RP3": (F(1, 2), F(-1, 2)),
        "T(2,-5)": (F(0), F(0)),
        "J_example_6.2": (F(1, 2), F(-1, 2)),
    }
    for name, (breadth, lk) in expected.items():
        data = builtin(name)
        assert (data.tau_spectrum.breadth, data.lk) == (breadth, lk), name


def test_verdict_consistency_enforced():
    # The flag is derived from possible_tau, so it cannot contradict it.
    assert not DeepSliceVerdict(frozenset({F(0)}), "x").deep_slice
    assert not DeepSliceVerdict(frozenset({F(-1), F(0)}), "x").deep_slice
    assert DeepSliceVerdict(frozenset({F(-1), F(1)}), "x").deep_slice
    assert DeepSliceVerdict(frozenset(), "x").deep_slice


def test_dual_knot_breadth_values():
    assert dual_knot_breadth(2) == 2
    with pytest.raises(ValueError, match="trefoil"):
        dual_knot_breadth(1)


def test_dual_knot_breadth_matches_three_subset_argument():
    # At least three of the five supported gradings survive the single
    # cancellation, and the surviving triple is the complement of a
    # strictly descending pair; the certified bound is the minimum breadth
    # over those triples: 2 at genus 2, g for larger genus.
    for g in range(2, 8):
        gradings = [-g, -(g - 1), 0, g - 1, g]
        triples = []
        for i in range(5):
            for j in range(5):
                if gradings[i] > gradings[j]:
                    rest = [gradings[k] for k in range(5) if k not in (i, j)]
                    triples.append(max(rest) - min(rest))
        assert dual_knot_breadth(g) == min(triples)
    assert dual_knot_breadth(3) == 3


def test_dual_knot_breadth_against_naive_enumeration():
    # One adversarial completion realizes the minimum: rank 1 everywhere
    # except a large middle grading.
    for g in (2, 3):
        ranks = [
            (F(-g), None, 1),
            (F(-(g - 1)), None, 1),
            (F(0), None, 4 * g - 3),
            (F(g - 1), None, 1),
            (F(g), None, 1),
        ]
        outcomes = naive_survivors(ranks, 4 * g - 1)
        assert dual_knot_breadth(g) == min(max(o) - min(o) for o in outcomes)


def test_dual_knot_breadth_closed_form_exhaustive():
    # Every rank completion (1, r1, r2, r3, 1) of the five gradings and
    # every outcome of its one cancellation, by the Alexander-only rule.
    for g in range(2, 7):
        gradings = [F(-g), F(-(g - 1)), F(0), F(g - 1), F(g)]
        least = None
        for r1 in range(1, 4 * g - 2):
            for r2 in range(1, 4 * g - 1 - r1):
                ranks = (1, r1, r2, 4 * g - 1 - r1 - r2, 1)
                entries = [(a, None, r) for a, r in zip(gradings, ranks)]
                for outcome in naive_survivors(entries, 4 * g - 1):
                    breadth = max(outcome) - min(outcome)
                    least = breadth if least is None else min(least, breadth)
        assert dual_knot_breadth(g) == least == g
    assert [dual_knot_breadth(g) for g in range(2, 13)] == list(range(2, 13))


def test_dual_knot_breadth_at_least_two():
    for g in range(2, 11):
        assert dual_knot_breadth(g) >= 2


def test_satellite_growth_strictly_increasing():
    values = [satellite_pl_genus_growth(2, p) for p in range(1, 21)]
    assert values == sorted(set(values))
    assert values[0] == 2
    assert all(b - a == 1 for a, b in zip(values, values[1:]))
    assert satellite_breadth_lower(7, dual_knot_breadth(2)) == 8
