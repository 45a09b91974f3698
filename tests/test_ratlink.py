"""Rational linking arithmetic and the satellite boundary constant."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from ratslice.braid import BraidWord, torus_braid, writhe
from ratslice.ratlink import (
    FramedKnotData,
    c_value,
    lk_from_slope,
    lk_shift,
    twist_normalize,
)

F = Fraction

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=12
)


def test_lk_from_slope_examples():
    assert lk_from_slope(1, 0) == 0
    assert lk_from_slope(2, 1) == F(-1, 2)
    assert lk_from_slope(3, -7) == F(7, 3)


def test_lk_shift_examples():
    assert lk_shift(F(0), 0) == 0
    assert lk_shift(F(-1, 2), 3) == F(5, 2)


@given(rationals, st.integers(-10, 10))
def test_lk_shift_inverts(lk, n):
    assert lk_shift(lk_shift(lk, n), -n) == lk


@given(rationals, st.integers(-10, 10))
def test_self_link_invariant_under_shift(lk, n):
    # Re-framing moves lk by an integer: lk mod 1 is framing-independent.
    assert lk_shift(lk, n) % 1 == lk % 1
    assert 0 <= lk % 1 < 1


def seifert_framed_spec(m: int, r: int, s: int) -> tuple[BraidWord, F]:
    """(pattern, framing_lk) of the Seifert-framed (mr, ms) torus pattern."""
    return torus_braid(m * r, m * s), F(-s, r)


def test_c_value_seifert_framed_example():
    pattern, lk = seifert_framed_spec(1, 2, 1)
    assert pattern.index == 2
    assert writhe(pattern) == 1
    assert c_value(pattern, lk, order=2) == 0


def test_c_value_seifert_framed_sweep():
    for m in range(1, 7):
        for r in range(1, 7):
            for s in range(1, 7):
                if gcd(r, s) != 1:
                    continue
                assert c_value(*seifert_framed_spec(m, r, s)) == 0


def test_c_value_index_one_is_writhe():
    assert c_value(BraidWord(1), F(3, 7)) == 0
    # index 1 admits any framing since the (p-1) factor vanishes


def test_c_value_rejects_incompatible_framing():
    with pytest.raises(ValueError, match="multiple of the order"):
        c_value(torus_braid(2, 1), F(1, 3))
    with pytest.raises(ValueError, match="multiple of the order"):
        c_value(torus_braid(2, 1), F(-1, 2), order=4)


def random_integral_spec(rng: random.Random) -> tuple[BraidWord, F]:
    p = rng.randint(1, 5)
    word = tuple(
        rng.choice([x for x in range(-(p - 1), p) if x])
        for _ in range(rng.randint(0, 8))
    ) if p > 1 else ()
    # framing with denominator dividing p keeps p * lk integral
    den = rng.choice([d for d in (1, 2, 3, 4, 5) if p % d == 0])
    lk = F(rng.randint(-10, 10), den)
    return BraidWord(p, word), lk


def test_c_value_invariant_under_twist_normalize():
    rng = random.Random(140)
    for _ in range(200):
        spec = random_integral_spec(rng)
        base = c_value(*spec)
        for m in range(-3, 4):
            assert c_value(*twist_normalize(*spec, m)) == base


def test_twist_normalize_roundtrip():
    spec = (torus_braid(3, 2), F(-2, 3))
    assert twist_normalize(*spec, 0) == spec
    pattern, lk = twist_normalize(*twist_normalize(*spec, 2), -2)
    assert lk == spec[1]
    assert writhe(pattern) == writhe(spec[0])
    assert pattern.permutation() == spec[0].permutation()


def test_twist_normalize_writhe_bookkeeping():
    pattern = torus_braid(3, 1)
    up, lk = twist_normalize(pattern, F(0), 1)
    assert lk == 1
    assert writhe(up) == writhe(pattern) - 3 * 2


def test_framed_knot_data_validation():
    from ratslice.paperdata import builtin

    rp1 = builtin("RP1_in_RP3")
    # lk is derived from the slope, so no record can carry a wrong one; a
    # document's copy is checked by readers.framed_from_json.
    assert rp1.lk == F(-1, 2)
    assert FramedKnotData(3, -2, rp1.tau_spectrum).lk == F(2, 3)
    with pytest.raises(
        ValueError, match=r"^order: expected a positive integer, got 0$"
    ):
        FramedKnotData(order=0, slope=1, tau_spectrum=rp1.tau_spectrum)
