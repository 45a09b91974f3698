"""Braid words: writhe, closure components, twists."""

import random

import pytest
from hypothesis import given, strategies as st

from ratslice.braid import (
    BraidWord,
    components,
    format_braid,
    full_twist,
    parse_braid,
    splitting_counts,
    torus_braid,
    writhe,
)


def braid_words(max_index=6, max_length=12):
    return st.integers(2, max_index).flatmap(
        lambda n: st.lists(
            st.integers(-(n - 1), n - 1).filter(bool), max_size=max_length
        ).map(lambda w: BraidWord(n, tuple(w)))
    )


def test_writhe_empty_and_positive():
    assert writhe(BraidWord(2)) == 0
    assert writhe(BraidWord(2, (1, 1, 1))) == 3


def test_writhe_torus_braid():
    assert writhe(torus_braid(3, 4)) == 8
    assert writhe(torus_braid(3, -4)) == -8


def test_components_basics():
    assert components(BraidWord(3).permutation()) == 3
    assert components(BraidWord(2, (1,)).permutation()) == 1
    assert components(BraidWord(2, (1, 1)).permutation()) == 2


def _orbit_count(permutation):
    # Independent of components: remove one whole orbit at a time.
    left = set(range(len(permutation)))
    count = 0
    while left:
        s = left.pop()
        while permutation[s] in left:
            s = permutation[s]
            left.remove(s)
        count += 1
    return count


def test_components_counts_the_cycles():
    rng = random.Random(40)
    for size in [1, 2, 2000] + [rng.randint(1, 2000) for _ in range(40)]:
        permutation = list(range(size))
        rng.shuffle(permutation)
        assert components(tuple(permutation)) == _orbit_count(permutation)
    for p in range(1, 6):
        for q in range(-6, 7):
            permutation = torus_braid(p, q).permutation()
            assert components(permutation) == _orbit_count(permutation)


def test_torus_braid_contract():
    from math import gcd

    for p in range(1, 6):
        for q in range(-6, 7):
            b = torus_braid(p, q)
            assert writhe(b) == (p - 1) * q
            assert components(b.permutation()) == (gcd(p, abs(q)) if q else p)


def test_torus_braid_seifert_framed_writhe():
    # the (mr, ms) pattern at m=2, r=2, s=1
    assert writhe(torus_braid(4, 2)) == 6


def test_torus_braid_zero_power():
    b = torus_braid(3, 0)
    assert b.word == ()
    assert components(b.permutation()) == 3


def test_full_twist():
    assert full_twist(1).word == ()
    assert full_twist(2).word == (1, 1)
    b = full_twist(4)
    assert writhe(b) == 12
    assert b.permutation() == (0, 1, 2, 3)


def test_splitting_counts_examples():
    assert splitting_counts(BraidWord(3, (1, -2))) == (1, 1)
    assert splitting_counts(BraidWord(2)) == (0, 0)
    assert splitting_counts(torus_braid(2, -5)) == (0, 5)


@given(braid_words())
def test_splitting_counts_consistency(b):
    k, l = splitting_counts(b)
    assert k - l == writhe(b)
    assert k + l == len(b.word)


@given(braid_words(max_index=5, max_length=8), st.integers(1, 4))
def test_full_twist_composition_properties(b, n):
    if n != b.index:
        return
    twisted = b * full_twist(n)
    assert writhe(twisted) == writhe(b) + n * (n - 1)
    assert components(twisted.permutation()) == components(b.permutation())


def test_letter_range_enforced():
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(0, ())


def test_parse_format_roundtrip():
    b = parse_braid("4: 1 2 3 1 2 3 1 2 3 1 2 3")
    assert b.index == 4
    assert len(b.word) == 12
    assert parse_braid(format_braid(b)) == b
    assert parse_braid("3:") == BraidWord(3)
    with pytest.raises(ValueError, match="header"):
        parse_braid("x: 1 2")


def test_inverse_and_product():
    b = BraidWord(3, (1, -2, 2))
    assert (b * b.inverse()).permutation() == (0, 1, 2)
    with pytest.raises(ValueError):
        b * BraidWord(4)
