"""Expected answers derived without ratslice.

Every value here comes from a closed form, from the construction of the
input, or from an enumeration written for the benchmark. Nothing imports
ratslice, so a defect in the library cannot leak into its own check.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

# -- torus knots ------------------------------------------------------------


def torus_tau(p: int, q: int) -> Fraction:
    """tau of T(p, q): (p-1)(q-1)/2, negated for the mirror (q < 0)."""
    magnitude = Fraction((p - 1) * (abs(q) - 1), 2)
    return magnitude if q > 0 else -magnitude


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    quotient = [0] * (len(num) - len(den) + 1)
    for shift in range(len(quotient) - 1, -1, -1):
        coef = num[shift + len(den) - 1] // den[-1]
        quotient[shift] = coef
        for i, d in enumerate(den):
            num[shift + i] -= coef * d
    if any(num):
        raise ArithmeticError("division left a remainder")
    return quotient


def _t_power_minus_one(k: int) -> list[int]:
    return [-1] + [0] * (k - 1) + [1]


def torus_hfk_ranks(p: int, q: int) -> dict[Fraction, int]:
    """Knot Floer rank per Alexander grading of T(p, q).

    Torus knots are L-space knots, so the rank in Alexander grading i is
    the absolute value of the coefficient of t^i in the symmetrized
    Alexander polynomial (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)).
    The ranks are symmetric, so mirrors share them.
    """
    q = abs(q)
    num = _poly_mul(_t_power_minus_one(p * q), _t_power_minus_one(1))
    den = _poly_mul(_t_power_minus_one(p), _t_power_minus_one(q))
    coefs = _poly_divexact(num, den)
    genus = (len(coefs) - 1) // 2
    return {Fraction(i - genus): abs(c) for i, c in enumerate(coefs) if c}


# -- filtered complexes -------------------------------------------------------


def spectrum_histogram(free_alexanders: list[Fraction]) -> Counter:
    """tau over every nonzero class of a direct sum of free generators.

    The class summing the free generators in a set S has tau = max of
    their Alexander gradings, so tau = v for (2^e - 1) * 2^b classes,
    where e generators sit at v and b sit below it. The histogram does
    not depend on which homology basis a program picks.
    """
    counts = Counter(free_alexanders)
    hist: Counter = Counter()
    below = 0
    for value in sorted(counts):
        hist[value] = ((1 << counts[value]) - 1) << below
        below += counts[value]
    return hist


# -- survivor deduction -------------------------------------------------------


def survivors(terms: list[tuple[Fraction, Fraction, int]], target: int) -> frozenset:
    """Alexander gradings that can survive to `target` total rank.

    Breadth-first over rank vectors: one step cancels a unit of rank at
    (m + 1, a_hi) against one at (m, a_lo) with a_hi > a_lo. A vector at
    the target rank is terminal; the survivors are the gradings it
    still holds.
    """
    keys = sorted({(m, a) for m, a, _ in terms})
    rank = Counter()
    for m, a, r in terms:
        rank[(m, a)] += r
    start = tuple(rank[k] for k in keys)
    moves = [
        (hi, lo)
        for hi, (m_hi, a_hi) in enumerate(keys)
        for lo, (m_lo, a_lo) in enumerate(keys)
        if m_hi == m_lo + 1 and a_hi > a_lo
    ]
    possible: set[Fraction] = set()
    frontier = {start}
    seen = {start}
    while frontier:
        nxt = set()
        for vec in frontier:
            if sum(vec) == target:
                possible.update(keys[i][1] for i, c in enumerate(vec) if c)
                continue
            for hi, lo in moves:
                if vec[hi] and vec[lo]:
                    step = list(vec)
                    step[hi] -= 1
                    step[lo] -= 1
                    step = tuple(step)
                    if step not in seen:
                        seen.add(step)
                        nxt.add(step)
        frontier = nxt
    return frozenset(possible)


# -- braids and bounds --------------------------------------------------------


def braid_facts(index: int, word: list[int]) -> dict:
    """Writhe, crossing counts, strand permutation and closure components."""
    perm = list(range(index))
    for letter in word:
        k = abs(letter) - 1
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
    seen = [False] * index
    comps = 0
    for start in range(index):
        if not seen[start]:
            comps += 1
            s = start
            while not seen[s]:
                seen[s] = True
                s = perm[s]
    positive = sum(1 for letter in word if letter > 0)
    return {
        "index": index,
        "length": len(word),
        "writhe": 2 * positive - len(word),
        "positive_crossings": positive,
        "negative_crossings": len(word) - positive,
        "permutation": perm,
        "components": comps,
    }


def cable_interval(p: int, tau: Fraction, lk: Fraction) -> tuple[Fraction, Fraction]:
    """p*tau + p(p-1)lk/2 <= tau(cable) <= that + (p - 1)."""
    lo = p * tau + Fraction(p * (p - 1), 2) * lk
    return lo, lo + (p - 1)


def satellite_interval(
    p: int, tau: Fraction, lk: Fraction, writhe: int, comps: int
) -> tuple[Fraction, Fraction]:
    """2*tau(sat) within (p-1) + comps - 1 of 2p*tau + (p-1)p*lk + w."""
    center = 2 * p * tau + (p - 1) * p * lk + writhe
    radius = (p - 1) + comps - 1
    return (center - radius) / 2, (center + radius) / 2
