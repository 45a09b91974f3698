"""Rational linking numbers, framings, and the boundary constant c.

A framing is carried as the exact rational linking number of the knot
with the chosen longitude; every formula downstream consumes only this
number.  For a rational Seifert surface meeting the boundary torus in
q*lambda + r*mu the linking number is -r/q, and replacing lambda by
lambda + n*mu shifts it by n.  The integer

    c = (p-1) * p * lk + writhe(pattern)

attached to a braided satellite of index p is independent of the
framing/pattern description: trading a positive framing twist for a
negative full twist in the pattern leaves it unchanged.  A satellite is
passed as its two values, the pattern braid and the framing's linking
number.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .braid import BraidWord, full_twist, writhe
from .record import record

if TYPE_CHECKING:
    from .sums import TauSpectrum


@record
class FramedKnotData:
    """Input record for the bound evaluators.

    order: order of the knot's homology class (q >= 1); slope: the integer
    r with boundary q*lambda + r*mu, so the linking of knot and framing is
    lk = -r/q.  Optional: d_invariants per Spin^c label, which
    verify-paper reads from RP1_in_RP3, and a Floer-simple flag.
    """

    order: int
    slope: int
    tau_spectrum: TauSpectrum
    d_invariants: Optional[dict[str, Fraction]] = None
    floer_simple: Optional[bool] = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order: expected a positive integer, got {self.order}")

    @property
    def lk(self) -> Fraction:
        return lk_from_slope(self.order, self.slope)


def lk_from_slope(q: int, r: int) -> Fraction:
    """Linking of the knot with the framing, -r/q, from the surface slope.

    The order q >= 1 is checked where it is read, by FramedKnotData.
    """
    return Fraction(-r, q)


def lk_shift(lk: Fraction, n: int) -> Fraction:
    """Effect of re-framing lambda -> lambda + n*mu."""
    return Fraction(lk) + n


def c_value(pattern: BraidWord, framing_lk: Fraction, order: Optional[int] = None) -> int:
    """The boundary constant (p-1) * p * lk + writhe of a pattern braided
    in the framing of linking framing_lk; always an integer.

    The pattern index must be a multiple of the knot's order so the
    satellite is null-homologous; computationally this is the requirement
    that p * lk is an integer, checked directly (and against the order
    when one is supplied).
    """
    p = pattern.index
    if order is not None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if p % order:
            raise ValueError(
                f"pattern index {p} is not a multiple of the order {order}: the "
                f"braid index must be a multiple of the order of the homology class"
            )
    scaled = p * framing_lk
    if p > 1 and scaled.denominator != 1:
        # For p = 1 the (p-1) factor kills the framing term, so any
        # framing is admissible there.
        raise ValueError(
            f"index {p} times framing {framing_lk} is not an integer: the "
            f"braid index must be a multiple of the order of the homology class"
        )
    value = (p - 1) * scaled + writhe(pattern)
    assert value.denominator == 1
    return int(value)


def twist_normalize(
    pattern: BraidWord, framing_lk: Fraction, m: int
) -> tuple[BraidWord, Fraction]:
    """Trade m framing twists against m opposite full twists in the pattern.

    Raising the framing by m and composing the pattern with m negative
    full twists (or the reverse for m < 0) describes the same satellite
    link, returned as (pattern, framing_lk); c_value is invariant under
    this move.
    """
    twist = full_twist(pattern.index)
    extra = twist.inverse() if m >= 0 else twist
    pattern = pattern * BraidWord(pattern.index, extra.word * abs(m))
    return pattern, lk_shift(framing_lk, m)
