"""Exact rational parsing and canonical "a/b" serialization.

All gradings, linking numbers and bound values in this package are exact
fractions (arbitrary-precision integer pairs).  Documents never contain
floating point: a rational is always serialized as the string "a/b" in
lowest terms with b >= 1, e.g. "-7/4", "0/1", "5/1".
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text: str | int) -> Fraction:
    """Parse "a/b" or a bare integer string into a Fraction."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"expected rational string 'a/b', got {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}: {exc}") from None


def format_rational(value: Fraction | int) -> str:
    """Canonical "a/b" form, denominator always present and positive."""
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"
