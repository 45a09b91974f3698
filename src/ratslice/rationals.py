"""Exact rational and integer parsing, and canonical "a/b" serialization.

All gradings, linking numbers and bound values in this package are exact
fractions (arbitrary-precision integer pairs).  Documents never contain
floating point: a rational is always serialized as the string "a/b" in
lowest terms with b >= 1, e.g. "-7/4", "0/1", "5/1".  Every integer
written as text (grid rows, braid words, integer flags) is read by
parse_integer, in ASCII digits only.
"""

from __future__ import annotations

import re
from fractions import Fraction

_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_integer(text: str) -> int:
    """Parse text matching [+-]?[0-9]+ once stripped.

    int alone would also read underscores ("1_0" as 10) and digits of
    other scripts ("\u0661" as 1): those forms are refused.
    """
    if not _INTEGER.fullmatch(text.strip()):
        raise ValueError(f"malformed integer {text!r}: expected [+-]?[0-9]+")
    return int(text)


def parse_rational(text: str | int) -> Fraction:
    """Parse an integer, or text matching [+-]?[0-9]+(/[0-9]+)? once stripped.

    Fraction alone would also read decimals, exponents and underscores,
    and "1e6000000" would cost it seconds: those forms are refused.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"expected rational string 'a/b', got {text!r}")
    try:
        if not _RATIONAL.fullmatch(text.strip()):
            raise ValueError("expected an integer or 'a/b'")
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"malformed rational {text!r}: zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"malformed rational {text!r}: {exc}") from None


def format_rational(value: Fraction | int) -> str:
    """Canonical "a/b" form, denominator always present and positive."""
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"
