"""Embedded worked-example data and the pipelines built on them.

Four inputs ship with the package:

* RP1_in_RP3      -- the core circle in the real projective space, a Floer
                     simple knot of order 2; its two tau invariants are
                     half the d-invariant differences, +1/4 and -1/4.
                     The spectrum is computed live from the two-generator
                     model complex rather than stored.
* T(2,-5)         -- the negative (2,5) torus knot in the 3-sphere,
                     tau = -2 (recomputable from its grid from scratch).
* J_example_6.2   -- the connected sum of the two above, order 2, with
                     every tau shifted by -2.
* lift_8_20       -- the knot Floer polynomial of the lift of 8_20 to the
                     double branched cover, in the conjugate pair of
                     non-spin structures: q^(7/9) * (q^-1 t^-1 + 1 + q t).

Only the 8_20 polynomial is shipped; verdicts for other lifted knots go
through the same pipeline with user-supplied polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bounds import satellite_breadth_lower
from .complexes import (
    FilteredComplex,
    TauSpectrum,
    connected_sum_shift,
    min_breadth_lower_bound,
    survivable_gradings,
    tau_spectrum,
)
from .ratlink import FramedKnotData

BUILTIN_NAMES = ("RP1_in_RP3", "T(2,-5)", "J_example_6.2", "lift_8_20")


@dataclass(frozen=True)
class PoincarePolynomial:
    """Knot Floer ranks as (maslov, alexander, rank) terms, one Spin^c."""

    terms: tuple[tuple[Fraction, Fraction, int], ...]
    spinc: str

    def __post_init__(self):
        terms = tuple(
            (Fraction(m), Fraction(a), int(r)) for m, a, r in self.terms
        )
        object.__setattr__(self, "terms", terms)
        if any(r <= 0 for _, _, r in terms):
            raise ValueError("ranks must be positive")
        bigradings = [(m, a) for m, a, _ in terms]
        if len(set(bigradings)) != len(bigradings):
            raise ValueError("duplicate bigrading in polynomial")


@dataclass(frozen=True)
class DeepSliceVerdict:
    """Outcome of the spectral-sequence survivor obstruction.

    deep_slice is True exactly when no consistent outcome leaves a
    surviving class at Alexander grading 0: a disk in a boundary collar
    would force every tau invariant to vanish.
    """

    possible_tau: frozenset[Fraction]
    citation: str

    @property
    def deep_slice(self) -> bool:
        return Fraction(0) not in self.possible_tau


def _rp1_model_complex() -> FilteredComplex:
    """Two generators, no differential: one class per Spin^c structure."""
    quarter = Fraction(1, 4)
    return FilteredComplex(
        [
            ("a", quarter, quarter, "0"),
            ("b", -quarter, -quarter, "1"),
        ],
        {},
    )


def builtin(name: str) -> FramedKnotData | PoincarePolynomial:
    """Fetch one of the embedded datasets by name."""
    if name == "RP1_in_RP3":
        spectrum = tau_spectrum(_rp1_model_complex())
        return FramedKnotData(
            order=2,
            slope=1,
            tau_spectrum=spectrum,
            d_invariants={"0": Fraction(1, 4), "1": Fraction(-1, 4)},
            linking_form=(Fraction(0), Fraction(1, 2)),
            floer_simple=True,
        )
    if name == "T(2,-5)":
        spectrum = TauSpectrum(
            per_class={"b0": Fraction(-2)},
            tau_max=Fraction(-2),
            tau_min=Fraction(-2),
            enumeration_complete=True,
        )
        return FramedKnotData(
            order=1, slope=0, tau_spectrum=spectrum, floer_simple=False,
        )
    if name == "J_example_6.2":
        rp1 = builtin("RP1_in_RP3")
        assert isinstance(rp1, FramedKnotData)
        shifted = connected_sum_shift(rp1.tau_spectrum, Fraction(-2))
        return FramedKnotData(
            order=2,
            slope=1,
            tau_spectrum=shifted,
            d_invariants={"0": Fraction(1, 4), "1": Fraction(-1, 4)},
            linking_form=(Fraction(0), Fraction(1, 2)),
            floer_simple=False,
        )
    if name == "lift_8_20":
        base = Fraction(7, 9)
        return PoincarePolynomial(
            terms=(
                (base - 1, Fraction(-1), 1),
                (base, Fraction(0), 1),
                (base + 1, Fraction(1), 1),
            ),
            spinc="+1/-1",
        )
    raise ValueError(
        f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}"
    )


def deep_slice_report(
    polynomial: PoincarePolynomial, lspace_total_rank: int
) -> DeepSliceVerdict:
    """Ask which Alexander gradings can survive down to the ambient rank.

    For an L-space double branched cover the rank per Spin^c structure is
    one, so a single class survives; the Alexander gradings at which a
    class can survive (complexes.survivable_gradings) are the possible
    tau values.
    """
    if lspace_total_rank < 1:
        raise ValueError("ambient homology rank must be >= 1")
    ranks = [(a, m, r) for m, a, r in polynomial.terms]
    return DeepSliceVerdict(
        possible_tau=survivable_gradings(ranks, lspace_total_rank),
        citation="deep-slice-obstruction-from-survivor-tau",
    )


def dual_knot_breadth(g: int) -> Fraction:
    """Certified tau-breadth lower bound for the dual knot of an L-space knot.

    The dual knot of -1 surgery on a genus-g L-space knot (g >= 2) has
    knot Floer homology of total rank 4g+1 supported in the five Alexander
    gradings {-g, -(g-1), 0, g-1, g}, with rank exactly 1 at the extremes
    (the knot is fibered), and ambient homology rank 4g-1: exactly one
    cancellation happens.  Maslov gradings are not pinned here, so the
    deduction uses the Alexander-only cancellation rule, and the reported
    bound is the minimum over all rank completions of the three interior
    gradings.
    """
    if g < 2:
        raise ValueError(
            "needs genus >= 2: the construction covers all L-space knots "
            "except the trefoil"
        )
    supported = [
        Fraction(-g),
        Fraction(-(g - 1)),
        Fraction(0),
        Fraction(g - 1),
        Fraction(g),
    ]
    interior_total = (4 * g + 1) - 2  # extremes carry rank exactly 1
    best: Fraction | None = None
    for r1 in range(1, interior_total - 1):
        for r2 in range(1, interior_total - r1):
            r3 = interior_total - r1 - r2
            if r3 < 1:
                continue
            ranks = [
                (supported[0], None, 1),
                (supported[1], None, r1),
                (supported[2], None, r2),
                (supported[3], None, r3),
                (supported[4], None, 1),
            ]
            value = min_breadth_lower_bound(ranks, 4 * g - 1)
            if best is None or value < best:
                best = value
    assert best is not None
    return best


def satellite_pl_genus_growth(g: int, p: int) -> Fraction:
    """Compose the dual-knot breadth with the satellite breadth growth."""
    return satellite_breadth_lower(p, dual_knot_breadth(g))
