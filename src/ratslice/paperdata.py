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

`paper_checks` recomputes every worked number above, and more, for the
`verify-paper` command.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .complexes import (
    FilteredComplex,
    connected_sum_shift,
    survivable_gradings,
    tau_spectrum,
)
from .rationals import format_rational
from .record import record

# The framed builtins and the bound pipelines import sums, bounds and
# ratlink where they run, so deep-slice loads none of them.
if TYPE_CHECKING:
    from .ratlink import FramedKnotData

BUILTIN_NAMES = ("RP1_in_RP3", "T(2,-5)", "J_example_6.2", "lift_8_20")


@record
class PoincarePolynomial:
    """Knot Floer ranks as (maslov, alexander, rank) terms, one Spin^c."""

    terms: tuple[tuple[Fraction, Fraction, int], ...]
    spinc: str

    def __post_init__(self):
        terms = tuple(
            (Fraction(m), Fraction(a), int(r)) for m, a, r in self.terms
        )
        object.__setattr__(self, "terms", terms)
        bigradings = set()
        for i, (m, a, r) in enumerate(terms):
            if r < 1:
                raise ValueError(f"terms[{i}].rank: expected a positive integer, got {r}")
            if (m, a) in bigradings:
                raise ValueError(f"terms[{i}]: duplicate bigrading in polynomial")
            bigradings.add((m, a))


@record
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
    from .ratlink import FramedKnotData
    from .sums import TauSpectrum

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
    knot Floer homology of total rank 4g+1 supported in the five distinct
    Alexander gradings {-g, -(g-1), 0, g-1, g}, with rank exactly 1 at the
    extremes (the knot is fibered), and ambient homology rank 4g-1: exactly
    one cancellation happens.  Maslov gradings are not pinned here, so it
    may pair any two distinct gradings; the bound is the least breadth over
    every rank completion of the interior gradings and every cancellation:

    * the cancellation empties at most its two gradings, so at least three
      of the five survive;
    * a triple whose least member is -g, -(g-1) or 0 has largest member at
      least 0, g-1 or g, so its breadth is at least g (2g-2 >= g);
    * with rank 1 at g-1, cancelling g against g-1 leaves {-g, -(g-1), 0}.
    """
    if g < 2:
        raise ValueError(
            "needs genus >= 2: the construction covers all L-space knots "
            "except the trefoil"
        )
    return Fraction(g)


def satellite_pl_genus_growth(g: int, p: int) -> Fraction:
    """Compose the dual-knot breadth with the satellite breadth growth."""
    from .bounds import satellite_breadth_lower

    return satellite_breadth_lower(p, dual_knot_breadth(g))


def paper_checks() -> list[dict]:
    """Every exact worked number from the source material, recomputed.

    The verify-paper document lists these checks in this order.
    """
    from . import bounds, braid, grid, ratlink

    checks: list[dict] = []

    def check(name: str, citation: str, expected, actual) -> None:
        checks.append(
            {
                "name": name,
                "citation": citation,
                "expected": expected,
                "actual": actual,
                "ok": expected == actual,
            }
        )

    rp1 = builtin("RP1_in_RP3")
    j = builtin("J_example_6.2")
    t25 = builtin("T(2,-5)")
    lift = builtin("lift_8_20")

    check(
        "grid tau of T(2,-5)",
        "negative (2,5) torus knot tau",
        "-2/1",
        format_rational(grid.tau(grid.torus_knot_grid(2, -5))),
    )
    check(
        "embedded tau of T(2,-5)",
        "negative (2,5) torus knot tau",
        "-2/1",
        format_rational(t25.tau_spectrum.tau_max),
    )
    check(
        "core circle spectrum extremes",
        "order-2 core circle tau from d-invariants",
        ["1/4", "-1/4"],
        [format_rational(rp1.tau_spectrum.tau_max), format_rational(rp1.tau_spectrum.tau_min)],
    )
    check(
        "connected sum shift by -2",
        "tau additivity under local knotting",
        ["-7/4", "-9/4"],
        [format_rational(j.tau_spectrum.tau_max), format_rational(j.tau_spectrum.tau_min)],
    )
    verdict = deep_slice_report(lift, 1)
    check(
        "lift of 8_20 survivor tau values",
        "deep-slice obstruction in the branched double cover",
        {"possible_tau": ["-1/1", "1/1"], "deep_slice": True},
        {
            "possible_tau": sorted(format_rational(v) for v in verdict.possible_tau),
            "deep_slice": verdict.deep_slice,
        },
    )
    check(
        "lift of 8_20 polynomial terms",
        "three-term polynomial at gradings 7/9 + {-1,0,1}",
        [["-2/9", "-1/1", 1], ["7/9", "0/1", 1], ["16/9", "1/1", 1]],
        [[format_rational(m), format_rational(a), r] for m, a, r in lift.terms],
    )
    check(
        "dual knot breadth at genus 2",
        "surviving gradings differ by at least two",
        "2/1",
        format_rational(dual_knot_breadth(2)),
    )
    check(
        "linking from surface slope (2, 1)",
        "boundary slope determines linking -r/q",
        "-1/2",
        format_rational(ratlink.lk_from_slope(2, 1)),
    )
    check(
        "re-framing shift (-1/2) + 3",
        "linking shifts by the framing change",
        "5/2",
        format_rational(ratlink.lk_shift(Fraction(-1, 2), 3)),
    )
    check(
        "torus braid writhe (mr-1)ms at m=2, r=2, s=1",
        "standard torus braid writhe",
        6,
        braid.writhe(braid.torus_braid(4, 2)),
    )
    seifert = ratlink.SatelliteSpec(
        pattern=braid.torus_braid(2, 1), framing_lk=Fraction(-1, 2)
    )
    check(
        "Seifert-framed boundary constant",
        "rational-longitude surfaces have c = 0",
        0,
        ratlink.c_value(seifert, order=2),
    )
    sample = ratlink.SatelliteSpec(
        pattern=braid.BraidWord(4, (1, -2, 3, 3)), framing_lk=Fraction(-3, 4)
    )
    check(
        "c invariance under twist normalization",
        "boundary constant independent of the description",
        [ratlink.c_value(sample)] * 7,
        [ratlink.c_value(ratlink.twist_normalize(sample, m)) for m in range(-3, 4)],
    )
    table = bounds.exterior_grading_table(
        p=3, n=2, lk_n=Fraction(1, 3), maxa=Fraction(2), num_columns=1
    )
    check(
        "grading table entry (x3, C(maxa))",
        "exterior generator bigradings, row x3",
        ["0/1", "3/1"],
        [format_rational(table[3][0].a), format_rational(table[3][0].a_prime)],
    )
    check(
        "grading table entry (x4, C(maxa))",
        "exterior generator bigradings, row x4",
        ["0/1", "1/1"],
        [format_rational(table[4][0].a), format_rational(table[4][0].a_prime)],
    )
    check(
        "breadth genus bound on the composite",
        "raw breadth bound can be vacuous",
        "-1/4",
        format_rational(bounds.genus_lower_bound_breadth(j.tau_spectrum).bound_value),
    )
    check(
        "Seifert-framed bound sees 2|tau| = 9/2",
        "doubled tau maximum of the composite",
        "9/2",
        format_rational(
            bounds.seifert_framed_bound(j.tau_spectrum, 2).inputs["max_abs_two_tau"]
        ),
    )
    check(
        "explicit surface gives 2*genus + 1 <= 3",
        "degree-2 surface with -chi = 4",
        "3/1",
        format_rational(bounds.surface_genus_upper(Fraction(4), 2)),
    )
    check(
        "d-invariant difference bound on the projective space",
        "d-invariants are +-1/4",
        "1/2",
        format_rational(
            bounds.d_invariant_bound(
                {"0": Fraction(1, 4), "1": Fraction(-1, 4)},
                {"0": "1", "1": "0"},
            )
        ),
    )
    return checks
