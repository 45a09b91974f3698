"""Embedded worked-example data and the pipelines built on them.

Four inputs ship with the package:

* RP1_in_RP3      -- the core circle in the real projective space, a Floer
                     simple knot of order 2; its two tau invariants are
                     half the d-invariant differences, +1/4 and -1/4.
                     The spectrum is computed live from the two-generator
                     model complex rather than stored.
* T(2,-5)         -- the negative (2,5) torus knot in the 3-sphere,
                     tau = -2 (recomputable from its grid from scratch).
* J_example_6.2   -- the connected sum of the two above: RP1_in_RP3's
                     data, every tau shifted by -2, not Floer simple.
* lift_8_20       -- the knot Floer polynomial of the lift of 8_20 to the
                     double branched cover, in the conjugate pair of
                     non-spin structures: q^(7/9) * (q^-1 t^-1 + 1 + q t).

Only the 8_20 polynomial is shipped; verdicts for other lifted knots go
through the same pipeline with user-supplied polynomials.  That pipeline,
the survivor deduction, lives here beside the PoincarePolynomial record
it reads: `survivable_gradings` answers it with one max-flow.

`paper_checks` recomputes every worked number above, and more, for the
`verify-paper` command.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING

from .rationals import format_rational
from .record import record

# The framed builtins and the bound pipelines import complexes, sums,
# bounds and ratlink where they run, so deep-slice loads none of them.
if TYPE_CHECKING:
    from .complexes import FilteredComplex
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

    citation = "deep-slice-obstruction-from-survivor-tau"

    possible_tau: frozenset[Fraction]

    @property
    def deep_slice(self) -> bool:
        return Fraction(0) not in self.possible_tau


def _rp1_model_complex() -> FilteredComplex:
    """Two generators, no differential: one class per Spin^c structure."""
    from .complexes import FilteredComplex

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
    from .complexes import connected_sum_shift, tau_spectrum
    from .ratlink import FramedKnotData
    from .sums import TauSpectrum

    if name == "RP1_in_RP3":
        spectrum = tau_spectrum(_rp1_model_complex())
        return FramedKnotData(
            order=2,
            slope=1,
            tau_spectrum=spectrum,
            d_invariants={"0": Fraction(1, 4), "1": Fraction(-1, 4)},
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
        # A local knot leaves the ambient space, the order and the framing.
        rp1 = builtin("RP1_in_RP3")
        assert isinstance(rp1, FramedKnotData)
        return FramedKnotData(
            order=rp1.order,
            slope=rp1.slope,
            tau_spectrum=connected_sum_shift(rp1.tau_spectrum, Fraction(-2)),
            d_invariants=rp1.d_invariants,
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
    class can survive (survivable_gradings) are the possible tau values.
    """
    if lspace_total_rank < 1:
        raise ValueError("ambient homology rank must be >= 1")
    return DeepSliceVerdict(survivable_gradings(polynomial, lspace_total_rank))


# -- survivor deduction -------------------------------------------------------

class DeductionError(ValueError):
    """A survivor deduction is infeasible; the message names the obstruction."""


def _cancellation_plan(
    polynomial: PoincarePolynomial, target_rank: int
) -> tuple[list[tuple[Fraction, Fraction, int]], list[tuple[int, int]], int]:
    """The terms sorted by (A, M), cancellable (hi, lo) pairs of their
    indices and the number of cancellations down to the target, after the
    refusals every deduction shares: total below the target, odd
    difference, and a target below the Maslov parity imbalance.

    The terms are sorted by Alexander grading, so a term's partners are a
    prefix of the terms one Maslov grading down.
    """
    terms = sorted(polynomial.terms, key=lambda term: (term[1], term[0]))
    total = sum(rank for _, _, rank in terms)
    if total < target_rank:
        raise DeductionError(
            f"total rank {total} is below the target rank {target_rank}"
        )
    if (total - target_rank) % 2:
        raise DeductionError(
            f"parity mismatch: cancellations remove rank in pairs, but "
            f"total {total} - target {target_rank} is odd"
        )
    # A cancellation removes one unit at M and one at M + 1, so per
    # residue M mod 1 the units at even floor(M) minus those at odd
    # floor(M) never change, and at least |that| many survive.
    parity: Counter = Counter()
    for m, _, rank in terms:
        parity[m % 1] += -rank if math.floor(m) % 2 else rank
    imbalance = sum(abs(d) for d in parity.values())
    if target_rank < imbalance:
        raise DeductionError(
            f"target rank {target_rank} unreachable: a cancellation "
            f"pairs units at Maslov M and M + 1, so the imbalance "
            f"{imbalance} between units at even and odd floor(M) (per "
            f"residue M mod 1) always survives"
        )
    levels: dict[Fraction, list[int]] = {}
    for i, (m, _, _) in enumerate(terms):
        levels.setdefault(m, []).append(i)
    pairs: list[tuple[int, int]] = []
    for hi, (m_hi, a_hi, _) in enumerate(terms):
        below = levels.get(m_hi - 1, [])
        cut = bisect_left(below, a_hi, key=lambda lo: terms[lo][1])
        pairs.extend((hi, lo) for lo in below[:cut])
    return terms, pairs, (total - target_rank) // 2


_UNREACHABLE = (
    "target rank unreachable: no sequence of cancellable pairs "
    "(Maslov difference 1, Alexander strictly dropping) reaches it"
)


def survivor_deduction(
    polynomial: PoincarePolynomial, target_rank: int
) -> frozenset[tuple[Fraction, ...]]:
    """All multisets of Alexander gradings that can survive cancellation.

    One cancellation removes a unit of rank from each member of a pair of
    bigradings whose Maslov gradings differ by exactly 1 and whose
    higher-Maslov member sits at strictly greater Alexander grading
    (page >= 1 differentials strictly drop the filtration).  Outcomes are
    collected by a sweep over rank levels: each step applies every
    cancellable pair to every rank vector of the current level, and the
    survivors are read off the level whose sum is the target.

    No command runs this sweep.  It is the reference the tests hold
    survivable_gradings to, and perfbench/shim.py hooks it by name; it
    moves to the tests with the next benchmark change.
    """
    terms, pairs, cancellations = _cancellation_plan(polynomial, target_rank)
    level = {tuple(rank for _, _, rank in terms)}
    for _ in range(cancellations):
        after: set[tuple[int, ...]] = set()
        for vector in level:
            for hi, lo in pairs:
                if vector[hi] and vector[lo]:
                    nxt = list(vector)
                    nxt[hi] -= 1
                    nxt[lo] -= 1
                    after.add(tuple(nxt))
        level = after
    alexanders = [a for _, a, _ in terms]
    outcomes = frozenset(
        tuple(a for a, count in zip(alexanders, vector) for _ in range(count))
        for vector in level
    )
    if not outcomes:
        raise DeductionError(_UNREACHABLE)
    return outcomes


def survivable_gradings(
    polynomial: PoincarePolynomial, target_rank: int
) -> frozenset[Fraction]:
    """The Alexander gradings at which some unit can survive cancellation.

    Equal to the union of survivor_deduction's outcomes, with the same
    refusals; one max-flow answers it instead of a listing of rank
    vectors.

    Why it is exact: a multiset of k cancellable pairs that uses each
    term i at most c_i times can be applied in any order, since every
    unit a later pair needs is still there.  So the outcomes of k
    cancellations are exactly c minus the degrees of the b-matchings of
    size k in the graph of cancellable pairs, with capacities c.  A pair
    joins M and M + 1 in one residue M mod 1, so the graph is bipartite:
    terms at even floor(M) on one side, odd floor(M) on the other.  A
    larger b-matching shrinks to size k by dropping pairs, so k
    cancellations exist exactly when the maximum flow from the even
    terms to the odd ones reaches k.  Any other flow of value k is this
    one plus residual cycles; a cycle that frees a unit at a saturated
    even term runs through the reverse of its source edge, and the rest
    of it is a residual path from the source to that term.  So an even
    term can keep a unit exactly when the source reaches it in the
    residual graph, and an odd term exactly when it reaches the sink.
    """
    terms, pairs, cancellations = _cancellation_plan(polynomial, target_rank)
    flow, residual = _cancellation_flow(terms, pairs, cancellations)
    if flow < cancellations:
        raise DeductionError(_UNREACHABLE)
    transposed = [{u: residual[u][v] for u in out} for v, out in enumerate(residual)]
    reached = (_reached(residual, len(terms)), _reached(transposed, len(terms) + 1))
    return frozenset(
        a for i, (m, a, _) in enumerate(terms) if i in reached[math.floor(m) % 2]
    )


def _reached(graph, start, stop=None) -> dict[int, int]:
    """BFS parents of the nodes start reaches by positive capacities, up to stop."""
    parent = {start: start}
    queue = [start]
    for u in queue:
        for v, cap in graph[u].items():
            if cap and v not in parent:
                parent[v] = u
                queue.append(v)
        if stop in parent:
            break
    return parent


def _cancellation_flow(terms, pairs, limit) -> tuple[int, list[dict[int, int]]]:
    """Size and residual graph of a maximum b-matching of cancellable
    pairs with capacities the ranks, stopped at limit pairs.

    Edmonds-Karp: a source feeds the terms at even floor(M), the terms
    at odd floor(M) drain into a sink, each pair is an edge from its even
    member to its odd one, and every BFS augmenting path carries its
    bottleneck.  Nodes n and n + 1 are the source and the sink, and
    residual[u][v] is the capacity left from u to v.  The cost depends on
    the number of terms, not the ranks.
    """
    n = len(terms)
    source, sink = n, n + 1
    residual: list[dict[int, int]] = [{} for _ in range(n + 2)]
    for i, (m, _, rank) in enumerate(terms):
        u, v = (i, sink) if math.floor(m) % 2 else (source, i)
        residual[u][v] = rank
        residual[v][u] = 0
    for hi, lo in pairs:
        u, v = (lo, hi) if math.floor(terms[hi][0]) % 2 else (hi, lo)
        residual[u][v] = limit
        residual[v][u] = 0
    flow = 0
    while flow < limit:
        parent = _reached(residual, source, sink)
        if sink not in parent:
            break
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        push = min(limit - flow, *(residual[u][v] for v, u in zip(path, path[1:])))
        for v, u in zip(path, path[1:]):
            residual[u][v] -= push
            residual[v][u] += push
        flow += push
    return flow, residual


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
    j = builtin("J_example_6.2").tau_spectrum
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
        [format_rational(j.tau_max), format_rational(j.tau_min)],
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
    check(
        "Seifert-framed boundary constant",
        "rational-longitude surfaces have c = 0",
        0,
        ratlink.c_value(braid.torus_braid(2, 1), Fraction(-1, 2), order=2),
    )
    sample = (braid.BraidWord(4, (1, -2, 3, 3)), Fraction(-3, 4))
    check(
        "c invariance under twist normalization",
        "boundary constant independent of the description",
        [ratlink.c_value(*sample)] * 7,
        [ratlink.c_value(*ratlink.twist_normalize(*sample, m)) for m in range(-3, 4)],
    )
    table = bounds.exterior_grading_table(
        p=3, n=2, lk_n=Fraction(1, 3), maxa=Fraction(2), num_columns=1
    )
    check(
        "grading table entry (x3, C(maxa))",
        "exterior generator bigradings, row x3",
        ["0/1", "3/1"],
        [format_rational(v) for v in table[3][0]],
    )
    check(
        "grading table entry (x4, C(maxa))",
        "exterior generator bigradings, row x4",
        ["0/1", "1/1"],
        [format_rational(v) for v in table[4][0]],
    )
    check(
        "breadth genus bound on the composite",
        "raw breadth bound can be vacuous",
        "-1/4",
        format_rational(
            bounds.genus_lower_bound_breadth(j.tau_max, j.tau_min).bound_value
        ),
    )
    check(
        "Seifert-framed bound sees 2|tau| = 9/2",
        "doubled tau maximum of the composite",
        "9/2",
        format_rational(
            bounds.seifert_framed_bound(j.tau_max, j.tau_min, 2).inputs["max_abs_two_tau"]
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
        format_rational(bounds.d_invariant_bound(rp1.d_invariants, {"0": "1", "1": "0"})),
    )
    return checks
