"""Evaluators for the genus and tau inequalities, as uniform reports.

Every evaluator returns exact rationals and never clamps silently: raw
(possibly vacuous, possibly negative) bound values are reported next to a
clamped-at-zero companion, because the raw values carry information (a
negative raw genus bound certifies nothing but still records how far the
inequality is from biting).

The interval evaluators package the two-sided estimates: cables of a
rationally null-homologous knot satisfy

    p*tau + p(p-1)*lk_n/2  <=  tau(cable)  <=  p*tau + p(p-1)*lk_n/2 + (p-1)

and for a braided pattern of index p with writhe w whose closure has
`comps` components, 2*tau(satellite) lies within (p-1) + comps - 1 of
2*p*tau + (p-1)*p*lk + w.  For torus braids on pn+1 strands the two
evaluators agree exactly, which the acceptance suite sweeps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .record import record


def _check_p(p: int) -> None:
    if p < 1:
        raise ValueError("p must be >= 1")


@record
class Interval:
    """A closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")


@record
class BoundReport:
    """A named inequality evaluated on explicit inputs; every one bounds from below."""

    direction = "lower"

    name: str
    bound_value: Fraction
    inputs: dict
    citation: str
    satisfied: Optional[bool] = None
    is_equality: bool = False
    anomaly: Optional[str] = None

    def __post_init__(self):
        if not self.citation:
            raise ValueError("citation must be nonempty")

    @property
    def clamped_value(self) -> Fraction:
        return max(self.bound_value, Fraction(0))


def exterior_grading_table(
    p: int,
    n: int,
    lk_n: Fraction,
    maxa: Fraction,
    num_columns: int,
) -> list[list[tuple[Fraction, Fraction]]]:
    """Bigradings of the exterior cable generators, rows x_0..x_{2n(p-1)}:
    table[i][j] is the pair (a, a_prime) of x_i in column C(maxa - j).

    Column C(maxa - j) starts from the outermost generator at
    (maxa - j, maxa' - j*p) with maxa' = p*maxa + p(p-1)*lk_n/2; going
    down a column alternates the two difference rules: odd steps drop both
    gradings by 1, even steps keep the first and drop the second by p-1.
    """
    _check_p(p)
    if num_columns < 1:
        raise ValueError("need at least one column")
    lk_n = Fraction(lk_n)
    maxa = Fraction(maxa)
    maxa_prime = p * maxa + Fraction(p * (p - 1), 2) * lk_n
    num_rows = 2 * n * (p - 1) + 1
    table: list[list[tuple[Fraction, Fraction]]] = [[] for _ in range(num_rows)]
    for j in range(num_columns):
        a = maxa - j
        a_prime = maxa_prime - j * p
        for i in range(num_rows):
            if i:
                if i % 2:
                    a -= 1
                    a_prime -= 1
                else:
                    a_prime -= p - 1
            table[i].append((a, a_prime))
    return table


def cable_tau_interval(p: int, tau_alpha: Fraction, lk_n: Fraction) -> Interval:
    """Two-sided estimate for tau of the (p, pn+1) cable, framing lk_n: the
    satellite estimate of its pattern, the (p, 1) torus braid."""
    return bp_tau_interval(p, tau_alpha, lk_n, p - 1, 1)


def bp_tau_interval(
    p: int,
    tau_alpha: Fraction,
    framing_lk: Fraction,
    w: int,
    comps: int,
) -> Interval:
    """Two-sided estimate for tau of a braided-pattern satellite.

    Centered in doubled-tau terms at 2p*tau + (p-1)p*lk + w with radius
    (p-1) + comps - 1, returned halved as an interval for tau itself.
    """
    _check_p(p)
    if not 1 <= comps <= p:
        raise ValueError("component count must lie in 1..p")
    center = 2 * p * Fraction(tau_alpha) + (p - 1) * p * Fraction(framing_lk) + w
    radius = (p - 1) + comps - 1
    return Interval(Fraction(center - radius, 2), Fraction(center + radius, 2))


def genus_lower_bound_breadth(tau_max: Fraction, tau_min: Fraction) -> BoundReport:
    """(breadth - 1)/2 as a lower bound for the rational slice genus, where
    the breadth is tau_max - tau_min over all nonzero classes.

    The same value bounds the rational PL slice genus, since the breadth
    is insensitive to connected sums with local knots.
    """
    breadth = tau_max - tau_min
    return BoundReport(
        name="rational-slice-genus-from-tau-breadth",
        bound_value=Fraction(breadth - 1, 2),
        inputs={"tau_max": tau_max, "tau_min": tau_min, "breadth": breadth},
        citation="tau-breadth-vs-rational-slice-genus",
    )


def surface_genus_upper(neg_chi: Fraction, p: int) -> Fraction:
    """(-chi + p)/p: what an explicit surface says about 2*genus + 1."""
    _check_p(p)
    return Fraction(Fraction(neg_chi) + p, p)


def seifert_framed_bound(tau_max: Fraction, tau_min: Fraction, p: int) -> BoundReport:
    """Lower bound for -chi of Seifert-framed (c = 0) slice surfaces.

    Each tau obeys 2|tau| <= -chi/p + 1, so -chi >= p*(2*max|tau| - 1).
    """
    _check_p(p)
    max_abs = max(abs(tau_max), abs(tau_min))
    return BoundReport(
        name="neg-euler-bound-seifert-framed",
        bound_value=p * (2 * max_abs - 1),
        inputs={"p": p, "max_abs_tau": max_abs, "max_abs_two_tau": 2 * max_abs},
        citation="seifert-framed-surface-bound",
    )


def slice_bennequin_check(
    tb_q: Fraction, rot_q: Fraction, chi: int, p: int
) -> BoundReport:
    """Check tb + rot <= -chi/p for a Seifert-framed slice surface.

    The report's satisfied flag is False when the proposed surface is
    impossible; slack is the margin -chi/p - tb - rot.
    """
    _check_p(p)
    slack = Fraction(-chi, p) - Fraction(tb_q) - Fraction(rot_q)
    return BoundReport(
        name="rational-slice-bennequin",
        bound_value=slack,
        inputs={"tb_q": tb_q, "rot_q": rot_q, "chi": chi, "p": p},
        citation="rational-slice-bennequin-inequality",
        satisfied=slack >= 0,
    )


def d_invariant_bound(
    d: dict[str, Fraction], k_action: dict[str, str]
) -> Fraction:
    """max over s of d(s + k) - d(s), for the action of a homology class k."""
    if set(k_action) != set(d) or set(k_action.values()) != set(d):
        raise ValueError("k_action must be a bijection on the d-invariant labels")
    return max(Fraction(d[k_action[s]]) - Fraction(d[s]) for s in d)


def floer_simple_genus(tau_max: Fraction, tau_min: Fraction) -> BoundReport:
    """Exact rational Seifert = slice genus of a Floer simple knot.

    Equals (breadth - 1)/2, an equality rather than a bound.  A negative
    value is reported raw with an anomaly flag: it can only occur for
    knots bounding disks, which the genus convention excludes.
    """
    breadth = tau_max - tau_min
    value = Fraction(breadth - 1, 2)
    return BoundReport(
        name="floer-simple-rational-genus",
        bound_value=value,
        inputs={"breadth": breadth},
        citation="floer-simple-genus-formula",
        is_equality=True,
        anomaly="disk-bounding: formula is negative" if value < 0 else None,
    )
