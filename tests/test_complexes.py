"""Filtered complexes: validation, homology, tau against two oracles; and
paperdata's survivor deduction."""

import importlib.util
import math
import random
import re
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ratslice import complexes, gf2, paperdata, sums
from ratslice.complexes import (
    FilteredComplex,
    InvalidComplexError,
    connected_sum_shift,
    homology_basis,
    tau,
    tau_spectrum,
    validate,
)
from ratslice.gf2 import new_engine
from ratslice.grid import compile_grid, torus_knot_grid
from ratslice.grid import tau as grid_tau
from ratslice.paperdata import DeductionError
from ratslice.rationals import format_rational
from ratslice.readers import spectrum_from_json
from ratslice.sums import TauSpectrum

from helpers import (
    basis_cycles,
    boundary_subspace_contains,
    dense_rank,
    essential_cycles,
    exhaustive_tau,
    homology_ranks,
    max_alexander,
    naive_survivors,
    poincare,
    random_complex,
    spectrum_by_definition,
    tau_by_level_sweep,
    total_homology_rank,
)

F = Fraction


def single_generator() -> FilteredComplex:
    return FilteredComplex([("u", F(0), F(0), "0")], {})


def rp1_model() -> FilteredComplex:
    return FilteredComplex(
        [("a", F(1, 4), F(1, 4), "0"), ("b", F(-1, 4), F(-1, 4), "1")], {}
    )


# -- validation ---------------------------------------------------------------

def unvalidated(monkeypatch, generators, differential) -> FilteredComplex:
    """A complex built with construction-time validation switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(complexes, "validate", lambda _: ())
        return FilteredComplex(generators, differential)


def test_validate_single_generator_ok():
    assert validate(single_generator()) == ()


def test_validate_lists_alexander_raise(monkeypatch):
    bad = unvalidated(
        monkeypatch,
        [("x", F(0), F(0), "0"), ("y", F(-1), F(1), "0")],
        {"x": {"y"}},
    )
    violations = validate(bad)
    assert violations
    assert any("Alexander" in v and "x -> y" in v for v in violations)


def test_validate_lists_maslov_drop_two(monkeypatch):
    bad = unvalidated(
        monkeypatch,
        [("x", F(0), F(0), "0"), ("y", F(-2), F(0), "0")],
        {"x": {"y"}},
    )
    assert any("Maslov" in v for v in validate(bad))


def test_validate_lists_spinc_change(monkeypatch):
    bad = unvalidated(
        monkeypatch,
        [("x", F(0), F(0), "0"), ("y", F(-1), F(0), "1")],
        {"x": {"y"}},
    )
    assert any("Spin^c" in v for v in validate(bad))


def test_validate_detects_nonzero_square(monkeypatch):
    bad = unvalidated(
        monkeypatch,
        [("x", F(1), F(0), "0"), ("y", F(0), F(0), "0"), ("z", F(-1), F(0), "0")],
        {"x": {"y"}, "y": {"z"}},
    )
    assert any("d o d" in v for v in validate(bad))


def test_constructor_rejects_invalid():
    with pytest.raises(ValueError):
        FilteredComplex(
            [("x", F(0), F(0), "0"), ("y", F(-1), F(1), "0")], {"x": {"y"}}
        )


def test_constructor_refuses_a_repeated_target_before_validating():
    # Over GF(2) a repeated target cancels, so the list cannot be read as
    # a set.  The first target seen twice is named, before the generators
    # are read: the bad one at the end is never reached.
    gens = [("a", F(0), F(0), "0"), ("c", F(0), F(0), "0"), ("x", F(1), F(0), "0")]
    with pytest.raises(
        InvalidComplexError, match=r"^differential\['x'\]: repeated target 'c'$"
    ):
        FilteredComplex(gens + ["not a generator"], {"x": ["a", "c", "c", "a"]})


def test_random_complexes_are_valid():
    rng = random.Random(1)
    for _ in range(50):
        assert validate(random_complex(rng)) == ()


# -- homology -----------------------------------------------------------------

def test_homology_rank_single_generator():
    assert homology_ranks(single_generator()) == {("0", F(0)): 1}


def test_homology_rank_cancelling_pair():
    pair = FilteredComplex(
        [("x", F(0), F(0), "0"), ("y", F(-1), F(0), "0")], {"x": {"y"}}
    )
    assert homology_ranks(pair) == {}
    assert total_homology_rank(pair) == 0


def test_homology_ranks_match_dense_oracle():
    rng = random.Random(42)
    for _ in range(40):
        c = random_complex(rng)
        n = len(c.generators)
        expected_total = n - 2 * dense_rank(n, c.boundary_columns)
        assert total_homology_rank(c) == expected_total
        assert sum(homology_ranks(c).values()) == expected_total


def test_homology_ranks_per_block_match_dense_oracle():
    # Per (Spin^c, Maslov) block: |block| - rank(d out) - rank(d in), where
    # d into block (s, m) is d out of block (s, m + 1).
    rng = random.Random(4343)
    checked = 0
    while checked < 40:
        c = random_complex(rng)
        if len({g.spinc for g in c.generators}) < 2:
            continue
        n = len(c.generators)
        columns = {}
        for g, col in zip(c.generators, c.boundary_columns):
            columns.setdefault((g.spinc, g.maslov), []).append(col)
        expected = {}
        for (s, m), cols in columns.items():
            into = columns.get((s, m + 1), [])
            r = len(cols) - dense_rank(n, cols) - dense_rank(n, into)
            if r:
                expected[(s, m)] = r
        assert homology_ranks(c) == expected
        checked += 1


def test_homology_basis_members_are_independent_cycles():
    rng = random.Random(43)
    for _ in range(25):
        c = random_complex(rng)
        cycles = basis_cycles(c)
        assert len(cycles) == total_homology_rank(c)
        for bits in cycles:
            assert bits
            assert c.boundary_of(bits) == 0
            assert not boundary_subspace_contains(c, bits)


# -- the one elimination ------------------------------------------------------

# Torus knot grids up to n = 7.
TORUS_KNOTS = [(2, 3), (2, -3), (3, 2), (2, 5), (2, -5), (3, 4), (3, -4)]


def test_one_engine_sweep_matches_textbook_persistence():
    # The engine that essential_rows feeds by descending Maslov grading,
    # with clearing, against the textbook reduction without clearing: the
    # same births, the pivot rows of an engine fed every column, and tau of
    # each oracle cycle (the --cycle answer) equal to its birth grading and
    # to the exhaustive minimum over its coset where that is tractable.
    rng = random.Random(1841)
    cases = [(random_complex(rng, max_generators=10), None) for _ in range(120)]
    cases += [(compile_grid(torus_knot_grid(p, q)), (p, q)) for p, q in TORUS_KNOTS]
    for c, knot in cases:
        cycles = essential_cycles(c)
        assert sorted(homology_basis(c)) == sorted(cycles), knot
        rows = c._tau_rows
        plain = new_engine(len(c.generators))
        for col in c.boundary_columns:
            plain.add_column(rows.permute(col))
        assert set(c._persistence[0].pivot_rows) == set(plain.pivot_rows), knot
        for birth, cycle in cycles.items():
            value = tau(c, cycle)
            assert value == c.generators[birth].alexander, knot
            if knot is None:
                assert value == exhaustive_tau(c, cycle)
            elif c.generators[birth].maslov == 0:
                assert value == grid_tau(torus_knot_grid(*knot)), knot


def test_one_engine_feeds_each_surviving_column_once(monkeypatch):
    # Clearing: the engine takes the column of every generator whose row is
    # no pivot when visited, and no other: the generators less the rank of
    # the boundaries, and a --cycle answer after the spectrum adds none.  A
    # second, clearing-free elimination would add every column again.
    c = compile_grid(torus_knot_grid(2, -5))
    rank = (len(c.generators) - len(essential_cycles(c))) // 2
    added = []
    add_column = gf2.Elimination.add_column
    monkeypatch.setattr(
        gf2.Elimination, "add_column", lambda self, col: added.append(col) or add_column(self, col)
    )
    tau_spectrum(c)
    maslov_zero = [bits for i, bits in essential_cycles(c).items() if c.generators[i].maslov == 0]
    assert tau(c, maslov_zero[0]) == -2
    assert len(added) == len(c.generators) - rank == 2552


# -- tau ----------------------------------------------------------------------

def test_tau_unknot_model_is_zero():
    c = single_generator()
    assert tau(c, basis_cycles(c)[0]) == 0


def test_tau_rejects_non_cycle():
    c = FilteredComplex(
        [("x", F(0), F(0), "0"), ("y", F(-1), F(0), "0")], {"x": {"y"}}
    )
    with pytest.raises(ValueError, match="cycle"):
        tau(c, 1 << c.index["x"])


def test_tau_rejects_zero_class():
    c = FilteredComplex(
        [("x", F(1), F(0), "0"), ("y", F(0), F(0), "0")], {"x": {"y"}}
    )
    with pytest.raises(ValueError, match="zero"):
        tau(c, 1 << c.index["y"])


def test_tau_refuses_out_of_range_representative():
    c = FilteredComplex(
        [("x", F(1), F(0), "0"), ("y", F(0), F(0), "0")], {"x": {"y"}}
    )
    for bits in (-1, -(1 << c.index["y"]), 1 << 2, 1 << c.index["y"] | 1 << 5):
        with pytest.raises(ValueError, match="outside the 2 generators"):
            tau(c, bits)


def _random_nonzero_class(rng, c):
    cycles = basis_cycles(c)
    if not cycles:
        return None
    picks = [z for z in cycles if rng.random() < 0.6] or [rng.choice(cycles)]
    bits = 0
    for z in picks:
        bits ^= z
    return bits or cycles[0]


def test_tau_matches_exhaustive_and_sweep_on_random_complexes():
    rng = random.Random(777)
    checked = 0
    while checked < 60:
        c = random_complex(rng, max_generators=12)
        alpha = _random_nonzero_class(rng, c)
        if alpha is None:
            continue
        value = tau(c, alpha)
        assert value == exhaustive_tau(c, alpha)
        assert value == tau_by_level_sweep(c, alpha)
        checked += 1


def test_tau_stable_under_relabeling_and_cancelling_pair():
    rng = random.Random(4242)
    for _ in range(20):
        c = random_complex(rng, max_generators=8)
        cycles = basis_cycles(c)
        if not cycles:
            continue
        alpha = cycles[0]
        value = tau(c, alpha)

        relabel = {g.id: f"rn_{g.id}" for g in c.generators}
        renamed = FilteredComplex(
            [(relabel[g.id], g.maslov, g.alexander, g.spinc) for g in c.generators],
            {relabel[s]: {relabel[d] for d in ds} for s, ds in c.differential.items()},
        )
        assert tau(renamed, alpha) == value

        # Cancelling pair at arbitrary admissible gradings anywhere in the
        # Alexander range, including above the class's own level.
        label = c.generators[0].spinc
        m = F(rng.randint(-5, 5), rng.choice([1, 2, 4]))
        a_top = F(rng.randint(-5, 5), rng.choice([1, 2, 4]))
        a_bot = a_top - F(rng.randint(0, 4), rng.choice([1, 2]))
        extended = FilteredComplex(
            list(c.generators)
            + [("pair_top", m, a_top, label), ("pair_bot", m - 1, a_bot, label)],
            {**{s: set(d) for s, d in c.differential.items()}, "pair_top": {"pair_bot"}},
        )
        assert tau(extended, alpha) == value


def test_tau_subadditive_on_class_sums():
    # For classes alpha, gamma: tau(alpha + gamma) <= max(tau(alpha), tau(gamma));
    # the absolute-value version is false and deliberately not asserted.
    rng = random.Random(31337)
    checked = 0
    while checked < 30:
        c = random_complex(rng, max_generators=10)
        cycles = basis_cycles(c)
        if len(cycles) < 2:
            continue
        a, g = rng.sample(cycles, 2)
        assert tau(c, a ^ g) <= max(tau(c, a), tau(c, g))
        checked += 1


# -- tau spectrum ---------------------------------------------------------------

def test_spectrum_unknot_model():
    s = tau_spectrum(single_generator())
    assert (s.tau_max, s.tau_min, s.breadth) == (0, 0, 0)
    assert s.enumeration_complete


def test_spectrum_rp1_model():
    s = tau_spectrum(rp1_model())
    assert s.tau_max == F(1, 4)
    assert s.tau_min == F(-1, 4)
    assert s.breadth == F(1, 2)
    assert len(s.per_class) == 3  # all nonzero classes of a rank-2 homology


def test_spectrum_zero_homology_rejected():
    pair = FilteredComplex(
        [("x", F(0), F(0), "0"), ("y", F(-1), F(0), "0")], {"x": {"y"}}
    )
    with pytest.raises(ValueError):
        tau_spectrum(pair)


def _all_class_taus(c) -> Counter:
    """Exhaustive tau of every nonzero class, by brute force, as a multiset."""
    cycles = basis_cycles(c)
    taus = Counter()
    for mask in range(1, 1 << len(cycles)):
        bits = 0
        for i in range(len(cycles)):
            if mask >> i & 1:
                bits ^= cycles[i]
        taus[exhaustive_tau(c, bits)] += 1
    return taus


def test_spectrum_extremes_match_per_class_brute_force():
    rng = random.Random(2718)
    checked = 0
    while checked < 25:
        c = random_complex(rng, max_generators=10)
        if total_homology_rank(c) == 0:
            continue
        s = tau_spectrum(c)
        assert s.enumeration_complete
        values = Counter(s.per_class.values())
        assert s.tau_max == max(values)
        assert s.tau_min == min(values)
        assert _all_class_taus(c) == values
        checked += 1


def test_spectrum_ids_map_to_tau_of_their_sum():
    rng = random.Random(4242)
    checked = 0
    while checked < 40:
        c = random_complex(rng, max_generators=12)
        if not 2 <= total_homology_rank(c) <= 10:
            continue
        assert tau_spectrum(c).per_class == spectrum_by_definition(c)
        checked += 1


@pytest.mark.parametrize("tail", [sums.SUM_TAIL, 1, 2])
def test_spectrum_listing_is_a_mapping_of_every_sum(monkeypatch, tail):
    # per_class is a BasisSums.  The default tail tables every sum up to
    # rank 10; with the tail at 1 or 2 the walk hands over to the tables.
    monkeypatch.setattr(sums, "SUM_TAIL", tail)
    rng = random.Random(4243)
    checked = 0
    while checked < 30:
        c = random_complex(rng, max_generators=12)
        rank = total_homology_rank(c)
        if not 2 <= rank <= 10:
            continue
        per_class = tau_spectrum(c).per_class
        expected = spectrum_by_definition(c)
        assert dict(per_class) == expected
        assert list(per_class.items()) == sorted(expected.items())
        assert list(per_class) == sorted(per_class)
        assert len(per_class) == 2**rank - 1
        for cid, value in expected.items():
            assert per_class[cid] == value
        for cid in ("b1+b0", "b0+b0", "b0+", "x"):
            with pytest.raises(KeyError):
                per_class[cid]
        checked += 1


def test_spectrum_refuses_value_outside_extremes():
    ok = {"b0": F(0), "b1": F(1), "b0+b1": F(1)}
    TauSpectrum(ok, tau_max=F(1), tau_min=F(0), enumeration_complete=True)
    # The first offender in per_class order is named, not the first in
    # sorted order: b0 shares its value object, b2 has an equal value in
    # another object.
    low = F(-3)
    per_class = {"b1": F(0), "b0+b1": low, "b0": low, "b2": F(-3)}
    message = r": tau outside \[tau_min, tau_max\]$"
    with pytest.raises(ValueError, match=r"^per_class\['b0\+b1'\]" + message):
        TauSpectrum(per_class, tau_max=F(1), tau_min=F(0), enumeration_complete=True)
    with pytest.raises(ValueError, match=r"^per_class\['b2'\]" + message):
        TauSpectrum(
            {"b0": F(0), "b1": F(0), "b2": F(2)}, tau_max=F(1), tau_min=F(0),
            enumeration_complete=True,
        )


@pytest.mark.parametrize(
    "births,values,first",
    [
        # The first class out of range is a basis class, or a sum.
        ([0, 1, 2], [F(1), F(5), F(0)], "b1"),
        ([2, 0, 1], [F(0), F(1), F(-3)], "b0+b2"),
    ],
)
def test_spectrum_of_basis_sums_names_first_class_out_of_range(births, values, first):
    listing = sums.BasisSums(births, values)
    expected = next(cid for cid, v in listing.items() if not F(0) <= v <= F(1))
    assert expected == first
    message = f"per_class[{first!r}]: tau outside [tau_min, tau_max]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TauSpectrum(listing, tau_max=F(1), tau_min=F(0), enumeration_complete=True)


def test_spectrum_of_basis_sums_checks_the_basis_only(monkeypatch):
    # Every sum takes one of the basis values, and each basis class is
    # listed: a spectrum in range never walks the 2^rank - 1 sums.
    def no_walk(self, *args):
        raise AssertionError("walked the listing")

    monkeypatch.setattr(sums.BasisSums, "_visits", no_walk)
    listing = sums.BasisSums(list(range(20)), [F(-i, 2) for i in range(20)])
    spectrum = TauSpectrum(listing, tau_max=F(0), tau_min=F(-19, 2), enumeration_complete=True)
    assert spectrum.breadth == F(19, 2)


def test_spectrum_refuses_no_classes_before_its_other_rules():
    with pytest.raises(ValueError, match="^per_class: expected a nonempty object$"):
        TauSpectrum({}, tau_max=F(0), tau_min=F(1), enumeration_complete=True)


@pytest.mark.parametrize(
    "tau_max,tau_min,breadth",
    [(F(1), F(0), F(2)), (F(1), F(0), F(1, 2)), (F(0), F(1), F(-1))],
)
def test_spectrum_refuses_breadth_not_spread(tau_max, tau_min, breadth):
    # The record derives its breadth, so only a document can disagree with
    # tau_max - tau_min; extremes out of order are refused by the record.
    doc = {
        "per_class": {"b0": "0/1", "b1": "1/1"},
        "tau_max": format_rational(tau_max),
        "tau_min": format_rational(tau_min),
        "breadth": format_rational(breadth),
    }
    if tau_min > tau_max:
        with pytest.raises(ValueError, match="^tau_min: must not exceed tau_max$"):
            TauSpectrum({"b0": F(0)}, tau_max, tau_min, enumeration_complete=True)
        match = r"^tau_spectrum\.tau_min: must not exceed tau_max$"
    else:
        match = (
            r"^tau_spectrum\.breadth: expected tau_max - tau_min = 1/1, "
            f"got {format_rational(breadth)}$"
        )
    with pytest.raises(ValueError, match=match):
        spectrum_from_json(doc)


# Every class has tau 0, yet genus-bound read a bound of 9/2 from this
# document and seifert-framed-bound --p 1 read 9/1.
UNATTAINED_EXTREMES = {
    "per_class": {"b0": "0/1"},
    "tau_max": "5/1",
    "tau_min": "-5/1",
    "breadth": "10/1",
    "enumeration_complete": True,
}


def test_complete_spectrum_attains_its_extremes():
    message = r": expected 0/1: a complete listing attains both extremes$"
    with pytest.raises(ValueError, match=r"^tau_spectrum\.tau_max" + message):
        spectrum_from_json(UNATTAINED_EXTREMES)
    with pytest.raises(ValueError, match=r"^tau_spectrum\.tau_min" + message):
        spectrum_from_json(dict(UNATTAINED_EXTREMES, tau_max="0/1", breadth="5/1"))
    # A basis need not attain them: its extremes range over every sum.
    basis = spectrum_from_json(dict(UNATTAINED_EXTREMES, enumeration_complete=False))
    assert (basis.tau_max, basis.tau_min) == (5, -5)
    # A BasisSums is checked through its basis values.
    listing = sums.BasisSums([0, 1], [F(1), F(0)])
    assert TauSpectrum(listing, F(1), F(0), enumeration_complete=True).breadth == 1
    with pytest.raises(ValueError, match="^tau_min" + message):
        TauSpectrum(listing, F(1), F(-1), enumeration_complete=True)


def test_spectrum_extremes_exact_above_enumeration_cap(monkeypatch):
    # With the cap at 1 every complex of rank >= 2 lists a basis only; the
    # extremes must still range over all classes.
    monkeypatch.setattr(complexes, "FULL_ENUMERATION_CAP", 1)
    rng = random.Random(1618)
    checked = 0
    while checked < 25:
        c = random_complex(rng, max_generators=10)
        rank = total_homology_rank(c)
        if rank < 2:
            continue
        s = tau_spectrum(c)
        assert not s.enumeration_complete
        assert len(s.per_class) == rank
        brute = _all_class_taus(c)
        assert (s.tau_max, s.tau_min) == (max(brute), min(brute))
        checked += 1


def padded_example(padding: int) -> FilteredComplex:
    """a, b at A=1 and c at A=-5 with dx = a + b + c, plus free generators.

    [c] = [a + b] has tau -5 and [a] has tau 1, whatever the padding.
    """
    gens = [("a", F(0), F(1), "0"), ("b", F(0), F(1), "0"),
            ("c", F(0), F(-5), "0"), ("x", F(1), F(1), "0")]
    gens += [(f"p{i:02d}", F(0), F(0), "0") for i in range(padding)]
    return FilteredComplex(gens, {"x": {"a", "b", "c"}})


def test_spectrum_extremes_exact_at_rank_21():
    s = tau_spectrum(padded_example(19))
    assert not s.enumeration_complete
    assert len(s.per_class) == 21
    assert (s.tau_min, s.tau_max, s.breadth) == (F(-5), F(1), F(6))


@pytest.mark.parametrize("padding", [0, 3])
def test_spectrum_extremes_independent_of_cap(monkeypatch, padding):
    full = tau_spectrum(padded_example(padding))
    assert full.enumeration_complete
    monkeypatch.setattr(complexes, "FULL_ENUMERATION_CAP", 1)
    capped = tau_spectrum(padded_example(padding))
    assert not capped.enumeration_complete
    for s in (full, capped):
        assert (s.tau_min, s.tau_max, s.breadth) == (F(-5), F(1), F(6))


def test_homology_basis_representatives_carry_tau():
    # The basis is filtered: each class is carried by the cycle born at
    # its own generator, whose top grading is already the least possible.
    rng = random.Random(1414)
    checked = 0
    while checked < 40:
        c = random_complex(rng, max_generators=10)
        basis = homology_basis(c)
        if not basis:
            continue
        for i, bits in zip(basis, basis_cycles(c)):
            assert tau(c, bits) == max_alexander(c, bits) == c.generators[i].alexander
        checked += 1


def test_spectrum_lists_basis_taus_above_cap(monkeypatch):
    # Above the cap per_class lists the basis only, and that basis
    # carries both extremes of the spectrum.
    monkeypatch.setattr(complexes, "FULL_ENUMERATION_CAP", 1)
    rng = random.Random(2929)
    checked = 0
    while checked < 25:
        c = random_complex(rng, max_generators=10)
        cycles = basis_cycles(c)
        if len(cycles) < 2:
            continue
        s = tau_spectrum(c)
        assert s.per_class == {f"b{i}": tau(c, z) for i, z in enumerate(cycles)}
        values = s.per_class.values()
        assert (min(values), max(values)) == (s.tau_min, s.tau_max)
        checked += 1


def test_spectrum_basis_attains_extremes_at_rank_21():
    s = tau_spectrum(padded_example(19))
    assert not s.enumeration_complete
    values = s.per_class.values()
    assert (min(values), max(values)) == (s.tau_min, s.tau_max) == (F(-5), F(1))


def test_connected_sum_shift_examples():
    s = tau_spectrum(rp1_model())
    assert connected_sum_shift(s, F(0)) == s
    shifted = connected_sum_shift(s, F(-2))
    assert shifted.tau_max == F(-7, 4)
    assert shifted.tau_min == F(-9, 4)
    assert shifted.breadth == s.breadth


def test_spectrum_basis_only_above_enumeration_cap():
    # 21 free generators: homology rank 21 > 20, so the spectrum lists a
    # basis only and says so.
    gens = [(f"f{i}", F(0), F(i, 2), "0") for i in range(21)]
    s = tau_spectrum(FilteredComplex(gens, {}))
    assert not s.enumeration_complete
    assert len(s.per_class) == 21
    assert s.tau_max == F(20, 2)
    assert s.tau_min == F(0)


def test_connected_sum_shift_adds_t_to_every_class():
    rng = random.Random(77)
    checked = 0
    while checked < 10:
        c = random_complex(rng, max_generators=10)
        if total_homology_rank(c) < 2:
            continue
        s = tau_spectrum(c)
        t = F(rng.randint(-12, 12), rng.randint(1, 9))
        shifted = connected_sum_shift(s, t)
        assert shifted.per_class == {cid: v + t for cid, v in s.per_class.items()}
        assert list(shifted.per_class) == list(s.per_class)
        checked += 1


def test_connected_sum_shift_breadth_invariance_random():
    rng = random.Random(5)
    s = tau_spectrum(rp1_model())
    for _ in range(20):
        t = F(rng.randint(-12, 12), rng.randint(1, 9))
        assert connected_sum_shift(s, t).breadth == s.breadth


# -- survivor deduction -----------------------------------------------------------
#
# The deduction reads a paperdata.PoincarePolynomial; these tests draw
# (A, M, rank) entries and build the record through helpers.poincare.

def deduce(entries, target):
    return paperdata.survivor_deduction(poincare(entries), target)


def survivable(entries, target):
    return paperdata.survivable_gradings(poincare(entries), target)


def lift_8_20_ranks():
    base = F(7, 9)
    return [
        (F(-1), base - 1, 1),
        (F(0), base, 1),
        (F(1), base + 1, 1),
    ]


def test_survivors_trivial_when_target_is_total():
    ranks = [(F(0), F(0), 2), (F(1), F(1), 1)]
    outcomes = deduce(ranks, 3)
    assert outcomes == frozenset({(F(0), F(0), F(1))})


def test_survivors_lift_8_20():
    outcomes = deduce(lift_8_20_ranks(), 1)
    assert outcomes == frozenset({(F(-1),), (F(1),)})


def test_survivors_match_naive_enumeration():
    rng = random.Random(11)
    pool = [F(-2), F(-1), F(0), F(1), F(2), F(1, 2)]
    for _ in range(40):
        size = rng.randint(1, 4)
        gradings = rng.sample(pool, size)
        entries = []
        for a in gradings:
            entries.append((a, a + rng.randint(-1, 1), rng.randint(1, 3)))
        total = sum(r for _, _, r in entries)
        drop = rng.randint(0, total // 2)
        target = total - 2 * drop
        if target < 0:
            continue
        try:
            outcomes = deduce(entries, target)
        except DeductionError:
            assert naive_survivors(entries, target) == set()
            continue
        assert set(outcomes) == naive_survivors(entries, target)
    # Bigradings sharing an Alexander grading at different Maslov gradings
    # (distinct rank vectors with one survivor multiset), two to five
    # cancellations deep.
    rng = random.Random(12)
    compared = 0
    for _ in range(60):
        entries = []
        for a in rng.sample(pool[:5], rng.randint(2, 4)):
            for m in rng.sample([a - 1, a, a + 1], rng.randint(1, 2)):
                entries.append((a, m, rng.randint(1, 3)))
        total = sum(r for _, _, r in entries)
        if total < 4:
            continue
        target = total - 2 * rng.randint(2, min(5, total // 2))
        expected = naive_survivors(entries, target)
        try:
            outcomes = deduce(entries, target)
        except DeductionError:
            assert expected == set()
            continue
        assert set(outcomes) == expected
        assert len(outcomes) == len(expected)
        compared += 1
    assert compared >= 15


def test_survivors_many_cancellations_deep():
    # 1200 cancellations, each between the same two bigradings.
    ranks = [(F(1), F(1), 1200), (F(0), F(0), 1201)]
    assert deduce(ranks, 1) == frozenset({(F(0),)})


def test_survivors_parity_error():
    with pytest.raises(DeductionError, match="parity"):
        deduce([(F(0), F(0), 2)], 1)


def test_survivors_unreachable_error():
    # Two units at the same grading can never cancel against each other.
    with pytest.raises(DeductionError, match="unreachable"):
        deduce([(F(0), F(0), 2)], 0)


def diagonal_ranks(rank: int) -> list:
    """Seven terms on the diagonal M = A = -3..3, rank `rank` each, one more at 0."""
    return [(F(k), F(k), rank + (k == 0)) for k in range(-3, 4)]


def test_survivors_maslov_imbalance_refused_at_once():
    # Units at odd Maslov outnumber those at even Maslov by 19, and every
    # cancellation removes one of each: at least 19 survive.
    start = time.perf_counter()
    with pytest.raises(DeductionError, match=r"target rank 1 unreachable.* 19 "):
        deduce(diagonal_ranks(20), 1)
    assert time.perf_counter() - start < 1


def test_survivors_maslov_imbalance_per_residue():
    # M = 1/2 (floor 0, even) and M = 1 (odd) never cancel: the imbalances
    # of the two residues add up instead of cancelling out.
    ranks = [(F(1), F(1, 2), 1), (F(0), F(1), 1)]
    with pytest.raises(DeductionError, match=r"unreachable.* 2 "):
        deduce(ranks, 0)
    assert deduce(ranks, 2) == frozenset({(F(0), F(1))})
    # The imbalance is met exactly: one odd unit is left over.
    assert deduce([(F(1), F(1), 2), (F(0), F(0), 1)], 1) == frozenset(
        {(F(1),)}
    )


def _perfbench_oracle():
    """perfbench/oracle.py, loaded by path: it imports nothing of ratslice."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _answer(fn, ranks, target):
    try:
        return fn(ranks, target)
    except DeductionError as exc:
        return str(exc)


def _random_maslov_input(rng):
    """Up to six entries with fractional residues, and a target that is
    reachable by parity and imbalance four times in five."""
    entries = []
    for _ in range(rng.randint(1, 6)):
        m = F(rng.randint(-3, 3)) + rng.choice([F(0), F(0), F(1, 3), F(1, 2)])
        a = F(rng.randint(-3, 3)) + rng.choice([F(0), F(0), F(1, 2)])
        entries.append((a, m, rng.randint(0, 4)))
    total = sum(c for _, _, c in entries)
    parity = Counter()
    for _, m, c in entries:
        parity[m % 1] += -c if math.floor(m) % 2 else c
    imbalance = sum(abs(d) for d in parity.values())
    if rng.random() < 0.8 and imbalance <= total:
        return entries, imbalance + 2 * rng.randint(0, (total - imbalance) // 2)
    return entries, rng.randint(-1, total + 1)


# One phrase from each refusal: total, parity, imbalance, and no plan.
REFUSALS = ("below the target", "parity mismatch", "imbalance", "no sequence")


def pairs_by_definition(entries):
    """Every (hi, lo) with Maslov one apart and Alexander strictly dropping."""
    return {
        (hi, lo)
        for hi, (m_hi, a_hi, _) in enumerate(entries)
        for lo, (m_lo, a_lo, _) in enumerate(entries)
        if m_hi == m_lo + 1 and a_hi > a_lo
    }


def test_survivable_gradings_match_the_enumeration():
    # survivable_gradings answers by max-flow what the union of the level
    # sweep's outcomes lists; every refusal must read the same.  The plan
    # lists its pairs as sorted prefixes; they must be the pairs of the
    # definition, each once (a target equal to the total refuses nothing).
    oracle = _perfbench_oracle()
    rng = random.Random(13)
    refusals = Counter()
    small = 0
    for _ in range(4000):
        entries, target = _random_maslov_input(rng)
        total = sum(c for _, _, c in entries)
        merged, pairs, _ = paperdata._cancellation_plan(poincare(entries), total)
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == pairs_by_definition(merged), entries
        expected = _answer(deduce, entries, target)
        if not isinstance(expected, str):
            expected = frozenset(a for outcome in expected for a in outcome)
        assert _answer(survivable, entries, target) == expected, (
            entries, target,
        )
        if isinstance(expected, str):
            refusals.update(kind for kind in REFUSALS if kind in expected)
        if sum(c for _, _, c in entries) <= 8 and target >= 0:
            answer = set() if isinstance(expected, str) else expected
            naive = naive_survivors(entries, target)
            assert {a for outcome in naive for a in outcome} == answer
            terms = [(m, a, c) for a, m, c in entries]
            assert oracle.survivors(terms, target) == answer
            small += 1
    assert set(refusals) == set(REFUSALS)
    assert small >= 1000


def test_cancellation_plan_lists_2000_terms_at_once():
    # A = i, M = i mod 2: the unit at odd i pairs with every even j < i,
    # 500,500 pairs.  Comparing every entry with every other took 9.5 s.
    terms = [(F(i), F(i % 2), 1) for i in range(2000)]
    start = time.perf_counter()
    entries, pairs, cancellations = paperdata._cancellation_plan(poincare(terms), 2)
    assert time.perf_counter() - start < 1
    assert entries == [(m, a, r) for a, m, r in terms]
    assert cancellations == 999
    assert len(pairs) == 500_500
    assert set(pairs) == {
        (hi, lo) for hi in range(1, 2000, 2) for lo in range(0, hi, 2)
    }


def test_survivable_gradings_runs_one_flow(monkeypatch):
    # Every answer is read off the residual graph of one flow; the plan's
    # refusals come before it and run none.
    flows = []
    flow = paperdata._cancellation_flow

    def counted(*args):
        flows.append(args)
        return flow(*args)

    monkeypatch.setattr(paperdata, "_cancellation_flow", counted)
    rng = random.Random(17)
    for _ in range(300):
        entries, target = _random_maslov_input(rng)
        flows.clear()
        answer = _answer(survivable, entries, target)
        planned = not isinstance(answer, str) or "no sequence" in answer
        assert len(flows) == planned, (entries, target)
    flows.clear()
    assert survivable(diagonal_ranks(30), 29) == {F(-3), F(-1), F(1), F(3)}
    assert len(flows) == 1


@pytest.mark.parametrize("ranks,saturated,possible", [
    # One unit at M = 1 cancels either unit below it at M = 0.  The flow
    # takes A = 0 first; that unit survives when the pair moves to A = 1.
    ([(F(0), F(0), 1), (F(1), F(0), 1), (F(2), F(1), 1)], 0, {F(0), F(1)}),
    # The mirror case on the sink's side: the unit at M = 0 cancels either
    # unit above it at M = 1, and the flow takes A = 1 first.
    ([(F(0), F(0), 1), (F(1), F(1), 1), (F(2), F(1), 1)], 1, {F(1), F(2)}),
], ids=["source side", "sink side"])
def test_survivable_gradings_reroute_a_saturated_term(ranks, saturated, possible):
    entries, pairs, cancellations = paperdata._cancellation_plan(poincare(ranks), 1)
    flow, residual = paperdata._cancellation_flow(entries, pairs, cancellations)
    source, sink = len(entries), len(entries) + 1
    # The flow used the term's only unit: no slack is left on its edge.
    assert flow == 1
    assert residual[source].get(saturated, 0) == residual[saturated].get(sink, 0) == 0
    assert survivable(ranks, 1) == possible
    assert entries[saturated][1] in possible


def test_survivable_gradings_refusals():
    with pytest.raises(DeductionError, match="^target rank unreachable: no sequence"):
        survivable([(F(1), F(0), 1), (F(0), F(1), 1)], 0)
    # Rank 30 on the seven-term diagonal: the level sweep ran for over a
    # minute; the flows answer at once, as they do at rank 10^6.
    start = time.perf_counter()
    assert survivable(diagonal_ranks(30), 29) == {F(-3), F(-1), F(1), F(3)}
    assert survivable([(F(1), F(1), 10**6), (F(0), F(0), 10**6 + 1)], 1) == {
        F(0)
    }
    assert time.perf_counter() - start < 1
