"""Seeded job lists for the three workloads, with their expected answers.

A job is one `python -m ratslice.cli ...` invocation. Its input files
are written from the workload seed, and its expected answer comes from
`oracle`, never from ratslice.

Why each workload exists:

* grid: knot grids of size 7 and 8. The only workload where the grid
  layers (state scan, rectangle enumeration, compile with validate, the
  thread pool) do most of the work; the GF(2) engine mostly adds columns.
  The size-8 --hfk job compiles its grid twice.
* complex: user complexes, survivor deductions and verify-paper. No grid
  work apart from one size-7 tau inside verify-paper; the GF(2) engine
  mostly reduces (2^rank calls), and JSON I/O is a large share.
* bounds: short commands whose cost is interpreter start, importing
  ratslice.cli, argparse and the JSON dump. It bypasses the grid and
  GF(2) layers and catches added import-time cost.

Size 9 grids (the streamed route) are left out: one run takes 95-125 s
and does not repeat within a tenth.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import oracle


@dataclass
class Job:
    name: str
    argv: list[str]  # arguments after `python -m ratslice.cli`
    kind: str  # which checker reads the output
    expected: dict = field(default_factory=dict)
    exit_code: int = 0
    # A wrong answer the seed is known to give. It still counts as wrong;
    # it only keeps the run's `correct` flag from reporting it as new.
    known_defect: Optional[str] = None


def rat(value: Fraction | int) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


# -- grid ---------------------------------------------------------------------


def _interleaved(a: tuple[int, int], b: tuple[int, int]) -> bool:
    a0, a1 = sorted(a)
    b0, b1 = sorted(b)
    return a0 < b0 < a1 < b1 or b0 < a0 < b1 < a1


def diagonal_grid(p: int, q: int) -> tuple[list[int], list[int]]:
    """The size p+q diagonal-shift grid: X in (i, i), O in (i, i+p mod n).

    In ratslice's grid-file convention it presents T(p, -q), the negative
    torus knot; its column mirror presents T(p, q).
    """
    n = p + q
    return list(range(n)), [(i + p) % n for i in range(n)]


def scramble(x: list[int], o: list[int], rng: random.Random, moves: int):
    """Apply knot-preserving grid moves: cyclic shifts and commutations."""
    n = len(x)
    x, o = list(x), list(o)
    for _ in range(moves):
        kind = rng.randrange(4)
        if kind == 0:
            k = rng.randrange(1, n)
            x, o = x[k:] + x[:k], o[k:] + o[:k]
        elif kind == 1:
            k = rng.randrange(1, n)
            x = [(v + k) % n for v in x]
            o = [(v + k) % n for v in o]
        elif kind == 2:
            i = rng.randrange(n - 1)
            if not _interleaved((x[i], o[i]), (x[i + 1], o[i + 1])):
                x[i], x[i + 1] = x[i + 1], x[i]
                o[i], o[i + 1] = o[i + 1], o[i]
        else:
            r = rng.randrange(n - 1)
            spans = []
            for row in (r, r + 1):
                spans.append((x.index(row), o.index(row)))
            if not _interleaved(spans[0], spans[1]):
                swap = {r: r + 1, r + 1: r}
                x = [swap.get(v, v) for v in x]
                o = [swap.get(v, v) for v in o]
    return x, o


GRID_SPECS = (
    # (p, q, --hfk)
    (2, 5, False),
    (2, 5, True),
    (3, 4, False),
    (3, 4, True),
    (3, 5, True),
)


def grid_jobs(rng: random.Random, inputs: Path) -> list[Job]:
    jobs = []
    for k, (p, q, hfk) in enumerate(GRID_SPECS):
        x, o = diagonal_grid(p, q)
        sign = rng.choice((1, -1))
        if p + q < 8:
            if sign > 0:  # mirror in a vertical axis
                x, o = x[::-1], o[::-1]
            x, o = scramble(x, o, rng, moves=40)
        elif sign > 0:
            # Any relabelling of the size-8 grid, even a cyclic shift,
            # moves its cost by up to 20% and its peak RSS by 10%, which
            # would swamp run-to-run noise. The seed only picks the
            # chirality; the mirror in a horizontal axis costs within 2%
            # of the diagonal grid.
            x, o = [p + q - 1 - v for v in x], [p + q - 1 - v for v in o]
        path = inputs / f"grid{k}.txt"
        path.write_text(" ".join(map(str, x)) + "\n" + " ".join(map(str, o)) + "\n")
        expected = {"n": p + q, "tau": rat(oracle.torus_tau(p, sign * q))}
        argv = ["grid-tau", "--grid", str(path)]
        if hfk:
            argv.append("--hfk")
            expected["hfk_ranks"] = {
                rat(a): r for a, r in oracle.torus_hfk_ranks(p, q).items()
            }
        name = f"T({p},{sign * q})n{p + q}" + ("-hfk" if hfk else "")
        jobs.append(Job(name, argv, "grid", expected))
    return jobs


# -- complex ------------------------------------------------------------------


def disguised_complex(rng: random.Random, rank: int, pairs: int):
    """A direct sum of free generators and cancelling pairs, re-based.

    Returns the complex document and the Alexander gradings of the free
    generators. Each basis change replaces e_a by e_a + e_b with equal
    Maslov grading and A(e_b) <= A(e_a), which keeps the filtration and
    the homology, so the tau of every class is still set by the free part.
    """
    shift = Fraction(rng.randrange(4), 4)
    grades: list[tuple[Fraction, Fraction]] = []
    for _ in range(rank):
        grades.append((Fraction(rng.randrange(-3, 4)), rng.randrange(-4, 5) + shift))
    cols: list[int] = [0] * rank
    for _ in range(pairs):
        m = Fraction(rng.randrange(-3, 3))
        a_lo = rng.randrange(-4, 4) + shift
        grades.append((m, a_lo))
        cols.append(0)
        grades.append((m + 1, a_lo + rng.randrange(0, 3)))
        cols.append(1 << (len(grades) - 2))
    n = len(grades)
    for _ in range(3 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b or grades[a][0] != grades[b][0] or grades[b][1] > grades[a][1]:
            continue
        cols[a] ^= cols[b]  # d(e_a') = d(e_a) + d(e_b)
        bit_a, bit_b = 1 << a, 1 << b
        for j in range(n):  # coordinates: row b += row a
            if cols[j] & bit_a:
                cols[j] ^= bit_b
    names = [f"g{i:03d}" for i in range(n)]
    rng.shuffle(names)
    order = list(range(n))
    rng.shuffle(order)
    doc = {
        "generators": [
            {"id": names[i], "maslov": rat(grades[i][0]),
             "alexander": rat(grades[i][1]), "spinc": "0"}
            for i in order
        ],
        "differential": {
            names[j]: sorted(names[i] for i in range(n) if cols[j] >> i & 1)
            for j in range(n)
            if cols[j]
        },
    }
    return doc, [a for _, a in grades[:rank]]


def rank21_example_complex() -> dict:
    """a, b at A=1 and c at A=-5 with dx = a + b + c, padded to rank 21.

    [c] = [a + b] has tau -5 and [a] has tau 1, so tau_min is -5,
    tau_max is 1 and the breadth is 6 whatever the padding.
    """
    gens = [("a", 0, 1), ("b", 0, 1), ("c", 0, -5), ("x", 1, 1)]
    gens += [(f"p{i:02d}", 0, 0) for i in range(19)]
    return {
        "generators": [
            {"id": g, "maslov": rat(m), "alexander": rat(a), "spinc": "0"}
            for g, m, a in gens
        ],
        "differential": {"x": ["a", "b", "c"]},
    }


def _draw_polynomial(rng: random.Random, pairs: int):
    """One survivor plus `pairs` cancelling pairs, merged by bigrading."""
    ranks: dict[tuple[Fraction, Fraction], int] = {}

    def put(m, a):
        ranks[(m, a)] = ranks.get((m, a), 0) + 1

    put(Fraction(rng.randrange(-1, 2)), Fraction(rng.randrange(-2, 3)))
    for _ in range(pairs):
        m = Fraction(rng.randrange(-2, 2))
        a_lo = rng.randrange(-3, 3)
        put(m, Fraction(a_lo))
        put(m + 1, Fraction(a_lo + rng.randrange(1, 3)))
    return [(m, a, r) for (m, a), r in sorted(ranks.items())]


# The deduction's cost follows the number of rank vectors it can reach,
# which swings 100x between draws of one size. These fixed draws of
# _draw_polynomial(random.Random(f"shape:{pairs}:{i}"), pairs) each reach
# 30k-40k vectors (about 0.35 s); the seed moves them by symmetries of
# the cancellation rule, which keep that cost.
POLYNOMIAL_SHAPES = {10: 2, 11: 5, 12: 0}


def reachable_polynomial(rng: random.Random, pairs: int):
    """A fixed-cost reachable polynomial, shifted and reflected by the seed.

    (M, A) -> (-M, -A) and shifts of either grading map cancellable pairs
    to cancellable pairs, so the target rank stays reachable.
    """
    shape = _draw_polynomial(random.Random(f"shape:{pairs}:{POLYNOMIAL_SHAPES[pairs]}"), pairs)
    sign = rng.choice((1, -1))
    dm = Fraction(rng.randrange(-9, 9), 9)
    da = rng.randrange(-2, 3)
    terms = [(sign * m + dm, sign * a + da, r) for m, a, r in shape]
    rng.shuffle(terms)
    return terms


COMPLEX_RANKS = (15, 16, 17)
POLYNOMIAL_PAIRS = (10, 11, 12)


def _deep_slice_job(name: str, source: list[str], terms) -> Job:
    """deep-slice down to one survivor: deep slice iff 0 cannot survive."""
    possible = oracle.survivors(terms, 1)
    return Job(
        name,
        ["deep-slice", *source, "--target", "1"],
        "deep-slice",
        {"possible_tau": sorted(rat(v) for v in possible),
         "deep_slice": Fraction(0) not in possible},
    )


def complex_jobs(rng: random.Random, inputs: Path) -> list[Job]:
    jobs = []
    for rank in COMPLEX_RANKS:
        doc, free = disguised_complex(rng, rank, pairs=2 * rank)
        path = inputs / f"complex-r{rank}.json"
        path.write_text(json.dumps(doc))
        hist = oracle.spectrum_histogram(free)
        expected = {
            "tau_max": rat(max(free)),
            "tau_min": rat(min(free)),
            "breadth": rat(max(free) - min(free)),
            "histogram": {rat(v): c for v, c in hist.items()},
        }
        jobs.append(Job(f"tau-r{rank}", ["tau", "--complex", str(path)], "spectrum", expected))
    path = inputs / "complex-r21.json"
    path.write_text(json.dumps(rank21_example_complex()))
    jobs.append(
        Job(
            "tau-r21-example",
            ["tau", "--complex", str(path)],
            "spectrum",
            {"tau_max": "1/1", "tau_min": "-5/1", "breadth": "6/1"},
            known_defect="above rank 20 tau_spectrum reports basis classes only",
        )
    )
    for pairs in POLYNOMIAL_PAIRS:
        terms = reachable_polynomial(rng, pairs)
        path = inputs / f"poly-{pairs}.json"
        path.write_text(json.dumps({
            "terms": [{"maslov": rat(m), "alexander": rat(a), "rank": r} for m, a, r in terms],
            "spinc": "0",
        }))
        jobs.append(_deep_slice_job(
            f"deep-slice-{pairs}", ["--polynomial", str(path)], terms))
    jobs.append(Job("verify-paper", ["verify-paper"], "verify-paper", PAPER_VALUES))
    return jobs


# The worked numbers of the source paper, as `verify-paper` names them.
PAPER_VALUES = {
    "grid tau of T(2,-5)": "-2/1",
    "embedded tau of T(2,-5)": "-2/1",
    "core circle spectrum extremes": ["1/4", "-1/4"],
    "connected sum shift by -2": ["-7/4", "-9/4"],
    "lift of 8_20 survivor tau values": {"possible_tau": ["-1/1", "1/1"], "deep_slice": True},
    "lift of 8_20 polynomial terms": [["-2/9", "-1/1", 1], ["7/9", "0/1", 1], ["16/9", "1/1", 1]],
    "dual knot breadth at genus 2": "2/1",
    "linking from surface slope (2, 1)": "-1/2",
    "re-framing shift (-1/2) + 3": "5/2",
    "torus braid writhe (mr-1)ms at m=2, r=2, s=1": 6,
    "Seifert-framed boundary constant": 0,
    "grading table entry (x3, C(maxa))": ["0/1", "3/1"],
    "grading table entry (x4, C(maxa))": ["0/1", "1/1"],
    "breadth genus bound on the composite": "-1/4",
    "Seifert-framed bound sees 2|tau| = 9/2": "9/2",
    "explicit surface gives 2*genus + 1 <= 3": "3/1",
    "d-invariant difference bound on the projective space": "1/2",
}

# q^(7/9) (q^-1 t^-1 + 1 + q t): the lift of 8_20, as (maslov, alexander, rank).
LIFT_8_20 = [
    (Fraction(-2, 9), Fraction(-1), 1),
    (Fraction(7, 9), Fraction(0), 1),
    (Fraction(16, 9), Fraction(1), 1),
]


# -- bounds -------------------------------------------------------------------


def _random_braid(rng: random.Random, index: int, length: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randrange(1, index) for _ in range(length)]


def _braid_text(index: int, word: list[int]) -> str:
    return f"{index}: " + " ".join(map(str, word))


def _frac(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randrange(lo * den, hi * den + 1), den)


def bounds_jobs(rng: random.Random, inputs: Path) -> list[Job]:
    jobs = []
    for k in range(2):
        p = rng.randrange(1, 6)
        tau, lk = _frac(rng, -3, 3, 2), _frac(rng, -2, 2, 4)
        lo, hi = oracle.cable_interval(p, tau, lk)
        jobs.append(Job(
            f"cable-bound-{k}",
            ["cable-bound", "--p", str(p), "--tau", rat(tau), "--lk", rat(lk)],
            "fields", {"tau_interval": {"lo": rat(lo), "hi": rat(hi)}},
        ))

        index = rng.randrange(2, 6)
        word = _random_braid(rng, index, rng.randrange(3, 12))
        facts = oracle.braid_facts(index, word)
        tau, lk = _frac(rng, -3, 3, 4), _frac(rng, -2, 2, 3)
        lo, hi = oracle.satellite_interval(index, tau, lk, facts["writhe"], facts["components"])
        jobs.append(Job(
            f"satellite-bound-{k}",
            ["satellite-bound", "--braid", _braid_text(index, word),
             "--tau", rat(tau), "--lk", rat(lk)],
            "fields",
            {"writhe": facts["writhe"], "components": facts["components"],
             "tau_interval": {"lo": rat(lo), "hi": rat(hi)}},
        ))

        t_max = _frac(rng, -2, 3, 4)
        t_min = t_max - _frac(rng, 0, 4, 4)
        raw = (t_max - t_min - 1) / 2
        jobs.append(Job(
            f"genus-bound-{k}",
            ["genus-bound", "--tau-max", rat(t_max), "--tau-min", rat(t_min)],
            "fields",
            {"report": {"bound_value": rat(raw), "clamped_value": rat(max(raw, 0))}},
        ))

        p = rng.randrange(1, 5)
        raw = p * (2 * max(abs(t_max), abs(t_min)) - 1)
        jobs.append(Job(
            f"seifert-framed-bound-{k}",
            ["seifert-framed-bound", "--tau-max", rat(t_max), "--tau-min", rat(t_min),
             "--p", str(p)],
            "fields",
            {"report": {"bound_value": rat(raw), "clamped_value": rat(max(raw, 0))}},
        ))

        order = rng.randrange(1, 4)
        index = order * rng.randrange(1, 3) + (1 if order == 1 else 0)
        word = _random_braid(rng, index, rng.randrange(2, 10))
        lk = Fraction(rng.randrange(-6, 7), order)
        c = (index - 1) * index * lk + oracle.braid_facts(index, word)["writhe"]
        jobs.append(Job(
            f"c-value-{k}",
            ["c-value", "--braid", _braid_text(index, word), "--lk", rat(lk),
             "--order", str(order)],
            "fields", {"c": int(c)},
        ))

        index = rng.randrange(2, 7)
        word = _random_braid(rng, index, rng.randrange(1, 15))
        facts = oracle.braid_facts(index, word)
        jobs.append(Job(
            f"braid-info-{k}",
            ["braid-info", "--braid", _braid_text(index, word)],
            "fields", facts,
        ))

        tb, rot = _frac(rng, -4, 2, 3), _frac(rng, -2, 2, 3)
        chi, p = -rng.randrange(0, 6), rng.randrange(1, 4)
        slack = Fraction(-chi, p) - tb - rot
        jobs.append(Job(
            f"slice-bennequin-{k}",
            ["slice-bennequin", "--tb", rat(tb), "--rot", rat(rot), "--chi", str(chi),
             "--p", str(p)],
            "fields",
            {"report": {"bound_value": rat(slack), "satisfied": slack >= 0}},
            exit_code=0 if slack >= 0 else 2,
        ))

        jobs.append(_deep_slice_job(
            f"deep-slice-lift-{k}", ["--builtin", "lift_8_20"], LIFT_8_20))
    return jobs


WORKLOADS = {"grid": grid_jobs, "complex": complex_jobs, "bounds": bounds_jobs}


def make_jobs(workload: str, seed: int, inputs: Path) -> list[Job]:
    inputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), inputs)
