"""Command-line surface: one JSON document per invocation on stdout.

Exit codes: 0 success, 1 input error (first offending field named on
stderr), 2 violated check (an unsatisfied inequality check or a failed
embedded verification).  Output documents are deterministic: byte
identical across runs for identical inputs, and every document carries
a citation field naming the inequality used.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bounds, braid, complexes, formats, grid, paperdata, ratlink
from .gf2 import VectorGF2
from .rationals import format_rational, parse_rational

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATED = 2


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_json(path: str) -> dict:
    try:
        doc = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top-level JSON value must be an object")
    return doc


def _spectrum_from_args(args) -> complexes.TauSpectrum:
    sources = [
        args.knot is not None,
        args.builtin is not None,
        args.tau_max is not None or args.tau_min is not None,
    ]
    if sum(sources) != 1:
        raise ValueError(
            "specify exactly one spectrum source: --knot FILE, --builtin NAME, "
            "or --tau-max/--tau-min"
        )
    if args.knot is not None:
        return formats.framed_from_json(_load_json(args.knot)).tau_spectrum
    if args.builtin is not None:
        data = paperdata.builtin(args.builtin)
        if not isinstance(data, ratlink.FramedKnotData):
            raise ValueError(f"builtin {args.builtin!r} is not a framed knot")
        return data.tau_spectrum
    if args.tau_max is None or args.tau_min is None:
        raise ValueError("--tau-max and --tau-min must be given together")
    hi = parse_rational(args.tau_max)
    lo = parse_rational(args.tau_min)
    per_class = {"max": hi} if hi == lo else {"max": hi, "min": lo}
    return complexes.TauSpectrum(
        per_class=per_class,
        tau_max=hi,
        tau_min=lo,
        breadth=hi - lo,
        enumeration_complete=False,
    )


def _add_spectrum_arguments(parser) -> None:
    parser.add_argument("--knot", help="FramedKnotData JSON file")
    parser.add_argument("--builtin", help="embedded dataset name")
    parser.add_argument("--tau-max", help="tau_max as a/b")
    parser.add_argument("--tau-min", help="tau_min as a/b")


# -- verb handlers: each returns (exit code, document) --------------------

def _cmd_tau(args):
    complex_ = formats.complex_from_json(_load_json(args.complex))
    doc = {"command": "tau", "citation": "tau-from-filtered-complex"}
    if args.cycle:
        ids = [tok for tok in args.cycle.replace(",", " ").split() if tok]
        unknown = [gid for gid in ids if gid not in complex_.index]
        if unknown:
            raise ValueError(f"cycle: unknown generator id {unknown[0]!r}")
        support = frozenset(complex_.index[gid] for gid in ids)
        alpha = complexes.FloerClass(
            representative=VectorGF2(len(complex_.generators), support)
        )
        doc["tau"] = format_rational(complexes.tau(complex_, alpha))
        doc["cycle"] = sorted(ids)
    else:
        doc["spectrum"] = formats.spectrum_to_json(complexes.tau_spectrum(complex_))
    return EXIT_OK, doc


def _cmd_grid_tau(args):
    if (args.grid is None) == (args.torus is None):
        raise ValueError("specify exactly one of --grid FILE or --torus p q")
    if args.torus is not None:
        p, q = args.torus
        diagram = grid.torus_knot_grid(p, q)
        source = f"torus({p},{q})"
    else:
        diagram = formats.grid_from_text(_read(args.grid))
        source = args.grid
    doc = {
        "command": "grid-tau",
        "source": source,
        "n": diagram.n,
        "tau": format_rational(grid.tau(diagram)),
        "citation": "tau-of-maslov-zero-grid-class",
    }
    if args.hfk:
        ranks = grid.hfk_ranks(diagram)
        doc["hfk_ranks"] = {
            format_rational(a): r for a, r in sorted(ranks.items(), reverse=True)
        }
    return EXIT_OK, doc


def _cmd_cable_bound(args):
    interval = bounds.cable_tau_interval(
        args.p, parse_rational(args.tau), parse_rational(args.lk)
    )
    return EXIT_OK, {
        "command": "cable-bound",
        "p": args.p,
        "tau": args.tau,
        "lk": args.lk,
        "tau_interval": formats.interval_to_json(interval),
        "citation": "cable-tau-two-sided-estimate",
    }


def _cmd_satellite_bound(args):
    word = braid.parse_braid(args.braid)
    interval = bounds.bp_tau_interval(
        word.index,
        parse_rational(args.tau),
        parse_rational(args.lk),
        braid.writhe(word),
        braid.components(word),
    )
    return EXIT_OK, {
        "command": "satellite-bound",
        "braid": braid.format_braid(word),
        "writhe": braid.writhe(word),
        "components": braid.components(word),
        "tau_interval": formats.interval_to_json(interval),
        "citation": "braided-satellite-tau-estimate",
    }


def _cmd_genus_bound(args):
    spectrum = _spectrum_from_args(args)
    report = bounds.genus_lower_bound_breadth(spectrum)
    return EXIT_OK, {
        "command": "genus-bound",
        "report": formats.report_to_json(report),
        "citation": report.citation,
    }


def _cmd_seifert_framed_bound(args):
    spectrum = _spectrum_from_args(args)
    report = bounds.seifert_framed_bound(spectrum, args.p)
    return EXIT_OK, {
        "command": "seifert-framed-bound",
        "report": formats.report_to_json(report),
        "citation": report.citation,
    }


def _cmd_deep_slice(args):
    if (args.polynomial is None) == (args.builtin is None):
        raise ValueError("specify exactly one of --polynomial FILE or --builtin NAME")
    if args.builtin is not None:
        poly = paperdata.builtin(args.builtin)
        if not isinstance(poly, paperdata.PoincarePolynomial):
            raise ValueError(f"builtin {args.builtin!r} is not a Poincare polynomial")
    else:
        poly = formats.poincare_from_json(_load_json(args.polynomial))
    verdict = paperdata.deep_slice_report(poly, args.target)
    return EXIT_OK, {
        "command": "deep-slice",
        "spinc": poly.spinc,
        "target_rank": args.target,
        "verdict": formats.verdict_to_json(verdict),
        "citation": verdict.citation,
    }


def _cmd_braid_info(args):
    word = braid.parse_braid(args.braid)
    k, l = braid.splitting_counts(word)
    return EXIT_OK, {
        "command": "braid-info",
        "braid": braid.format_braid(word),
        "index": word.index,
        "length": len(word.word),
        "writhe": braid.writhe(word),
        "components": braid.components(word),
        "positive_crossings": k,
        "negative_crossings": l,
        "permutation": list(word.permutation()),
        "citation": "braid-closure-combinatorics",
    }


def _cmd_c_value(args):
    word = braid.parse_braid(args.braid)
    spec = ratlink.SatelliteSpec(pattern=word, framing_lk=parse_rational(args.lk))
    value = ratlink.c_value(spec, order=args.order)
    return EXIT_OK, {
        "command": "c-value",
        "braid": braid.format_braid(word),
        "framing_lk": args.lk,
        "order": args.order,
        "c": value,
        "citation": "satellite-boundary-constant",
    }


def _cmd_slice_bennequin(args):
    report = bounds.slice_bennequin_check(
        parse_rational(args.tb),
        parse_rational(args.rot),
        args.chi,
        args.p,
    )
    code = EXIT_OK if report.satisfied else EXIT_VIOLATED
    return code, {
        "command": "slice-bennequin",
        "report": formats.report_to_json(report),
        "citation": report.citation,
    }


# -- verify-paper ----------------------------------------------------------

def _paper_checks() -> list[dict]:
    """Every exact worked number from the source material, recomputed."""
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

    rp1 = paperdata.builtin("RP1_in_RP3")
    j = paperdata.builtin("J_example_6.2")
    t25 = paperdata.builtin("T(2,-5)")
    lift = paperdata.builtin("lift_8_20")

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
    verdict = paperdata.deep_slice_report(lift, 1)
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
        format_rational(paperdata.dual_knot_breadth(2)),
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
    maxa_prime = 3 * Fraction(2) + Fraction(3 * 2, 2) * Fraction(1, 3)
    check(
        "grading table entry (x3, C(maxa))",
        "exterior generator bigradings, row x3",
        ["0/1", format_rational(maxa_prime - 3 - 1)],
        [format_rational(table[3][0].a), format_rational(table[3][0].a_prime)],
    )
    check(
        "grading table entry (x4, C(maxa))",
        "exterior generator bigradings, row x4",
        ["0/1", format_rational(maxa_prime - 2 * 3)],
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


def _cmd_verify_paper(args):
    checks = _paper_checks()
    all_ok = all(c["ok"] for c in checks)
    doc = {
        "command": "verify-paper",
        "checks": checks,
        "all_ok": all_ok,
        "citation": "embedded-worked-example-suite",
    }
    return (EXIT_OK if all_ok else EXIT_VIOLATED), doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratslice",
        description="tau invariants and rational slice genus bounds "
        "from combinatorial data",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("tau", help="tau spectrum of a filtered complex")
    p.add_argument("--complex", required=True, help="FilteredComplex JSON file")
    p.add_argument("--cycle", help="generator ids forming a cycle (comma separated)")
    p.set_defaults(handler=_cmd_tau)

    p = sub.add_parser("grid-tau", help="tau of a knot from a grid diagram")
    p.add_argument("--grid", help="grid file: X row then O row")
    p.add_argument("--torus", nargs=2, type=int, metavar=("P", "Q"))
    p.add_argument("--hfk", action="store_true", help="include knot Floer ranks")
    p.set_defaults(handler=_cmd_grid_tau)

    p = sub.add_parser("cable-bound", help="two-sided cable tau estimate")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--tau", required=True, help="companion tau as a/b")
    p.add_argument("--lk", required=True, help="framing linking as a/b")
    p.set_defaults(handler=_cmd_cable_bound)

    p = sub.add_parser("satellite-bound", help="braided satellite tau estimate")
    p.add_argument("--braid", required=True, help='pattern braid "n: i1 i2 ..."')
    p.add_argument("--tau", required=True, help="companion tau as a/b")
    p.add_argument("--lk", required=True, help="framing linking as a/b")
    p.set_defaults(handler=_cmd_satellite_bound)

    p = sub.add_parser("genus-bound", help="rational slice genus lower bound")
    _add_spectrum_arguments(p)
    p.set_defaults(handler=_cmd_genus_bound)

    p = sub.add_parser(
        "seifert-framed-bound", help="bound for Seifert-framed slice surfaces"
    )
    _add_spectrum_arguments(p)
    p.add_argument("--p", type=int, required=True, help="covering degree")
    p.set_defaults(handler=_cmd_seifert_framed_bound)

    p = sub.add_parser("deep-slice", help="survivor deduction deep-slice verdict")
    p.add_argument("--polynomial", help="PoincarePolynomial JSON file")
    p.add_argument("--builtin", help="embedded polynomial name")
    p.add_argument("--target", type=int, default=1, help="ambient homology rank")
    p.set_defaults(handler=_cmd_deep_slice)

    p = sub.add_parser("braid-info", help="writhe, components, crossing counts")
    p.add_argument("--braid", required=True, help='braid word "n: i1 i2 ..."')
    p.set_defaults(handler=_cmd_braid_info)

    p = sub.add_parser("c-value", help="satellite boundary constant")
    p.add_argument("--braid", required=True, help='pattern braid "n: i1 i2 ..."')
    p.add_argument("--lk", required=True, help="framing linking as a/b")
    p.add_argument("--order", type=int, help="order of the companion class")
    p.set_defaults(handler=_cmd_c_value)

    p = sub.add_parser("slice-bennequin", help="rational slice-Bennequin check")
    p.add_argument("--tb", required=True, help="rational Thurston-Bennequin as a/b")
    p.add_argument("--rot", required=True, help="rational rotation as a/b")
    p.add_argument("--chi", type=int, required=True, help="Euler characteristic")
    p.add_argument("--p", type=int, required=True, help="covering degree")
    p.set_defaults(handler=_cmd_slice_bennequin)

    p = sub.add_parser("verify-paper", help="recompute every embedded worked number")
    p.set_defaults(handler=_cmd_verify_paper)

    return parser


_RATIONAL_FLAGS = {"--lk", "--tau", "--tau-max", "--tau-min", "--tb", "--rot"}


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join rational flags with negative values: --lk -1/2 -> --lk=-1/2.

    argparse reads "-1/2" as an option string, not a value; the documented
    space-separated form has to keep working for negative rationals.
    """
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _RATIONAL_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(list(argv)))
    try:
        code, doc = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(formats.dump_document(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
