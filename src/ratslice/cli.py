"""Command-line surface: one JSON document per invocation on stdout.

Exit codes: 0 success, 1 input or usage error (first offending field
named on stderr) or a stdout that its reader closed before the document
was written, 2 violated check (an unsatisfied inequality check or a
failed embedded verification).  Output documents are deterministic:
byte identical across runs for identical inputs, and every document
carries a citation field naming the inequality used.

Each handler imports the ratslice modules it runs at the top of its
body, so a process compiles and runs only what its verb needs.  The
bound verbs, `--tau-max/--tau-min` included, load neither the grid nor
the GF(2) or complex code; `grid-tau` loads the grid and GF(2) code but
not the complex module; `deep-slice` loads neither the bound evaluators
nor the link, braid or grid code.  The records are plain classes
(`ratslice.record`), so no verb pays for the standard dataclass module
and its imports.  Modules are called as attributes
(`formats.write_document`), so patches on a module's attributes reach
the CLI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .rationals import format_rational, parse_integer, parse_rational

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


def _integer_flag(text: str) -> int:
    """argparse type of the integer flags: parse_integer's grammar,
    refused in the words argparse uses for int ("invalid int value")."""
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


# For --target and --order: named() would prefix their evaluators' other refusals.
def _check_positive(flag: str, value: int | None, what: str) -> None:
    if value is not None and value < 1:
        raise ValueError(f"{flag}: {what} must be >= 1")


def _spectrum_from_args(args) -> sums.TauSpectrum:
    from . import formats, sums

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
        from . import paperdata, ratlink

        data = formats.named("--builtin", paperdata.builtin, args.builtin)
        if not isinstance(data, ratlink.FramedKnotData):
            raise ValueError(f"--builtin: {args.builtin!r} is not a framed knot")
        return data.tau_spectrum
    if args.tau_max is None or args.tau_min is None:
        raise ValueError("--tau-max and --tau-min must be given together")
    hi = formats.named("--tau-max", parse_rational, args.tau_max)
    lo = formats.named("--tau-min", parse_rational, args.tau_min)
    # Checked here, not by TauSpectrum: the message names both flags.
    if lo > hi:
        raise ValueError(f"--tau-min {args.tau_min} is above --tau-max {args.tau_max}")
    per_class = {"max": hi} if hi == lo else {"max": hi, "min": lo}
    return sums.TauSpectrum(
        per_class=per_class, tau_max=hi, tau_min=lo, enumeration_complete=False
    )


def _add_spectrum_arguments(parser) -> None:
    parser.add_argument("--knot", help="FramedKnotData JSON file")
    parser.add_argument("--builtin", help="embedded dataset name")
    parser.add_argument("--tau-max", help="tau_max as a/b")
    parser.add_argument("--tau-min", help="tau_min as a/b")


# -- verb handlers: each returns (exit code, document) --------------------

def _cmd_tau(args):
    from . import complexes, formats

    complex_ = formats.complex_from_json(_load_json(args.complex))
    doc = {"citation": "tau-from-filtered-complex"}
    if args.cycle is not None:
        ids = args.cycle.replace(",", " ").split()
        unknown = [gid for gid in ids if gid not in complex_.index]
        if unknown:
            raise ValueError(f"--cycle: unknown generator id {unknown[0]!r}")
        if not ids or len(set(ids)) < len(ids):
            raise ValueError(
                f"--cycle: expected distinct generator ids, got {args.cycle!r}"
            )
        bits = sum(1 << complex_.index[gid] for gid in ids)
        tau = formats.named("--cycle", complexes.tau, complex_, bits)
        doc["tau"] = format_rational(tau)
        doc["cycle"] = sorted(ids)
    else:
        doc["spectrum"] = formats.spectrum_to_json(complexes.tau_spectrum(complex_))
    return EXIT_OK, doc


def _cmd_grid_tau(args):
    from . import formats, grid

    if (args.grid is None) == (args.torus is None):
        raise ValueError("specify exactly one of --grid FILE or --torus p q")
    if args.torus is not None:
        p, q = args.torus
        diagram = formats.named("--torus", grid.torus_knot_grid, p, q)
        source = f"torus({p},{q})"
    else:
        diagram = formats.named(args.grid, formats.grid_from_text, _read(args.grid))
        formats.named(args.grid, grid.check_knot_grid, diagram)
        source = args.grid
    if args.hfk:
        formats.named("--hfk", grid.check_hfk_size, diagram)
    doc = {
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
    from . import bounds, formats

    tau = formats.named("--tau", parse_rational, args.tau)
    lk = formats.named("--lk", parse_rational, args.lk)
    interval = formats.named("--p", bounds.cable_tau_interval, args.p, tau, lk)
    return EXIT_OK, {
        "p": args.p,
        "tau": format_rational(tau),
        "lk": format_rational(lk),
        "tau_interval": formats.interval_to_json(interval),
        "citation": "cable-tau-two-sided-estimate",
    }


def _cmd_satellite_bound(args):
    from . import bounds, braid, formats

    word = formats.named("--braid", braid.parse_braid, args.braid)
    tau = formats.named("--tau", parse_rational, args.tau)
    lk = formats.named("--lk", parse_rational, args.lk)
    w, comps = braid.writhe(word), braid.components(word)
    interval = bounds.bp_tau_interval(word.index, tau, lk, w, comps)
    return EXIT_OK, {
        "braid": braid.format_braid(word),
        "writhe": w,
        "components": comps,
        "tau_interval": formats.interval_to_json(interval),
        "citation": "braided-satellite-tau-estimate",
    }


def _cmd_genus_bound(args):
    from . import bounds, formats

    spectrum = _spectrum_from_args(args)
    report = bounds.genus_lower_bound_breadth(spectrum)
    return EXIT_OK, {
        "report": formats.report_to_json(report),
        "citation": report.citation,
    }


def _cmd_seifert_framed_bound(args):
    from . import bounds, formats

    spectrum = _spectrum_from_args(args)
    report = formats.named("--p", bounds.seifert_framed_bound, spectrum, args.p)
    return EXIT_OK, {
        "report": formats.report_to_json(report),
        "citation": report.citation,
    }


def _cmd_deep_slice(args):
    from . import formats, paperdata

    if (args.polynomial is None) == (args.builtin is None):
        raise ValueError("specify exactly one of --polynomial FILE or --builtin NAME")
    if args.builtin is not None:
        poly = formats.named("--builtin", paperdata.builtin, args.builtin)
        if not isinstance(poly, paperdata.PoincarePolynomial):
            raise ValueError(f"--builtin: {args.builtin!r} is not a Poincare polynomial")
    else:
        poly = formats.poincare_from_json(_load_json(args.polynomial))
    _check_positive("--target", args.target, "ambient homology rank")
    verdict = paperdata.deep_slice_report(poly, args.target)
    return EXIT_OK, {
        "spinc": poly.spinc,
        "target_rank": args.target,
        "verdict": formats.verdict_to_json(verdict),
        "citation": verdict.citation,
    }


def _cmd_braid_info(args):
    from . import braid, formats

    word = formats.named("--braid", braid.parse_braid, args.braid)
    k, l = braid.splitting_counts(word)
    return EXIT_OK, {
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
    from . import braid, formats, ratlink

    word = formats.named("--braid", braid.parse_braid, args.braid)
    lk = formats.named("--lk", parse_rational, args.lk)
    spec = ratlink.SatelliteSpec(pattern=word, framing_lk=lk)
    _check_positive("--order", args.order, "order")
    value = ratlink.c_value(spec, order=args.order)
    return EXIT_OK, {
        "braid": braid.format_braid(word),
        "framing_lk": format_rational(spec.framing_lk),
        "order": args.order,
        "c": value,
        "citation": "satellite-boundary-constant",
    }


def _cmd_slice_bennequin(args):
    from . import bounds, formats

    tb = formats.named("--tb", parse_rational, args.tb)
    rot = formats.named("--rot", parse_rational, args.rot)
    report = formats.named("--p", bounds.slice_bennequin_check, tb, rot, args.chi, args.p)
    code = EXIT_OK if report.satisfied else EXIT_VIOLATED
    return code, {
        "report": formats.report_to_json(report),
        "citation": report.citation,
    }


def _cmd_verify_paper(args):
    from . import paperdata

    checks = paperdata.paper_checks()
    all_ok = all(c["ok"] for c in checks)
    doc = {
        "checks": checks,
        "all_ok": all_ok,
        "citation": "embedded-worked-example-suite",
    }
    return (EXIT_OK if all_ok else EXIT_VIOLATED), doc


class _Parser(argparse.ArgumentParser):
    # A usage error exits EXIT_INPUT: argparse's 2 is EXIT_VIOLATED here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--torus", nargs=2, type=_integer_flag, metavar=("P", "Q"))
    p.add_argument("--hfk", action="store_true", help="include knot Floer ranks")
    p.set_defaults(handler=_cmd_grid_tau)

    p = sub.add_parser("cable-bound", help="two-sided cable tau estimate")
    p.add_argument("--p", type=_integer_flag, required=True)
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
    p.add_argument("--p", type=_integer_flag, required=True, help="covering degree")
    p.set_defaults(handler=_cmd_seifert_framed_bound)

    p = sub.add_parser("deep-slice", help="survivor deduction deep-slice verdict")
    p.add_argument("--polynomial", help="PoincarePolynomial JSON file")
    p.add_argument("--builtin", help="embedded polynomial name")
    p.add_argument("--target", type=_integer_flag, default=1, help="ambient homology rank")
    p.set_defaults(handler=_cmd_deep_slice)

    p = sub.add_parser("braid-info", help="writhe, components, crossing counts")
    p.add_argument("--braid", required=True, help='braid word "n: i1 i2 ..."')
    p.set_defaults(handler=_cmd_braid_info)

    p = sub.add_parser("c-value", help="satellite boundary constant")
    p.add_argument("--braid", required=True, help='pattern braid "n: i1 i2 ..."')
    p.add_argument("--lk", required=True, help="framing linking as a/b")
    p.add_argument("--order", type=_integer_flag, help="order of the companion class")
    p.set_defaults(handler=_cmd_c_value)

    p = sub.add_parser("slice-bennequin", help="rational slice-Bennequin check")
    p.add_argument("--tb", required=True, help="rational Thurston-Bennequin as a/b")
    p.add_argument("--rot", required=True, help="rational rotation as a/b")
    p.add_argument("--chi", type=_integer_flag, required=True, help="Euler characteristic")
    p.add_argument("--p", type=_integer_flag, required=True, help="covering degree")
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
    from . import formats

    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(list(argv)))
    try:
        code, doc = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    doc["command"] = args.verb
    try:
        formats.write_document(doc, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: point fd 1 at devnull, so that the
        # interpreter's final flush of what is buffered stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
