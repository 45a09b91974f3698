"""Command-line surface: one JSON document per invocation on stdout.

Exit codes: 0 success, 1 input or usage error (first offending field
named on stderr) or a stdout that its reader closed before the document
was written, 2 violated check (an unsatisfied inequality check or a
failed embedded verification).  Output documents are deterministic:
byte identical across runs for identical inputs, and every document
carries a citation field naming the inequality used.

Each handler imports the ratslice modules it runs at the top of its
body, so a process compiles and runs only what its verb needs.  The
bound verbs load neither the grid nor the GF(2) or complex code, and
read only the two tau extremes: from `--tau-max/--tau-min` they build
no spectrum record and load no `ratslice.sums`.  `grid-tau` loads the
grid and GF(2) code but not the complex module; `deep-slice` loads
neither the bound evaluators nor the link, braid, grid, complex or GF(2)
code.  Only a verb that reads a file loads the document readers
(`ratslice.readers`).
The records are plain classes (`ratslice.record`), so no verb pays for
the standard dataclass module and its imports.  Modules are called as
attributes (`formats.write_document`), so patches on a module's
attributes reach the CLI.

The verbs are one table, `_VERBS`, which importing the module does not
turn into a parser: a run that names its verb builds that verb's
subparser alone, and any other run builds them all.  A process enters
through `run()` (`python -m ratslice.cli` and the `ratslice` script),
which returns main()'s exit code with the heap frozen, so the
interpreter's exit-time collections skip what start-up loaded.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction

from .rationals import format_rational, parse_integer, parse_rational

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATED = 2


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_json(path: str) -> dict:
    text = _read(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # Valid JSON past the interpreter's limits: an integer's digits
        # or the nesting depth.
        raise ValueError(f"{path}: {exc}") from None
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


def _tau_extremes(args) -> tuple[Fraction, Fraction]:
    """(tau_max, tau_min) of the one spectrum source that args name."""
    from . import formats

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
        from . import readers

        spectrum = readers.framed_from_json(_load_json(args.knot)).tau_spectrum
        return spectrum.tau_max, spectrum.tau_min
    if args.builtin is not None:
        from . import paperdata, ratlink

        data = formats.named("--builtin", paperdata.builtin, args.builtin)
        if not isinstance(data, ratlink.FramedKnotData):
            raise ValueError(f"--builtin: {args.builtin!r} is not a framed knot")
        return data.tau_spectrum.tau_max, data.tau_spectrum.tau_min
    if args.tau_max is None or args.tau_min is None:
        raise ValueError("--tau-max and --tau-min must be given together")
    hi = formats.named("--tau-max", parse_rational, args.tau_max)
    lo = formats.named("--tau-min", parse_rational, args.tau_min)
    if lo > hi:
        raise ValueError(f"--tau-min {args.tau_min} is above --tau-max {args.tau_max}")
    return hi, lo


# -- verb handlers: each returns (exit code, document) --------------------

def _cmd_tau(args):
    from . import complexes, formats, readers

    size = os.path.getsize(args.complex)
    if size > complexes.MAX_DOCUMENT_BYTES:
        raise ValueError(
            f"{args.complex}: {size} bytes, above the limit of "
            f"{complexes.MAX_DOCUMENT_BYTES} that tau --complex is measured to read"
        )
    complex_ = readers.complex_from_json(_load_json(args.complex))
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
        from . import readers

        diagram = formats.named(args.grid, readers.grid_from_text, _read(args.grid))
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
    w, comps = braid.writhe(word), braid.components(word.permutation())
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

    report = bounds.genus_lower_bound_breadth(*_tau_extremes(args))
    return EXIT_OK, {
        "report": formats.report_to_json(report),
        "citation": report.citation,
    }


def _cmd_seifert_framed_bound(args):
    from . import bounds, formats

    report = formats.named(
        "--p", bounds.seifert_framed_bound, *_tau_extremes(args), args.p
    )
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
        from . import readers

        poly = readers.poincare_from_json(_load_json(args.polynomial))
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
    permutation = word.permutation()
    k, l = braid.splitting_counts(word)
    return EXIT_OK, {
        "braid": braid.format_braid(word),
        "index": word.index,
        "length": len(word.word),
        "writhe": braid.writhe(word),
        "components": braid.components(permutation),
        "positive_crossings": k,
        "negative_crossings": l,
        "permutation": list(permutation),
        "citation": "braid-closure-combinatorics",
    }


def _cmd_c_value(args):
    from . import braid, formats, ratlink

    word = formats.named("--braid", braid.parse_braid, args.braid)
    lk = formats.named("--lk", parse_rational, args.lk)
    _check_positive("--order", args.order, "order")
    value = ratlink.c_value(word, lk, order=args.order)
    return EXIT_OK, {
        "braid": braid.format_braid(word),
        "framing_lk": format_rational(lk),
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


# Arguments that verbs share: (flag, the options add_argument takes).
_SPECTRUM_ARGUMENTS = (
    ("--knot", {"help": "FramedKnotData JSON file"}),
    ("--builtin", {"help": "embedded dataset name"}),
    ("--tau-max", {"help": "tau_max as a/b"}),
    ("--tau-min", {"help": "tau_min as a/b"}),
)
_BRAID = {"required": True, "help": 'pattern braid "n: i1 i2 ..."'}
_TAU = {"required": True, "help": "companion tau as a/b"}
_LK = {"required": True, "help": "framing linking as a/b"}

# verb -> (handler, help, arguments).  Data, so that importing the module
# builds no parser, and a run builds only its own verb's subparser.
_VERBS = {
    "tau": (_cmd_tau, "tau spectrum of a filtered complex", (
        ("--complex", {"required": True, "help": "FilteredComplex JSON file"}),
        ("--cycle", {"help": "generator ids forming a cycle (comma separated)"}),
    )),
    "grid-tau": (_cmd_grid_tau, "tau of a knot from a grid diagram", (
        ("--grid", {"help": "grid file: X row then O row"}),
        ("--torus", {"nargs": 2, "type": _integer_flag, "metavar": ("P", "Q")}),
        ("--hfk", {"action": "store_true", "help": "include knot Floer ranks"}),
    )),
    "cable-bound": (_cmd_cable_bound, "two-sided cable tau estimate", (
        ("--p", {"type": _integer_flag, "required": True}),
        ("--tau", _TAU),
        ("--lk", _LK),
    )),
    "satellite-bound": (_cmd_satellite_bound, "braided satellite tau estimate", (
        ("--braid", _BRAID),
        ("--tau", _TAU),
        ("--lk", _LK),
    )),
    "genus-bound": (
        _cmd_genus_bound, "rational slice genus lower bound", _SPECTRUM_ARGUMENTS
    ),
    "seifert-framed-bound": (
        _cmd_seifert_framed_bound, "bound for Seifert-framed slice surfaces",
        _SPECTRUM_ARGUMENTS + (
            ("--p", {"type": _integer_flag, "required": True, "help": "covering degree"}),
        ),
    ),
    "deep-slice": (_cmd_deep_slice, "survivor deduction deep-slice verdict", (
        ("--polynomial", {"help": "PoincarePolynomial JSON file"}),
        ("--builtin", {"help": "embedded polynomial name"}),
        ("--target", {"type": _integer_flag, "default": 1, "help": "ambient homology rank"}),
    )),
    "braid-info": (_cmd_braid_info, "writhe, components, crossing counts", (
        ("--braid", {"required": True, "help": 'braid word "n: i1 i2 ..."'}),
    )),
    "c-value": (_cmd_c_value, "satellite boundary constant", (
        ("--braid", _BRAID),
        ("--lk", _LK),
        ("--order", {"type": _integer_flag, "help": "order of the companion class"}),
    )),
    "slice-bennequin": (_cmd_slice_bennequin, "rational slice-Bennequin check", (
        ("--tb", {"required": True, "help": "rational Thurston-Bennequin as a/b"}),
        ("--rot", {"required": True, "help": "rational rotation as a/b"}),
        ("--chi", {"type": _integer_flag, "required": True, "help": "Euler characteristic"}),
        ("--p", {"type": _integer_flag, "required": True, "help": "covering degree"}),
    )),
    "verify-paper": (_cmd_verify_paper, "recompute every embedded worked number", ()),
}


def build_parser(verbs=_VERBS) -> argparse.ArgumentParser:
    """The parser with a subparser for each of verbs, all by default."""
    parser = _Parser(
        prog="ratslice",
        description="tau invariants and rational slice genus bounds "
        "from combinatorial data",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in verbs:
        handler, help_, arguments = _VERBS[verb]
        p = sub.add_parser(verb, help=help_)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


_RATIONAL_FLAGS = {"--lk", "--tau", "--tau-max", "--tau-min", "--tb", "--rot"}


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join rational flags with negative values: --lk -1/2 -> --lk=-1/2.

    argparse reads "-1/2" as an option string, not a value; the documented
    space-separated form has to keep working for negative rationals.  A
    token that starts with "--" is the next option, left to argparse,
    which then refuses the flag as missing its value.
    """
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        negative = value.startswith("-") and not value.startswith("--")
        if token in _RATIONAL_FLAGS and negative:
            out.append(f"{token}={value}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv=None) -> int:
    from . import formats

    if argv is None:
        argv = sys.argv[1:]
    argv = _normalize_argv(list(argv))
    # A run that names its verb builds that verb's subparser alone.  Any
    # argument it leaves is refused by the parser of every verb, whose
    # usage line lists them all, as for no verb or an unknown one.
    verbs = argv[:1] if argv and argv[0] in _VERBS else _VERBS
    args, extra = build_parser(verbs).parse_known_args(argv)
    if extra:
        args = build_parser().parse_args(argv)
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


def run() -> int:
    """main() for a process that ends when it returns.

    The document is flushed, then gc.freeze() moves every object into
    the permanent generation, so the collections the interpreter makes
    at exit do not walk the whole start-up heap (about 11k objects, most
    of them loaded by `site`).  atexit handlers, stream flushes and
    module teardown still run.  main() itself never freezes: tests call
    it in process.
    """
    code = main()
    sys.stdout.flush()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
