"""Stable file formats for the pipeline documents.

All rationals are serialized as "a/b" strings in lowest terms, never as
floating point, so every document round-trips bit-exactly.

A refusal names the first offending field.  Each record states its own
rules once, relative to itself ("order: expected a positive integer,
got 0"), a repeated differential target and an empty `per_class` among
them; the parsers here check only JSON types and add the document path,
and `named` does every prefixing, for document paths and CLI flags
alike.  A record checks its rules once all of its fields are read, so a
malformed value is named before a broken rule.  write_document writes
every document as json.dumps(doc, sort_keys=True, indent=2) and a final
newline, from json's own encoder, a batch of chunks at a time.  The
per_class listing of a tau spectrum, which spectrum_to_json renders as
a sums.BasisSums of text without listing it, writes its own lines a
table at a time, spliced in where the encoder meets it.  No command
writes complexes, framed knots, polynomials or grid text, so their
writers are test code (tests/helpers.py).

Formats:
* FilteredComplex: {"generators": [{"id", "maslov", "alexander", "spinc"}],
  "differential": {"id": ["id", ...]}}
* FramedKnotData mirrors its fields; the tau spectrum is inlined.
* Grid file: two whitespace-separated integer rows of equal length n
  (X row then O row).
* Braid text: "n: i1 i2 i3 ..." with signed integer letters.

An integer field of a JSON document must be a JSON integer; an integer
in text (grid rows, braid words) must match [+-]?[0-9]+.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Mapping
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, TextIO, TypeVar

from .rationals import format_rational, parse_integer, parse_rational

# Record types are imported by the parsers that build them, so a verb that
# only renders documents loads none of their modules.
if TYPE_CHECKING:
    from .bounds import BoundReport, Interval, TauSpectrum
    from .complexes import FilteredComplex
    from .paperdata import DeepSliceVerdict, PoincarePolynomial
    from .ratlink import FramedKnotData
    from .sums import BasisSums


T = TypeVar("T")


def named(path: str, parse: Callable[..., T], *args: Any) -> T:
    """parse(*args), with path prefixed to any ValueError it raises.

    A path ending in "." leads a record's own field names
    ("tau_spectrum." + "tau_min: ..."); any other path names the value
    itself ("--braid" + ": " + "letter 5 out of range ...").
    """
    try:
        return parse(*args)
    except ValueError as exc:
        separator = "" if path.endswith(".") else ": "
        raise ValueError(f"{path}{separator}{exc}") from None


def _fail(field: str, message: str) -> ValueError:
    return ValueError(f"{field}: {message}")


def _need(doc: dict, field: str, context: str) -> Any:
    if not isinstance(doc, dict):
        raise _fail(context or "document", "expected an object")
    if field not in doc:
        raise _fail(f"{context}.{field}" if context else field, "missing field")
    return doc[field]


def _need_list(doc: dict, field: str) -> list:
    value = _need(doc, field, "")
    if not isinstance(value, list):
        raise _fail(field, "expected a list")
    return value


def _integer(value: Any, field: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _fail(field, f"expected an integer, got {value!r}")


def _string(value: Any, field: str) -> str:
    if isinstance(value, str):
        return value
    raise _fail(field, f"expected a string, got {value!r}")


_JSON_TYPES = {bool: "a boolean", dict: "an object", list: "a list"}


def _optional(value: Any, kind: type, field: str) -> Any:
    """An optional field's value: None (absent or null) or of type kind."""
    if value is None or isinstance(value, kind):
        return value
    raise _fail(field, f"expected {_JSON_TYPES[kind]}, got {value!r}")


def _rational(value: Any, field: str) -> Fraction:
    return named(field, parse_rational, value)


def _agree(doc: dict, field: str, context: str, derived: Fraction, rule: str) -> None:
    """A document's copy of a value its record derives must equal it."""
    path = f"{context}.{field}" if context else field
    written = _rational(_need(doc, field, context), path)
    if written != derived:
        got = f"got {format_rational(written)}"
        raise _fail(path, f"expected {rule} = {format_rational(derived)}, {got}")


# -- filtered complexes -------------------------------------------------

def complex_from_json(doc: dict) -> FilteredComplex:
    from .complexes import FilteredComplex

    generators = []
    for i, entry in enumerate(_need_list(doc, "generators")):
        ctx = f"generators[{i}]"
        generators.append(
            (
                _string(_need(entry, "id", ctx), f"{ctx}.id"),
                _rational(_need(entry, "maslov", ctx), f"{ctx}.maslov"),
                _rational(_need(entry, "alexander", ctx), f"{ctx}.alexander"),
                _string(_need(entry, "spinc", ctx), f"{ctx}.spinc"),
            )
        )
    differential = {}
    raw = doc.get("differential", {})
    if not isinstance(raw, dict):
        raise _fail("differential", "expected an object")
    for src, dsts in raw.items():
        field = f"differential[{src!r}]"
        if not isinstance(dsts, list):
            raise _fail(field, "expected a list of ids")
        for dst in dsts:
            _string(dst, field)
        differential[str(src)] = dsts
    return FilteredComplex(generators, differential)


# -- tau spectra and framed knots ---------------------------------------

def spectrum_to_json(spectrum: TauSpectrum) -> dict:
    from .sums import BasisSums

    per_class = spectrum.per_class
    if isinstance(per_class, BasisSums):
        # A listing of the same sums: each basis value is rendered once.
        listing: Mapping[str, str] = per_class.map_values(format_rational)
    else:
        listing = {cid: format_rational(v) for cid, v in per_class.items()}
    return {
        "per_class": listing,
        "tau_max": format_rational(spectrum.tau_max),
        "tau_min": format_rational(spectrum.tau_min),
        "breadth": format_rational(spectrum.breadth),
        "enumeration_complete": spectrum.enumeration_complete,
    }


def spectrum_from_json(doc: dict) -> TauSpectrum:
    from .bounds import TauSpectrum

    per_class_raw = _need(doc, "per_class", "tau_spectrum")
    if not isinstance(per_class_raw, Mapping):
        raise _fail("tau_spectrum.per_class", "expected a nonempty object")
    per_class = {
        str(cid): _rational(v, f"tau_spectrum.per_class[{cid!r}]")
        for cid, v in per_class_raw.items()
    }
    complete = _optional(
        doc.get("enumeration_complete"), bool, "tau_spectrum.enumeration_complete"
    )
    tau_max = _rational(_need(doc, "tau_max", "tau_spectrum"), "tau_spectrum.tau_max")
    tau_min = _rational(_need(doc, "tau_min", "tau_spectrum"), "tau_spectrum.tau_min")
    spectrum = named(
        "tau_spectrum.", TauSpectrum, per_class, tau_max, tau_min, complete is not False
    )
    _agree(doc, "breadth", "tau_spectrum", spectrum.breadth, "tau_max - tau_min")
    return spectrum


def framed_from_json(doc: dict) -> FramedKnotData:
    from .ratlink import FramedKnotData

    d_raw = _optional(doc.get("d_invariants"), dict, "d_invariants")
    d = (
        {str(k): _rational(v, f"d_invariants[{k!r}]") for k, v in d_raw.items()}
        if d_raw is not None
        else None
    )
    lf_raw = _optional(doc.get("linking_form"), list, "linking_form")
    lf = (
        tuple(_rational(v, f"linking_form[{i}]") for i, v in enumerate(lf_raw))
        if lf_raw is not None
        else None
    )
    data = FramedKnotData(
        order=_integer(_need(doc, "order", ""), "order"),
        slope=_integer(_need(doc, "slope", ""), "slope"),
        tau_spectrum=spectrum_from_json(_need(doc, "tau_spectrum", "")),
        d_invariants=d,
        linking_form=lf,
        floer_simple=_optional(doc.get("floer_simple"), bool, "floer_simple"),
    )
    _agree(doc, "lk", "", data.lk, "-slope/order")
    return data


# -- polynomials and verdicts -------------------------------------------

def poincare_from_json(doc: dict) -> PoincarePolynomial:
    from .paperdata import PoincarePolynomial

    terms = []
    for i, entry in enumerate(_need_list(doc, "terms")):
        ctx = f"terms[{i}]"
        terms.append((
            _rational(_need(entry, "maslov", ctx), f"{ctx}.maslov"),
            _rational(_need(entry, "alexander", ctx), f"{ctx}.alexander"),
            _integer(_need(entry, "rank", ctx), f"{ctx}.rank"),
        ))
    return PoincarePolynomial(
        terms=tuple(terms), spinc=_string(doc.get("spinc", "0"), "spinc")
    )


def verdict_to_json(verdict: DeepSliceVerdict) -> dict:
    return {
        "possible_tau": sorted(format_rational(v) for v in verdict.possible_tau),
        "deep_slice": verdict.deep_slice,
        "citation": verdict.citation,
    }


# -- reports and intervals ----------------------------------------------

def report_to_json(report: BoundReport) -> dict:
    return {
        "name": report.name,
        "bound_value": format_rational(report.bound_value),
        "direction": report.direction,
        "inputs": {
            k: format_rational(v) if isinstance(v, Fraction) else v
            for k, v in sorted(report.inputs.items())
        },
        "citation": report.citation,
        "satisfied": report.satisfied,
        "clamped_value": format_rational(report.clamped_value),
        "is_equality": report.is_equality,
        "anomaly": report.anomaly,
    }


def interval_to_json(interval: Interval) -> dict:
    return {"lo": format_rational(interval.lo), "hi": format_rational(interval.hi)}


# -- text formats --------------------------------------------------------

def grid_from_text(text: str):
    from .grid import GridDiagram

    rows = [line for line in text.splitlines() if line.strip()]
    if len(rows) != 2:
        raise ValueError(
            f"grid file must have exactly two nonempty rows, found {len(rows)}"
        )
    try:
        x = tuple(map(parse_integer, rows[0].split()))
        o = tuple(map(parse_integer, rows[1].split()))
    except ValueError:
        raise ValueError("grid rows must contain only integers") from None
    return GridDiagram(x, o)


# Encoder chunks joined into one write: a write per chunk costs a system
# call each on an unbuffered stream, and a write of more holds more text
# at once.
_WRITE_BATCH = 8192


def _write_listing(listing: BasisSums, newline: str, stream: TextIO) -> None:
    """Write listing as json.dumps writes the dict of its items on a line
    that newline (its line break and indent) begins."""
    lines = listing.json_lines("," + newline + "  ")
    first = next(lines, None)
    if first is None:
        stream.write("{}")
        return
    stream.write("{" + first[1:])  # no comma before the first item
    for text in lines:
        stream.write(text)
    stream.write(newline + "}")


def write_document(doc: dict, stream: TextIO) -> None:
    """Write json.dumps(doc, sort_keys=True, indent=2) + "\n" to stream.

    The text is json's own encoder's, its chunks joined and written
    _WRITE_BATCH at a time, so the whole document is never held as one
    string.  A sums.BasisSums (a tau spectrum's per_class listing) is
    written as json.dumps writes the dict of its items, one table of
    lines per write from its json_lines, so the listing is never held
    whole; its values must be strings (TypeError).  The encoder hands it
    to default, which queues it and returns a stand-in "": the encoder's
    next chunk, which the listing replaces.  default refuses any other
    value as json.dumps does.
    """
    listings: list[BasisSums] = []

    def default(value: Any) -> str:
        from .sums import BasisSums

        if not isinstance(value, BasisSums):
            return json.JSONEncoder.default(encoder, value)
        listings.append(value)
        return ""

    encoder = json.JSONEncoder(sort_keys=True, indent=2, default=default)
    chunks = encoder.iterencode(doc)
    # False at the stand-in, which takewhile then drops, ending the batch.
    before_listing = lambda chunk: not listings
    newline = "\n"
    while True:
        batch = list(itertools.islice(itertools.takewhile(before_listing, chunks), _WRITE_BATCH))
        if batch:
            stream.write("".join(batch))
            # A listing's line begins at the last line break written: the
            # stand-in's own separator (text holds none; json escapes it).
            newline = next((c[c.rindex("\n"):] for c in reversed(batch) if "\n" in c), newline)
        if listings:
            _write_listing(listings.pop(), newline, stream)
        elif len(batch) < _WRITE_BATCH:
            break
    stream.write("\n")
