"""Readers of the pipeline documents: complexes, spectra, framed knots,
polynomials and grid text.

Only the verbs that read a file (`tau`, `grid-tau --grid`, `deep-slice
--polynomial` and the `--knot` of the genus verbs) import this module,
so the verbs that only render a document compile none of it.  The
formats themselves are described in `ratslice.formats`.

A refusal names the first offending field.  Each record states its own
rules once, relative to itself ("order: expected a positive integer,
got 0"), a repeated differential target and an empty `per_class` among
them; the readers here check only JSON types and add the document path,
and `formats.named` does every prefixing, for document paths and CLI
flags alike.  A record checks its rules once all of its fields are read,
so a malformed value is named before a broken rule.

An integer field of a JSON document must be a JSON integer; an integer
in text (grid rows) must match [+-]?[0-9]+.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .formats import named
from .rationals import format_rational, parse_integer, parse_rational

# Record types are imported by the readers that build them, so a verb
# loads only the modules of what it reads.
if TYPE_CHECKING:
    from .complexes import FilteredComplex
    from .paperdata import PoincarePolynomial
    from .ratlink import FramedKnotData
    from .sums import TauSpectrum


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


_JSON_TYPES = {bool: "a boolean", dict: "an object"}


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
    from .complexes import MAX_GENERATORS, FilteredComplex

    entries = _need_list(doc, "generators")
    if len(entries) > MAX_GENERATORS:
        raise _fail(
            "generators", f"{len(entries)} entries, above the limit of "
            f"{MAX_GENERATORS} that tau --complex is measured to answer"
        )
    generators = []
    for i, entry in enumerate(entries):
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

def spectrum_from_json(doc: dict) -> TauSpectrum:
    from .sums import TauSpectrum

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
    data = FramedKnotData(
        order=_integer(_need(doc, "order", ""), "order"),
        slope=_integer(_need(doc, "slope", ""), "slope"),
        tau_spectrum=spectrum_from_json(_need(doc, "tau_spectrum", "")),
        d_invariants=d,
        floer_simple=_optional(doc.get("floer_simple"), bool, "floer_simple"),
    )
    _agree(doc, "lk", "", data.lk, "-slope/order")
    return data


# -- polynomials --------------------------------------------------------

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
