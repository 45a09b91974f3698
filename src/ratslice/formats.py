"""Stable file formats for the pipeline documents.

All rationals are serialized as "a/b" strings in lowest terms, never as
floating point, so every document round-trips bit-exactly.  Parsers name
the first offending field in their error messages.

Formats:
* FilteredComplex: {"generators": [{"id", "maslov", "alexander", "spinc"}],
  "differential": {"id": ["id", ...]}}
* FramedKnotData mirrors its fields; the tau spectrum is inlined.
* Grid file: two whitespace-separated integer rows of equal length n
  (X row then O row).
* Braid text: "n: i1 i2 i3 ..." with signed integer letters.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .bounds import BoundReport, Interval
from .complexes import FilteredComplex, TauSpectrum
from .paperdata import DeepSliceVerdict, PoincarePolynomial
from .rationals import format_rational, parse_rational
from .ratlink import FramedKnotData


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
    if not isinstance(value, (bool, float)):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise _fail(field, f"expected an integer, got {value!r}")


_JSON_TYPES = {bool: "a boolean", dict: "an object", list: "a list"}


def _optional(value: Any, kind: type, field: str) -> Any:
    """An optional field's value: None (absent or null) or of type kind."""
    if value is None or isinstance(value, kind):
        return value
    raise _fail(field, f"expected {_JSON_TYPES[kind]}, got {value!r}")


def _rational(value: Any, field: str) -> Fraction:
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise _fail(field, str(exc)) from None


# -- filtered complexes -------------------------------------------------

def complex_to_json(complex_: FilteredComplex) -> dict:
    return {
        "generators": [
            {
                "id": g.id,
                "maslov": format_rational(g.maslov),
                "alexander": format_rational(g.alexander),
                "spinc": g.spinc,
            }
            for g in complex_.generators
        ],
        "differential": {
            src: sorted(dsts)
            for src, dsts in sorted(complex_.differential.items())
        },
    }


def complex_from_json(doc: dict) -> FilteredComplex:
    generators = []
    for i, entry in enumerate(_need_list(doc, "generators")):
        ctx = f"generators[{i}]"
        generators.append(
            (
                str(_need(entry, "id", ctx)),
                _rational(_need(entry, "maslov", ctx), f"{ctx}.maslov"),
                _rational(_need(entry, "alexander", ctx), f"{ctx}.alexander"),
                str(_need(entry, "spinc", ctx)),
            )
        )
    differential = {}
    raw = doc.get("differential", {})
    if not isinstance(raw, dict):
        raise _fail("differential", "expected an object")
    for src, dsts in raw.items():
        if not isinstance(dsts, list):
            raise _fail(f"differential[{src!r}]", "expected a list of ids")
        differential[str(src)] = frozenset(str(d) for d in dsts)
    return FilteredComplex(generators, differential)


# -- tau spectra and framed knots ---------------------------------------

def spectrum_to_json(spectrum: TauSpectrum) -> dict:
    return {
        "per_class": {
            cid: format_rational(v) for cid, v in sorted(spectrum.per_class.items())
        },
        "tau_max": format_rational(spectrum.tau_max),
        "tau_min": format_rational(spectrum.tau_min),
        "breadth": format_rational(spectrum.breadth),
        "enumeration_complete": spectrum.enumeration_complete,
    }


def spectrum_from_json(doc: dict, context: str = "tau_spectrum") -> TauSpectrum:
    per_class_raw = _need(doc, "per_class", context)
    if not isinstance(per_class_raw, dict) or not per_class_raw:
        raise _fail(f"{context}.per_class", "expected a nonempty object")
    per_class = {
        str(cid): _rational(v, f"{context}.per_class[{cid!r}]")
        for cid, v in per_class_raw.items()
    }
    complete = _optional(
        doc.get("enumeration_complete"), bool, f"{context}.enumeration_complete"
    )
    return TauSpectrum(
        per_class=per_class,
        tau_max=_rational(_need(doc, "tau_max", context), f"{context}.tau_max"),
        tau_min=_rational(_need(doc, "tau_min", context), f"{context}.tau_min"),
        breadth=_rational(_need(doc, "breadth", context), f"{context}.breadth"),
        enumeration_complete=complete is not False,
    )


def framed_to_json(data: FramedKnotData) -> dict:
    doc = {
        "order": data.order,
        "slope": data.slope,
        "lk": format_rational(data.lk),
        "tau_spectrum": spectrum_to_json(data.tau_spectrum),
    }
    doc["d_invariants"] = (
        {label: format_rational(v) for label, v in sorted(data.d_invariants.items())}
        if data.d_invariants is not None
        else None
    )
    doc["linking_form"] = (
        [format_rational(v) for v in data.linking_form]
        if data.linking_form is not None
        else None
    )
    doc["floer_simple"] = data.floer_simple
    return doc


def framed_from_json(doc: dict) -> FramedKnotData:
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
    return FramedKnotData(
        order=_integer(_need(doc, "order", ""), "order"),
        slope=_integer(_need(doc, "slope", ""), "slope"),
        lk=_rational(_need(doc, "lk", ""), "lk"),
        tau_spectrum=spectrum_from_json(_need(doc, "tau_spectrum", "")),
        d_invariants=d,
        linking_form=lf,
        floer_simple=_optional(doc.get("floer_simple"), bool, "floer_simple"),
    )


# -- polynomials and verdicts -------------------------------------------

def poincare_to_json(poly: PoincarePolynomial) -> dict:
    return {
        "terms": [
            {
                "maslov": format_rational(m),
                "alexander": format_rational(a),
                "rank": r,
            }
            for m, a, r in poly.terms
        ],
        "spinc": poly.spinc,
    }


def poincare_from_json(doc: dict) -> PoincarePolynomial:
    terms = []
    for i, entry in enumerate(_need_list(doc, "terms")):
        ctx = f"terms[{i}]"
        terms.append(
            (
                _rational(_need(entry, "maslov", ctx), f"{ctx}.maslov"),
                _rational(_need(entry, "alexander", ctx), f"{ctx}.alexander"),
                _integer(_need(entry, "rank", ctx), f"{ctx}.rank"),
            )
        )
    return PoincarePolynomial(terms=tuple(terms), spinc=str(doc.get("spinc", "0")))


def verdict_to_json(verdict: DeepSliceVerdict) -> dict:
    return {
        "possible_tau": sorted(format_rational(v) for v in verdict.possible_tau),
        "deep_slice": verdict.deep_slice,
        "citation": verdict.citation,
    }


# -- reports and intervals ----------------------------------------------

def _encode_value(value: Any) -> Any:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {k: _encode_value(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    return value


def report_to_json(report: BoundReport) -> dict:
    return {
        "name": report.name,
        "bound_value": format_rational(report.bound_value),
        "direction": report.direction,
        "inputs": _encode_value(report.inputs),
        "citation": report.citation,
        "satisfied": report.satisfied,
        "clamped_value": (
            format_rational(report.clamped_value)
            if report.clamped_value is not None
            else None
        ),
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
        x = tuple(int(tok) for tok in rows[0].split())
        o = tuple(int(tok) for tok in rows[1].split())
    except ValueError:
        raise ValueError("grid rows must contain only integers") from None
    return GridDiagram(x, o)


def grid_to_text(grid) -> str:
    return (
        " ".join(str(v) for v in grid.x_markings)
        + "\n"
        + " ".join(str(v) for v in grid.o_markings)
        + "\n"
    )


def dump_document(doc: dict) -> str:
    """Deterministic document rendering: sorted keys, fixed separators."""
    return json.dumps(doc, sort_keys=True, indent=2)
