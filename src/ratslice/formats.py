"""Stable file formats for the pipeline documents, and their writer.

All rationals are serialized as "a/b" strings in lowest terms, never as
floating point, so every document round-trips bit-exactly.

This module holds what every verb uses: `named`, which prefixes a
refusal with the document path or CLI flag it concerns, the renderers
of the output records (`*_to_json`) and write_document.  The readers of
the input documents live in `ratslice.readers`, which only the verbs
that read a file import.  write_document writes every document as
json.dumps(doc, sort_keys=True, indent=2) and a final newline, from
json's own encoder, a batch of chunks at a time.  The per_class listing
of a tau spectrum, which spectrum_to_json renders as a sums.BasisSums of
text without listing it, writes its whole object itself, a table at a
time, spliced in where the encoder meets it.  No command writes
complexes, framed knots, polynomials or grid text, so their writers are
test code (tests/helpers.py).

Formats:
* FilteredComplex: {"generators": [{"id", "maslov", "alexander", "spinc"}],
  "differential": {"id": ["id", ...]}}
* FramedKnotData mirrors its fields; the tau spectrum is inlined.
* Grid file: two whitespace-separated integer rows of equal length n
  (X row then O row).
* Braid text: "n: i1 i2 i3 ..." with signed integer letters.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Mapping
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, TextIO, TypeVar

from .rationals import format_rational

# Record types are imported where they are needed, so a verb that only
# renders documents loads none of their modules.
if TYPE_CHECKING:
    from .bounds import BoundReport, Interval
    from .paperdata import DeepSliceVerdict
    from .sums import BasisSums, TauSpectrum


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


# -- tau spectra --------------------------------------------------------

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


# -- verdicts, reports and intervals ------------------------------------

def verdict_to_json(verdict: DeepSliceVerdict) -> dict:
    return {
        "possible_tau": sorted(format_rational(v) for v in verdict.possible_tau),
        "deep_slice": verdict.deep_slice,
        "citation": verdict.citation,
    }


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


# Encoder chunks joined into one write: a write per chunk costs a system
# call each on an unbuffered stream, and a write of more holds more text
# at once.
_WRITE_BATCH = 8192


def write_document(doc: dict, stream: TextIO) -> None:
    """Write json.dumps(doc, sort_keys=True, indent=2) + "\n" to stream.

    The text is json's own encoder's, its chunks joined and written
    _WRITE_BATCH at a time, so the whole document is never held as one
    string.  A sums.BasisSums (a tau spectrum's per_class listing)
    writes its own object, json_lines: the text json.dumps writes for
    the dict of its items, each string of it one write, so the listing is
    never held whole; its values must be strings (TypeError).  The
    encoder hands it to default, which queues it and returns a stand-in
    "": the encoder's next chunk, which the listing replaces.  default
    refuses any other value as json.dumps does.
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
            for text in listings.pop().json_lines(newline):
                stream.write(text)
        elif len(batch) < _WRITE_BATCH:
            break
    stream.write("\n")
