"""Compare one job's exit code and JSON document with its expected answer."""

from __future__ import annotations

import json
from collections import Counter

from .workloads import Job


def _fields(doc, expected, path: str = "") -> str:
    """'' when every expected field is present in doc with the same value."""
    for key, want in expected.items():
        where = f"{path}.{key}" if path else key
        if not isinstance(doc, dict) or key not in doc:
            return f"{where}: missing"
        got = doc[key]
        if isinstance(want, dict):
            reason = _fields(got, want, where)
            if reason:
                return reason
        elif got != want:
            return f"{where}: got {got!r}, expected {want!r}"
    return ""


def _grid(doc, expected) -> str:
    reason = _fields(doc, {k: v for k, v in expected.items() if k != "hfk_ranks"})
    if reason or "hfk_ranks" not in expected:
        return reason
    if doc.get("hfk_ranks") != expected["hfk_ranks"]:
        return f"hfk_ranks: got {doc.get('hfk_ranks')!r}, expected {expected['hfk_ranks']!r}"
    return ""


def _spectrum(doc, expected) -> str:
    spectrum = doc.get("spectrum")
    if not isinstance(spectrum, dict):
        return "spectrum: missing"
    want = {k: v for k, v in expected.items() if k != "histogram"}
    reason = _fields(spectrum, want, "spectrum")
    if reason or "histogram" not in expected:
        return reason
    got = dict(Counter(spectrum.get("per_class", {}).values()))
    if got != expected["histogram"]:
        return f"spectrum.per_class: tau histogram {got}, expected {expected['histogram']}"
    return ""


def _deep_slice(doc, expected) -> str:
    return _fields(doc.get("verdict"), expected, "verdict")


def _verify_paper(doc, expected) -> str:
    actual = {c.get("name"): c.get("actual") for c in doc.get("checks", [])}
    for name, want in expected.items():
        if name not in actual:
            return f"check {name!r}: missing"
        if actual[name] != want:
            return f"check {name!r}: got {actual[name]!r}, expected {want!r}"
    # c is invariant under twist normalization: all seven values agree.
    values = actual.get("c invariance under twist normalization")
    if not isinstance(values, list) or len(values) != 7 or len(set(values)) != 1:
        return f"c invariance: got {values!r}, expected seven equal values"
    return ""


CHECKERS = {
    "grid": _grid,
    "spectrum": _spectrum,
    "deep-slice": _deep_slice,
    "verify-paper": _verify_paper,
    "fields": _fields,
}


def verdict(job: Job, exit_code: int, stdout: str) -> str:
    """'' when the job's exit code and output match, else the reason."""
    if exit_code != job.exit_code:
        return f"exit code {exit_code}, expected {job.exit_code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON document"
    if not isinstance(doc, dict):
        return "stdout is not a JSON object"
    return CHECKERS[job.kind](doc, job.expected)
