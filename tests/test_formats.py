"""Document codecs: bit-exact round trips and named-field errors."""

import io
import json
import random
import time
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, strategies as st

from ratslice import sums
from ratslice.complexes import tau_spectrum
from ratslice.formats import _WRITE_BATCH, spectrum_to_json, write_document
from ratslice.paperdata import builtin
from ratslice.rationals import format_rational, parse_integer, parse_rational
from ratslice.readers import (
    complex_from_json,
    framed_from_json,
    grid_from_text,
    poincare_from_json,
    spectrum_from_json,
)

from helpers import (
    complex_to_json,
    framed_to_json,
    grid_to_text,
    poincare_to_json,
    random_complex,
    total_homology_rank,
)

F = Fraction


def test_rational_formatting():
    assert format_rational(F(-7, 4)) == "-7/4"
    assert format_rational(F(5)) == "5/1"
    assert format_rational(F(2, 4)) == "1/2"
    assert parse_rational("-7/4") == F(-7, 4)
    assert parse_rational("3") == 3
    with pytest.raises(ValueError, match="malformed"):
        parse_rational("1/0")
    with pytest.raises(ValueError, match="malformed"):
        parse_rational("0.5x")
    assert parse_rational(" +6/4 ") == F(3, 2)
    assert parse_rational(-3) == -3


@pytest.mark.parametrize(
    "text", ["1.5", "1e3", "1_000", "1e6000000", "1/0", "1/-2", "1 / 2", "", True]
)
def test_rational_grammar_refuses_other_forms_at_once(text):
    # Fraction itself would read the first four; "1e6000000" alone takes
    # it about 5 s and yields a number too long to print.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="rational"):
        parse_rational(text)
    assert time.perf_counter() - start < 1.0


def test_integer_grammar():
    assert parse_integer(" +7 ") == 7
    assert parse_integer("-0") == 0
    assert parse_integer("-12") == -12


@pytest.mark.parametrize("text", ["1_0", "\u0661", "1.0", "1e3", "0x1", "", "+", "1 2"])
def test_integer_grammar_refuses_other_forms(text):
    # int itself would read the first two.
    with pytest.raises(ValueError, match="malformed integer"):
        parse_integer(text)


def test_complex_roundtrip_random():
    rng = random.Random(17)
    for _ in range(20):
        c = random_complex(rng)
        doc = complex_to_json(c)
        back = complex_from_json(doc)
        assert complex_to_json(back) == doc
        assert back.generators == c.generators
        assert back.differential == c.differential


def test_complex_parse_names_offending_field():
    with pytest.raises(ValueError, match=r"generators\[0\].maslov"):
        complex_from_json(
            {
                "generators": [
                    {"id": "x", "maslov": "a/b", "alexander": "0/1", "spinc": "0"}
                ],
                "differential": {},
            }
        )
    with pytest.raises(ValueError, match=r"generators\[0\].alexander"):
        complex_from_json(
            {"generators": [{"id": "x", "maslov": "0/1", "spinc": "0"}]}
        )


def test_framed_roundtrip_builtins():
    for name in ("RP1_in_RP3", "T(2,-5)", "J_example_6.2"):
        data = builtin(name)
        doc = framed_to_json(data)
        back = framed_from_json(doc)
        assert framed_to_json(back) == doc
        assert back == data


def test_framed_document_lk_must_equal_minus_slope_over_order():
    doc = framed_to_json(builtin("J_example_6.2"))
    assert doc["lk"] == "-1/2"
    doc["lk"] = "-2/4"  # the same value, not in lowest terms
    assert framed_from_json(doc).lk == F(-1, 2)
    doc["lk"] = "1/2"
    with pytest.raises(
        ValueError, match=r"^lk: expected -slope/order = -1/2, got 1/2$"
    ):
        framed_from_json(doc)
    del doc["lk"]
    with pytest.raises(ValueError, match=r"^lk: missing field$"):
        framed_from_json(doc)


def test_spectrum_roundtrip():
    s = builtin("RP1_in_RP3").tau_spectrum
    assert spectrum_from_json(spectrum_to_json(s)) == s


def test_poincare_roundtrip():
    poly = builtin("lift_8_20")
    assert poincare_from_json(poincare_to_json(poly)) == poly


def test_poincare_parse_error_names_field():
    with pytest.raises(ValueError, match=r"terms\[1\].alexander"):
        poincare_from_json(
            {
                "terms": [
                    {"maslov": "0/1", "alexander": "0/1", "rank": 1},
                    {"maslov": "1/1", "alexander": "oops", "rank": 1},
                ]
            }
        )


def test_grid_text_roundtrip():
    from ratslice.grid import torus_knot_grid

    g = torus_knot_grid(2, -5)
    assert grid_from_text(grid_to_text(g)) == g
    with pytest.raises(ValueError, match="two nonempty rows"):
        grid_from_text("0 1\n")
    with pytest.raises(ValueError, match="integers"):
        grid_from_text("0 x\n1 0\n")


def test_spectrum_roundtrip_full_enumeration():
    rng = random.Random(31)
    checked = 0
    while checked < 10:
        c = random_complex(rng, max_generators=12)
        if total_homology_rank(c) < 3:
            continue
        s = tau_spectrum(c)
        doc = spectrum_to_json(s)
        back = spectrum_from_json(doc)
        assert back == s
        assert list(back.per_class) == sorted(s.per_class)
        assert spectrum_to_json(back) == doc
        checked += 1


def test_spectrum_parse_error_names_first_bad_class():
    doc = {
        "per_class": {"b0": "1/2", "b1": "1/2", "b0+b1": "oops", "b2": "oops"},
        "tau_max": "1/2", "tau_min": "1/2", "breadth": "0/1",
    }
    with pytest.raises(ValueError, match=r"^tau_spectrum\.per_class\['b0\+b1'\]: "):
        spectrum_from_json(doc)
    # True equals 1 but is refused.
    doc["per_class"] = {"b0": 1, "b1": True}
    with pytest.raises(ValueError, match=r"per_class\['b1'\]"):
        spectrum_from_json(doc)


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0
        self.longest = 0
        self.most_lines = 0

    def write(self, text):
        self.writes += 1
        self.longest = max(self.longest, len(text))
        self.most_lines = max(self.most_lines, text.count("\n"))
        return super().write(text)


def test_write_document_streams_json_dumps_in_batches():
    # Larger than one batch of encoder chunks, with nesting, rationals
    # and non-ASCII text.
    doc = {
        "command": "tau",
        "spectrum": {f"g{i}": {"tau": f"{i}/3", "ids": [i, -i, None, True]} for i in range(3000)},
        "note": "\u00e9\u2202",
    }
    chunks = sum(1 for _ in json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc))
    assert chunks > 8192
    stream = _CountingStream()
    write_document(doc, stream)
    assert stream.getvalue() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert chunks // _WRITE_BATCH <= stream.writes <= chunks / 8192 + 2


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.floats()
    | st.text()
)
_JSON_KEYS = st.text() | st.sampled_from(['"', "\\", "\x00", "\x1f", "\u00e9", "\U0001f600"])
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda children: (
        st.lists(children)
        | st.dictionaries(_JSON_KEYS, children)
        | st.dictionaries(_JSON_KEYS, st.text())
    ),
    max_leaves=40,
)


@given(_JSON_TREES)
@example({"a": [True, 1, 1.0, None, 10**40, -0.0], "b": {}, "c": [], "d": [{"x": "y"}, {}]})
@example({"q\"\\\n\u00e9": "\x00\x7f\u2028\U0001f600", "p": "\t"})
@example({True: 1, 2: [], 0.5: "x"})
@example("top-level text")
def test_write_document_is_json_dumps(doc):
    stream = io.StringIO()
    write_document(doc, stream)
    assert stream.getvalue() == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc",
    [{"a": F(1, 2)}, {"a": "b", "c": F(1, 2)}, {"a": [1, F(1, 2)]}, {F(1, 2): "a"}, F(1, 2)],
)
def test_write_document_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc)
    with pytest.raises(TypeError):
        write_document(doc, io.StringIO())


_BASES = st.integers(min_value=0, max_value=12).flatmap(
    lambda rank: st.tuples(
        st.permutations(range(rank)), st.lists(st.text(), min_size=rank, max_size=rank)
    )
)


@pytest.mark.parametrize("tail", [sums.SUM_TAIL, 1, 2])
@given(basis=_BASES, other=_JSON_TREES)
@example(basis=([], []), other=None)
@example(basis=([1, 0, 2], ["0/1", "-1/2", "\u00e9\"\n"]), other=[])
def test_write_document_writes_basis_sums_as_their_dict(tail, basis, other):
    # The default tail tables every sum up to rank 10; with the tail at 1
    # or 2 the listing walks its first indices and visits tables below.
    births, values = basis
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sums, "SUM_TAIL", tail)
        listing = sums.BasisSums(births, values)
    items = dict(listing)
    doc = {"spectrum": {"per_class": listing}, "listings": [listing, other]}
    as_dicts = {"spectrum": {"per_class": items}, "listings": [items, other]}
    stream = io.StringIO()
    write_document(doc, stream)
    assert stream.getvalue() == json.dumps(as_dicts, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("tail", [sums.SUM_TAIL, 1, 2])
@given(basis=_BASES, depth=st.integers(min_value=0, max_value=3))
@example(basis=([], []), depth=0)
@example(basis=([], []), depth=2)
@example(basis=([2, 0, 1], ["0/1", "-1/2", "\u00e9\"\n"]), depth=1)
def test_basis_sums_write_the_object_json_dumps_writes(tail, basis, depth):
    # From the opening brace to the closing one ("{}" at rank 0), on a
    # line that newline begins: at the top level or depth objects deep,
    # where json indents every line of the object by the line's indent.
    births, values = basis
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sums, "SUM_TAIL", tail)
        listing = sums.BasisSums(births, values)
    newline = "\n" + "  " * depth
    text = json.dumps(dict(listing), indent=2).replace("\n", newline)
    assert "".join(listing.json_lines(newline)) == text


def test_write_document_escapes_each_text_of_a_listing_once(monkeypatch):
    # Rank 16 with a tail of 10: 16 basis values, 1,023 table ids, 63
    # walked sums and 640 table visits make 1,742 escapes.  Escaping each
    # of the 65,535 lines' id and value makes 131,070.
    escapes = 0
    escape = sums.encode_basestring_ascii

    def counted(text):
        nonlocal escapes
        escapes += 1
        return escape(text)

    monkeypatch.setattr(sums, "encode_basestring_ascii", counted)
    monkeypatch.setattr(sums, "SUM_TAIL", 10)
    births = list(range(16))
    random.Random(16).shuffle(births)
    listing = sums.BasisSums(births, [format_rational(F(-b, 2)) for b in births])
    stream = _CountingStream()
    write_document({"per_class": listing}, stream)
    assert stream.getvalue().count('": "') == 2**16 - 1
    assert escapes < 4096


def _one_class(value):
    return sums.BasisSums([0], [value])


@pytest.mark.parametrize(
    "doc",
    [
        {"listing": _one_class(1)},
        {"listing": _one_class(None)},
        {"listing": _one_class({"c": "d"})},
        {"listing": MappingProxyType({"a": "1"})},
    ],
    ids=["int-value", "null-value", "object-value", "plain-mapping"],
)
def test_write_document_refuses_a_mapping_out_of_order_or_not_of_text(doc):
    # A listing's values must be text, and any other Mapping that is not
    # a dict is refused as json.dumps refuses it, whatever its order.
    with pytest.raises(TypeError):
        write_document(doc, io.StringIO())


@pytest.mark.parametrize(
    "doc,as_dicts",
    [
        ({"a": "", "b": _one_class(""), "c": ""}, {"a": "", "b": {"b0": ""}, "c": ""}),
        ({"row": ["", _one_class("v"), ""]}, {"row": ["", {"b0": "v"}, ""]}),
        (sums.BasisSums([0, 1], ["", "1/2"]), {"b0": "", "b0+b1": "", "b1": "1/2"}),
        ({"empty": sums.BasisSums([], []), "next": ""}, {"empty": {}, "next": ""}),
        (
            {"rows": [["", [sums.BasisSums([1, 0], ["v", ""])]], [_one_class("")]]},
            {"rows": [["", [{"b0": "v", "b0+b1": "", "b1": ""}]], [{"b0": ""}]]},
        ),
    ],
    ids=["beside-empty-text-in-an-object", "beside-empty-text-in-a-list", "whole-document",
         "empty", "two-levels-deep-in-a-list"],
)
def test_write_document_splices_each_listing_where_the_encoder_met_it(doc, as_dicts):
    # The encoder writes "" for a listing until the writer replaces it: a
    # writer that replaced the text "" would replace the document's own.
    stream = io.StringIO()
    write_document(doc, stream)
    assert stream.getvalue() == json.dumps(as_dicts, sort_keys=True, indent=2) + "\n"


def test_write_document_holds_one_batch_of_items_per_write():
    # A writer that joins more than one batch of lines into a write holds
    # more of the document at once, and fails here: for a dict, and for a
    # listing, whose writes hold one table of lines at most.
    items = {f"k{i:06d}": "v" for i in range(3 * _WRITE_BATCH + 5)}
    line = len(',\n  "k000000": "v"')
    stream = _CountingStream()
    write_document(items, stream)
    assert stream.getvalue() == json.dumps(items, sort_keys=True, indent=2) + "\n"
    assert stream.writes >= 4
    assert stream.longest <= _WRITE_BATCH * line
    rank = sums.SUM_TAIL + 3
    listing = sums.BasisSums(list(range(rank)), [f"-{i}/2" for i in range(rank)])
    stream = _CountingStream()
    write_document(listing, stream)
    assert stream.getvalue() == json.dumps(dict(listing), sort_keys=True, indent=2) + "\n"
    assert stream.most_lines <= 2 ** (sums.SUM_TAIL - 1)
