"""Document codecs: bit-exact round trips and named-field errors."""

import io
import json
import random
import time
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ratslice.complexes import tau_spectrum
from ratslice.formats import (
    _WRITE_BATCH,
    complex_from_json,
    framed_from_json,
    grid_from_text,
    poincare_from_json,
    spectrum_from_json,
    spectrum_to_json,
    write_document,
)
from ratslice.paperdata import builtin
from ratslice.rationals import format_rational, parse_rational

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

    def write(self, text):
        self.writes += 1
        self.longest = max(self.longest, len(text))
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


class _Listing(Mapping):
    """A Mapping that is not a dict: its pairs in the order given."""

    def __init__(self, pairs):
        self._pairs = list(pairs)
        self._dict = dict(self._pairs)

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return (key for key, _ in self._pairs)

    def __len__(self):
        return len(self._pairs)


@given(st.dictionaries(st.text(), st.text()), _JSON_TREES)
@example({}, None)
@example({"b1": "0/1", "b1+b10": "1/2", "b10": "-1/1", "b2": "0/1"}, [])
def test_write_document_writes_a_sorted_mapping_as_its_dict(items, other):
    # A non-dict Mapping is written in its own order, which here is sorted.
    listing = _Listing(sorted(items.items()))
    doc = {"spectrum": {"per_class": listing}, "listings": [listing, other]}
    as_dicts = {"spectrum": {"per_class": items}, "listings": [items, other]}
    stream = io.StringIO()
    write_document(doc, stream)
    assert stream.getvalue() == json.dumps(as_dicts, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc,as_dicts",
    [
        ({"a": "", "b": _Listing([("k", "")]), "c": ""}, {"a": "", "b": {"k": ""}, "c": ""}),
        ({"row": ["", _Listing([("k", "v")]), ""]}, {"row": ["", {"k": "v"}, ""]}),
        (_Listing([("a", ""), ("b", "1/2")]), {"a": "", "b": "1/2"}),
        ({"empty": _Listing([]), "next": ""}, {"empty": {}, "next": ""}),
        (
            {"rows": [["", [_Listing([("k", "v"), ("l", "")])]], [_Listing([("m", "")])]]},
            {"rows": [["", [{"k": "v", "l": ""}]], [{"m": ""}]]},
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


_BATCH_KEYS = [(f"k{i:06d}", "v") for i in range(_WRITE_BATCH)]


@pytest.mark.parametrize(
    "pairs,error",
    [
        ([("b", "1"), ("a", "2")], ValueError),
        ([("a", "1"), ("a", "1")], ValueError),
        (_BATCH_KEYS + [("a", "v")], ValueError),  # out of order across two batches
        (_BATCH_KEYS + [(_BATCH_KEYS[-1][0], "v")], ValueError),
        ([(1, "a")], TypeError),
        ([("a", 1)], TypeError),
        ([("a", "1"), ("b", None)], TypeError),
        ([("a", "1"), ("b", {"c": "d"})], TypeError),
    ],
    ids=["descending", "repeated", "descending-across-batches",
         "repeated-across-batches", "int-key", "int-value", "null-value", "object-value"],
)
def test_write_document_refuses_a_mapping_out_of_order_or_not_of_text(pairs, error):
    with pytest.raises(error):
        write_document({"listing": _Listing(pairs)}, io.StringIO())


def test_write_document_holds_one_batch_of_items_per_write():
    # A writer that joins more than one batch of lines into a write holds
    # more of the document at once, and fails here: for a dict, and for
    # a Mapping written in its own order.
    items = {f"k{i:06d}": "v" for i in range(3 * _WRITE_BATCH + 5)}
    line = len(',\n  "k000000": "v"')
    for doc in (items, _Listing(items.items())):
        stream = _CountingStream()
        write_document(doc, stream)
        assert stream.getvalue() == json.dumps(items, sort_keys=True, indent=2) + "\n"
        assert stream.writes >= 4
        assert stream.longest <= _WRITE_BATCH * line
