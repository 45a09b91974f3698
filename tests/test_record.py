"""ratslice.record against dataclass(frozen=True) as the oracle.

Each record below has a frozen-dataclass twin with the same fields,
defaults and __post_init__; the twins must construct, refuse, compare,
hash and refuse mutation alike.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

from ratslice.bounds import BoundReport, Interval
from ratslice.braid import BraidWord
from ratslice.grid import GridDiagram, torus_knot_grid


@dataclass(frozen=True)
class BraidWordTwin:
    index: int
    word: tuple[int, ...] = ()

    __post_init__ = BraidWord.__post_init__


@dataclass(frozen=True)
class BoundReportTwin:
    name: str
    bound_value: Fraction
    direction: str
    inputs: dict
    citation: str
    satisfied: Optional[bool] = None
    is_equality: bool = False
    anomaly: Optional[str] = None

    __post_init__ = BoundReport.__post_init__


def _outcome(cls, args, kwargs):
    """The fields built, or the type of the exception raised."""
    try:
        obj = cls(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        return type(exc)
    return dict(vars(obj))


BRAID_CALLS = [
    ((3,), {}),
    ((3, [1, -2]), {}),
    ((3,), {"word": [2, 2]}),
    ((), {"index": 2, "word": (1,)}),
    ((), {"word": (1,), "index": 2}),
    ((), {}),  # missing index
    ((3,), {"letters": (1,)}),  # unknown keyword
    ((3,), {"index": 3}),  # repeated
    ((3, (1,), 5), {}),  # too many
    ((0,), {}),  # __post_init__ refuses
    ((3, [3]), {}),  # __post_init__ refuses after normalising
]

REPORT_CALLS = [
    (("n", Fraction(1), "lower", {"p": 1}, "cite"), {}),
    (("n", Fraction(1), "upper", {}, "cite", True), {"anomaly": "a"}),
    (("n", Fraction(1)), {"direction": "lower", "inputs": {}, "citation": "c", "is_equality": True}),
    (("n", Fraction(1), "lower", {}), {}),  # missing citation
    (("n", Fraction(1), "lower", {}, ""), {}),  # __post_init__ refuses
    (("n", Fraction(1), "sideways", {}, "c"), {}),  # __post_init__ refuses
    (("n", Fraction(1), "lower", {}, "c"), {"name": "m"}),  # repeated
]

TWINS = [(BraidWord, BraidWordTwin, BRAID_CALLS), (BoundReport, BoundReportTwin, REPORT_CALLS)]


@pytest.mark.parametrize("record, twin, calls", TWINS, ids=["braid", "report"])
def test_construction_matches_the_dataclass(record, twin, calls):
    for args, kwargs in calls:
        assert _outcome(record, args, kwargs) == _outcome(twin, args, kwargs), (args, kwargs)


@pytest.mark.parametrize("record, twin, calls", TWINS, ids=["braid", "report"])
def test_equality_hash_and_repr_match_the_dataclass(record, twin, calls):
    built = [(record(*a, **k), twin(*a, **k)) for a, k in calls
             if not isinstance(_outcome(twin, a, k), type)]
    for r1, t1 in built:
        # Against the same class, field by field.
        for r2, t2 in built:
            assert (r1 == r2, r1 != r2) == (t1 == t2, t1 != t2)
        assert record(**vars(r1)) == r1
        # Against any other class: NotImplemented, so unequal.
        assert r1.__eq__(t1) is t1.__eq__(r1) is NotImplemented
        assert (r1 == t1, r1 != t1, t1 == r1) == (False, True, False)
        for other in (vars(r1), tuple(vars(r1).values()), None):
            assert (r1 == other, r1 != other) == (t1 == other, t1 != other) == (False, True)
        try:
            expected = hash(t1)
        except TypeError:
            with pytest.raises(TypeError):
                hash(r1)
        else:
            assert hash(r1) == expected == hash(record(**vars(r1)))
        assert repr(r1).replace(record.__name__, twin.__name__, 1) == repr(t1)


@pytest.mark.parametrize("record, twin, calls", TWINS, ids=["braid", "report"])
def test_fields_are_frozen_like_the_dataclass(record, twin, calls):
    args, kwargs = calls[0]
    for obj in (record(*args, **kwargs), twin(*args, **kwargs)):
        before = dict(vars(obj))
        for field in ("name", "index", "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, field, 1)
        for field in list(before) + ["extra"]:
            with pytest.raises(AttributeError):
                delattr(obj, field)
        assert vars(obj) == before


def test_post_init_normalisations_and_cached_property():
    interval = Interval(1, 2)
    assert type(interval.lo) is Fraction and type(interval.hi) is Fraction
    word = BraidWord(3, [1])
    assert type(word.word) is tuple and word.word == (1,)
    grid = torus_knot_grid(2, 3)
    near = grid.o_near
    assert grid.o_near is near and vars(grid)["o_near"] is near
    # The cache is not a field: equality and hash ignore it.
    fresh = GridDiagram(grid.x_markings, grid.o_markings)
    assert fresh == grid and hash(fresh) == hash(grid)
