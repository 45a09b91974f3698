"""The tau spectrum record, and its listing of every nonzero class.

complexes.tau_spectrum lists tau of every nonzero homology class up to
rank 20: 2^rank - 1 sums of the filtered basis, each valued by its
summand with the smallest birth row.  BasisSums is that listing as a
read-only Mapping over the basis alone, which writes its own JSON object
a table at a time; its basis values stand for every class in the checks
of TauSpectrum, the record of `tau --complex`, of spectrum
documents and of framed knots.  The bound evaluators take only its two
extremes, so the bound verbs given `--tau-max/--tau-min` build no
record and do not load this module.  Both live apart from complexes, so
that deep-slice does not compile them, and from bounds, so that `tau
--complex` does not compile the evaluators: without a bytecode cache
(PYTHONDONTWRITEBYTECODE, a read-only checkout) every process compiles
what it imports, and with BasisSums inside complexes `deep-slice
--builtin lift_8_20` peaked 0.25 MB higher.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterator, Sequence

from .rationals import format_rational
from .record import record

# Basis indices whose sums BasisSums tables instead of walking.  The
# tables hold 2^SUM_TAIL - 1 ids; the walk visits each once per sum of
# the first rank - SUM_TAIL indices, and json_lines keeps the lines of
# each table at each place it meets, (rank + 1) * (2^SUM_TAIL - 1) at
# most.  At rank 20, writing the 1,048,575 sums to a null sink took 0.12,
# 0.056, 0.034, 0.033 and 0.050 s at tails 6, 8, 10, 12 and 14 (medians
# of 5 processes, 2 cores, Python 3.11), at tracemalloc peaks of 1.4,
# 1.4, 1.5, 4.3 and 13.3 MiB; the whole process took 0.09 s at 10 and
# 12, peaking at 17.3 and 20.0 MB.
SUM_TAIL = 10


class BasisSums(Mapping):
    """Every nonzero sum of a filtered basis, keyed by class id: a
    read-only Mapping that never holds its 2^rank - 1 entries at once.

    A class id joins the names b<i> of its summands in ascending i with
    "+", and its value is the value of its summand with the smallest
    birth row (for tau: the largest tau in the sum).  Iteration is in
    document order, the ids sorted as strings.  "+" sorts below every
    digit, so that order is a preorder walk over the names in string order
    (b1, b10, b2), each id followed by its extensions by higher-index
    names.  The walk descends through the first rank - SUM_TAIL indices
    and, below them, reads the doubling tables of the last SUM_TAIL: the
    ids and smallest birth rows of the sums whose lowest index is one of
    them, each table built from those of the higher indices.  json_lines
    writes the listing from the same walk, a table's lines at a time.
    """

    def __init__(self, births: Sequence[int], values: Sequence[Any]):
        rank = len(births)
        self._names = [f"b{i}" for i in range(rank)]
        self._index = {name: i for i, name in enumerate(self._names)}
        # Births become their places in ascending order: 0 .. rank - 1.
        by_birth = sorted(range(rank), key=births.__getitem__)
        self._place = [0] * rank
        for place, i in enumerate(by_birth):
            self._place[i] = place
        self._values = [values[i] for i in by_birth]
        self._listed = sorted(range(rank), key=self._names.__getitem__)
        self._head = max(rank - SUM_TAIL, 0)
        self._ids: dict[int, list[str]] = {}
        self._first: dict[int, list[int]] = {}
        for i in reversed(range(self._head, rank)):
            place, prefix = self._place[i], self._names[i] + "+"
            ids, first = [self._names[i]], [place]
            for j in self._listed:
                if j > i:
                    ids += map(prefix.__add__, self._ids[j])
                    first += [f if f < place else place for f in self._first[j]]
            self._ids[i], self._first[i] = ids, first

    def map_values(self, fn: Callable[[Any], Any]) -> BasisSums:
        """The same sums with fn applied once to each basis value."""
        out = object.__new__(BasisSums)
        out.__dict__.update(self.__dict__, _values=[fn(v) for v in self._values])
        return out

    def _visits(self, prefix: str, place: int, last: int) -> Iterator[tuple[str, int | None, int]]:
        """(prefix, table, place) per table or walked sum, in document
        order.  A walked sum (table None) is prefix itself, valued at
        place; a table stands for the sums prefix + its ids by indices
        above last, each valued at the smaller of place and its own."""
        for j in self._listed:
            if j <= last:
                continue
            if j >= self._head:
                yield prefix, j, place
            else:
                cid, low = prefix + self._names[j], min(place, self._place[j])
                yield cid, None, low
                yield from self._visits(cid + "+", low, j)

    def __iter__(self) -> Iterator[str]:
        for prefix, table, _ in self._visits("", len(self._names), -1):
            if table is None:
                yield prefix
            else:
                yield from map(prefix.__add__, self._ids[table])

    def json_lines(self, newline: str) -> Iterator[str]:
        """The text json.dumps(dict(self), indent=2) writes for the listing
        on a line that newline (its line break and indent) begins, from
        the opening brace to the closing one ("{}" at rank 0), one walked
        sum or one table of lines at a time.

        json's own encode_basestring_ascii escapes each basis value and
        table id once, which refuses a value that is not a str
        (TypeError).  The lines of a table at a place are built once, and
        each visit joins its escaped prefix onto them.
        """
        if not self._names:
            yield "{}"
            return
        escape = encode_basestring_ascii
        texts = [escape(value) for value in self._values]
        # An id's text without its opening quote, which its prefix supplies.
        keys = {j: [escape(cid)[1:] for cid in ids] for j, ids in self._ids.items()}
        bodies: dict[tuple[int, int], list[str]] = {}
        # Every line opens with the comma that ends the one before, and the
        # first with the opening brace in its place.
        separator, opening = "," + newline + "  ", "{"
        for prefix, table, place in self._visits("", len(self._names), -1):
            if table is None:
                text = f"{separator}{escape(prefix)}: {texts[place]}"
            else:
                body = bodies.get((table, place))
                if body is None:
                    body = bodies[table, place] = [""] + [
                        f"{key}: {texts[f if f < place else place]}"
                        for key, f in zip(keys[table], self._first[table])
                    ]
                text = (separator + escape(prefix)[:-1]).join(body)
            yield opening + text[1:] if opening else text
            opening = ""
        yield newline + "}"

    def __len__(self) -> int:
        return 2 ** len(self._names) - 1

    def __getitem__(self, cid: str) -> Any:
        if isinstance(cid, str):
            members = [self._index.get(name) for name in cid.split("+")]
            if None not in members and all(a < b for a, b in zip(members, members[1:])):
                return self._values[min(map(self._place.__getitem__, members))]
        raise KeyError(cid)


@record
class TauSpectrum:
    """tau values per homology class, with the extremes and their spread.

    tau_max, tau_min and breadth range over all nonzero classes.  When
    enumeration_complete is false, per_class lists a homology basis only;
    when true, tau_max and tau_min are its largest and smallest values.
    per_class is a dict, or, from complexes.tau_spectrum, a BasisSums,
    which lists every sum of the basis without holding the listing and
    whose basis values stand for every class.
    """

    per_class: Mapping[str, Fraction]
    tau_max: Fraction
    tau_min: Fraction
    enumeration_complete: bool

    def __post_init__(self):
        if not self.per_class:
            raise ValueError("per_class: expected a nonempty object")
        if self.tau_min > self.tau_max:
            raise ValueError("tau_min: must not exceed tau_max")
        # Every sum in a BasisSums takes one of its basis values, and each
        # basis class is listed itself, so checking the basis values checks
        # every class.  The ordered scan only names the first class out of
        # range.
        per_class = self.per_class
        values = per_class._values if isinstance(per_class, BasisSums) else per_class.values()
        if not all(self.tau_min <= v <= self.tau_max for v in values):
            for cid, value in per_class.items():
                if not self.tau_min <= value <= self.tau_max:
                    raise ValueError(f"per_class[{cid!r}]: tau outside [tau_min, tau_max]")
        if self.enumeration_complete:
            for field, attained in ("tau_max", max(values)), ("tau_min", min(values)):
                if getattr(self, field) != attained:
                    raise ValueError(
                        f"{field}: expected {format_rational(attained)}: "
                        f"a complete listing attains both extremes"
                    )

    @property
    def breadth(self) -> Fraction:
        return self.tau_max - self.tau_min
