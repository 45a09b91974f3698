"""Every nonzero sum of a filtered basis, listed without holding the list.

complexes.tau_spectrum lists tau of every nonzero homology class up to
rank 20: 2^rank - 1 sums of the filtered basis, each valued by its
summand with the smallest birth row.  BasisSums is that listing as a
read-only Mapping over the basis alone, so the document writer can take
it a table at a time.  It lives apart from complexes so that the other
verbs that load complexes (deep-slice, verify-paper) do not compile it:
without a bytecode cache (PYTHONDONTWRITEBYTECODE, a read-only checkout)
every process compiles what it imports, and with this class inside
complexes `deep-slice --builtin lift_8_20` peaked 0.25 MB higher.
"""

from __future__ import annotations

import itertools
from collections.abc import ItemsView, Mapping, ValuesView
from typing import Any, Callable, Iterator, Sequence

# Basis indices whose sums BasisSums tables instead of walking.  The
# tables hold 2^SUM_TAIL - 1 ids, and the walk takes about
# SUM_TAIL * 2^(rank - SUM_TAIL) steps of Python, one per table it hands
# over.  At rank 20, listing and writing the 1,048,575 sums to a null sink
# took 1.3-1.9 s at every tail from 8 to 16 (3 runs each, 2 cores,
# Python 3.11; the tails differ less than the runs) and 2.1-2.3 s at 6,
# while the tracemalloc peak grew from 3.4-3.5 MiB at 8-10 to 4.9 at 14
# and 9.6 at 16.
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
    them, each table built from those of the higher indices.
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

    def basis_values(self) -> list[Any]:
        """The value of each basis class, by birth: every sum takes one."""
        return self._values

    def _walk(self, prefix: str, place: int, last: int):
        """(prefix, ids, places) per table or walked sum, in document
        order: the sums extending prefix by indices above last are
        prefix + ids, and each takes its value from the basis class at
        its place in places."""
        for j in self._listed:
            if j <= last:
                continue
            if j >= self._head:
                yield prefix, self._ids[j], [f if f < place else place for f in self._first[j]]
            else:
                cid, low = prefix + self._names[j], min(place, self._place[j])
                yield "", [cid], [low]
                yield from self._walk(cid + "+", low, j)

    def _chunks(self):
        return self._walk("", len(self._names), -1)

    def __iter__(self) -> Iterator[str]:
        return itertools.chain.from_iterable(
            map(prefix.__add__, ids) for prefix, ids, _ in self._chunks()
        )

    def __len__(self) -> int:
        return 2 ** len(self._names) - 1

    def __getitem__(self, cid: str) -> Any:
        if isinstance(cid, str):
            members = [self._index.get(name) for name in cid.split("+")]
            if None not in members and all(a < b for a, b in zip(members, members[1:])):
                return self._values[min(map(self._place.__getitem__, members))]
        raise KeyError(cid)

    def items(self) -> ItemsView:
        return _SumItems(self)

    def values(self) -> ValuesView:
        return _SumValues(self)


class _SumItems(ItemsView):
    def __iter__(self):
        value = self._mapping._values.__getitem__
        return itertools.chain.from_iterable(
            zip(map(prefix.__add__, ids), map(value, places))
            for prefix, ids, places in self._mapping._chunks()
        )


class _SumValues(ValuesView):
    def __iter__(self):
        value = self._mapping._values.__getitem__
        return itertools.chain.from_iterable(
            map(value, places) for _, _, places in self._mapping._chunks()
        )
