"""Braid words and the closure combinatorics the satellite bounds consume.

A braid word on n strands is a list of nonzero integers i with |i| < n:
letter i is the generator crossing strands |i|-1 and |i| (0-based), with
sign giving the crossing sign.  Nothing here reduces words or decides
braid equivalence; the genus bounds only ever read the writhe, the index,
and the permutation-level data of the closure.

Text form: "n: i1 i2 i3 ..." with signed integer letters.
"""

from __future__ import annotations

from .record import record

# The strand permutation is a list of index entries: braid-info answers at
# index 10^6 in 1.1 s at 134 MB, and at 3 * 10^7 it runs out of 1 GiB.
MAX_PERMUTATION_INDEX = 1_000_000


@record
class BraidWord:
    """A word in the braid group B_index."""

    index: int
    word: tuple[int, ...] = ()

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("braid index must be >= 1")
        object.__setattr__(self, "word", tuple(self.word))
        for letter in self.word:
            if letter == 0 or abs(letter) >= self.index:
                raise ValueError(
                    f"letter {letter} out of range for index {self.index}"
                )

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if other.index != self.index:
            raise ValueError("can only concatenate words of equal index")
        return BraidWord(self.index, self.word + other.word)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.index, tuple(-l for l in reversed(self.word)))

    def permutation(self) -> tuple[int, ...]:
        """Strand permutation of the word (start position -> end position)."""
        if self.index > MAX_PERMUTATION_INDEX:
            raise ValueError(
                f"braid index {self.index} exceeds the limit "
                f"{MAX_PERMUTATION_INDEX} for the strand permutation"
            )
        perm = list(range(self.index))
        for letter in self.word:
            k = abs(letter) - 1
            perm[k], perm[k + 1] = perm[k + 1], perm[k]
        return tuple(perm)


def writhe(b: BraidWord) -> int:
    """Sum of the letter signs."""
    return sum(1 if letter > 0 else -1 for letter in b.word)


def splitting_counts(b: BraidWord) -> tuple[int, int]:
    """(positive crossings, negative crossings); k - l = writhe."""
    k = sum(1 for letter in b.word if letter > 0)
    return k, len(b.word) - k


def components(b: BraidWord) -> int:
    """Number of components of the braid closure."""
    return len(set(_cycle_labels(b.permutation())))


def torus_braid(p: int, q: int) -> BraidWord:
    """(sigma_1 ... sigma_{p-1})^q, inverses when q < 0.

    Writhe (p-1)q; the closure is the (p, q) torus link with gcd(p, |q|)
    components.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    block = tuple(range(1, p))
    if q >= 0:
        word = block * q
    else:
        word = tuple(-g for g in reversed(block)) * (-q)
    return BraidWord(p, word)


def full_twist(n: int) -> BraidWord:
    """The full twist (sigma_1 ... sigma_{n-1})^n: writhe n(n-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return torus_braid(n, n)


def knottify_crossings(b: BraidWord, sign: int) -> BraidWord:
    """Add |closure components| - 1 crossings of one sign to get a knot.

    Cycles of the closure are merged greedily: repeatedly append the
    lowest-index generator whose two strands currently sit in distinct
    cycles.  The writhe changes by sign * (components - 1) and the result
    closes to a knot.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    current = b
    while components(current) > 1:
        perm = current.permutation()
        cycle_of = _cycle_labels(perm)
        for gen in range(1, current.index):
            if cycle_of[gen - 1] != cycle_of[gen]:
                current = current * BraidWord(current.index, (sign * gen,))
                break
        else:
            raise AssertionError("no joining generator found below one cycle")
    return current


def _cycle_labels(perm: tuple[int, ...]) -> list[int]:
    labels = [-1] * len(perm)
    next_label = 0
    for start in range(len(perm)):
        if labels[start] >= 0:
            continue
        s = start
        while labels[s] < 0:
            labels[s] = next_label
            s = perm[s]
        next_label += 1
    return labels


def parse_braid(text: str) -> BraidWord:
    """Parse the "n: i1 i2 ..." text form."""
    head, _, tail = text.partition(":")
    try:
        index = int(head.strip())
    except ValueError:
        raise ValueError(f"malformed braid header {head!r}: expected an integer") from None
    letters = []
    for position, tok in enumerate(tail.split(), 1):
        try:
            letters.append(int(tok))
        except ValueError:
            raise ValueError(
                f"malformed braid letter {position} {tok!r}: expected an integer"
            ) from None
    return BraidWord(index, tuple(letters))


def format_braid(b: BraidWord) -> str:
    return f"{b.index}: " + " ".join(str(letter) for letter in b.word)
