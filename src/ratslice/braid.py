"""Braid words and the closure combinatorics the satellite bounds consume.

A braid word on n strands is a list of nonzero integers i with |i| < n:
letter i is the generator crossing strands |i|-1 and |i| (0-based), with
sign giving the crossing sign.  Nothing here reduces words or decides
braid equivalence; the genus bounds only ever read the writhe, the index,
and the permutation-level data of the closure.

Text form: "n: i1 i2 i3 ..." with signed integer letters.
"""

from __future__ import annotations

from .rationals import parse_integer
from .record import record

# The strand permutation is a list of index entries: braid-info answers at
# index 10^6 in about 0.65 s at 61 MB, and at 3 * 10^7 it runs out of 1 GiB.
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


def components(permutation: tuple[int, ...]) -> int:
    """Number of components of the braid closure: the cycles of its
    strand permutation (BraidWord.permutation)."""
    seen = bytearray(len(permutation))
    count = 0
    for start in range(len(permutation)):
        if seen[start]:
            continue
        count += 1
        s = start
        while not seen[s]:
            seen[s] = 1
            s = permutation[s]
    return count


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


def parse_braid(text: str) -> BraidWord:
    """Parse the "n: i1 i2 ..." text form."""
    head, _, tail = text.partition(":")
    try:
        index = parse_integer(head)
    except ValueError:
        raise ValueError(f"malformed braid header {head!r}: expected an integer") from None
    letters = []
    for position, tok in enumerate(tail.split(), 1):
        try:
            letters.append(parse_integer(tok))
        except ValueError:
            raise ValueError(
                f"malformed braid letter {position} {tok!r}: expected an integer"
            ) from None
    return BraidWord(index, tuple(letters))


def format_braid(b: BraidWord) -> str:
    return f"{b.index}: " + " ".join(str(letter) for letter in b.word)
