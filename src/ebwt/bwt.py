"""The extended Burrows-Wheeler transform and its inverse.

The forward map sends a finite multiset of necklaces to the word of last
letters of its rotations sorted by the omega-order.  It ranks the rotations
of the distinct necklaces by prefix doubling over cyclic positions, with the
early rounds packing prefixes into exact base-k integers, and writes each
last letter once per copy, so it costs O(N log N) in the total length N of
the distinct necklaces plus the output length.  The inverse reads the cycles
of the standard permutation, built by one stable sort of positions by letter,
counts the letter tuples they spell, and builds one necklace per distinct
tuple, taking it as a Lyndon word without checking it again.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

# omega_compare is unused here; bench/tracing.py counts calls at bwt.omega_compare.
from .words import Alphabet, Necklace, Word, lyndon_representative, omega_compare  # noqa: F401

# The largest width squared at which a ranking round still packs key pairs
# without renumbering them: keys stay within two 30-bit CPython int digits.
PACKED_KEY_LIMIT = 2**60


@dataclass(frozen=True)
class NecklaceMultiset:
    """A finite multiset of necklaces, sorted by Lyndon representative."""

    alphabet: Alphabet
    entries: tuple[tuple[Necklace, int], ...]

    def __post_init__(self):
        for necklace, mult in self.entries:
            if necklace.alphabet != self.alphabet:
                raise ValueError(f"necklace {necklace} is over a different alphabet")
            if mult < 1:
                raise ValueError(f"multiplicity must be positive, got {mult}")
        lyndons = [n.lyndon.codes for n, _ in self.entries]
        if any(a >= b for a, b in zip(lyndons, lyndons[1:])):
            raise ValueError("entries must be strictly ascending by Lyndon word")

    @classmethod
    def from_necklaces(cls, alphabet: Alphabet, necklaces) -> NecklaceMultiset:
        """Collect necklaces into a multiset: an iterable (repeats allowed), or
        a mapping from necklace to multiplicity."""
        counts = Counter(necklaces)
        entries = tuple(sorted(counts.items(), key=lambda e: e[0].lyndon.codes))
        return cls(alphabet, entries)

    @classmethod
    def from_texts(cls, alphabet: Alphabet, texts) -> NecklaceMultiset:
        """Parse rendered primitive words; each is canonicalized to its necklace."""
        return cls.from_necklaces(
            alphabet, (lyndon_representative(alphabet.word(t)) for t in texts)
        )

    @property
    def total_length(self) -> int:
        return sum(mult * len(n) for n, mult in self.entries)

    def __len__(self) -> int:
        return sum(mult for _, mult in self.entries)


@dataclass(frozen=True)
class StandardPermutation:
    """The standard permutation of a word: per-letter sorted-vs-original maps.

    For each letter a, dom(a) is the interval of positions of a in the sorted
    rearrangement of the word and ran(a) the positions of a in the word
    itself; the order-preserving pairing of the two induces the permutation
    `image` as their union.
    """

    alphabet: Alphabet
    image: tuple[int, ...]
    sorted_codes: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.image)

    def letter_of(self, i: int) -> int:
        """The unique letter a with i in dom(a)."""
        return self.sorted_codes[i]

    def dom(self, letter: int) -> range:
        """Positions of `letter` in the sorted rearrangement: an interval."""
        return range(
            bisect_left(self.sorted_codes, letter),
            bisect_right(self.sorted_codes, letter),
        )

    def ran(self, letter: int) -> tuple[int, ...]:
        return tuple(self.image[i] for i in self.dom(letter))

    def apply_letter(self, i: int, letter: int) -> int | None:
        """i under the partial map of `letter`, or None when i is not in dom."""
        if self.sorted_codes[i] != letter:
            return None
        return self.image[i]

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, listed by minimal element, each read from it.

        Each cycle is followed from its start until the permutation returns
        there; the next start is the first position not yet seen, which
        `bytearray.find` locates in C.
        """
        image = self.image
        seen = bytearray(len(image))
        out = []
        start = seen.find(0)
        while start >= 0:
            seen[start] = 1
            cycle = [start]
            i = image[start]
            while i != start:
                seen[i] = 1
                cycle.append(i)
                i = image[i]
            out.append(tuple(cycle))
            start = seen.find(0, start + 1)
        return out


def standard_permutation(w: Word) -> StandardPermutation:
    """Build the standard permutation of a nonempty word.

    Sorting the positions by letter lists ran(a) for each letter a in turn,
    and the sort is stable, so within ran(a) the positions stay increasing:
    that is the order-preserving pairing of dom(a) with ran(a).
    """
    if len(w) == 0:
        raise ValueError("the standard permutation needs a nonempty word")
    codes = w.codes
    image = sorted(range(len(codes)), key=codes.__getitem__)
    return StandardPermutation(w.alphabet, tuple(image), tuple(sorted(codes)))


def transform(m: NecklaceMultiset) -> Word:
    """The extended Burrows-Wheeler transform of a necklace multiset.

    Ranks the rotations of the distinct necklaces by the omega-order with
    prefix doubling (Manber and Myers) on cyclic positions.  After round h
    the key of position i orders the first span = 2^h letters of its
    rotation's infinite power.  Round h + 1 pairs it with the key of the
    position span further round the same necklace, as key * width + key',
    where every key is below width, so the new key is below width squared.

    The first keys are the letter codes, with width k.  Packed this way, the
    key after h rounds is the exact base-k value of the first span letters:
    equal keys mean equal prefixes of length span, and keys of one width
    compare as those prefixes do lexicographically.  These rounds need no
    sort and no dict.  Once width squared would pass PACKED_KEY_LIMIT, the
    keys are first renumbered densely by one sort of the distinct keys, and
    the width drops to their number.  Pairing is exact at any width, so the
    limit only keeps the integers small.

    Two rotations of lengths p and q with equal prefixes of length
    p + q - gcd(p, q) have equal infinite powers (Fine and Wilf), hence equal
    roots; rotations of distinct primitive necklaces never do.  So every key
    is distinct once the span reaches 2 * maxlen, and usually long before.
    The rounds stop as soon as the keys are distinct, and one sort of the
    positions by key gives the order, with no last renumbering.  The copies
    of one necklace have equal rotations, which sit adjacent in that order,
    so each rotation's last letter is written out once per copy.
    """
    codes: list[int] = []
    last: list[int] = []
    nxt: list[int] = []
    mults: list[int] = []
    for necklace, mult in m.entries:
        c = necklace.lyndon.codes
        start = len(codes)
        codes.extend(c)
        last.extend(c[-1:] + c[:-1])
        nxt.extend(range(start + 1, start + len(c)))
        nxt.append(start)
        mults.extend(repeat(mult, len(c)))
    n = len(codes)
    limit = 2 * max((len(necklace) for necklace, _ in m.entries), default=0)
    keys, width, span = codes, m.alphabet.size, 1
    distinct = set(keys)
    while len(distinct) < n and span < limit:
        if width * width > PACKED_KEY_LIMIT:
            dense = {key: i for i, key in enumerate(sorted(distinct))}
            keys = [dense[key] for key in keys]
            width = len(dense)
        keys = [r * width + keys[j] for r, j in zip(keys, nxt)]
        width *= width
        nxt = [nxt[j] for j in nxt]
        span *= 2
        distinct = set(keys)
    order = sorted(range(n), key=keys.__getitem__)
    copies = map(repeat, map(last.__getitem__, order), map(mults.__getitem__, order))
    return Word(m.alphabet, tuple(chain.from_iterable(copies)))


def inverse_transform(w: Word) -> NecklaceMultiset:
    """The inverse transform: read necklaces off the standard permutation.

    Each cycle of the permutation, with position i replaced by the letter
    whose domain contains i, spells a word; the result is the multiset of
    their necklaces.  Position i stands for row i of the omega-sorted
    rotation table, and the cycle read from i spells the root of row i, so
    it is primitive.  Read from its minimal position, the cycle gives its
    omega-least rotation; all rotations of one cycle have the same length,
    and for words of equal length the omega-order is the lexicographic
    order, so that rotation is the lex-least, the Lyndon word.  Each cycle
    therefore becomes a necklace through `Necklace.unchecked`, with no
    primitivity check and no least-rotation search.  The m copies of a
    necklace give m cycles that spell the same word, so the spelled letter
    tuples are counted first and each distinct one becomes a necklace once.
    """
    if len(w) == 0:
        return NecklaceMultiset(w.alphabet, ())
    p = standard_permutation(w)
    letter = p.sorted_codes.__getitem__
    counts = Counter(tuple(map(letter, cycle)) for cycle in p.cycles())
    return NecklaceMultiset.from_necklaces(w.alphabet, {
        Necklace.unchecked(Word(w.alphabet, codes)): mult for codes, mult in counts.items()
    })
