"""The extended Burrows-Wheeler transform and its inverse.

The forward map sends a finite multiset of necklaces to the word of last
letters of its rotations sorted by the omega-order.  It renders each
distinct necklace once as a periodic string, sorts the windows of a fixed
width that start at its rotations, and runs prefix-doubling rounds only when
two windows tie; each round re-ranks the keys densely and pairs them, and
each last letter is written once per copy.  So it costs one sort of the
distinct rotations, plus O(log) rounds over them on ties, plus the output
length.  The inverse reads the cycles of the standard permutation, built by
one stable sort of positions by letter.  The m copies of a necklace give m
cycles that are translates of one another; each class of translates is
walked once and becomes one necklace of multiplicity m, taken as a Lyndon
word without checking it again, and the classes come out in the order of
their Lyndon words.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain, repeat
from operator import add

# omega_compare is unused here; bench/tracing.py counts calls at bwt.omega_compare.
from .words import Alphabet, Necklace, Value, Word, lyndon_representative, omega_compare  # noqa: F401

# The widest window the transform sorts, in bytes of its string: 64 letters
# of one byte (k <= 256), 32 of two (k <= 65536), 16 of four.
WINDOW_BYTES = 64


class NecklaceMultiset(Value):
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


class StandardPermutation(Value):
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

    def dom(self, letter: int) -> range:
        """Positions of `letter` in the sorted rearrangement: an interval."""
        return range(
            bisect_left(self.sorted_codes, letter),
            bisect_right(self.sorted_codes, letter),
        )

    def cycles(self) -> dict[tuple[int, ...], int]:
        """Disjoint cycles by class of translates: {cycle read from its
        minimal element s: number m of translates}, listed by s.

        The translates of a cycle C are C + 1, ..., C + m - 1, with minima
        s + 1, ..., s + m - 1; expanded in order they list every cycle by its
        minimal element.  C + j is such a translate when, for every c in C,
        `sorted_codes[c + j] == sorted_codes[c]` and
        `image[c + j] == image[c] + j`.  Then the same holds for every i <= j:
        `sorted_codes` is sorted, so c + i lies in the domain of the letter of
        c, where `image` increases, so the j + 1 images of c, ..., c + j are
        j + 1 increasing integers from image[c] to image[c] + j.  So each
        C + i is closed under the permutation, a cycle with minimum s + i that
        spells the letters of C.  The largest such j is found by doubling and
        then bisection, each check a few C-level maps over C, and the rows of
        the translates are marked seen by slice assignment.

        In a transform, the m copies of a rotation fill adjacent rows that
        start with one letter, and the permutation sends them in order to
        the adjacent rows of the next rotation's copies.  So the copies of
        a necklace give a cycle and its translates, and translates spell
        one necklace: each class is exactly the copies of one necklace, and
        every word is the transform of its inverse.  Each class is walked
        once: its cycle is followed from its start until the permutation
        returns there, and the next start is the first row not yet seen,
        which `bytearray.find` locates in C.
        """
        image, letters = self.image, self.sorted_codes
        n = len(image)
        seen = bytearray(n)
        out = {}
        start = seen.find(0)
        while start >= 0:
            seen[start] = 1
            cycle = [start]
            i = image[start]
            while i != start:
                seen[i] = 1
                cycle.append(i)
                i = image[i]
            copies = 1
            for c in cycle:  # is C + 1 a translate? most cycles fail at once
                if c + 1 == n or image[c + 1] != image[c] + 1 or letters[c + 1] != letters[c]:
                    break
            else:
                top = n - max(cycle)  # translates by top or more leave the rows
                low, high = 1, 2
                while high < top and self._translates(cycle, high):
                    low, high = high, 2 * high
                high = min(high, top)
                while high - low > 1:
                    mid = (low + high) // 2
                    if self._translates(cycle, mid):
                        low = mid
                    else:
                        high = mid
                copies = low + 1
                marks = b"\x01" * low
                for c in cycle:
                    seen[c + 1:c + copies] = marks
            out[tuple(cycle)] = copies
            start = seen.find(0, start + copies)
        return out

    def _translates(self, cycle: list[int], j: int) -> bool:
        """Whether `cycle` shifted by j, all rows in range, is a cycle that
        spells the same letters (see `cycles`)."""
        letter, image = self.sorted_codes.__getitem__, self.image.__getitem__
        shifted = list(map(add, cycle, repeat(j)))
        return (list(map(image, shifted)) == shifted[1:] + shifted[:1]
                and list(map(letter, shifted)) == list(map(letter, cycle)))


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

    Ranks the rotations of the distinct necklaces by the omega-order.  Each
    necklace is rendered once as a string of `chr(code)` letters, repeated
    to at least its length plus `span` letters, and the window of `span`
    letters at each of its rotations is cut with C-level slicing: the first
    span letters of that rotation's infinite power.  Then one sort of the
    rotations by window gives the order, unless two windows tie.

    Two rotations of lengths p and q with equal prefixes of length
    p + q - gcd(p, q) have equal infinite powers (Fine and Wilf), hence equal
    roots; rotations of distinct primitive necklaces never do.  So when span
    is 2 * maxlen, the windows are distinct and their order is the
    omega-order.  Span is capped at WINDOW_BYTES of string (64 letters for
    k <= 256, 32 for k <= 65536, 16 above), which bounds the memory of the
    windows; below 2 * maxlen it is checked for ties, and only when there
    are any does prefix doubling (Manber and Myers) go on from there.

    Each round starts by ranking the keys densely, by one sort of the
    distinct ones, so the key of a rotation is below their number, width,
    and orders its first span letters.  The round pairs it with the key of
    the rotation span letters further round the same necklace, cut from
    that necklace's keys as two slices, as key * width + key', which is below width squared and orders the first
    2 * span letters.  The rounds stop as soon as the keys are distinct, or
    the span reaches 2 * maxlen.  The copies of one necklace have equal
    rotations, which sit adjacent in the order, so each rotation's last
    letter is written out once per copy.  Every letter written is a code of
    a necklace of the multiset, which is over its alphabet, so the word is
    built without `Word`'s range check.
    """
    k = m.alphabet.size
    lyndons = [necklace.lyndon.codes for necklace, _ in m.entries]
    lengths = list(map(len, lyndons))
    limit = 2 * max(lengths, default=0)
    span = min(limit, WINDOW_BYTES // (1 if k <= 256 else 2 if k <= 65536 else 4))
    keys = _ranking_keys(lyndons, lengths, span, limit)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    del keys  # the windows: the largest list here
    last = list(chain.from_iterable(c[-1:] + c[:-1] for c in lyndons))
    letters = map(last.__getitem__, order)
    mults = [mult for _, mult in m.entries]
    if max(mults, default=1) > 1:
        mults = list(chain.from_iterable(map(repeat, mults, lengths)))
        letters = chain.from_iterable(map(repeat, letters, map(mults.__getitem__, order)))
    return Word.unchecked(m.alphabet, tuple(letters))


def _ranking_keys(lyndons: list, lengths: list[int], span: int, limit: int) -> list:
    """Keys that sort the rotations of the necklaces with the given Lyndon
    codes into the omega-order (see `transform`): their windows of span
    letters when those are distinct, else integer keys from prefix-doubling
    rounds that start at span.

    A round's width is the number of distinct keys, at most the number of
    rotations, so its keys stay below width squared.  Under the CLI's
    default guard of 2^24 letters that is below 2^48, two 30-bit CPython
    int digits, and pairing is exact at any width."""
    keys: list = []
    for c, n in zip(lyndons, lengths):
        text = "".join(map(chr, c)) * (span // n + 2)
        keys.extend(map(text.__getitem__, map(slice, range(n), range(span, span + n))))
    while span < limit and len(distinct := set(keys)) < len(keys):
        keys, width = _dense(keys, distinct)
        later: list[int] = []  # the key of each rotation span letters further round
        for n in lengths:
            start = len(later)
            cut = start + span % n
            later += keys[cut:start + n]
            later += keys[start:cut]
        keys = [r * width + s for r, s in zip(keys, later)]
        span *= 2
    return keys


def _dense(keys: list, distinct: set) -> tuple[list[int], int]:
    """(each key's rank among the distinct keys, their number)."""
    rank = dict(zip(sorted(distinct), range(len(distinct))))
    return list(map(rank.__getitem__, keys)), len(rank)


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
    necklace are one class of m translates in `StandardPermutation.cycles`,
    so each class becomes one necklace of multiplicity m, and distinct
    classes spell distinct necklaces.

    The classes already come in the order of their Lyndon words, so they
    are not sorted.  `cycles` lists them by minimal row, and the rows are in
    omega-order, so the Lyndon words U and V of two classes listed in turn
    have U^omega < V^omega, strictly since they are distinct primitive
    words.  On distinct Lyndon words the lex order implies the omega-order,
    hence agrees with it.  Let L < L'.  If L is no prefix of L', both orders
    are decided at their first difference.  Otherwise L' = L^j x with
    j >= 1 and x a nonempty proper suffix that does not start with L.  Then
    L' < x, and x is no prefix of L' (a Lyndon word has no border), nor
    starts with its prefix L, so x first differs from L' at an index below
    |L|, where x is larger; so L^omega, past L^j, is below x L'^omega.

    So every record of the result is built with `unchecked`, without its
    constructor's checks: each word's codes are letters of w, over w's
    alphabet, which every necklace shares with the multiset; each
    multiplicity is a number of translates, at least 1; and the entries
    ascend strictly by Lyndon word.
    """
    alphabet = w.alphabet
    if len(w) == 0:
        return NecklaceMultiset(alphabet, ())
    p = standard_permutation(w)
    letter = p.sorted_codes.__getitem__
    necklace, word = Necklace.unchecked, Word.unchecked
    return NecklaceMultiset.unchecked(alphabet, tuple(
        (necklace(word(alphabet, tuple(map(letter, cycle)))), copies)
        for cycle, copies in p.cycles().items()
    ))
