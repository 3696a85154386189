"""The extended Burrows-Wheeler transform and its inverse.

The forward map sends a finite multiset of necklaces to the word of last
letters of its rotations sorted by the omega-order.  Its kernel,
`transform_text`, works on text: each necklace is a string whose code-point
order is the letter order, cut into windows of a fixed width that start at
its rotations, and one sort of the windows gives the order; prefix-doubling
rounds run only when two windows tie, each re-ranking the keys densely and
pairing them.  Each last letter is written once per copy and the letters are
joined in that order.  So it costs one sort of the rotations, plus O(log)
rounds over them on ties, plus the output length.  The CLI hands the kernel
its raw entries, which already have that order (every `Alphabet` ascends by
code point); `transform` hands it Lyndon words written as `chr(code)`.

The inverse reads the cycles of the standard permutation.  Its kernel,
`inverse_text`, works on text as `transform_text` does: one pass appends
each position of the text to the row of its letter, an `array("q")` reached
through a dict from letter to the row's `append`, so each row receives its
positions in increasing order: row a is ran(a), paired in order with
dom(a), in time O(|w| + k).  The rows joined are the image, and the sorted
column is a `str`, a run of each letter as long as its row.  The m copies
of a necklace give m cycles that are translates of one another; `_cycles`
walks each class of translates once, and its letters, gathered by one
C-level `itemgetter` call and joined, spell one Lyndon word of multiplicity
m.  The kernel yields one (Lyndon word, multiplicity) pair per class, in
the order of the Lyndon words, as the walk reaches it.

Every caller takes the pairs as they come.  The CLI hands `inverse_text`
its raw text and the alphabet's letters, as it hands `transform_text` its
raw entries, and prints each pair as a line or a JSON entry; the least de
Bruijn word joins the Lyndon words of the pairs.  `inverse_transform` and
`standard_permutation` hand it the text of their codes as `chr(code)`
letters (`code_text`) and read codes back (`text_codes`): one call per
Lyndon word, or per column.  That codec belongs to `words`, and the error
for a letter outside an alphabet to `errors.unknown_letter`; this module
imports both.  The one walk, `_cycles`, also reads
`StandardPermutation.cycles`, whose record keeps tuples, since its fields
are compared with tuples and hashed as a record's are.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, chain, repeat
from operator import add, itemgetter, mul

from .errors import NotLyndonError, unknown_letter
from .words import Alphabet, Necklace, Value, Word, code_text, lyndon_representative, text_codes
# omega_compare is unused here; bench/tracing.py counts calls at bwt.omega_compare.
from .words import omega_compare  # noqa: F401

# The widest window the transform sorts, in bytes of its string: 64 letters
# of one byte (code points below 256), 32 of two (below 65536), 16 of four.
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
        minimal element s: number m of translates}, listed by s (see
        `_cycles`, which walks them).  The record's fields stay tuples,
        which callers compare with tuples and the record hashes, and each
        cycle becomes a tuple key."""
        return {tuple(cycle): copies for cycle, copies in _cycles(self.image, self.sorted_codes)}


def _cycles(image, letters):
    """Yield (cycle, m) for each class of translates of the permutation
    `image`, whose row i holds the letter `letters[i]`: the cycle as a list
    read from its minimal element s, and its number m of translates, in
    order of s.  Both are any flat sequences: `inverse_text` passes an
    `array("q")` and a `str`, `StandardPermutation.cycles` its tuples.

    The translates of a cycle C are C + 1, ..., C + m - 1, with minima
    s + 1, ..., s + m - 1; expanded in order they list every cycle by its
    minimal element.  C + j is such a translate when, for every c in C,
    `letters[c + j] == letters[c]` and `image[c + j] == image[c] + j`.  Then
    the same holds for every i <= j: `letters` is sorted, so c + i lies in
    the domain of the letter of c, where `image` increases, so the j + 1
    images of c, ..., c + j are j + 1 increasing integers from image[c] to
    image[c] + j.  So each C + i is closed under the permutation, a cycle
    with minimum s + i that spells the letters of C.  The largest such j is
    found by doubling and then bisection, each check a few C-level maps
    over C, and the rows of the translates are marked seen by slice
    assignment.

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
    n = len(image)
    seen = bytearray(n)
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
            while high < top and _translates(image, letters, cycle, high):
                low, high = high, 2 * high
            high = min(high, top)
            while high - low > 1:
                mid = (low + high) // 2
                if _translates(image, letters, cycle, mid):
                    low = mid
                else:
                    high = mid
            copies = low + 1
            marks = b"\x01" * low
            for c in cycle:
                seen[c + 1:c + copies] = marks
        yield cycle, copies
        start = seen.find(0, start + copies)


def _translates(image, letters, cycle: list[int], j: int) -> bool:
    """Whether `cycle` shifted by j, all rows in range, is a cycle that
    spells the same letters (see `_cycles`)."""
    letter, image = letters.__getitem__, image.__getitem__
    shifted = list(map(add, cycle, repeat(j)))
    return (list(map(image, shifted)) == shifted[1:] + shifted[:1]
            and list(map(letter, shifted)) == list(map(letter, cycle)))


def standard_permutation(w: Word) -> StandardPermutation:
    """Build the standard permutation of a nonempty word from the rows of
    `_standard_rows` over the text of its codes, held as tuples."""
    if len(w) == 0:
        raise ValueError("the standard permutation needs a nonempty word")
    image, column = _standard_rows(code_text(w.codes), code_text(range(w.alphabet.size)))
    return StandardPermutation(w.alphabet, tuple(image), text_codes(column))


def _standard_rows(text: str, letters: str):
    """The standard permutation of `text` over `letters`, strictly
    increasing, as (image, sorted column): the image as an `array("q")`, 8
    bytes a row and no int object, the column as a `str`; both empty for the
    empty text.

    One pass over the text appends each position to the row of its letter,
    an `array("q")` reached through a dict from letter to its `append`, so
    row a receives the positions of a in increasing order: it is ran(a).
    The rows joined in letter order are the image, which pairs dom(a), the
    next len(ran(a)) rows of the column, with ran(a) in order, and the
    column is a run of each letter as long as its row.  That is O(|w| + k)
    time, and no int object per position outlives the pass.  A character
    of the text outside `letters` raises `unknown_letter`'s ValueError for
    the first one: the dict's KeyError is that check."""
    from array import array  # only the permutation needs it, not the CLI's start-up

    rows = [array("q") for _ in letters]
    appends = dict(zip(letters, [row.append for row in rows]))
    try:
        for i, letter in enumerate(text):
            appends[letter](i)
    except KeyError as e:
        raise unknown_letter(e.args[0], letters) from None
    image = array("q")
    for row in rows:
        image += row
    return image, "".join(map(mul, letters, map(len, rows)))


def inverse_text(text: str, letters: str):
    """The inverse transform of `text` over `letters`, strictly increasing
    in code point: an iterator of one (Lyndon word as text, multiplicity)
    pair per necklace, in the order of the Lyndon words (see
    `inverse_transform`).  A character of the text outside `letters` raises
    `unknown_letter`'s ValueError for the first one, at the call, before
    any pair is read.

    The rows of `_standard_rows` are built at the call and walked by
    `_cycles` as the pairs are read, and each class's letters are read by
    one C-level gather, `itemgetter(*cycle)`, and joined; a one-row cycle
    gathers the bare letter, which joins as itself.  No list of the pairs
    is built, so a caller that joins or prints them holds each word once."""
    image, column = _standard_rows(text, letters)
    return (("".join(itemgetter(*cycle)(column)), copies)
            for cycle, copies in _cycles(image, column))


def transform(m: NecklaceMultiset) -> Word:
    """The extended Burrows-Wheeler transform of a necklace multiset.

    Each Lyndon word is written as the text of its `chr(code)` letters
    (`code_text`), whose code-point order is the code order, for
    `transform_text`, and the code points of its text are the word.  Every
    letter written is a code of a necklace of the multiset, which is over
    its alphabet, so the word is built without `Word`'s range check.
    """
    texts = [code_text(necklace.lyndon.codes) for necklace, _ in m.entries]
    mults = [mult for _, mult in m.entries]
    text = transform_text(texts, mults, chr(m.alphabet.size - 1))
    return Word.unchecked(m.alphabet, text_codes(text))


def transform_text(texts: list[str], mults: list[int], top: str, lyndon: bool = False) -> str:
    """The extended Burrows-Wheeler transform, as text, of the necklaces of
    the primitive `texts`, taken `mults` times each.  The strings' code-point
    order must be the letter order, and `top` is at least their largest
    letter.  Raw CLI entries qualify as they stand: every `Alphabet` ascends
    by code point, so comparing the strings compares the words.

    Ranks the rotations by the omega-order.  Each text is repeated to at
    least its length plus `span` letters, and the window of `span` letters at
    each of its rotations is cut with C-level slicing: the first span letters
    of that rotation's infinite power.  Then one sort of the rotations by
    window gives the order, unless two windows tie.

    Two rotations of lengths p and q with equal prefixes of length
    p + q - gcd(p, q) have equal infinite powers (Fine and Wilf), hence equal
    roots, so they are equal words.  So when span is 2 * maxlen, windows tie
    only on equal rotations, and their order is the omega-order.  Span is
    capped at WINDOW_BYTES of string, by the byte width of `top` (64 letters
    below code point 256, 32 below 65536, 16 above), which bounds the memory
    of the windows; below 2 * maxlen it is checked for ties, and only when
    there are any does prefix doubling (Manber and Myers) go on from there.

    Each round starts by ranking the keys densely, by one sort of the
    distinct ones, so the key of a rotation is below their number, width,
    and orders its first span letters.  The round pairs it with the key of
    the rotation span letters further round the same text, cut from that
    text's keys as two slices, as key * width + key', which is below width
    squared and orders the first 2 * span letters.  The rounds stop as soon
    as the keys are distinct, or the span reaches 2 * maxlen.

    Equal rotations, the copies of one necklace or rotations of it given as
    different texts, sit adjacent in the order and end in one letter, so
    they need no merge: each rotation's last letter is repeated once per
    copy, and those strings are joined in the order.

    With `lyndon`, each text must be its own least rotation, and the keys,
    distinct on the rotations of one primitive text, check it before any
    letter is written: rotation 0 must hold the least key of its text.  The
    first text that fails raises NotLyndonError with its index and the start
    of its least rotation, the rotation with the least key.
    """
    lengths = list(map(len, texts))
    limit = 2 * max(lengths, default=0)
    span = min(limit, WINDOW_BYTES // (1 if top < "\u0100" else 2 if top < "\U00010000" else 4))
    keys = _ranking_keys(texts, lengths, span, limit)
    if lyndon:
        _check_lyndon(keys, lengths)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    del keys  # the windows: the largest list here
    last = chain.from_iterable(t[-1:] + t[:-1] for t in texts)
    last = list(map(mul, last, chain.from_iterable(map(repeat, mults, lengths))))
    return "".join(map(last.__getitem__, order))


def _check_lyndon(keys: list, lengths: list[int]) -> None:
    """Raise NotLyndonError for the first text, of the given lengths, whose
    rotation 0 does not hold the least of its keys (see `transform_text`)."""
    ends = list(accumulate(lengths))
    starts = [0, *ends][:-1]
    least = list(map(min, map(keys.__getitem__, map(slice, starts, ends))))
    if least != list(map(keys.__getitem__, starts)):
        i = next(i for i, (key, start) in enumerate(zip(least, starts)) if key != keys[start])
        start = keys.index(least[i], starts[i], ends[i]) - starts[i]
        raise NotLyndonError(f"text {i} is not a Lyndon word: its least rotation starts at "
                             f"{start}", i, start)


def _ranking_keys(texts: list[str], lengths: list[int], span: int, limit: int) -> list:
    """Keys that sort the rotations of the primitive `texts` into the
    omega-order (see `transform_text`): their windows of span letters when
    those are distinct, else integer keys from prefix-doubling rounds that
    start at span.

    A round's width is the number of distinct keys, at most the number of
    rotations, so its keys stay below width squared.  Under the CLI's
    default guard of 2^24 letters that is below 2^48, two 30-bit CPython
    int digits, and pairing is exact at any width."""
    keys: list = []
    for t, n in zip(texts, lengths):
        text = t * (span // n + 2)
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
    necklace are one class of m translates in `_cycles`, so each class
    becomes one necklace of multiplicity m, and distinct classes spell
    distinct necklaces.  The classes are read by `inverse_text`, over the
    text of w's codes as `chr(code)` letters, and each Lyndon word's text
    is read back as codes by one `text_codes`; no `StandardPermutation`
    record is built.

    The classes already come in the order of their Lyndon words, so they
    are not sorted.  `_cycles` lists them by minimal row, and the rows are in
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
    ascend strictly by Lyndon word.  The empty word has no cycle, and gives
    the empty multiset over its alphabet.
    """
    alphabet = w.alphabet
    necklace, word = Necklace.unchecked, Word.unchecked
    return NecklaceMultiset.unchecked(alphabet, tuple(
        (necklace(word(alphabet, text_codes(lyndon))), copies)
        for lyndon, copies in inverse_text(code_text(w.codes), code_text(range(alphabet.size)))
    ))
