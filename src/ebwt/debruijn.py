"""De Bruijn sets and words via the extended transform.

A word of length k^n whose length-k blocks are alphabet permutations inverts
to a de Bruijn set of span n, and conversely; the all-identity-block word
inverts to the necklaces of Lyndon words of length dividing n, whose sorted
concatenation is the lexicographically least de Bruijn word.  Both routes
build what the theorem proves and do not check the inverse again; the tests
check it with `is_debruijn_set`, and an independent Lyndon-successor
enumeration provides the cross-check oracle.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from math import factorial, lgamma, log, log10

from .bwt import NecklaceMultiset, inverse_transform, standard_permutation
from .errors import ResourceLimitError
from .words import Value, Word, default_alphabet

DEFAULT_MAX_WORD_LENGTH = 2**24
# Longest de Bruijn word count returned, in decimal digits: CPython's default
# int-to-str conversion limit, so every returned count can be printed.
MAX_COUNT_DIGITS = 4300


def power_exceeds(k: int, n: int, limit: int) -> bool:
    """Whether k^n > limit, for k >= 1, building k^n only for small n: when
    k >= 2, every n >= limit.bit_length() gives k^n >= 2^n > limit."""
    return (k >= 2 and n >= limit.bit_length()) or k**n > limit


def power_text(k: int, n: int) -> str:
    """k^n in decimal when it has fewer than MAX_COUNT_DIGITS digits, else
    written as "k^n", so that a message never builds a huge power."""
    if n * log10(k) < MAX_COUNT_DIGITS - 1:
        return str(k**n)
    return f"{k}^{n}"


def first_bad_block(w: Word, k: int, n: int) -> int | None:
    """Index of the first length-k block that is not an alphabet permutation,
    or None when all k^{n-1} blocks are.  Assumes |w| = k^n."""
    full = frozenset(range(k))
    for j in range(k ** (n - 1)):
        if frozenset(w.codes[j * k:(j + 1) * k]) != full:
            return j
    return None


class GammaWord(Value):
    """A length-k^n word whose k^{n-1} blocks each permute the alphabet."""

    word: Word
    span: int

    def __post_init__(self):
        k, length = self.word.alphabet.size, len(self.word)
        if power_exceeds(k, self.span, length) or k**self.span != length:
            raise ValueError(
                f"word length {length} is not {k}^{self.span}"
            )
        bad = first_bad_block(self.word, k, self.span)
        if bad is not None:
            raise ValueError(f"block {bad} is not a permutation of the alphabet")


def is_debruijn_set(m: NecklaceMultiset, n: int) -> bool:
    """True iff the length-n power-prefixes of all rotations of m's necklaces
    are exactly the k^n words of A^n, each once: the total length is k^n,
    every multiplicity is 1, and the prefixes are pairwise distinct.  The
    prefix of rotation i of a necklace c is the slice [i, i + n) of a power
    of c long enough to hold every such window."""
    k = m.alphabet.size
    if m.total_length != k**n:
        return False
    seen = set()
    for necklace, mult in m.entries:
        if mult != 1:
            return False
        c = necklace.lyndon.codes
        power = c * (n // len(c) + 2)
        seen.update(power[i:i + n] for i in range(len(c)))
    return len(seen) == k**n


def debruijn_set_from_gamma(v: GammaWord) -> NecklaceMultiset:
    """Invert a block-permutation word into its de Bruijn set of span n.

    The inverse is not re-checked, because the paper's theorem proves it.
    Each letter occurs k^{n-1} times in v, so position x of the sorted
    column holds the letter x div k^{n-1}, the leading base-k digit of x.
    The standard permutation sends x to the position of the j-th occurrence
    of that letter, j = x mod k^{n-1}.  Block j holds it exactly once, so the
    image is jk + r with r < k: its leading n-1 digits are the trailing n-1
    digits of x.  Reading n letters along a cycle from x therefore spells x
    in base k.  The k^n positions spell k^n distinct windows, so every word
    of A^n is the length-n window of exactly one rotation, and no necklace
    repeats.  `is_debruijn_set` checks this in the tests.
    """
    return inverse_transform(v.word)


def _log10_gamma_count(k: int, n: int) -> float:
    """log10 of (k!)^(k^(n-1)), the number of block-permutation words of
    span n, without building the integer; inf when it overflows a float."""
    try:
        return float(k) ** (n - 1) * lgamma(k + 1) / log(10)
    except OverflowError:
        return float("inf")


def enumerate_gamma(k: int, n: int, limit: int = 10**6):
    """Yield every concatenation of k^{n-1} alphabet-permutation blocks, in
    lexicographic order.  Refuses up front when the census exceeds `limit`,
    in log space first (the margin of 1 absorbs float rounding), so the exact
    census is only computed when it is about as small as `limit`."""
    if _log10_gamma_count(k, n) > limit.bit_length() * log10(2) + 1:
        raise ResourceLimitError(
            f"block-permutation words of span {n} over {k} letters number "
            f"more than the limit {limit}"
        )
    count = factorial(k) ** (k ** (n - 1))
    if count > limit:
        raise ResourceLimitError(
            f"{count} block-permutation words of span {n} exceed the limit {limit}"
        )
    alphabet = default_alphabet(k)
    blocks = list(permutations(range(k)))
    for chosen in product(blocks, repeat=k ** (n - 1)):
        codes = tuple(c for block in chosen for c in block)
        yield Word(alphabet, codes)


def count_debruijn_words(k: int, n: int) -> int:
    """Number of de Bruijn words of span n over k letters: (k!)^(k^(n-1)) / k^n.

    The division is exact: k divides k!, so k^(k^(n-1)) divides the
    numerator, and k^(n-1) >= n for k >= 2.

    Refuses a count of more than MAX_COUNT_DIGITS digits.  Its length is
    checked in log space before any big integer exists (the margin of 1
    absorbs float rounding), then exactly.
    """
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    if _log10_gamma_count(k, n) - n * log10(k) <= MAX_COUNT_DIGITS + 1:
        total = factorial(k) ** (k ** (n - 1)) // k**n
        if total < 10**MAX_COUNT_DIGITS:
            return total
    raise ResourceLimitError(
        f"the number of de Bruijn words of span {n} over {k} letters has more "
        f"than {MAX_COUNT_DIGITS} digits"
    )


def _check_generation_guard(k: int, n: int, max_length: int):
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    if power_exceeds(k, n, max_length):
        raise ResourceLimitError(
            f"span-{n} generation over {k} letters needs k^n = {power_text(k, n)} "
            f"positions, over the guard {max_length}"
        )


def _identity_block_word(k: int, n: int, max_length: int) -> Word:
    """The all-identity-block word (0 1 ... k-1)^(k^{n-1}), refused when
    k^n passes `max_length`.  It has length k^n and every block is the
    identity, so it is a block-permutation word by construction and is not
    scanned again, and its codes are 0..k-1, so it is built without `Word`'s
    range check."""
    _check_generation_guard(k, n, max_length)
    return Word.unchecked(default_alphabet(k), tuple(range(k)) * (k ** (n - 1)))


def least_debruijn_set(k: int, n: int,
                       max_length: int = DEFAULT_MAX_WORD_LENGTH) -> NecklaceMultiset:
    """Invert the all-identity-block word: the necklaces of all Lyndon words
    of length dividing n, each once.

    The standard permutation of that word sends a*k^{n-1} + j to jk + a, a
    rotation of the n base-k digits, so its cycles are the necklaces of
    A^n, each once (see `debruijn_set_from_gamma` for the general proof).
    """
    return inverse_transform(_identity_block_word(k, n, max_length))


def least_debruijn_word(k: int, n: int, max_length: int = DEFAULT_MAX_WORD_LENGTH) -> Word:
    """The lexicographically least de Bruijn word of span n over k letters:
    the Lyndon words of length dividing n in lexicographic order, read
    straight off the cycles of the standard permutation of the
    all-identity-block word, with no record per Lyndon word.

    `StandardPermutation.cycles` lists one cycle per class of translates,
    read from its minimal row; each spells a Lyndon word, and the classes
    come in the order of their Lyndon words (see `inverse_transform`).  The
    word inverted is a block-permutation word, so no necklace of its
    inverse repeats (see `debruijn_set_from_gamma`): every class has one
    copy, and the listed cycles are all the cycles.  So their letters, in
    listing order, are the sorted concatenation of the Lyndon words of
    `least_debruijn_set`.  They are letters of the word inverted, over its
    k letters, so the result is built without `Word`'s range check.
    """
    v = _identity_block_word(k, n, max_length)
    p = standard_permutation(v)
    codes = map(p.sorted_codes.__getitem__, chain.from_iterable(p.cycles()))
    return Word.unchecked(v.alphabet, tuple(codes))


def _lyndon_words_up_to(n: int, k: int):
    """All Lyndon code-words of length <= n over k letters, lexicographically
    (the classic successor step: extend periodically, strip maxima, bump)."""
    w = [0]
    while True:
        yield tuple(w)
        w = [w[i % len(w)] for i in range(n)]
        while w and w[-1] == k - 1:
            w.pop()
        if not w:
            return
        w[-1] += 1


def lyndon_concatenation_oracle(k: int, n: int) -> Word:
    """Concatenate all Lyndon words of length dividing n in lexicographic
    order.  Independent of the transform machinery, for cross-validation."""
    _check_generation_guard(k, n, DEFAULT_MAX_WORD_LENGTH)
    codes = []
    for u in _lyndon_words_up_to(n, k):
        if n % len(u) == 0:
            codes.extend(u)
    return Word(default_alphabet(k), tuple(codes))
