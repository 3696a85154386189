"""Distinct-factor counting and the envelope bounds it satisfies.

A word's distinct nonempty factors are counted from its suffixes in sorted
order: prefix-doubled windows packed into integers, one sort and one pass
over the XORs of neighbours.  A word whose longest repeated factor is too
long for a key of PACKED_KEY_BITS bits is counted by an online suffix
automaton, in linear time; so are the short words of the exhaustive scan.
The brute-force substring set stays in the test suite as the oracle.  The
bounds: every repeated-short-factor count lowers the n(n+1)/2 ceiling, and a
prefix of the least de Bruijn word of a suitable span certifies the floor.
"""

from __future__ import annotations

from itertools import chain, islice, product, repeat
from operator import lshift, or_, xor

from .debruijn import DEFAULT_MAX_WORD_LENGTH, least_debruijn_word, power_exceeds, power_text
from .errors import ResourceLimitError
from .words import Value, Word, default_alphabet

DEFAULT_SCAN_WORDS = 2**18
# Letters of a word whose factors are counted.  Packed windows take about
# 100 B per letter, but a word with a long repeat falls back to the suffix
# automaton at about 600 B per letter, so about 0.6 GB.
DEFAULT_FACTOR_LETTERS = 2**20
# Widest packed window key of distinct_factors: span 64 over 2-3 letters,
# span 32 over 4-15.  A word with a repeat of that span goes to the automaton.
PACKED_KEY_BITS = 128


def count_distinct_factors(codes) -> int:
    """Number of distinct nonempty factors of a code sequence, via the state
    lengths of its suffix automaton."""
    maxlen = [0]
    link = [-1]
    trans: list[dict] = [{}]
    last = 0
    for ch in codes:
        cur = len(maxlen)
        maxlen.append(maxlen[last] + 1)
        link.append(-1)
        trans.append({})
        p = last
        while p != -1 and ch not in trans[p]:
            trans[p][ch] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        else:
            q = trans[p][ch]
            if maxlen[p] + 1 == maxlen[q]:
                link[cur] = q
            else:
                clone = len(maxlen)
                maxlen.append(maxlen[p] + 1)
                link.append(link[q])
                trans.append(dict(trans[q]))
                while p != -1 and trans[p].get(ch) == q:
                    trans[p][ch] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        last = cur
    return sum(maxlen[v] - maxlen[link[v]] for v in range(1, len(maxlen)))


def distinct_factors(w: Word) -> int:
    """Number of distinct nonempty factors of w, from its sorted packed
    windows (Manber and Myers, "Suffix arrays", SIAM J. Comput. 1993).

    Letter code c is the digit c + 1 of `bits` = k.bit_length() bits, and the
    digit 0 pads past the end of w.  Key i starts as the digit of w[i]; each
    round sets key[i] = key[i] << (bits * span) | key[i + span] and doubles
    the span, so key i spells w[i:i + span] followed by padding.  A 0 digit
    never equals a letter, so two keys are equal only when both are full
    windows that are equal; the rounds stop once all n keys are distinct,
    that is, once span exceeds the longest repeated factor.  While k^span is
    less than the n - span + 1 full windows, pigeonhole says some window
    repeats, so that round skips the check.

    Then two suffixes differ within their first span letters, so the sorted
    keys are the suffixes in order.  Neighbours a < b share
    span - ceil(bitlen(a ^ b) / bits) leading digits, all of them letters:
    each suffix has its first padding digit at a position of its own, where
    the other has a letter.  That is their longest common prefix, and the
    count is n(n+1)/2 minus the sum over neighbours.

    A word whose longest repeated factor is at least the widest span that
    fits PACKED_KEY_BITS is counted by its suffix automaton instead: a packed
    key for it would grow with the repeat, and with it the whole pass.  When
    its first `widest` letters occur again, one `str.find` says so before any
    round; periodic and Fibonacci words are found that way.
    """
    n = len(w)
    if n == 0:
        raise ValueError("factor counting is undefined for the empty word")
    k = w.alphabet.size
    bits = k.bit_length()
    widest = 1 << ((PACKED_KEY_BITS // bits).bit_length() - 1)
    text = str(w)
    if text.find(text[:widest], 1) >= 0:
        return count_distinct_factors(w.codes)
    keys = list(map((1).__add__, w.codes))
    span = 1
    while k**span < n - span + 1 or len(set(keys)) < n:
        if span == widest:
            return count_distinct_factors(w.codes)
        keys = list(map(or_, map(lshift, keys, repeat(bits * span)),
                        chain(islice(keys, span, None), repeat(0, span))))
        span *= 2
    keys.sort()
    shared = [span - -(-length // bits) for length in range(span * bits + 1)]
    lcps = map(shared.__getitem__, map(int.bit_length, map(xor, keys, islice(keys, 1, None))))
    return n * (n + 1) // 2 - sum(lcps)


def max_factors_exhaustive(n: int, k: int,
                           max_words: int = DEFAULT_SCAN_WORDS) -> tuple[int, Word]:
    """Maximum distinct-factor count over all k-ary words of length n, with
    the lexicographically least witness."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if power_exceeds(k, n, max_words):
        size = f"{k}^{n}"
        count = power_text(k, n)
        if count != size:
            size += f" = {count}"
        raise ResourceLimitError(f"scanning {size} words exceeds the {max_words}-word guard")
    alphabet = default_alphabet(k)
    best = -1
    witness = None
    for codes in product(range(k), repeat=n):
        count = count_distinct_factors(codes)
        if count > best:
            best = count
            witness = codes
    return best, Word(alphabet, witness)


def repeated_factor_lower_bound(n: int, k: int) -> int:
    """Guaranteed number of repeated factors in any k-ary word of length n:
    with t the largest r such that r + k^r <= n, this is
    (n+1)t - t(t+1)/2 - k(k^t - 1)/(k - 1)."""
    if not n > k >= 2:
        raise ValueError(f"need n > k >= 2, got n={n}, k={k}")
    t = 0
    r = 1
    while r + k**r <= n:
        t = r
        r += 1
    return (n + 1) * t - t * (t + 1) // 2 - k * (k**t - 1) // (k - 1)


class FactorWitness(Value):
    """A length-n word certifying a quadratic distinct-factor floor."""

    word: Word
    span: int
    distinct_count: int
    lower_bound: int


def debruijn_factor_witness(n: int, k: int,
                            max_length: int = DEFAULT_MAX_WORD_LENGTH) -> FactorWitness:
    """A high-complexity witness: the length-n prefix of the least de Bruijn
    word of span m, where k^{m-1} < n <= k^m.

    The floor (n-m+1)(n-m+2)/2 holds without a check.  Since n <= k^m, the
    length-m windows of the prefix start at distinct positions of the de
    Bruijn word and do not wrap, so they are pairwise distinct.  A factor of
    length l >= m starts with its own window, so the n-l+1 factors of each
    such length are distinct too, and summing n-l+1 over l = m..n gives the
    floor.
    """
    if not n > k >= 2:
        raise ValueError(f"need n > k >= 2, got n={n}, k={k}")
    m = 1
    while k**m < n:
        m += 1
    full = least_debruijn_word(k, m, max_length)
    w = Word(full.alphabet, full.codes[:n])
    return FactorWitness(w, m, distinct_factors(w), (n - m + 1) * (n - m + 2) // 2)
