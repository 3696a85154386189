"""Distinct-factor counting and the envelope bounds it satisfies.

An online suffix automaton counts distinct nonempty factors in linear time;
the brute-force substring set stays in the test suite as the oracle.  The
bounds: every repeated-short-factor count lowers the n(n+1)/2 ceiling, and a
prefix of the least de Bruijn word of a suitable span certifies the floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .debruijn import DEFAULT_MAX_WORD_LENGTH, least_debruijn_word, power_exceeds, power_text
from .errors import ResourceLimitError
from .words import Word, default_alphabet

DEFAULT_SCAN_WORDS = 2**18
# Letters of a word whose factors are counted: its suffix automaton takes
# about 600 B per letter, so about 0.6 GB.
DEFAULT_FACTOR_LETTERS = 2**20


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
    """Number of distinct nonempty factors of w."""
    if len(w) == 0:
        raise ValueError("factor counting is undefined for the empty word")
    return count_distinct_factors(w.codes)


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


@dataclass(frozen=True)
class FactorWitness:
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
