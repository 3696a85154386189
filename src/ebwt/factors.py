"""Distinct-factor counting and the envelope bounds it satisfies.

A word's distinct nonempty factors are counted from its suffixes in sorted
order: each suffix is cut to the widest window that one integer key of
PACKED_KEY_BITS bits holds, joined from two 64-bit words of an array read
over bytes of packed digits, and one sort and one pass over the XORs of
neighbours follow.  A word with a repeat as long as that window is counted
by an online suffix automaton, in linear time; so are the short words of
the exhaustive scan.  The brute-force substring set stays in the test
suite as the oracle.  The bounds: every repeated-short-factor count lowers
the n(n+1)/2 ceiling, and a prefix of the least de Bruijn word of a suitable
span certifies the floor.
"""

from __future__ import annotations

import sys
from itertools import islice, product, repeat
from operator import lshift, or_, xor

from .debruijn import DEFAULT_MAX_WORD_LENGTH, least_debruijn_word, power_exceeds, power_text
from .errors import ResourceLimitError
from .words import Value, Word, default_alphabet

DEFAULT_SCAN_WORDS = 2**18
# Letters of a word whose factors are counted.  Packed keys take about 61 B
# per letter at their peak over any alphabet (a 128-bit int and its list
# slot; tracemalloc reads 60.4, 60.6, 60.1 and 60.7 B on 2^20 random letters
# over 2, 4, 16 and 300 letters), but a word with a long repeat falls
# back to the suffix automaton at about 300 B per letter, so about 0.3 GB:
# a child's ru_maxrss grew by 306 MB as it counted r.r, r a random binary
# word of 2^19 letters (CPython 3.11).
DEFAULT_FACTOR_LETTERS = 2**20
# Bits of a packed key of distinct_factors, two 64-bit words: windows of 64
# letters over 2-3 letters, 32 over 4-15 and 16 over 16-255.  A word with a
# repeat of that span goes to the automaton.
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
    """Number of distinct nonempty factors of w, from its sorted suffixes
    (Manber and Myers, "Suffix arrays", SIAM J. Comput. 1993), each cut to
    its first `widest` letters.

    Letter code c is the digit c + 1 of dw bits, dw the least power of two
    at least k.bit_length(), and the digit 0 pads past the end of w.  Key i
    is the integer of the widest = PACKED_KEY_BITS / dw digits from position
    i, so it spells w[i:i + widest] followed by padding.  When dw < 8, a
    byte holds per = 8 / dw digits, and the string of phase r < per holds
    the digits from position r on, so key r + per * j starts at its byte j;
    when dw >= 8, one string holds step = dw / 8 bytes a letter, so key i
    starts at its byte i * step.  Each string ends in at least a key of
    padding.  Manber and Myers double the span so that it can grow past any
    repeat; here it stops at `widest`, so each key is cut whole, in one pass.

    The keys are cut from 64-bit words, not from slices: each string is
    read as big-endian words from each byte offset o < 8 that a key starts
    at, one `array("Q")` an offset, and the key at its byte o + 8t is
    high[t] << 64 | high[t + 1], high being the words read from o.  A read
    ends less than 16 bytes past the last key's start, inside the padding.
    The keys are listed by offset, not by position, which the sort undoes.

    A 0 digit never equals a letter, so two keys are equal only when both
    are full windows that are equal, and two different keys order their
    suffixes.  Neighbours a < b of the sorted keys share
    widest - ceil(bitlen(a ^ b) / dw) leading digits, all of them letters:
    each suffix has its first padding digit at a position of its own, where
    the other has a letter.  That is their longest common prefix, and the
    count is n(n+1)/2 minus the sum over neighbours.

    When two keys are equal, w has a repeat of `widest` letters or more,
    and its suffix automaton counts it instead: a packed key for it would
    grow with the repeat, and with it the whole pass.  When its first
    `widest` letters occur again, one `bytes.find` says so before any key is
    cut; periodic and Fibonacci words are found that way.  It runs on the
    digits that the keys are cut from, step bytes a letter, so a match
    counts only at a multiple of step (and none reaches the padding, whose
    digits are 0); the word is never rendered.
    """
    from array import array  # only counting needs it, not the CLI's start-up

    n = len(w)
    if n == 0:
        raise ValueError("factor counting is undefined for the empty word")
    dw = 1 << (w.alphabet.size.bit_length() - 1).bit_length()
    widest = PACKED_KEY_BITS // dw
    key_bytes = PACKED_KEY_BITS // 8
    swap = sys.byteorder == "little"
    if dw < 8:
        per, step = 8 // dw, 1
        letters = bytes(w.codes).translate(bytes.maketrans(bytes(range(15)), b"123456789abcdef"))
    else:
        per, step = 1, dw // 8
        wide = array(next(code for code in "BHILQ" if array(code).itemsize == step),
                     map((1).__add__, w.codes))
        wide.extend(repeat(0, key_bytes // step))
        if swap:
            wide.byteswap()
        letters = wide.tobytes()
        del wide
    prefix = letters[:widest * step]
    at = letters.find(prefix, step)
    while at > 0 and at % step:
        at = letters.find(prefix, at + 1)
    if at > 0:
        return count_distinct_factors(w.codes)
    if dw < 8:
        size = -(-n // per) + key_bytes
        packed = int(letters + b"0" * (size * per - n), 1 << dw)
        strings = [(packed << dw * r).to_bytes(size + 1, "big")[1:] for r in range(per)]
    else:
        strings = [letters]
    keys = []
    for r, string in enumerate(strings):
        end = len(range(r, n, per)) * step  # keys start at multiples of step below it
        view = memoryview(string)
        for offset in range(0, min(8, end), step):
            high = array("Q")
            high.frombytes(view[offset:offset + (end - offset + 15) // 8 * 8])
            if swap:
                high.byteswap()
            high = high.tolist()
            keys += map(or_, map(lshift, high, repeat(64)), islice(high, 1, None))
    del letters, strings, string, view, high  # the sort and the gaps set the peak
    keys.sort()
    gaps = list(map(int.bit_length, map(xor, keys, islice(keys, 1, None))))
    del keys
    if 0 in gaps:  # two equal full windows
        return count_distinct_factors(w.codes)
    shared = [widest - -(-length // dw) for length in range(PACKED_KEY_BITS + 1)]
    return n * (n + 1) // 2 - sum(map(shared.__getitem__, gaps))


def max_factors_exhaustive(n: int, k: int,
                           max_words: int = DEFAULT_SCAN_WORDS) -> tuple[int, Word]:
    """Maximum distinct-factor count over all k-ary words of length n, with
    the lexicographically least witness.

    The words are scanned in lexicographic order, and the scan stops at the
    first one whose count meets `factor_ceiling`, which no word exceeds: that
    word is the least witness.  When none meets it (k = 1), the scan runs to
    the end.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if power_exceeds(k, n, max_words):
        size = f"{k}^{n}"
        count = power_text(k, n)
        if count != size:
            size += f" = {count}"
        raise ResourceLimitError(f"scanning {size} words exceeds the {max_words}-word guard")
    ceiling = factor_ceiling(n, k)
    best = -1
    witness = None
    for codes in product(range(k), repeat=n):
        count = count_distinct_factors(codes)
        if count > best:
            best = count
            witness = codes
            if best == ceiling:
                break
    return best, Word(default_alphabet(k), witness)


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


def factor_ceiling(n: int, k: int) -> int:
    """The most distinct nonempty factors a k-ary word of length n can have
    by the envelope: n(n+1)/2, less `repeated_factor_lower_bound(n, k)` when
    n > k >= 2."""
    ceiling = n * (n + 1) // 2
    return ceiling - repeated_factor_lower_bound(n, k) if n > k >= 2 else ceiling


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
        raise ValueError(f"witness needs n > k >= 2, got n={n}, k={k}")
    m = 1
    while k**m < n:
        m += 1
    full = least_debruijn_word(k, m, max_length)
    w = Word(full.alphabet, full.codes[:n])
    return FactorWitness(w, m, distinct_factors(w), (n - m + 1) * (n - m + 2) // 2)
