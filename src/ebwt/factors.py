"""Distinct-factor counting and the envelope bounds it satisfies.

A word's distinct nonempty factors are counted from its suffixes in sorted
order, from its text: one `str.translate` maps the text to code text and
one codec call writes that as code bytes, with no code tuple.  The table
of that translate is `words.LetterTable`, the letter rule's one home, and
`code_text`/`text_codes` come from `words` too.  Each suffix
gets a primary key of PRIMARY_BITS bits, cut in C from the word's dense
code string and small enough for CPython's fast compare of one-digit ints;
one sort follows.  The sorted primaries then go back into
4-byte records, and the longest common prefix of every neighbour pair is
read from the records' XOR with their neighbours a byte at a time, by
`translate` and whole-string int arithmetic, with no int object per pair.
Only suffixes whose primaries tie get an exact key: a window of letters
read from the same code bytes as the primaries, padded past the end of the
word.  A word with a repeat as long as that window is counted by an online
suffix automaton, in linear time; so are the short words of the exhaustive
scan.  The brute-force substring set stays in the test suite as the oracle.
The bounds: every repeated-short-factor count lowers the n(n+1)/2 ceiling,
and a prefix of the least de Bruijn word of a suitable span certifies the
floor."""

from __future__ import annotations

import sys
from itertools import chain, compress, islice, product, repeat
from operator import xor
from struct import unpack

from .debruijn import (
    DEFAULT_MAX_WORD_LENGTH,
    check_generation_guard,
    least_debruijn_text,
    power_exceeds,
    power_text,
)
# least_debruijn_word is unused here; bench/tracing.py times it at
# factors.least_debruijn_word.
from .debruijn import least_debruijn_word  # noqa: F401
from .errors import ResourceLimitError
from .words import LetterTable, Value, Word, code_text, default_alphabet, text_codes

DEFAULT_SCAN_WORDS = 2**18
# Letters of a word whose factors are counted.  The count peaks at about
# 45-51 B per letter as it sorts the primaries (a one-digit int, its list
# slot, its 4-byte record and the sort's merge space; tracemalloc reads
# 45.6, 45.8, 46.0, 47.6 and 50.6 B on 2^20 random letters over 2, 4, 16,
# 300 and 65537 letters, counted by distinct_factors from the text, which
# is held outside it; the code text and the translate table are freed by
# then); the neighbour pass after the sort holds a few bytes per letter.
# The worst case without a fallback ties every primary, and short words
# reach it where a primary holds W = 1 letter (b >= 16): each position then
# gets an exact key as well, about 95 B per letter and 3.5x the time of
# random letters (a de Bruijn word of span 4 over 16 of 65537 letters,
# 65539 letters).  A word with a long repeat falls back to
# the suffix automaton at about 400 B per letter, so about 0.4 GB: a
# child's ru_maxrss grew by 412 MB as distinct_factors counted r.r, r a
# random binary word of 2^19 letters, on each of three seeds (CPython
# 3.11.7).
DEFAULT_FACTOR_LETTERS = 2**20
# Sets the exact-key window of distinct_factors, widest = PACKED_KEY_BITS //
# dw letters with dw = bitlen(k) rounded up to a power of two: 128 letters
# over 1 letter, 64 over 2-3, 32 over 4-15, 16 over 16-255, 8 over 256-65535
# and 4 above.  A word with a repeat of widest letters goes to the
# automaton.  A key is widest * step code bytes, step = max(1, dw // 8)
# bytes a letter: 16 bytes from 16 letters on, and 128, 64 or 32 below.
PACKED_KEY_BITS = 128
# Codec and struct format of distinct_factors's code bytes, by bytes a code.
_CODECS = {1: ("latin-1", "B"), 2: ("utf-16-be", "H"), 4: ("utf-32-be", "I")}
# Bits of a primary key of distinct_factors, one CPython digit: 30 letters
# over 2 letters, 15 over 3-4, 10 over 5-8, and 1 from 2^15 + 1 letters on.
PRIMARY_BITS = 30


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


def _select(data, flags: bytes):
    """The items of `data` at the 1 bytes of `flags`, a string of 0 and 1
    bytes, in order.  A 1 past the last window opens one over the next 256
    items, which C-level `compress` reads, so a sparse string costs a Python
    step a cluster of 1s and a dense one a step per 256 items."""
    def windows():
        at = flags.find(1)
        while at >= 0:
            yield compress(data[at:at + 256], flags[at:at + 256])
            at = flags.find(1, at + 256)
    return chain.from_iterable(windows())


def _exact_excess(codes: bytes, starts, dw: int, span: int) -> int | None:
    """Letters past the first `span` that neighbours share among the sorted
    suffixes at `starts`, each cut to its exact key: the integer of the
    widest = PACKED_KEY_BITS / dw letters of `codes` from its start, step =
    max(1, dw / 8) big-endian bytes a letter, with 0xff bytes past the end
    of the word.  None when two keys are equal, a repeat of widest letters.
    Neighbour keys whose XOR has g bits share widest - ceil(g / (8 step))
    letters.
    """
    widest, step = PACKED_KEY_BITS // dw, max(1, dw // 8)
    keys = set()
    for i in starts:
        window = codes[i * step:(i + widest) * step].ljust(widest * step, b"\xff")
        key = int.from_bytes(window, "big")
        if key in keys:
            return None
        keys.add(key)
    keys = sorted(keys)
    gaps = map(int.bit_length, map(xor, keys, islice(keys, 1, None)))
    excess = [max(0, widest - span - -(-g // (8 * step))) for g in range(8 * widest * step + 1)]
    return sum(map(excess.__getitem__, gaps))


def distinct_factors(text: str, letters: str) -> int:
    """Number of distinct nonempty factors of `text`, a word over `letters`,
    distinct characters, from its sorted suffixes (Manber and Myers, "Suffix
    arrays", SIAM J. Comput. 1993): n(n+1)/2 minus the longest common
    prefix of each pair of neighbours.  A caller holding codes 0..k-1
    passes `words.code_text` of them over `code_text(range(k))`.

    Code text.  One `str.translate` through a `LetterTable` spells the text
    with the character of code i for letter i of `letters`; a character
    outside them raises `unknown_letter`'s ValueError for the first one,
    naming `letters` as given.  The count of a word does not depend on
    which code each letter gets, so neither does it on the order of
    `letters`.  The table holds an int pair a letter of `letters`, up to
    about 100 B each, and is freed before the count (`_code_text_factors`).
    """
    return _code_text_factors(text.translate(LetterTable(letters)), len(letters))


def _code_text_factors(text: str, k: int) -> int:
    """`distinct_factors` of the code text `text`, whose characters are
    codes below k.

    Code bytes.  One codec call writes the code text as step big-endian
    bytes a code (step below): latin-1 for one byte, UTF-16 for two and
    UTF-32 for four, with surrogatepass, since codes 0xD800-0xDFFF occur
    past 55,296 letters.  The code text is let go before the primaries are
    cut.  The suffix automaton of a fallback counts it, or after the
    primaries the codes unpacked from the code bytes: a UTF-16 decode would
    join a high surrogate code followed by a low one into one character.

    Primaries.  Each letter is its code, b = max(1, bitlen(k - 1)) bits, in
    one dense code string with no padding.  Each of the N = n - span + 1
    suffixes with at least span = PRIMARY_BITS // b letters gets as its
    primary the PRIMARY_BITS bits of that string from its first letter on,
    zero-filled past the end: its first span letters, then the leading bits
    of the next letter, if any.  Primaries below 2^30 are one CPython digit,
    which `list.sort` compares fast.  They are cut in C: positions i = r +
    P j of phase r < P = 8 / gcd(b, 8) start at the same bit of a byte, so
    one shift of the packed string per phase puts each such primary, behind
    two spare bits, in the 4-byte record at byte j * b / gcd(b, 8); strided
    slices gather the records, a `translate` clears the spare bits and an
    `array` reads them.

    Order and common prefixes.  A primary spells its letters in order and
    pads with zeros, which sort below any bit of a letter after them, so a
    smaller primary is a smaller suffix.  Two different primaries agree on
    the leading bits above the first 1 of their XOR; that many bits over b
    is their common prefix in letters when it is below span, and it is span
    when they differ only in the bits of letter span (a letter there, or
    the end of one of them).  Equal primaries, a tie, share span letters or
    more.  The sorted primaries go into big-endian 4-byte records, read as
    one int, which XORed with itself one record down holds at record j the
    XOR of sorted neighbours j - 1 and j.  Each byte column of those records
    is translated into the leading zero bits of its byte, A (of 6 in the
    first byte, whose top two bits are spare, and of 8 in the others), and
    into a mask Z, 0xff where the byte is 0 and 0 elsewhere; read as ints
    with a byte a pair, A0 + (Z0 & (A1 + (Z1 & (A2 + (Z2 & A3))))) is each
    pair's count of shared leading bits, since a byte's zeros count on into
    the next byte only when the whole byte is 0.  Each byte of it is at
    most 6 + 8 + 8 + 8 = 30 = PRIMARY_BITS, so no sum carries into the
    byte of another pair, and it is 30 exactly when all four bytes of the
    XOR are 0, a tie.  One `translate` by // b gives each pair's shared
    letters and one `sum` their total.

    Ties.  Only tied suffixes get their exact key (`_exact_excess`): the
    widest = PACKED_KEY_BITS / dw letters from their start, dw the least
    power of two at least bitlen(k), read as one int from the code bytes,
    step = max(1, dw / 8) big-endian bytes a letter, with 0xff bytes past
    the end of the word.  The count stays exact for three reasons.  First,
    step follows bitlen(k), one byte up to k = 255 and two up to 65535, so
    the pad letter 0xff...ff lies above every code, and a short suffix sorts
    after the suffixes it prefixes.  Second, in that order every group of
    suffixes that share a prefix stays contiguous, as in lex order, so the
    neighbours' common prefixes have the same sum.  Third, a pad letter
    never equals a code, so two exact keys are equal only when both are full
    windows that are equal; the word then has a repeat of widest letters,
    and its suffix automaton counts it.  Otherwise neighbours among the
    exact keys share widest - ceil(bitlen(a ^ b) / (8 step)) letters, and
    each pair in one tie adds what it shares past span.  A pair from two
    different ties shares span letters at most, so sorting all tied keys
    together adds nothing for it.  Tied positions are found with no Python
    step per position: the tied primaries are the sorted records at the
    bytes 30 of the shared-bit string; a `translate` of each byte column of
    the primaries in position order keeps the positions whose four bytes
    each occur at that place in a tied primary, and only those are looked up
    in the set of tied primaries.  Both reads are C-level `compress` over
    windows that a flagged byte opens (`_select`), so a few ties cost a
    Python step each and an all-tied word one per 256 positions.  Keys are
    cut in position order, so the second start of a repeat ends the step at
    once.

    The tail.  The last span - 1 suffixes (all n when n < span) are shorter
    than span.  Each adds its length minus the longest prefix it shares
    with the suffixes counted before it: with the sorted primaries, found at
    its neighbours where its zero-filled primary would be inserted, and with
    the longer tail suffixes, from their zero-filled primaries; both capped
    at its length.

    The prefix probe: when the first widest letters occur again, one
    `bytes.find` over the code bytes says so before any primary is cut, and
    the automaton counts the word; periodic and Fibonacci words are found
    that way.  With step bytes a letter, a match counts only at a multiple
    of step.
    """
    from array import array  # only counting needs these, not the CLI's start-up
    from bisect import bisect_left
    from math import gcd

    n = len(text)
    if n == 0:
        raise ValueError("factor counting is undefined for the empty word")
    dw = 1 << (k.bit_length() - 1).bit_length()
    widest = PACKED_KEY_BITS // dw
    step = max(1, dw // 8)
    swap = sys.byteorder == "little"
    codec, form = _CODECS[step]
    codes = text.encode(codec, "surrogatepass")
    prefix = codes[:widest * step]
    at = codes.find(prefix, step)
    while at > 0 and at % step:
        at = codes.find(prefix, at + 1)
    if at > 0:
        return count_distinct_factors(text)
    del text  # a late fallback unpacks the codes from the code bytes

    b = max(1, (k - 1).bit_length())
    span = PRIMARY_BITS // b
    dense = bytearray(n * b)  # codes as "0" and "1", from step big-endian bytes each
    for t in range(b):
        bit = b - 1 - t
        low = 1 << bit % 8  # byte values run `low` with that bit 0, then `low` with it 1
        table = (b"0" * low + b"1" * low) * (128 // low)
        dense[t::b] = codes[step - 1 - bit // 8::step].translate(table)
    packed = int(dense, 2)
    del dense
    full = max(0, n - span + 1)
    tails = [(packed & ~(-1 << length * b)) << PRIMARY_BITS - length * b
             for length in range(n - full, 0, -1)]
    period, stride = 8 // gcd(b, 8), b // gcd(b, 8)
    size = (n * b + 48) // 8
    packed <<= 8 * size - 8 - n * b  # a zero byte, the codes, zeros: size bytes
    records = bytearray(4 * full)
    for r in range(min(period, full)):
        skip, shift = divmod(r * b + 6, 8)  # two spare bits before position r
        cut = (packed << shift).to_bytes(size + 1, "big")
        count = len(range(r, full, period))
        for t in range(4):
            start = 1 + skip + t
            records[4 * r + t::4 * period] = cut[start:start + stride * (count - 1) + 1:stride]
    del packed
    records[0::4] = records[0::4].translate(bytes(range(64)) * 4)
    values = array(next(code for code in "IL" if array(code).itemsize == 4))
    values.frombytes(records)
    del records
    if swap:
        values.byteswap()
    primaries = values.tolist()
    primaries.sort()
    total = n * (n + 1) // 2
    for i, tail in enumerate(tails):
        at = bisect_left(primaries, tail)
        near = tails[:i] + primaries[max(0, at - 1):at + 1]
        common = PRIMARY_BITS - min(map(int.bit_length, map(xor, near, repeat(tail))),
                                    default=PRIMARY_BITS)
        total -= min(len(tails) - i, common // b)
    ordered = array(values.typecode)
    ordered.fromlist(primaries)
    del primaries
    if swap:
        ordered.byteswap()  # big-endian records, read as one int
    bits = int.from_bytes(ordered, "big")
    xors = (bits ^ (bits >> 32)).to_bytes(4 * full, "big")  # record j: sorted j - 1 ^ sorted j
    del bits
    first = bytes(6 - v.bit_length() for v in range(64)).ljust(256, b"\0")
    rest = bytes(8 - v.bit_length() for v in range(256))
    zero = b"\xff".ljust(256, b"\0")
    common = 0  # a byte a neighbour pair: the leading bits its primaries share
    for t, leading in ((3, rest), (2, rest), (1, rest), (0, first)):
        column = xors[4 + t::4]
        if common:
            common &= int.from_bytes(column.translate(zero), "big")
        common += int.from_bytes(column.translate(leading), "big")
    del xors, column
    common = common.to_bytes(max(0, full - 1), "big")
    total -= sum(common.translate(bytes(length // b for length in range(256))))
    if PRIMARY_BITS in common:  # ties
        flags = common.translate(bytes(PRIMARY_BITS) + b"\1".ljust(256 - PRIMARY_BITS, b"\0"))
        if swap:
            ordered.byteswap()
        tied = set(_select(ordered, flags))
        del ordered, common, flags
        native = values.tobytes()
        kept = -1  # positions each of whose bytes is that byte of a tied primary
        for t in range(4):
            column = bytearray(256)
            for value in tied:
                column[value.to_bytes(4, sys.byteorder)[t]] = 1
            kept &= int.from_bytes(native[t::4].translate(column), "big")
        del native
        kept = kept.to_bytes(full, "big")
        starts = compress(_select(range(full), kept),
                          map(tied.__contains__, _select(values, kept)))
        excess = _exact_excess(codes, starts, dw, span)
        if excess is None:
            return count_distinct_factors(unpack(f">{n}{form}", codes))
        total -= excess
    return total


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

    The prefix is spelled as text over the codes 0..k-1 as `chr(code)`
    letters, with no more of the de Bruijn word than its first n letters,
    and counted over those letters; only its n codes are read back, for the
    witness word, which is built without `Word`'s range check.
    """
    if not n > k >= 2:
        raise ValueError(f"witness needs n > k >= 2, got n={n}, k={k}")
    m = 1
    while k**m < n:
        m += 1
    check_generation_guard(k, m, max_length)
    alphabet, letters = default_alphabet(k), code_text(range(k))
    prefix = least_debruijn_text(letters, m, n)
    return FactorWitness(Word.unchecked(alphabet, text_codes(prefix)), m,
                         distinct_factors(prefix, letters), (n - m + 1) * (n - m + 2) // 2)
