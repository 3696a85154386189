import random
import re
import sys
import tracemalloc
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ebwt import factors
from ebwt.debruijn import least_debruijn_word
from ebwt.errors import ResourceLimitError
from ebwt.factors import (
    PACKED_KEY_BITS,
    PRIMARY_BITS,
    count_distinct_factors,
    debruijn_factor_witness,
    distinct_factors,
    factor_ceiling,
    max_factors_exhaustive,
    repeated_factor_lower_bound,
)
from ebwt.words import Alphabet, Word, code_text, default_alphabet

from helpers import W, all_words, brute_distinct_factors, fibonacci_word, scan_max_factors


class TestDistinctFactors:
    @pytest.mark.parametrize("text,expected", [
        ("aaa", 3),
        ("abab", 7),
        ("aab", 5),
    ])
    def test_binary_examples(self, text, expected):
        assert distinct_factors(text, "ab") == expected

    def test_full_alphabet_attains_ceiling(self):
        assert distinct_factors("abc", "abc") == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distinct_factors("", "ab")

    def test_exhaustive_binary_matches_brute_force(self):
        for n in range(1, 11):
            for codes in all_words(2, n):
                assert count_distinct_factors(codes) == brute_distinct_factors(codes)

    def test_random_ternary_matches_brute_force(self):
        rng = random.Random(0)
        for _ in range(10_000):
            length = rng.randint(1, 64)
            text = "".join(rng.choice("abc") for _ in range(length))
            assert count_distinct_factors(text) == brute_distinct_factors(text), text

    def test_total_occurrences_is_triangular(self):
        # every (start, end) position pair is one occurrence
        for text in ["a", "abab", "aabbab", "abcabc"]:
            n = len(text)
            occurrences = [
                text[i:j] for i in range(n) for j in range(i + 1, n + 1)
            ]
            assert len(occurrences) == n * (n + 1) // 2


def budget_span(k: int) -> int:
    """The widest window span whose packed key fits PACKED_KEY_BITS."""
    span = 1
    while 2 * span * k.bit_length() <= PACKED_KEY_BITS:
        span *= 2
    return span


def longest_repeat(text: str) -> int:
    """Length of the longest factor that occurs at least twice."""
    n = len(text)
    return max(length for length in range(n)
               if len({text[i:i + length] for i in range(n - length + 1)}) < n - length + 1)


@pytest.fixture
def fallbacks(monkeypatch):
    """Words that distinct_factors handed to the suffix automaton, each as
    the tuple of its codes, whether counted as code text or as ints."""
    seen = []

    def automaton(codes):
        seen.append(tuple(map(ord, codes)) if isinstance(codes, str) else tuple(codes))
        return count_distinct_factors(codes)

    monkeypatch.setattr(factors, "count_distinct_factors", automaton)
    return seen


@pytest.fixture
def refined(monkeypatch):
    """The starts that distinct_factors cut exact keys for, a list a call."""
    seen = []
    exact_excess = factors._exact_excess

    def spy(codes, starts, dw, span):
        starts = list(starts)
        seen.append(starts)
        return exact_excess(codes, starts, dw, span)

    monkeypatch.setattr(factors, "_exact_excess", spy)
    return seen


def dense_bits(k: int) -> int:
    """Bits a letter of the dense code string that primaries are cut from."""
    return max(1, (k - 1).bit_length())


def text_word(text: str) -> Word:
    return Alphabet("".join(sorted(set(text)))).word(text)


def wide_alphabet(k: int) -> Alphabet:
    """k letters from U+0100 on."""
    return Alphabet("".join(map(chr, range(0x100, 0x100 + k))))


def code_bytes(codes, step: int) -> bytes:
    """`codes` as `step` big-endian bytes a code."""
    return b"".join(c.to_bytes(step, "big") for c in codes)


def reference_primaries(codes, k: int) -> list[int]:
    """The primary of each suffix with at least W letters: the first
    PRIMARY_BITS bits of the codes written in dense_bits(k) bits each,
    zero-filled past the end."""
    b = dense_bits(k)
    bits = "".join(format(c, f"0{b}b") for c in codes)
    full = len(codes) - PRIMARY_BITS // b + 1
    return [int(bits[i * b:i * b + PRIMARY_BITS].ljust(PRIMARY_BITS, "0"), 2)
            for i in range(max(0, full))]


def shared_bits(primaries) -> list[int]:
    """The leading bits each pair of sorted neighbours shares, PRIMARY_BITS
    for a tie."""
    ordered = sorted(primaries)
    return [PRIMARY_BITS - (a ^ c).bit_length() for a, c in zip(ordered, ordered[1:])]


def tied_positions(primaries) -> list[int]:
    """The positions whose primary occurs more than once, in increasing order."""
    counts = Counter(primaries)
    return [i for i, value in enumerate(primaries) if counts[value] > 1]


DENSE_EDGES = [2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 256, 257, 2**15, 2**15 + 1]


class TestPackedCount:
    @given(st.integers(1, 6).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), min_size=1,
                                                 max_size=300))))
    @settings(deadline=None)
    def test_matches_brute_force_and_automaton(self, drawn):
        k, codes = drawn
        w = Word(default_alphabet(k), tuple(codes))
        expected = brute_distinct_factors(str(w))
        assert count_distinct_factors(w.codes) == expected
        assert distinct_factors(str(w), w.alphabet.letters) == expected

    @pytest.mark.parametrize("k", [2, 3, 5, 16, 256])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("lead", [0, 20], ids=["prefix", "inner"])
    def test_repeat_around_the_budget_span(self, fallbacks, k, offset, lead):
        # x + r + y + r with x and y ending in different letters: the longest
        # repeat is r, found by the prefix probe when x is empty and by two
        # equal keys otherwise
        span = budget_span(k)
        rng = random.Random(span + offset + lead)
        alphabet = wide_alphabet(k)
        letters = alphabet.letters
        x, r, y = ("".join(rng.choices(letters, k=length)) for length in (lead, span + offset, 5))
        if x and x[-1] == y[-1]:
            y = y[:-1] + letters[letters.index(x[-1]) - 1]
        text = x + r + y + r
        assert longest_repeat(text) == span + offset
        assert distinct_factors(text, alphabet.letters) == brute_distinct_factors(text)
        assert bool(fallbacks) == (offset >= 0)

    # The edges of every exact-key width dw = 1, 2, 4, 8, 16, 32: a key
    # spells `span` = PACKED_KEY_BITS / dw letters as codes of max(1, dw //
    # 8) big-endian bytes, padded with 0xff bytes, so a repeat of `span`
    # letters falls back.  At k = 255 and 65535 the top code sits one below
    # the 0xff and 0xffff pad.  The dense code widths b = 1, 2, 4, 8, 16,
    # 17 of the primaries change with them; lengths around 8 * per * j end
    # the code string at several bits of a byte and give each phase of the
    # primary cut several records.
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 15, 16, 255, 256, 65535, 65536, 65537])
    def test_every_digit_width_matches_brute_force(self, fallbacks, k):
        dw = 1
        while dw < k.bit_length():
            dw *= 2
        per = max(1, 8 // dw)
        span = budget_span(k)
        assert span * dw == PACKED_KEY_BITS
        letters = code_text(range(k))
        rng = random.Random(k)
        pools = dict.fromkeys([(0,), (k - 1,), (0, k - 1), tuple(rng.sample(range(k), min(k, 3))),
                               tuple(range(k))])
        lengths = {1, per - 1, per, per + 1, span - 1, span, span + 1, 2 * span + per + 1,
                   *(8 * per * j + d for j in (1, 2, 3) for d in (-1, 0, 1))} - {0}
        repeats = 0
        for n in sorted(lengths):
            for pool in pools:
                codes = tuple(rng.choices(pool, k=n))
                assert distinct_factors(code_text(codes), letters) == brute_distinct_factors(codes)
                repeats += longest_repeat(codes) >= span
        assert len(fallbacks) == repeats

    # Every dense width b at its alphabet edges, so W = PRIMARY_BITS // b
    # letters a primary: 30 over 2 letters down to 1 from 2^15 + 1 on.
    # Lengths around W cross from the tail alone to one full primary, and
    # lengths around W + P, P = 8 / gcd(b, 8) the phases of the cut, give
    # the last phase its first record.
    @pytest.mark.parametrize("k", DENSE_EDGES)
    def test_every_dense_width_matches_brute_force(self, fallbacks, k):
        span = PRIMARY_BITS // dense_bits(k)
        period = 8 // gcd(dense_bits(k), 8)
        letters = code_text(range(k))
        rng = random.Random(k)
        pools = dict.fromkeys([(0, k - 1), tuple(rng.sample(range(k), min(k, 3))),
                               tuple(range(max(0, k - 16), k))])
        lengths = {span - 1, span, span + 1, 2 * span, 1, 2,
                   *(span + period + d for d in (-2, -1, 0, 1)), 2 * span + 3 * period + 1} - {0}
        repeats = 0
        for n in sorted(lengths):
            for pool in pools:
                codes = tuple(rng.choices(pool, k=n))
                expected = brute_distinct_factors(codes)
                assert distinct_factors(code_text(codes), letters) == expected
                assert count_distinct_factors(codes) == expected
                repeats += longest_repeat(codes) >= budget_span(k)
        assert len(fallbacks) == repeats

    # R + x + R + y, |R| = W, for each bit t of a letter, then W letters
    # more: x = 0 and y has only bit t set, so the suffixes at R[j:] in the
    # two copies share W - j letters and then differ first at bit t of a
    # letter, or tie when that bit lies past a primary's PRIMARY_BITS.  Over
    # every j and t, sorted neighbours share each count of leading bits from
    # 0 to PRIMARY_BITS, which puts the first differing bit in each byte of
    # a 4-byte record and at each of its edges.
    @pytest.mark.parametrize("k", DENSE_EDGES)
    def test_every_shared_bit_count(self, fallbacks, refined, k):
        b = dense_bits(k)
        span = PRIMARY_BITS // b
        rng = random.Random(k)
        codes = ()
        for t in range(b):
            r = tuple(rng.choices(range(1, k), k=span))
            codes += r + (0,) + r + (1 << b - 1 - t,)
        codes += tuple(rng.choices(range(1, k), k=span))  # so both copies start full primaries
        primaries = reference_primaries(codes, k)
        assert set(shared_bits(primaries)) == set(range(PRIMARY_BITS + 1))
        expected = brute_distinct_factors(codes)
        assert distinct_factors(code_text(codes), code_text(range(k))) == expected
        assert count_distinct_factors(codes) == expected
        assert fallbacks == []
        assert refined == [tied_positions(primaries)]

    # N = n - W + 1 full primaries: none (every suffix is in the tail), one
    # (no neighbour pair) and two (one pair, which ties or not)
    @pytest.mark.parametrize("k", DENSE_EDGES)
    def test_zero_one_or_two_full_primaries(self, fallbacks, refined, k):
        span = PRIMARY_BITS // dense_bits(k)
        letters = code_text(range(k))
        rng = random.Random(k)
        for full in (0, 1, 2):
            n = span - 1 + full
            if n == 0:
                continue
            words = [tuple(rng.choices(range(k), k=n)) for _ in range(4)]
            words += [(k - 1,) * n, (0,) * n]
            for codes in words:
                refined.clear()
                primaries = reference_primaries(codes, k)
                assert len(primaries) == full
                expected = brute_distinct_factors(codes)
                assert distinct_factors(code_text(codes), letters) == expected
                assert count_distinct_factors(codes) == expected
                tied = tied_positions(primaries)
                assert refined == ([tied] if tied else [])
        assert fallbacks == []  # no word is longer than W + 1 < widest letters

    # lo = 0^W 1 and hi = (k-1)^W (k-2), each after four filler letters and
    # its own last letter.  Fillers have no run of W letters 0 or k - 1, and
    # no letter 0 or k - 1 at all when W <= 4.  The least primaries are then
    # the starts of lo and the greatest those of hi, so ties sit at the
    # first and the last sorted pair, and `copies` copies of a block tie
    # that many equal primaries in a run.
    @pytest.mark.parametrize("k", DENSE_EDGES)
    @pytest.mark.parametrize("copies", [2, 3, 5])
    def test_ties_at_the_ends_and_in_runs(self, fallbacks, refined, k, copies):
        span = PRIMARY_BITS // dense_bits(k)
        rng = random.Random(k * 10 + copies)
        middle = range(k) if span > 4 else range(1, k - 1)
        lo, hi = (0,) * span + (1,), (k - 1,) * span + (k - 2,)
        codes = ()
        for block in (lo,) * copies + (hi,) * copies:
            codes += tuple(rng.choices(middle, k=4)) + block[-1:] + block
        codes += tuple(rng.choices(middle, k=3))
        assert longest_repeat(codes) < budget_span(k)
        primaries = reference_primaries(codes, k)
        ordered = sorted(primaries)
        assert ordered[:copies] == [ordered[0]] * copies and ordered[copies] != ordered[0]
        assert ordered[-copies:] == [ordered[-1]] * copies and ordered[-copies - 1] != ordered[-1]
        expected = brute_distinct_factors(codes)
        assert distinct_factors(code_text(codes), code_text(range(k))) == expected
        assert count_distinct_factors(codes) == expected
        assert fallbacks == []
        assert refined == [tied_positions(primaries)]

    @pytest.mark.parametrize("k", [2, 4, 16, 256, 2**15 + 1])
    def test_tied_repeat_is_refined_not_fallen_back(self, fallbacks, refined, k):
        # x + r + y + r, as in the budget test, with |r| = W - 1, W, W + 1
        # and widest - 1: r is the longest repeat, shorter than an exact key,
        # so the word never falls back, and the two starts of r tie when r
        # is longer than a primary's W letters
        span = PRIMARY_BITS // dense_bits(k)
        alphabet = wide_alphabet(k)
        letters = alphabet.letters
        for length in sorted({span - 1, span, span + 1, budget_span(k) - 1} - {0}):
            rng = random.Random(k * 100 + length)
            x, r, y = ("".join(rng.choices(letters, k=size)) for size in (20, length, 5))
            if x[-1] == y[-1]:
                y = y[:-1] + letters[letters.index(x[-1]) - 1]
            text = x + r + y + r
            assert longest_repeat(text) == length
            w = alphabet.word(text)
            refined.clear()
            expected = brute_distinct_factors(text)
            assert count_distinct_factors(w.codes) == expected
            assert distinct_factors(str(w), w.alphabet.letters) == expected
            if length > span:
                assert {len(x), len(x + r + y)} <= set(refined[0])
        assert fallbacks == []

    @pytest.mark.parametrize("k", [2, 3, 16, 300])
    @pytest.mark.parametrize("n", [1, 40, 200])
    def test_tail_repeats_the_start(self, fallbacks, k, n):
        # u + u[:W - 1]: each of the last W - 1 suffixes is a factor of u,
        # so it adds nothing to what the full primaries count
        span = PRIMARY_BITS // dense_bits(k)
        codes = tuple(random.Random(k + n).choices(range(k), k=n))
        codes += codes[:span - 1]
        expected = brute_distinct_factors(codes)
        assert distinct_factors(code_text(codes), code_text(range(k))) == expected
        assert count_distinct_factors(codes) == expected
        assert fallbacks == ([] if longest_repeat(codes) < budget_span(k) else [codes])

    @pytest.mark.parametrize("k", [2, 4])
    def test_few_positions_get_exact_keys(self, fallbacks, refined, k):
        # random words tie on a full primary at a few positions, here at
        # least at the two starts of a planted repeat of W + 5 letters; a
        # count that cut exact keys at every position would still be right
        n, span = 20_000, PRIMARY_BITS // dense_bits(k)
        codes = random.Random(n + k).choices(range(k), k=n)
        codes[n // 2:n // 2 + span + 5] = codes[100:100 + span + 5]
        w = Word(default_alphabet(k), tuple(codes))
        assert distinct_factors(str(w), w.alphabet.letters) == count_distinct_factors(w.codes)
        assert fallbacks == []
        assert {100, n // 2} <= set(refined[0])
        assert len(refined[0]) < n // 100

    @pytest.mark.parametrize("tail", ["ab" * 400, fibonacci_word(800)[:800]],
                             ids=["ab-power", "fibonacci"])
    def test_late_repeat_falls_back_once(self, fallbacks, tail):
        # the repeat starts after position 0, so the prefix probe misses it
        # and two equal exact keys find it
        text = "".join(random.Random(200).choices("ab", k=200)) + tail
        w = text_word(text)
        assert distinct_factors(str(w), w.alphabet.letters) == count_distinct_factors(w.codes)
        assert fallbacks == [w.codes]

    @pytest.mark.parametrize("n,packed", [(128, True), (129, False)])
    def test_unary_at_the_budget(self, fallbacks, n, packed):
        w = text_word("a" * n)
        assert distinct_factors(str(w), w.alphabet.letters) == n
        assert bool(fallbacks) != packed

    @pytest.mark.parametrize("text", [
        fibonacci_word(300)[:300],
        fibonacci_word(233),
        "a" * 300,
        "ab" * 150,
        "aab" * 60 + "ab",
        "abaab" * 50 + "bba",
        "abc" * 90 + "cab",
    ], ids=["fibonacci-300", "fibonacci-233", "unary", "ab-power", "aab-power-ab",
            "abaab-power-bba", "abc-power-cab"])
    def test_periodic_words_match_brute_force(self, text):
        assert distinct_factors(text, ''.join(sorted(set(text)))) == brute_distinct_factors(text)

    @pytest.mark.parametrize("text", [
        fibonacci_word(5000)[:5000],
        "a" * 5000,
        "ab" * 2500,
        "abaab" * 1000 + "bba",
    ], ids=["fibonacci", "unary", "ab-power", "abaab-power-bba"])
    def test_long_periodic_words_fall_back(self, fallbacks, text):
        w = text_word(text)
        assert distinct_factors(str(w), w.alphabet.letters) == count_distinct_factors(w.codes)
        assert fallbacks == [w.codes]

    def test_wide_alphabet(self, fallbacks):
        # 300 letters: two-byte codes, so windows of 8 letters fit the budget
        alphabet = wide_alphabet(300)
        rng = random.Random(300)
        for length in (1, 2, 300, 1000):
            text = "".join(rng.choice(alphabet.letters) for _ in range(length))
            assert distinct_factors(text, alphabet.letters) == brute_distinct_factors(text)
        assert fallbacks == []
        repeat = text[:8]
        text = repeat + text[8:400] + repeat
        assert longest_repeat(text) >= 8
        assert distinct_factors(text, alphabet.letters) == brute_distinct_factors(text)
        assert len(fallbacks) == 1

    # The probe reads code bytes, step = dw / 8 a letter.  `shifted` spells
    # the code bytes of `prefix` from byte `shift` of its first letter on,
    # so they recur off the letter boundaries, which is no repeat.  Each
    # byte pair (or quadruple) that straddles two letters of `prefix` is
    # itself a code below k.
    @pytest.mark.parametrize("k,prefix,shift", [
        (300, (257, 257, 256, 257, 1, 1, 257, 256), 1),
        (65537, (65536, 65536, 1, 0), 2),
    ])
    @pytest.mark.parametrize("boundary", [False, True], ids=["off-boundary", "at-boundary"])
    def test_probe_counts_a_match_only_at_a_letter_boundary(self, fallbacks, k, prefix, shift,
                                                            boundary):
        widest = budget_span(k)
        step = PACKED_KEY_BITS // widest // 8
        assert len(prefix) == widest
        spelled = bytes(shift) + code_bytes(prefix, step) + (1).to_bytes(step - shift, "big")
        shifted = tuple(int.from_bytes(spelled[i:i + step], "big")
                        for i in range(0, len(spelled), step))
        filler = tuple(random.Random(k).choices(range(k), k=40))
        codes = prefix + filler + (prefix if boundary else shifted)
        assert 0 <= min(codes) and max(codes) < k
        at = code_bytes(codes, step).find(code_bytes(prefix, step), 1)
        assert (at % step == 0) == boundary
        assert (longest_repeat(codes) >= widest) == boundary
        expected = brute_distinct_factors(codes)
        assert distinct_factors(code_text(codes), code_text(range(k))) == expected
        assert len(fallbacks) == boundary

    @pytest.mark.parametrize("k", [2, 300, 65537])
    def test_peak_memory_per_letter(self, fallbacks, k):
        # 45-51 B a letter, at the sort: each primary's one-digit int (28
        # B) and list slot (8 B), its 4-byte record, the sort's merge space
        # (4 B) and the word's code bytes (1-4 B).  The list is freed before
        # the neighbour pass, whose byte strings hold a few bytes a letter;
        # one more int object a letter fails the bound.  The count after
        # the translate, whose table of k letters (6.8 MB at k = 65537) is
        # freed before it
        n = 50_000
        codes = tuple(random.Random(k).choices(range(k), k=n))
        tracemalloc.start()
        try:
            factors._code_text_factors(code_text(codes), k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fallbacks == []
        assert peak / n < 60

    @staticmethod
    def all_tied_word() -> tuple[int, ...]:
        """The least de Bruijn word of span 4 over 16 letters, closed by its
        first 3 letters: read over 65537 letters, a primary holds W = 1
        letter and 13 bits of the next, which are 0, so all 65539 primaries
        tie in 16 runs; no 4 letters repeat, so no exact keys are equal."""
        codes = least_debruijn_word(16, 4).codes
        return codes + codes[:3]

    def test_all_tied_word_refines_every_position(self, fallbacks, refined):
        codes = self.all_tied_word()
        expected = count_distinct_factors(codes)
        assert distinct_factors(code_text(codes), code_text(range(65537))) == expected
        assert fallbacks == []
        assert refined == [list(range(len(codes)))]

    def test_all_tied_word_peak_memory(self, fallbacks):
        # about 95 B a letter: the exact keys of every position, their set
        # and their sorted list, on top of the records; the count after the
        # translate, as above
        codes = self.all_tied_word()
        tracemalloc.start()
        try:
            factors._code_text_factors(code_text(codes), 65537)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fallbacks == []
        assert peak / len(codes) < 110

    def test_one_word_per_path(self, fallbacks):
        rng = random.Random(1)
        word = W("".join(rng.choice("ab") for _ in range(2000)))
        assert distinct_factors(str(word), "ab") == count_distinct_factors(word.codes)
        assert fallbacks == []
        fibonacci = W(fibonacci_word(2000)[:2000])
        assert distinct_factors(str(fibonacci), "ab") == count_distinct_factors(fibonacci.codes)
        assert fallbacks == [fibonacci.codes]

    @staticmethod
    def primary_calls(text: str) -> Counter:
        """The `translate` and `sort` calls that distinct_factors makes on a
        binary text, counted from the c_call events of `sys.setprofile`,
        past the one `str.translate` to code text: the primary pass makes
        both, the prefix probe neither."""
        calls = Counter()

        def profile(frame, event, arg):
            if (event == "c_call" and getattr(arg, "__name__", None) in ("translate", "sort")
                    and not isinstance(arg.__self__, str)):
                calls[arg.__name__] += 1

        sys.setprofile(profile)
        try:
            distinct_factors(text, "ab")
        finally:
            sys.setprofile(None)
        return calls

    @pytest.mark.parametrize("text", ["ab" * 5000, "aab" * 3000 + "b"],
                             ids=["ab-power", "aab-power-b"])
    def test_prefix_probe_cuts_no_primary(self, fallbacks, text):
        # a word whose first letters recur goes to the automaton before the
        # primary pass; past the tie route, it would reach it too
        assert self.primary_calls(text) == Counter()
        assert fallbacks == [W(text).codes]

    def test_a_word_with_no_prefix_repeat_cuts_primaries(self, fallbacks):
        rng = random.Random(5000)
        calls = self.primary_calls("".join(rng.choices("ab", k=5000)))
        assert calls["translate"] > 0 and calls["sort"] > 0
        assert fallbacks == []


def spread_letters(k: int) -> str:
    """k code points drawn from all of Unicode past the controls, lone
    surrogates among them, in increasing order: not the codes 0..k-1 and
    not one run."""
    return "".join(map(chr, sorted(random.Random(k).sample(range(0x21, 0x110000), k))))


class TestTextKernel:
    """distinct_factors of a text over its letters, at every code width:
    one byte a code (k = 2, 3), two (256, 300 and 60,000, whose code text
    holds lone surrogates) and four (65,537), against the slices and the
    suffix automaton of the text itself."""

    @staticmethod
    def pool(letters: str, rng: random.Random) -> str:
        """The letters a word is drawn from: the first and last, those of
        codes 0xD800 and 0xDFFF where there are such codes, and up to 40
        more."""
        codes = {0, len(letters) - 1, *rng.sample(range(len(letters)), min(len(letters), 40))}
        codes |= {0xD800, 0xDFFF} & set(range(len(letters)))
        return "".join(letters[c] for c in sorted(codes))

    def check(self, text: str, letters: str, fallbacks, refined) -> tuple[int, ...]:
        """Count `text` with its letters in order and reversed, against the
        slices and the automaton of the text, with the spies holding what
        the count in order did; the codes of the text."""
        expected = brute_distinct_factors(text)
        assert count_distinct_factors(text) == expected
        assert distinct_factors(text, letters[::-1]) == expected
        fallbacks.clear()
        refined.clear()
        assert distinct_factors(text, letters) == expected
        index = {letter: code for code, letter in enumerate(letters)}
        return tuple(map(index.__getitem__, text))

    @pytest.mark.parametrize("k", [2, 3, 256, 300, 60_000, 65_537])
    def test_packed_tie_and_fallback_paths(self, fallbacks, refined, k):
        letters = spread_letters(k)
        span, widest = PRIMARY_BITS // dense_bits(k), budget_span(k)
        rng = random.Random(k)
        pool = self.pool(letters, rng)

        def draw(length: int) -> str:
            return "".join(rng.choices(pool, k=length))

        # packed: random words, and each letter of the pool once, the codes
        # 0xD800 and 0xDFFF among them at k = 60,000 and 65,536 at 65,537
        for text in [draw(n) for n in (1, span - 1, span, 3 * widest) if n] + [pool[::-1]]:
            codes = self.check(text, letters, fallbacks, refined)
            assert fallbacks == []
        if k == 60_000:
            assert {0xD800, 0xDFFF} <= set(codes)
        assert max(codes) == k - 1
        # the tie step: x + r + y + r, the starts of r tie on their primaries
        x, y = draw(20), draw(5)
        y = y[:-1] + next(letter for letter in pool if letter != x[-1])
        r = draw(span + 1)
        self.check(x + r + y + r, letters, fallbacks, refined)
        assert fallbacks == [] and {len(x), len(x + r + y)} <= set(refined[0])
        # the prefix probe: a repeat of widest letters at the start
        r = draw(widest)
        codes = self.check(r + y + r, letters, fallbacks, refined)
        assert fallbacks == [codes] and refined == []
        # a late repeat: two equal exact keys
        codes = self.check(x + r + y + r, letters, fallbacks, refined)
        assert fallbacks == [codes] and len(refined) == 1

    # Two-byte codes, with a high surrogate code right before a low one
    # throughout a late repeat: the fallback must count them as two codes,
    # where a UTF-16 decode of the code bytes would join them into one
    # character.
    def test_late_repeat_keeps_surrogate_codes_apart(self, fallbacks, refined):
        k, pair = 60_000, (0xD800, 0xDC00)
        rng = random.Random(k)
        x, middle, y = (tuple(rng.choices(range(k), k=n)) for n in (20, 6, 5))
        r = pair + middle + pair
        codes = x + r + y + r + pair
        assert len(r) >= budget_span(k) > longest_repeat(codes[:len(x) + len(r) + len(y)])
        expected = brute_distinct_factors(codes)
        assert distinct_factors(code_text(codes), code_text(range(k))) == expected
        assert fallbacks == [codes] and len(refined) == 1

    # Characters whose code points are codes below k, but no letters: the
    # first in the text is named, not the least.
    @pytest.mark.parametrize("k", [2, 300, 65_537])
    def test_first_character_outside_is_named(self, k):
        letters = spread_letters(k)
        least, other = [chr(c) for c in range(k) if chr(c) not in letters][:2]
        with pytest.raises(ValueError, match=f"^character {re.escape(repr(other))} not in "):
            distinct_factors(letters[:5] + other + least + letters[-1], letters)

    # Letters in any order: the refusal names the character outside them,
    # with the letters as given, not an order they need not have.
    def test_letters_out_of_order_name_the_character_outside(self):
        with pytest.raises(ValueError, match=r"^character 'x' not in alphabet 'ba'$"):
            distinct_factors("abx", "ba")


class TestFactorStats:
    def test_envelope_exhaustive_binary(self):
        for n in range(1, 11):
            ceiling = n * (n + 1) // 2
            best = 0
            for codes in all_words(2, n):
                count = count_distinct_factors(codes)
                best = max(best, count)
                assert n <= count <= ceiling
                assert (count == n) == (len(set(codes)) == 1)
                # a single word attains the ceiling only with all letters distinct
                assert (count == ceiling) == (len(set(codes)) == n)
            # the ceiling is attained by some word exactly when n <= k
            assert (best == ceiling) == (n <= 2)


class TestMaxFactorsExhaustive:
    @pytest.mark.parametrize("n,k,expected,witness", [
        (2, 2, 3, "ab"),
        (3, 2, 5, "aab"),
        (1, 2, 1, "a"),
    ])
    def test_examples(self, n, k, expected, witness):
        best, word = max_factors_exhaustive(n, k)
        assert best == expected
        assert str(word) == witness

    def test_witness_is_lexicographically_least(self):
        best, word = max_factors_exhaustive(5, 2)
        candidates = [
            codes for codes in all_words(2, 5)
            if brute_distinct_factors(codes) == best
        ]
        assert word.codes == min(candidates)

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            max_factors_exhaustive(30, 2, max_words=2**20)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_the_full_scan(self, k):
        for n in range(1, 15):
            if k**n > 2**14:
                break
            best, word = max_factors_exhaustive(n, k)
            assert (best, word.codes) == scan_max_factors(n, k), (n, k)

    @pytest.mark.parametrize("n,k", [(10, 2), (12, 2), (7, 3), (5, 4)])
    def test_scan_stops_at_the_ceiling(self, monkeypatch, n, k):
        counted = []

        def count(codes):
            counted.append(codes)
            return count_distinct_factors(codes)

        monkeypatch.setattr(factors, "count_distinct_factors", count)
        best, word = max_factors_exhaustive(n, k)
        assert best == factor_ceiling(n, k)
        # the witness is the last word counted: its rank in lex order, plus 1
        assert counted[-1] == word.codes
        assert len(counted) == int("".join(map(str, word.codes)), k) + 1 < k**n


class TestRepeatedFactorBound:
    def test_derived_values(self):
        assert repeated_factor_lower_bound(10, 2) == 13
        assert repeated_factor_lower_bound(3, 2) == 1

    def test_requires_n_above_k(self):
        with pytest.raises(ValueError):
            repeated_factor_lower_bound(2, 2)
        with pytest.raises(ValueError):
            repeated_factor_lower_bound(5, 1)

    def test_consistent_with_exhaustive_max(self):
        best, _ = max_factors_exhaustive(3, 2)
        assert best <= 3 * 4 // 2 - repeated_factor_lower_bound(3, 2)

    @pytest.mark.parametrize("n,k,ceiling", [
        (1, 1, 1), (5, 1, 15), (2, 2, 3), (3, 2, 5), (10, 2, 42), (3, 3, 6), (11, 3, 57),
    ])
    def test_factor_ceiling(self, n, k, ceiling):
        # n(n+1)/2, less the repeated factors only where n > k >= 2
        assert factor_ceiling(n, k) == ceiling

    def test_refines_ceiling_exhaustively(self):
        for n in range(3, 13):
            best, _ = max_factors_exhaustive(n, 2)
            assert best <= n * (n + 1) // 2 - repeated_factor_lower_bound(n, 2)


class TestDeBruijnWitness:
    def test_span4_witness(self):
        result = debruijn_factor_witness(16, 2)
        assert str(result.word) == "aaaabaabbababbbb"
        assert result.span == 4
        assert result.lower_bound == 91
        assert result.distinct_count == 105
        assert result.distinct_count == brute_distinct_factors(str(result.word))

    def test_small_witness_bound(self):
        result = debruijn_factor_witness(5, 2)
        assert result.span == 3
        assert result.lower_bound == 6
        assert result.distinct_count >= 6

    def test_smallest_nontrivial_case(self):
        # n = k + 1 forces span 2 and a positive floor
        result = debruijn_factor_witness(3, 2)
        assert result.span == 2
        assert result.lower_bound == 3

    def test_requires_n_above_k(self):
        with pytest.raises(ValueError, match=r"^witness needs n > k >= 2, got n=2, k=2$"):
            debruijn_factor_witness(2, 2)

    def test_prefix_of_least_word_and_exact_count(self):
        for n, k in [(10, 2), (40, 3), (100, 2)]:
            result = debruijn_factor_witness(n, k)
            full = least_debruijn_word(k, result.span)
            assert result.word.codes == full.codes[:n]
            assert result.distinct_count == brute_distinct_factors(result.word.codes)
            assert result.distinct_count >= result.lower_bound

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_floor_holds_without_a_library_check(self, k):
        # the premise of the floor: the prefix's length-m windows are distinct
        for n in range(k + 1, 301):
            result = debruijn_factor_witness(n, k)
            m, codes = result.span, result.word.codes
            assert k ** (m - 1) < n <= k**m
            assert len({codes[i:i + m] for i in range(n - m + 1)}) == n - m + 1
            assert result.lower_bound == (n - m + 1) * (n - m + 2) // 2
            assert result.distinct_count >= result.lower_bound
