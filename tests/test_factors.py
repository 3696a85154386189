import random

import pytest
from hypothesis import given, settings, strategies as st

from ebwt import factors
from ebwt.errors import ResourceLimitError
from ebwt.factors import (
    PACKED_KEY_BITS,
    count_distinct_factors,
    debruijn_factor_witness,
    distinct_factors,
    max_factors_exhaustive,
    repeated_factor_lower_bound,
)
from ebwt.words import Alphabet, Word, default_alphabet

from helpers import AB, ABC, W, all_words, brute_distinct_factors, fibonacci_word


class TestDistinctFactors:
    @pytest.mark.parametrize("text,expected", [
        ("aaa", 3),
        ("abab", 7),
        ("aab", 5),
    ])
    def test_binary_examples(self, text, expected):
        assert distinct_factors(W(text)) == expected

    def test_full_alphabet_attains_ceiling(self):
        assert distinct_factors(W("abc", ABC)) == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distinct_factors(Word(AB, ()))

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
    """Words that distinct_factors handed to the suffix automaton."""
    seen = []

    def automaton(codes):
        seen.append(codes)
        return count_distinct_factors(codes)

    monkeypatch.setattr(factors, "count_distinct_factors", automaton)
    return seen


def text_word(text: str) -> Word:
    return Alphabet("".join(sorted(set(text)))).word(text)


class TestPackedCount:
    @given(st.integers(1, 6).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), min_size=1,
                                                 max_size=300))))
    @settings(deadline=None)
    def test_matches_brute_force_and_automaton(self, drawn):
        k, codes = drawn
        w = Word(default_alphabet(k), tuple(codes))
        expected = brute_distinct_factors(str(w))
        assert distinct_factors(w) == count_distinct_factors(w.codes) == expected

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("lead", [0, 20], ids=["prefix", "inner"])
    def test_repeat_around_the_budget_span(self, fallbacks, k, offset, lead):
        # x + r + sep + r with x and r over the other letters: the longest
        # repeat is r, found by the prefix probe when x is empty and by the
        # rounds otherwise
        span = budget_span(k)
        rng = random.Random(span + offset + lead)
        letters = default_alphabet(k).letters
        x, r = ("".join(rng.choice(letters[:-1]) for _ in range(length))
                for length in (lead, span + offset))
        text = x + r + letters[-1] + r
        assert longest_repeat(text) == span + offset
        w = default_alphabet(k).word(text)
        assert distinct_factors(w) == brute_distinct_factors(text)
        assert bool(fallbacks) == (offset >= 0)

    @pytest.mark.parametrize("n,packed", [(128, True), (129, False)])
    def test_unary_at_the_budget(self, fallbacks, n, packed):
        w = text_word("a" * n)
        assert distinct_factors(w) == n
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
        assert distinct_factors(text_word(text)) == brute_distinct_factors(text)

    @pytest.mark.parametrize("text", [
        fibonacci_word(5000)[:5000],
        "a" * 5000,
        "ab" * 2500,
        "abaab" * 1000 + "bba",
    ], ids=["fibonacci", "unary", "ab-power", "abaab-power-bba"])
    def test_long_periodic_words_fall_back(self, fallbacks, text):
        w = text_word(text)
        assert distinct_factors(w) == count_distinct_factors(w.codes)
        assert fallbacks == [w.codes]

    def test_wide_alphabet(self, fallbacks):
        # 300 letters: 9-bit digits, so windows of up to 8 letters fit the budget
        alphabet = Alphabet("".join(map(chr, range(0x100, 0x100 + 300))))
        rng = random.Random(300)
        for length in (1, 2, 300, 1000):
            text = "".join(rng.choice(alphabet.letters) for _ in range(length))
            assert distinct_factors(alphabet.word(text)) == brute_distinct_factors(text)
        assert fallbacks == []
        repeat = text[:8]
        text = repeat + text[8:400] + repeat
        assert longest_repeat(text) >= 8
        assert distinct_factors(alphabet.word(text)) == brute_distinct_factors(text)
        assert len(fallbacks) == 1

    def test_one_word_per_path(self, fallbacks):
        rng = random.Random(1)
        word = W("".join(rng.choice("ab") for _ in range(2000)))
        assert distinct_factors(word) == count_distinct_factors(word.codes)
        assert fallbacks == []
        fibonacci = W(fibonacci_word(2000)[:2000])
        assert distinct_factors(fibonacci) == count_distinct_factors(fibonacci.codes)
        assert fallbacks == [fibonacci.codes]


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
        with pytest.raises(ValueError):
            debruijn_factor_witness(2, 2)

    def test_prefix_of_least_word_and_exact_count(self):
        from ebwt.debruijn import least_debruijn_word
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
