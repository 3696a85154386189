from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from ebwt import debruijn
from ebwt.bwt import NecklaceMultiset, inverse_transform, standard_permutation, transform
from ebwt.debruijn import (
    GammaWord,
    count_debruijn_words,
    debruijn_set_from_gamma,
    enumerate_gamma,
    first_bad_block,
    is_debruijn_set,
    least_debruijn_set,
    least_debruijn_word,
    lyndon_concatenation_oracle,
)
from ebwt.errors import ResourceLimitError
from ebwt.words import Word, default_alphabet

from helpers import (
    AB, W, all_words, apply_letter, letter_range, lyndon_texts, naive_power_prefixes_cover,
    naive_root,
)


def multiset(*texts, alphabet=AB):
    return NecklaceMultiset.from_texts(alphabet, texts)


ALPHA, BETA = "ab", "ba"


class TestIsGamma:
    """Membership in Gamma: `GammaWord` accepts exactly the length-k^n words
    whose blocks all permute the alphabet, and `first_bad_block` names the
    first block that does not."""

    def test_valid_span4(self):
        w = W(BETA + ALPHA * 2 + BETA * 2 + ALPHA * 2 + BETA)
        assert first_bad_block(w, 2, 4) is None
        assert GammaWord(w, 4).word == w

    def test_invalid_blocks(self):
        assert first_bad_block(W("babbaaba"), 2, 3) is not None
        with pytest.raises(ValueError, match="is not a permutation"):
            GammaWord(W("babbaaba"), 3)

    def test_single_block(self):
        assert first_bad_block(W("ab"), 2, 1) is None
        assert GammaWord(W("ab"), 1).span == 1

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="word length 2 is not 2\\^2"):
            GammaWord(W("ab"), 2)

    def test_first_bad_block_index(self):
        # blocks ba|bb|aa|ba: index 1 is the first non-permutation
        assert first_bad_block(W("babbaaba"), 2, 3) == 1

    def test_gamma_word_validation(self):
        GammaWord(W(BETA * 4 + ALPHA + BETA * 3), 4)
        with pytest.raises(ValueError, match="block 1"):
            GammaWord(W("babbaaba"), 3)
        with pytest.raises(ValueError, match="length"):
            GammaWord(W("ab"), 2)


@st.composite
def debruijn_candidates(draw):
    """(texts, n, letters): primitive words, repeats allowed, that are often a
    de Bruijn set of span n (the inverse of a random block-permutation word)
    and otherwise miss by one edit: a necklace dropped, repeated, added,
    replaced by a word of its length, or by a copy of another of its length."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(1, 4 if k == 2 else 3))
    letters = "abc"[:k]
    word = st.text(alphabet=letters, min_size=1, max_size=n + 2).map(naive_root)
    if draw(st.booleans()):
        blocks = draw(st.lists(st.permutations(range(k)),
                               min_size=k ** (n - 1), max_size=k ** (n - 1)))
        m = inverse_transform(Word(default_alphabet(k), tuple(c for b in blocks for c in b)))
        texts = [str(necklace) for necklace, _ in m.entries]
    else:
        texts = draw(st.lists(word, max_size=5))
    edit = draw(st.sampled_from(["none", "none", "drop", "repeat", "add", "replace", "twin"]))
    i = draw(st.integers(0, len(texts) - 1)) if texts else None
    if edit == "add" or i is None:
        texts.append(draw(word))
    elif edit == "drop":
        texts.pop(i)
    elif edit == "repeat":
        texts.append(texts[i])
    elif edit == "replace":
        size = len(texts[i])
        texts[i] = draw(st.text(alphabet=letters, min_size=size, max_size=size).map(naive_root))
    elif edit == "twin":
        same = [j for j, t in enumerate(texts) if j != i and len(t) == len(texts[i])]
        if same:
            texts[draw(st.sampled_from(same))] = texts[i]
    return texts, n, letters


class TestIsDeBruijnSet:
    @given(debruijn_candidates())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_oracle(self, case):
        texts, n, letters = case
        m = NecklaceMultiset.from_texts(default_alphabet(len(letters)), texts)
        expected = naive_power_prefixes_cover([(t, 1) for t in texts], n, letters)
        assert is_debruijn_set(m, n) == expected

    def test_span4_example(self):
        assert is_debruijn_set(multiset("aaaabaabbbbabb", "ab"), 4)

    def test_duplicate_prefix(self):
        assert not is_debruijn_set(multiset("aab", "ab", "abb"), 3)

    def test_span1(self):
        assert is_debruijn_set(multiset("ab"), 1)

    def test_repeated_necklace_fails(self):
        # right total length, but a multiplicity-2 entry repeats its prefixes
        assert not is_debruijn_set(multiset("ab", "ab"), 2)
        assert is_debruijn_set(multiset("a", "ab", "b"), 2)


class TestFromGamma:
    def test_single_necklace(self):
        v = GammaWord(W(BETA * 4 + ALPHA + BETA * 3), 4)
        result = debruijn_set_from_gamma(v)
        assert [str(n) for n, _ in result.entries] == ["aaaabbbbaababbab"]
        assert result.total_length == 2**4

    def test_two_necklaces(self):
        v = GammaWord(W(BETA + ALPHA * 2 + BETA * 2 + ALPHA * 2 + BETA), 4)
        result = debruijn_set_from_gamma(v)
        assert [str(n) for n, _ in result.entries] == ["aaaabaabbbbabb", "ab"]

    def test_alpha_power_span2(self):
        v = GammaWord(W("abab"), 2)
        result = debruijn_set_from_gamma(v)
        assert [str(n) for n, _ in result.entries] == ["a", "ab", "b"]

    def test_contains_long_necklace(self):
        # every de Bruijn set of span n has a necklace of length >= n
        for k, n in [(2, 2), (2, 3)]:
            for v in enumerate_gamma(k, n):
                ds = debruijn_set_from_gamma(GammaWord(v, n))
                assert max(len(x) for x, _ in ds.entries) >= n


class TestEnumerateGamma:
    def test_span2(self):
        assert [str(v) for v in enumerate_gamma(2, 2)] == [
            "abab", "abba", "baab", "baba",
        ]

    def test_span1(self):
        assert [str(v) for v in enumerate_gamma(2, 1)] == ["ab", "ba"]

    def test_span3_count(self):
        assert sum(1 for _ in enumerate_gamma(2, 3)) == 16

    def test_limit_reports_exact_count(self):
        with pytest.raises(ResourceLimitError, match="256"):
            list(enumerate_gamma(2, 4, limit=255))

    def test_huge_census_refused_before_it_is_computed(self):
        # (10!)^(10^11) would take about 6.6e11 digits
        with pytest.raises(ResourceLimitError, match="limit"):
            next(enumerate_gamma(10, 12))

    def test_all_validate(self):
        for v in enumerate_gamma(3, 1):
            assert len(v) == 3 and first_bad_block(v, 3, 1) is None


class TestCounting:
    @pytest.mark.parametrize("k,n,expected", [
        (2, 3, 2),
        (2, 1, 1),
        (2, 4, 16),
        (3, 2, 24),
    ])
    def test_values(self, k, n, expected):
        assert count_debruijn_words(k, n) == expected

    def test_large_is_exact_integer(self):
        # (2!)^(2^6) / 2^7: exact arbitrary-precision division
        assert count_debruijn_words(2, 7) == 2**64 // 2**7

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            count_debruijn_words(1, 3)

    def test_digit_guard_is_exact(self, monkeypatch):
        # 2^(2^13) / 2^14 = 2^8178 has 2462 digits
        monkeypatch.setattr(debruijn, "MAX_COUNT_DIGITS", 2462)
        assert count_debruijn_words(2, 14) == 2**8178
        monkeypatch.setattr(debruijn, "MAX_COUNT_DIGITS", 2461)
        with pytest.raises(ResourceLimitError, match="2461 digits"):
            count_debruijn_words(2, 14)

    @pytest.mark.parametrize("k,n", [(4, 9), (10, 12), (2, 10**12), (10**400, 1)])
    def test_huge_refused_in_log_space(self, k, n):
        with pytest.raises(ResourceLimitError, match="4300 digits"):
            count_debruijn_words(k, n)


class TestLeastDeBruijnWord:
    def test_span5_binary(self):
        expected = "a aaaab aaabb aabab aabbb ababb abbbb b".replace(" ", "")
        assert str(least_debruijn_word(2, 5)) == expected

    def test_span3_ternary(self):
        expected = "a aab aac abb abc acb acc b bbc bcc c".replace(" ", "")
        assert str(least_debruijn_word(3, 3)) == expected

    def test_span1(self):
        assert str(least_debruijn_word(2, 1)) == "ab"

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            least_debruijn_word(2, 30, max_length=2**20)

    def test_result_is_genuinely_least(self):
        # exhaustive check at span 3: no binary de Bruijn word is smaller
        least = least_debruijn_word(2, 3)
        for codes in all_words(2, 8):
            w = Word(AB, codes)
            if codes < least.codes:
                cyclic = sorted((codes + codes)[i:i + 3] for i in range(8))
                assert cyclic != sorted(all_words(2, 3)), f"{w} is smaller"

    def test_inverse_structure_is_lyndon_words_dividing_n(self):
        # the all-identity-block word inverts to every Lyndon word of length
        # dividing n, each once (checked against brute-force enumeration)
        for k, n in [(2, 1), (2, 4), (2, 6), (3, 3), (3, 4)]:
            ds = least_debruijn_set(k, n)
            expected = sorted(
                text
                for length in range(1, n + 1)
                if n % length == 0
                for text in lyndon_texts(default_alphabet(k).letters, length)
            )
            assert [str(x) for x, _ in ds.entries] == expected
            assert all(mult == 1 for _, mult in ds.entries)


class TestLyndonOracle:
    def test_smallest(self):
        assert str(lyndon_concatenation_oracle(2, 1)) == "ab"

    def test_span3(self):
        assert str(lyndon_concatenation_oracle(2, 3)) == "aaababbb"

    def test_span4(self):
        # a . aaab . aabb . ab . abbb . b
        assert str(lyndon_concatenation_oracle(2, 4)) == "aaaabaabbababbbb"

    def test_matches_transform_route(self):
        # every span whose word has at most 2^16 letters, over 2 to 5 letters
        checked = 0
        for k in range(2, 6):
            for n in range(1, 17):
                if k**n <= 2**16:
                    assert least_debruijn_word(k, n) == lyndon_concatenation_oracle(k, n)
                    checked += 1
        assert checked == 16 + 10 + 8 + 6


class TestGammaPermutationStructure:
    def test_range_transversals_span4(self):
        # for every block-permutation word, ran(letter) picks one point from
        # each successive interval of length k
        k, n = 2, 4
        for v in enumerate_gamma(k, n):
            p = standard_permutation(v)
            for a in range(k):
                ran = letter_range(p, a)
                assert sorted(i // k for i in ran) == list(range(k ** (n - 1)))

    def test_m_strings_are_kary_prefixes_span4(self):
        # the unique length-m word keeping x defined spells the first m
        # k-ary digits of x
        k, n = 2, 4
        for v in enumerate_gamma(k, n):
            p = standard_permutation(v)
            for x in range(k**n):
                digits = [(x >> (n - 1 - i)) & 1 for i in range(n)]
                pos = x
                for m in range(n):
                    letter = p.sorted_codes[pos]
                    assert letter == digits[m]
                    pos = apply_letter(p, pos, letter)

    def test_transform_of_debruijn_set_is_gamma(self):
        for k, n in [(2, 2), (2, 3)]:
            for v in enumerate_gamma(k, n):
                m = debruijn_set_from_gamma(GammaWord(v, n))
                assert transform(m) == v


@st.composite
def block_permutation_words(draw):
    """(v, n): a random word of span n whose blocks each permute the
    alphabet, over 2 letters (n <= 12), 3 (n <= 6) or 4 (n <= 4)."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, {2: 12, 3: 6, 4: 4}[k]))
    rng = draw(st.randoms(use_true_random=False))
    codes = []
    for _ in range(k ** (n - 1)):
        block = list(range(k))
        rng.shuffle(block)
        codes.extend(block)
    return Word(default_alphabet(k), tuple(codes)), n


class TestProvedFacts:
    """The facts that the library proves in docstrings instead of
    re-checking on every call."""

    @pytest.mark.parametrize(
        "k,n", [(k, n) for k in (2, 3, 4) for n in range(1, 17) if k**n <= 2**16]
    )
    def test_least_set_is_debruijn(self, k, n):
        ds = least_debruijn_set(k, n)
        assert ds.total_length == k**n
        assert is_debruijn_set(ds, n)

    @given(block_permutation_words())
    @settings(max_examples=150, deadline=None)
    def test_gamma_inverse_is_debruijn_and_transforms_back(self, case):
        v, n = case
        ds = debruijn_set_from_gamma(GammaWord(v, n))
        assert ds.total_length == v.alphabet.size**n
        assert is_debruijn_set(ds, n)
        assert transform(ds) == v

    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_count_division_is_exact(self, monkeypatch, k, n):
        # (5, 6) and (6, 6) exceed the default digit guard
        monkeypatch.setattr(debruijn, "MAX_COUNT_DIGITS", 30_000)
        numerator = factorial(k) ** (k ** (n - 1))
        assert numerator % k**n == 0
        assert count_debruijn_words(k, n) * k**n == numerator
