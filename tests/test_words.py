import operator
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ebwt.errors import NotPrimitiveError
from ebwt.words import (
    EQUAL,
    GREATER,
    LESS,
    Alphabet,
    Necklace,
    Word,
    conjugate_shift,
    default_alphabet,
    has_border,
    is_primitive,
    least_rotation_start,
    lyndon_representative,
    omega_compare,
    root,
)

from helpers import (
    AB, ABC, W, all_words, naive_least_rotation, naive_omega_compare, naive_primitive, rotations,
)

binary_words = st.lists(st.integers(0, 1), min_size=1, max_size=14).map(
    lambda codes: Word(AB, tuple(codes))
)
ternary_words = st.lists(st.integers(0, 2), min_size=1, max_size=12).map(
    lambda codes: Word(ABC, tuple(codes))
)


class TestAlphabet:
    def test_round_trip(self):
        a = Alphabet("abc")
        assert a.size == 3
        for i, c in enumerate("abc"):
            assert a.code(c) == i and a.letters[i] == c

    def test_rejects_unordered_or_empty(self):
        with pytest.raises(ValueError):
            Alphabet("ba")
        with pytest.raises(ValueError):
            Alphabet("")
        with pytest.raises(ValueError):
            Alphabet("aa")

    def test_default_alphabet(self):
        assert default_alphabet(3).letters == "abc"
        with pytest.raises(ValueError):
            default_alphabet(0)

    def test_word_rejects_foreign_codes(self):
        with pytest.raises(ValueError):
            Word(AB, (0, 2))
        with pytest.raises(ValueError):
            AB.word("abc")

    @given(st.text("abc", max_size=10), st.characters().filter(lambda c: c not in "abc"),
           st.text(max_size=10))
    def test_word_names_first_foreign_character(self, head, bad, tail):
        message = f"character {bad!r} not in alphabet 'abc'"
        with pytest.raises(ValueError, match=re.escape(message)):
            ABC.word(head + bad + tail)

    @given(st.integers(1, 5), st.data())
    def test_word_rejects_codes_just_outside_range(self, k, data):
        alphabet = default_alphabet(k)
        codes = data.draw(st.lists(st.integers(0, k - 1), max_size=8))
        assert Word(alphabet, tuple(codes)).codes == tuple(codes)
        for bad in (-1, k):
            i = data.draw(st.integers(0, len(codes)))
            with pytest.raises(ValueError, match="out of range"):
                Word(alphabet, tuple(codes[:i] + [bad] + codes[i:]))


class TestWordOrder:
    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_code_order_one_alphabet_only(self, op):
        texts = ["".join(t) for n in range(4) for t in product("ab", repeat=n)]
        for s, t in product(texts, repeat=2):
            assert op(W(s), W(t)) == op(W(s).codes, W(t).codes) == op(s, t)
        with pytest.raises(ValueError, match="different alphabets"):
            op(W("ab"), W("ab", ABC))
        for other in (5, None):
            with pytest.raises(TypeError):
                op(W("ab"), other)
            with pytest.raises(TypeError):
                op(other, W("ab"))


class TestConjugateShift:
    def test_basic(self):
        assert str(conjugate_shift(W("abc", ABC))) == "bca"

    def test_single_letter_fixed(self):
        assert str(conjugate_shift(W("a"))) == "a"

    def test_returns_after_root_length_not_before(self):
        w = W("abab")
        once = conjugate_shift(w)
        assert once != w
        assert conjugate_shift(once) == w

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            conjugate_shift(Word(AB, ()))

    @given(binary_words)
    def test_period_is_root_length(self, w):
        seen = w
        for t in range(1, len(w) + 1):
            seen = conjugate_shift(seen)
            if seen == w:
                assert t == len(root(w))
                return
        raise AssertionError("never returned to itself")


class TestRoot:
    @pytest.mark.parametrize("text,expected", [
        ("abab", "ab"),
        ("aab", "aab"),
        ("aaaa", "a"),
    ])
    def test_examples(self, text, expected):
        assert str(root(W(text))) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            root(Word(AB, ()))

    @given(binary_words)
    def test_root_is_primitive_and_divides(self, w):
        r = root(w)
        assert is_primitive(r)
        assert len(w) % len(r) == 0
        assert r.codes * (len(w) // len(r)) == w.codes


class TestIsPrimitive:
    @pytest.mark.parametrize("text,expected", [
        ("ab", True),
        ("abab", False),
        ("aabab", True),
    ])
    def test_examples(self, text, expected):
        assert is_primitive(W(text)) is expected

    def test_exhaustive_binary_matches_brute_force(self):
        for n in range(1, 13):
            for codes in all_words(2, n):
                text = AB.render(codes)
                assert is_primitive(W(text)) == naive_primitive(text), text


class TestLyndonRepresentative:
    @pytest.mark.parametrize("text,expected", [
        ("baa", "aab"),
        ("aab", "aab"),
        ("bab", "abb"),
    ])
    def test_examples(self, text, expected):
        assert str(lyndon_representative(W(text)).lyndon) == expected

    def test_non_primitive_error_carries_root(self):
        with pytest.raises(NotPrimitiveError) as err:
            lyndon_representative(W("abab"))
        assert str(err.value.root) == "ab"

    def test_necklace_validates(self):
        with pytest.raises(ValueError):
            Necklace(W("ba"))
        with pytest.raises(NotPrimitiveError):
            Necklace(W("aa"))

    @given(binary_words.filter(lambda w: is_primitive(w)))
    def test_matches_min_over_rotations(self, w):
        assert str(lyndon_representative(w).lyndon) == naive_least_rotation(str(w))

    @given(st.sampled_from(["a", "ab", "abc"]).flatmap(
        lambda letters: st.text(letters, min_size=1, max_size=40).map(Alphabet(letters).word)
    ).filter(lambda w: naive_primitive(str(w))))
    def test_output_passes_necklace_checks(self, w):
        necklace = lyndon_representative(w)
        assert Necklace(necklace.lyndon) == necklace
        assert str(necklace) == naive_least_rotation(str(w))

    @given(ternary_words.filter(lambda w: is_primitive(w)))
    def test_rotation_invariant_and_borderless(self, w):
        necklace = lyndon_representative(w)
        assert not has_border(necklace.lyndon)
        for r in rotations(str(w)):
            assert lyndon_representative(W(r, ABC)) == necklace


class TestLeastRotationStart:
    """The one necklace scan: the least rotation's start, or None on a power."""

    @staticmethod
    def check(text: str, alphabet: Alphabet):
        start = least_rotation_start(alphabet.word(text).codes)
        if naive_primitive(text):
            assert start is not None, text
            assert text[start:] + text[:start] == naive_least_rotation(text), text
        else:
            assert start is None, text

    def test_exhaustive_small(self):
        for k, max_len in ((2, 14), (3, 9)):
            alphabet = default_alphabet(k)
            for n in range(1, max_len + 1):
                for codes in all_words(k, n):
                    self.check(alphabet.render(codes), alphabet)

    @given(st.integers(1, 4).flatmap(lambda k: st.tuples(
        st.just(default_alphabet(k)),
        st.text(default_alphabet(k).letters, min_size=1, max_size=300),
        st.text(default_alphabet(k).letters, min_size=1, max_size=60),
        st.integers(2, 5),
    )))
    @settings(max_examples=200, deadline=None)
    def test_words_up_to_300_letters(self, case):
        # random words rarely are powers, so powers of a shorter word are
        # drawn as well
        alphabet, text, base, power = case
        self.check(text, alphabet)
        self.check(base * power, alphabet)

    @pytest.mark.parametrize("call,text,error,message,root_text", [
        (Necklace, "", ValueError, "root is undefined for the empty word", None),
        (Necklace, "abab", NotPrimitiveError, "necklace word must be primitive: abab", "ab"),
        (Necklace, "aaa", NotPrimitiveError, "necklace word must be primitive: aaa", "a"),
        (Necklace, "ba", ValueError,
         "necklace representative is not the least rotation: ba", None),
        (Necklace, "bca", ValueError,
         "necklace representative is not the least rotation: bca", None),
        (Necklace, "abcabc", NotPrimitiveError,
         "necklace word must be primitive: abcabc", "abc"),
        (lyndon_representative, "", ValueError, "necklace is undefined for the empty word",
         None),
        (lyndon_representative, "abab", NotPrimitiveError, "word is not primitive: abab", "ab"),
        (lyndon_representative, "aaa", NotPrimitiveError, "word is not primitive: aaa", "a"),
        (lyndon_representative, "abcabc", NotPrimitiveError,
         "word is not primitive: abcabc", "abc"),
        (is_primitive, "", ValueError, "root is undefined for the empty word", None),
        (root, "", ValueError, "root is undefined for the empty word", None),
    ])
    def test_errors(self, call, text, error, message, root_text):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as err:
            call(ABC.word(text))
        assert type(err.value) is error
        if root_text is not None:
            assert str(err.value.root) == root_text


class TestHasBorder:
    @pytest.mark.parametrize("text,expected", [
        ("aab", False),
        ("aba", True),
        ("abab", True),
    ])
    def test_examples(self, text, expected):
        assert has_border(W(text)) is expected

    def test_exhaustive_small(self):
        for n in range(1, 11):
            for codes in all_words(2, n):
                text = AB.render(codes)
                expected = any(
                    text[:i] == text[-i:] for i in range(1, len(text))
                )
                assert has_border(W(text)) == expected, text


class TestOmegaCompare:
    def test_paper_example(self):
        # the table of Example 1.1 places the baa-row before the ba-row
        assert omega_compare(W("baa"), W("ba")) == LESS

    def test_same_root_equal(self):
        assert omega_compare(W("ab"), W("abab")) == EQUAL

    def test_derived(self):
        assert omega_compare(W("aab"), W("ab")) == LESS
        assert omega_compare(W("ab"), W("aab")) == GREATER

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            omega_compare(Word(AB, ()), W("a"))

    def test_mixed_alphabets_rejected(self):
        with pytest.raises(ValueError):
            omega_compare(W("ab"), W("ab", ABC))

    @given(binary_words, binary_words)
    def test_matches_lcm_materialization(self, u, v):
        assert omega_compare(u, v) == naive_omega_compare(str(u), str(v))

    @given(binary_words, binary_words)
    def test_equal_iff_same_root(self, u, v):
        assert (omega_compare(u, v) == EQUAL) == (root(u) == root(v))

    @given(binary_words, binary_words, binary_words)
    def test_total_preorder(self, u, v, w):
        # antisymmetric up to root-equality, transitive via the naive oracle
        assert omega_compare(u, v) == -omega_compare(v, u)
        if omega_compare(u, v) <= 0 and omega_compare(v, w) <= 0:
            assert omega_compare(u, w) <= 0

    @given(st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
        )
    ))
    def test_agrees_with_lex_on_equal_length(self, pair):
        u, v = (Word(AB, tuple(c)) for c in pair)
        lex = -1 if u < v else (1 if u > v else 0)
        assert omega_compare(u, v) == lex

