import random
from collections import Counter
from itertools import islice
from os.path import commonprefix

import pytest
from hypothesis import given, settings, strategies as st

from ebwt import bwt
from ebwt.bwt import (
    NecklaceMultiset,
    inverse_transform,
    standard_permutation,
    transform,
)
from ebwt.errors import ResourceLimitError
from ebwt.words import Alphabet, Necklace, Word, lyndon_representative, root

from helpers import (
    AB, ABC, W, all_words, apply_letter, build_table, fibonacci_word, letter_range,
    naive_bwt, naive_cycles, naive_least_rotation, naive_primitive, naive_root,
    naive_standard_permutation, prefix_bwt, rotations, translated_cycles,
)


def multiset(*texts, alphabet=AB):
    return NecklaceMultiset.from_texts(alphabet, texts)


def entries(m):
    return [(str(n), mult) for n, mult in m.entries]


# random multisets: necklace lengths <= 8, <= 5 entries, k <= 3
@st.composite
def multisets(draw):
    alphabet = draw(st.sampled_from([AB, ABC]))
    k = alphabet.size
    words = draw(st.lists(
        st.lists(st.integers(0, k - 1), min_size=1, max_size=8), min_size=0, max_size=5,
    ))
    necklaces = [lyndon_representative(root(Word(alphabet, tuple(c)))) for c in words]
    return NecklaceMultiset.from_necklaces(alphabet, necklaces)


def texts(letters, max_size):
    """Texts with a uniform length: st.text alone keeps most of them short."""
    return st.integers(1, max_size).flatmap(
        lambda n: st.text(letters, min_size=n, max_size=n)
    )


# wide random multisets: necklaces up to 64 letters, multiplicities up to 50,
# 1-3 letters; (letters, [(lyndon text, multiplicity)]) built by the oracles
@st.composite
def wide_multisets(draw):
    letters = draw(st.sampled_from(["a", "ab", "abc"]))
    items = draw(st.lists(st.tuples(texts(letters, 64), st.integers(1, 50)), max_size=6))
    counts = Counter()
    for text, mult in items:
        counts[naive_least_rotation(naive_root(text))] += mult
    return letters, sorted(counts.items())


# words of up to 300 letters over 1-3 letters, as (letters, text)
words_up_to_300 = st.sampled_from(["a", "ab", "abc"]).flatmap(
    lambda letters: st.tuples(st.just(letters), texts(letters, 300))
)


# words to invert, over alphabets of 1-4 letters that may hold letters the
# word never uses: as (word, None) a random word, or as (word, multiset) the
# transform of a multiset whose necklaces repeat
@st.composite
def inversion_inputs(draw):
    alphabet = Alphabet(draw(st.sampled_from(["a", "ab", "abc", "abcd"])))
    used = draw(st.lists(st.sampled_from(alphabet.letters), min_size=1, unique=True))
    if draw(st.booleans()):
        return alphabet.word(draw(st.text(used, min_size=1, max_size=120))), None
    items = draw(st.lists(
        st.tuples(st.text(used, min_size=1, max_size=12), st.integers(1, 4)),
        min_size=1, max_size=5,
    ))
    counts = Counter()
    for text, mult in items:
        counts[naive_least_rotation(naive_root(text))] += mult
    m = NecklaceMultiset(alphabet, tuple(
        (Necklace(alphabet.word(text)), mult) for text, mult in sorted(counts.items())
    ))
    return transform(m), m


class TestNecklaceMultiset:
    def test_orders_and_merges(self):
        m = multiset("abb", "aab", "abb")
        assert entries(m) == [("aab", 1), ("abb", 2)]
        assert m.total_length == 9
        assert len(m) == 3
        counts = Counter({Necklace(W("abb")): 2, Necklace(W("aab")): 1})
        assert NecklaceMultiset.from_necklaces(AB, counts) == m

    def test_rejects_misordered_entries(self):
        good = Necklace(W("aab"))
        with pytest.raises(ValueError):
            NecklaceMultiset(AB, ((good, 0),))
        with pytest.raises(ValueError):
            NecklaceMultiset(AB, ((Necklace(W("ab")), 1), (good, 1)))

    def test_rejects_alien_alphabet(self):
        with pytest.raises(ValueError):
            NecklaceMultiset(ABC, ((Necklace(W("ab")), 1),))


class TestTransform:
    def test_paper_example(self):
        assert str(transform(multiset("aab", "ab", "abb"))) == "babbaaba"

    def test_empty(self):
        assert str(transform(NecklaceMultiset(AB, ()))) == ""

    def test_single_necklace(self):
        assert str(transform(multiset("ab"))) == "ba"

    def test_repeated_necklace(self):
        assert str(transform(multiset("ab", "ab"))) == "bbaa"

    @given(multisets())
    def test_matches_lcm_table_oracle(self, m):
        oracle = naive_bwt([(str(n), mult) for n, mult in m.entries])
        assert str(transform(m)) == oracle

    @given(wide_multisets())
    @settings(deadline=None)
    def test_matches_prefix_oracle_on_long_necklaces(self, drawn):
        letters, items = drawn
        alphabet = Alphabet(letters)
        m = NecklaceMultiset(alphabet, tuple(
            (Necklace(alphabet.word(text)), mult) for text, mult in items
        ))
        assert str(transform(m)) == prefix_bwt(items)


# 40 letters in code-point order
LETTERS_40 = "".join(map(chr, range(48, 88)))

# (letters, span): random necklaces of these letters are told apart within
# span letters, and near-periodic ones built to tie past it need rounds
PACKED_SPANS = [("ab", 32), ("abc", 32), ("abcd", 16), (LETTERS_40, 8)]


def oracle_multiset(letters, items):
    """(multiset, oracle items) for [(primitive text, multiplicity)], with
    the Lyndon words found by the naive oracles."""
    counts = Counter()
    for text, mult in items:
        counts[naive_least_rotation(naive_root(text))] += mult
    alphabet = Alphabet(letters)
    ordered = sorted(counts.items())
    m = NecklaceMultiset(alphabet, tuple(
        (Necklace(alphabet.word(text)), mult) for text, mult in ordered
    ))
    return m, ordered


def distinguishing_span(items) -> int:
    """The shortest prefix of the rotations' infinite powers on which every
    two rotations of the distinct necklaces differ: one more than the
    longest common prefix of two neighbours in sorted order."""
    span = 2 * max(len(text) for text, _ in items)
    rows = sorted(
        (r * (span // len(r) + 1))[:span] for text, _ in items for r in rotations(text)
    )
    return 1 + max((len(commonprefix(pair)) for pair in zip(rows, rows[1:])), default=0)


def random_texts(rng, letters, length, count):
    return ["".join(rng.choice(letters) for _ in range(length)) for _ in range(count)]


# near-periodic texts u^j v: their rotations share prefixes about |u| * j long
near_periodic = st.sampled_from(["ab", "abcd", LETTERS_40]).flatmap(
    lambda letters: st.tuples(
        st.just(letters),
        st.lists(st.tuples(
            texts(letters[:3], 6), st.integers(1, 20), texts(letters, 6), st.integers(1, 4),
        ).map(lambda d: (d[0] * d[1] + d[2], d[3])), min_size=1, max_size=5),
    )
)


class TestRanking:
    """The transform's ranking rounds against the prefix-sorted oracle: each
    round ranks the tied keys densely and pairs them, until the rotations are
    told apart."""

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("letters, packed_span", PACKED_SPANS[:3])
    @pytest.mark.parametrize("length", [16, 32, 64])
    def test_packed_rounds_alone(self, letters, packed_span, length, mixed):
        rng = random.Random(f"{letters}{length}{mixed}")
        items = [(text, rng.randint(1, 5) if mixed else 1)
                 for text in random_texts(rng, letters, length, 12)]
        m, ordered = oracle_multiset(letters, items)
        assert distinguishing_span(ordered) <= packed_span
        assert str(transform(m)) == prefix_bwt(ordered)

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("letters, packed_span", PACKED_SPANS)
    def test_packing_stops_then_dense_rounds(self, letters, packed_span, mixed):
        rng = random.Random(f"{letters}{mixed}")
        items = [
            (block * (2 * packed_span // len(block) + 1) + tail, rng.randint(1, 5) if mixed else 1)
            for block, tail in zip(random_texts(rng, letters[:3], 3, 6),
                                   random_texts(rng, letters, 5, 6))
        ]
        items.append((letters[0] * (2 * packed_span) + letters[-1], 1))
        m, ordered = oracle_multiset(letters, items)
        assert distinguishing_span(ordered) > packed_span
        assert str(transform(m)) == prefix_bwt(ordered)

    @pytest.mark.parametrize("letters, items", [
        ("ab", [(fibonacci_word(2000), 1)]),
        ("ab", [(fibonacci_word(2000), 3), (fibonacci_word(300), 1), ("ab", 7)]),
        ("ab", [("a" * 1000 + "b", 1)]),
        ("ab", [("a" * 1000 + "b", 2), ("a" * 999 + "b", 1), ("a" * 10 + "bb", 4)]),
        ("ab", [(fibonacci_word(500), 2), ("a" * 100 + "b", 1)]),
        ("abc", [(text, 1 + i % 3) for i, text in
                 enumerate(random_texts(random.Random("abc"), "abc", 40, 10))]),
        (LETTERS_40, [(text, 1) for text in random_texts(random.Random(40), LETTERS_40, 30, 10)]),
    ], ids=["fibonacci", "fibonacci-mixed", "a^m b", "a^m b-mixed", "fibonacci-a^m b",
            "random-3-letters", "random-40-letters"])
    def test_repetitive_necklaces(self, letters, items):
        m, ordered = oracle_multiset(letters, items)
        assert str(transform(m)) == prefix_bwt(ordered)

    @given(near_periodic)
    @settings(deadline=None)
    def test_near_periodic_matches_prefix_oracle(self, drawn):
        letters, items = drawn
        m, ordered = oracle_multiset(letters, items)
        assert str(transform(m)) == prefix_bwt(ordered)


def wide_letters(k):
    """k letters in code-point order from U+0100 on, surrogates skipped."""
    codes = (c for c in range(0x100, 0x110000) if not 0xD800 <= c <= 0xDFFF)
    return "".join(map(chr, islice(codes, k)))


LETTERS_300 = wide_letters(300)
LETTERS_70000 = wide_letters(70000)


def ranked(monkeypatch, m):
    """(transform of m, the width of the tied windows each time the
    transform went on to prefix doubling)."""
    widths = []
    real = bwt._dense

    def spy(keys, distinct):
        if isinstance(keys[0], str):
            widths.append(len(keys[0]))
        return real(keys, distinct)

    monkeypatch.setattr(bwt, "_dense", spy)
    return transform(m), widths


class TestWindowSort:
    """The windows the transform sorts, 64 letters wide over up to 256
    letters, 32 up to 65536 and 16 above, against the prefix-sorted oracle;
    tied windows go on to prefix doubling."""

    @pytest.mark.parametrize("k, width", [
        (2, 64), (256, 64), (257, 32), (65536, 32), (65537, 16),
    ])
    def test_width_follows_the_alphabet(self, monkeypatch, k, width):
        # a^(2 width) z: its first rotations tie on every window
        letters = wide_letters(k)
        items = [(letters[0] * (2 * width) + letters[-1], 1), (letters[0] + letters[-1], 3)]
        m, ordered = oracle_multiset(letters, items)
        word, widths = ranked(monkeypatch, m)
        assert widths == [width]
        assert str(word) == prefix_bwt(ordered)

    @pytest.mark.parametrize("letters", ["ab", "abc"])
    def test_short_necklaces_need_no_rounds(self, monkeypatch, letters):
        # windows of 2 * maxlen letters tell every rotation apart
        rng = random.Random(letters)
        items = [(text, rng.randint(1, 3)) for text in random_texts(rng, letters, 32, 40)]
        m, ordered = oracle_multiset(letters, items)
        word, widths = ranked(monkeypatch, m)
        assert widths == []
        assert str(word) == prefix_bwt(ordered)

    @pytest.mark.parametrize("items", [
        [(fibonacci_word(80), 1)],
        [(fibonacci_word(300), 2), (fibonacci_word(40), 1), ("ab", 5)],
        [("ab" * 40 + "b", 1), ("aab" * 25 + "b", 3), ("ab" * 20 + "b", 2)],
        [("a" * 70 + "b", 1), ("a" * 66 + "bb", 2), ("a" * 40 + "b", 1)],
    ], ids=["fibonacci-89", "fibonacci-mixed", "near-periodic", "a^m b"])
    def test_tied_windows(self, monkeypatch, items):
        m, ordered = oracle_multiset("ab", items)
        word, widths = ranked(monkeypatch, m)
        assert widths == [64]
        assert str(word) == prefix_bwt(ordered)

    @given(st.sampled_from(["ab", "abc"]).flatmap(lambda letters: st.tuples(
        st.just(letters),
        st.lists(st.tuples(
            texts(letters[:2], 4), st.integers(9, 30), texts(letters, 4), st.integers(1, 4),
        ).map(lambda d: (d[0] * d[1] + d[2], d[3])), min_size=1, max_size=4),
    )))
    @settings(max_examples=60, deadline=None)
    def test_near_periodic_past_the_window(self, drawn):
        # u^j v with |u| * j from 9 to 120 letters: ties past 64 letters
        letters, items = drawn
        m, ordered = oracle_multiset(letters, items)
        assert str(transform(m)) == prefix_bwt(ordered)

    @pytest.mark.parametrize("letters", [LETTERS_300, LETTERS_70000], ids=["k=300", "k=70000"])
    def test_wide_alphabets(self, letters):
        rng = random.Random(len(letters))
        high = letters[-3:]  # the codes that need the widest strings
        items = [(text, rng.randint(1, 4)) for text in random_texts(rng, letters, 50, 20)]
        items += [(u * j + v, rng.randint(1, 3)) for u, j, v in [
            (high[0] + letters[0], 20, high[1]), (letters[0] * 3 + high[2], 9, letters[1]),
            (high[2], 40, high[0]), (letters[5] + high[0], 30, high[0]),
        ]]
        m, ordered = oracle_multiset(letters, items)
        assert str(transform(m)) == prefix_bwt(ordered)
        assert inverse_transform(transform(m)) == m

    @pytest.mark.parametrize("letters", ["ab", "abc", LETTERS_300], ids=["k=2", "k=3", "k=300"])
    def test_high_multiplicities(self, letters):
        rng = random.Random(f"{len(letters)} copies")
        lengths = [1, 2, 3, 5, 8, 13, 40, 70]
        items = [(text, rng.randint(1, 10**4)) for n in lengths
                 for text in random_texts(rng, letters[:3] + letters[-2:], n, 2)]
        items.append((letters[0] * 70 + letters[1], 10**4))
        m, ordered = oracle_multiset(letters, items)
        w = transform(m)
        assert str(w) == prefix_bwt(ordered)
        assert inverse_transform(w) == m


class TestStandardPermutation:
    def test_paper_example(self):
        p = standard_permutation(W("babbaaba"))
        assert p.image == (1, 4, 5, 7, 0, 2, 3, 6)
        assert list(p.cycles().items()) == [((0, 1, 4), 1), ((2, 5), 1), ((3, 7, 6), 1)]
        assert p.dom(0) == range(0, 4)
        assert p.dom(1) == range(4, 8)
        assert letter_range(p, 0) == (1, 4, 5, 7)

    def test_sorted_word_is_identity(self):
        assert standard_permutation(W("ab")).image == (0, 1)

    def test_transposition(self):
        p = standard_permutation(W("ba"))
        assert p.image == (1, 0)
        assert p.dom(0) == range(0, 1)
        assert letter_range(p, 0) == (1,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            standard_permutation(Word(AB, ()))

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=20))
    def test_image_is_permutation_from_per_letter_maps(self, codes):
        p = standard_permutation(Word(ABC, tuple(codes)))
        assert sorted(p.image) == list(range(len(codes)))
        # dom intervals are consecutive, ordered by letter, and cover [n]
        stops = [p.dom(a) for a in range(3)]
        flat = [i for r in stops for i in r]
        assert flat == list(range(len(codes)))
        # each per-letter map is order-preserving onto the letter's positions
        for a in range(3):
            ran = letter_range(p, a)
            assert list(ran) == sorted(i for i, c in enumerate(codes) if c == a)
            assert all(x < y for x, y in zip(ran, ran[1:]))

    @given(st.integers(1, 4).flatmap(
        lambda k: st.lists(st.integers(0, k - 1), min_size=1, max_size=80).map(
            lambda codes: Word(Alphabet("abcd"[:k]), tuple(codes)))
    ))
    def test_matches_naive_oracle(self, w):
        p = standard_permutation(w)
        assert (p.image, p.sorted_codes) == naive_standard_permutation(w.codes)

    @given(st.sampled_from(["a", "ab", "abc", "abcd"]).flatmap(
        lambda letters: st.tuples(st.just(letters), texts(letters, 300))
    ))
    @settings(deadline=None)
    def test_cycles_match_naive_decomposition(self, drawn):
        letters, text = drawn
        p = standard_permutation(Alphabet(letters).word(text))
        assert translated_cycles(p.cycles()) == naive_cycles(p.image)

    @given(wide_multisets())
    @settings(deadline=None)
    def test_classes_of_transforms(self, drawn):
        # multiplicities 1-50: each necklace is one class of translates, and
        # the classes expand to the naive cycles
        letters, items = drawn
        alphabet = Alphabet(letters)
        m = NecklaceMultiset(alphabet, tuple(
            (Necklace(alphabet.word(text)), mult) for text, mult in items
        ))
        if not items:
            return
        p = standard_permutation(transform(m))
        classes = p.cycles()
        assert translated_cycles(classes) == naive_cycles(p.image)
        spelled = sorted(
            (alphabet.render(map(p.sorted_codes.__getitem__, cycle)), copies)
            for cycle, copies in classes.items()
        )
        assert spelled == items

    def test_cycles_of_empty_permutation(self):
        assert bwt.StandardPermutation(AB, (), ()).cycles() == {}


def assert_classes_ascend(w):
    """The classes of `cycles`, expanded in listing order, spell the naive
    cycles sorted: Lyndon words that ascend, strictly from class to class.
    That is the order `inverse_transform` takes without sorting."""
    p = standard_permutation(w)
    letter = p.sorted_codes.__getitem__
    classes = p.cycles()
    spelled = [tuple(map(letter, cycle)) for cycle in classes]
    assert all(a < b for a, b in zip(spelled, spelled[1:]))
    for codes in spelled:
        assert all(codes < codes[i:] + codes[:i] for i in range(1, len(codes)))
    listed = [tuple(map(letter, cycle)) for cycle in translated_cycles(classes)]
    assert listed == sorted(tuple(map(letter, cycle)) for cycle in naive_cycles(p.image))
    assert [(n.lyndon.codes, m) for n, m in inverse_transform(w).entries] == list(
        zip(spelled, classes.values()))


# words to invert: random, proper powers and transforms of multisets with many
# copies, over 1-3 letters (one letter gives unary words) or 300 letters
@st.composite
def inverse_order_inputs(draw):
    letters = draw(st.sampled_from(["a", "ab", "abc", LETTERS_300]))
    kind = draw(st.sampled_from(["random", "power", "copies"]))
    if kind == "copies":
        items = draw(st.lists(
            st.tuples(texts(letters, 12), st.integers(1, 200)), min_size=1, max_size=6,
        ))
        return transform(oracle_multiset(letters, items)[0])
    text = draw(texts(letters, 60))
    if kind == "power":
        text *= draw(st.integers(2, 6))
    return Alphabet(letters).word(text)


class TestInverseOrder:
    """`inverse_transform` reads the classes of `cycles` in listing order as
    its entries, with no sort: they must spell ascending Lyndon words."""

    def test_all_short_words(self):
        for k, top in [(2, 12), (3, 8)]:
            alphabet = Alphabet("abc"[:k])
            for n in range(1, top + 1):
                for codes in all_words(k, n):
                    assert_classes_ascend(Word(alphabet, codes))

    @given(inverse_order_inputs())
    @settings(deadline=None)
    def test_random_powers_and_copies(self, w):
        assert_classes_ascend(w)


class TestWordAction:
    """The per-letter partial maps of the standard permutation, walked along
    a word."""

    def test_paper_cycle(self):
        p = standard_permutation(W("babbaaba"))
        pos = 0
        for letter in W("aab").codes:
            pos = apply_letter(p, pos, letter)
        assert pos == 0

    def test_undefined_step(self):
        p = standard_permutation(W("babbaaba"))
        assert p.sorted_codes[0] == 0
        assert apply_letter(p, 0, 1) is None


class TestInverseTransform:
    def test_paper_example(self):
        assert entries(inverse_transform(W("babbaaba"))) == [
            ("aab", 1), ("ab", 1), ("abb", 1),
        ]

    def test_empty(self):
        assert inverse_transform(Word(AB, ())).entries == ()

    def test_alpha_power_span5(self):
        m = inverse_transform(W("ab" * 16))
        assert entries(m) == [
            ("a", 1), ("aaaab", 1), ("aaabb", 1), ("aabab", 1),
            ("aabbb", 1), ("ababb", 1), ("abbbb", 1), ("b", 1),
        ]

    def test_round_trip_exhaustive_small(self):
        for n in range(1, 11):
            for codes in all_words(2, n):
                w = Word(AB, codes)
                assert transform(inverse_transform(w)) == w

    @given(inversion_inputs())
    @settings(deadline=None)
    def test_cycles_pass_necklace_checks(self, drawn):
        w, m = drawn
        inverse = inverse_transform(w)
        for necklace, _ in inverse.entries:
            assert Necklace(necklace.lyndon) == necklace
            text = str(necklace)
            assert naive_primitive(text) and text == naive_least_rotation(text)
        if m is not None:
            assert inverse == m

    @given(multisets())
    def test_round_trip_from_multisets(self, m):
        assert inverse_transform(transform(m)) == m

    @given(st.sampled_from(["a", "ab", "abc"]).flatmap(lambda letters: st.tuples(
        st.just(letters),
        st.lists(st.tuples(texts(letters, 8), st.integers(1, 1000)), min_size=1, max_size=5),
    )))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_at_high_multiplicity(self, drawn):
        letters, items = drawn
        m, _ = oracle_multiset(letters, items)
        assert inverse_transform(transform(m)) == m

    @given(words_up_to_300)
    @settings(deadline=None)
    def test_long_words_match_prefix_oracle(self, drawn):
        letters, text = drawn
        m = inverse_transform(Alphabet(letters).word(text))
        assert prefix_bwt(entries(m)) == text


class TestBuildTable:
    def test_paper_example(self):
        t = build_table(W("babbaaba"))
        assert [str(r) for r in t.rows] == [
            "aabaab", "abaaba", "ababab", "abbabb",
            "baabaa", "bababa", "babbab", "bbabba",
        ]
        assert t.width == 6

    def test_single_letter(self):
        assert [str(r) for r in build_table(W("a")).rows] == ["a"]

    def test_two_rows(self):
        assert [str(r) for r in build_table(W("ba")).rows] == ["ab", "ba"]

    def test_guard_names_the_lcm(self):
        # cycles of lengths 2,3,5,7,11,13 -> lcm 30030; 41 rows overflow 2^20 cells
        m = multiset("ab", "aab", "aaaab", "aaaaaab", "aaaaaaaaaab", "aaaaaaaaaaaab")
        w = transform(m)
        with pytest.raises(ResourceLimitError, match="30030"):
            build_table(w, max_cells=2**20)
        assert build_table(w, max_cells=2**21).width == 30030

    @given(multisets().filter(lambda m: m.total_length > 0))
    @settings(max_examples=60, deadline=None)
    def test_table_properties(self, m):
        w = transform(m)
        p = standard_permutation(w)
        try:
            t = build_table(w)
        except ResourceLimitError:
            return
        n, width = len(t.rows), t.width
        # conjugation correspondence: row at i*pi is the shift of row i
        for i in range(n):
            shifted = t.rows[i].codes[1:] + t.rows[i].codes[:1]
            assert t.rows[p.image[i]].codes == shifted
        # column shift: entry (i, j) = entry (i*pi, j-1 mod width)
        for i in range(n):
            for j in range(width):
                assert t.entry(i, j) == t.entry(p.image[i], (j - 1) % width)
        # root of row i has the length of i's cycle; rows sorted; last column is w
        cycle_len = {}
        for cycle in translated_cycles(p.cycles()):
            for i in cycle:
                cycle_len[i] = len(cycle)
        roots = []
        for i in range(n):
            r = root(t.rows[i])
            roots.append(r)
            assert len(r) == cycle_len[i]
        for a, b in zip(t.rows, t.rows[1:]):
            assert a.codes <= b.codes
        assert tuple(r.codes[-1] for r in t.rows) == w.codes
        # conjugate roots appear with equal multiplicity
        from collections import Counter
        counts = Counter(r.codes for r in roots)
        for r in roots:
            for s in range(1, len(r)):
                conj = r.codes[s:] + r.codes[:s]
                assert counts[conj] == counts[r.codes]
        # Lyndon roots appear in lexicographic order (and below later roots)
        lyndon_rows = [
            (u, r) for u, r in zip(t.rows, roots)
            if r.codes == min(r.codes[s:] + r.codes[:s] for s in range(len(r)))
        ]
        for (u1, r1), (u2, r2) in zip(lyndon_rows, lyndon_rows[1:]):
            assert r1.codes <= r2.codes
        for i in range(n):
            if roots[i].codes != min(
                roots[i].codes[s:] + roots[i].codes[:s] for s in range(len(roots[i]))
            ):
                continue
            for j in range(i + 1, n):
                if t.rows[j].codes != t.rows[i].codes:
                    assert t.rows[i].codes < roots[j].codes
