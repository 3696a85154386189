"""The record contract of `words.Value`, over the ten classes built on it:
equality within one class, a hash that agrees, no assignment, the repr, the
checks of `__post_init__`, and `unchecked` giving what the checked
constructor gives where the package uses it."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from ebwt.bwt import NecklaceMultiset, StandardPermutation, inverse_transform, transform
from ebwt.debruijn import GammaWord
from ebwt.errors import NotPrimitiveError
from ebwt.factors import FactorWitness
from ebwt.semigroups import (
    MultisetSemigroup,
    PartialInjection,
    Transformation,
    semigroup_of_multiset,
)
from ebwt.words import Alphabet, Necklace, Value, Word, lyndon_representative

from helpers import AB, W, naive_primitive

ABC = Alphabet("abc")


def multiset(*entries):
    return NecklaceMultiset(AB, tuple((Necklace(W(t)), m) for t, m in entries))


# Each sample builds a fresh record from fresh field values, so two calls
# give equal records that are not the same objects.
SAMPLES = {
    "Alphabet": (lambda: Alphabet("ab"), "Alphabet(letters='ab')"),
    "Word": (lambda: W("abb"), "Word('abb')"),
    "Necklace": (lambda: Necklace(W("abb")), "Necklace('abb')"),
    "NecklaceMultiset": (
        lambda: multiset(("aab", 1), ("ab", 2)),
        "NecklaceMultiset(alphabet=Alphabet(letters='ab'), "
        "entries=((Necklace('aab'), 1), (Necklace('ab'), 2)))",
    ),
    "StandardPermutation": (
        lambda: StandardPermutation(Alphabet("ab"), (1, 0, 2), (0, 1, 1)),
        "StandardPermutation(alphabet=Alphabet(letters='ab'), image=(1, 0, 2), "
        "sorted_codes=(0, 1, 1))",
    ),
    "GammaWord": (lambda: GammaWord(W("abba"), 2), "GammaWord(word=Word('abba'), span=2)"),
    "FactorWitness": (
        lambda: FactorWitness(W("aabb"), 2, 7, 6),
        "FactorWitness(word=Word('aabb'), span=2, distinct_count=7, lower_bound=6)",
    ),
    "PartialInjection": (
        lambda: PartialInjection(3, ((0, 1), (2, 0))),
        "PartialInjection(degree=3, pairs=((0, 1), (2, 0)))",
    ),
    "Transformation": (lambda: Transformation((1, 0, 1)), "Transformation(targets=(1, 0, 1))"),
}

# One closure shared by both MultisetSemigroup samples: its FiniteSemigroup
# field compares by identity.
_CLOSED = semigroup_of_multiset(multiset(("ab", 1)))
SAMPLES["MultisetSemigroup"] = (
    lambda: MultisetSemigroup(Alphabet("ab"), _CLOSED.semigroup, ((0, 1),), (0, 1)),
    "MultisetSemigroup(alphabet=Alphabet(letters='ab'), "
    "semigroup=<ebwt.semigroups.FiniteSemigroup object at 0x?>, "
    "cycle_domains=((0, 1),), sorted_codes=(0, 1))",
)

# A record of the same class with one field changed.
OTHERS = {
    "Alphabet": lambda: Alphabet("abc"),
    "Word": lambda: W("aab"),
    "Necklace": lambda: Necklace(W("aab")),
    "NecklaceMultiset": lambda: multiset(("aab", 1), ("ab", 3)),
    "StandardPermutation": lambda: StandardPermutation(ABC, (1, 0, 2), (0, 1, 1)),
    "GammaWord": lambda: GammaWord(W("baab"), 2),
    "FactorWitness": lambda: FactorWitness(W("aabb"), 2, 7, 5),
    "PartialInjection": lambda: PartialInjection(3, ((0, 1),)),
    "Transformation": lambda: Transformation((1, 0, 0)),
    "MultisetSemigroup": lambda: MultisetSemigroup(AB, _CLOSED.semigroup, ((1, 0),), (0, 1)),
}

NAMES = sorted(SAMPLES)


def fields(record):
    return tuple(getattr(record, name) for name in type(record)._fields)


def test_all_ten_records_are_values():
    classes = {type(SAMPLES[name][0]()) for name in NAMES}
    assert len(classes) == 10
    assert all(issubclass(cls, Value) for cls in classes)
    assert {cls.__name__ for cls in classes} == set(OTHERS)


@pytest.mark.parametrize("name", NAMES)
class TestContract:
    def test_equal_within_one_class(self, name):
        make = SAMPLES[name][0]
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert a != OTHERS[name]() and not a == OTHERS[name]()

    def test_never_equal_to_a_tuple_or_another_class(self, name):
        a = SAMPLES[name][0]()
        twin = type("Twin", (Value,), {"__annotations__": dict.fromkeys(type(a)._fields)})
        assert twin._fields == type(a)._fields
        for other in (fields(a), list(fields(a)), twin(*fields(a)), twin.unchecked(*fields(a))):
            assert a != other and other != a
            assert not a == other

    def test_hash_agrees_with_equality(self, name):
        make = SAMPLES[name][0]
        a, b = make(), make()
        assert hash(a) == hash(b)
        assert len({a, b, OTHERS[name]()}) == 2
        assert {a: 1}[b] == 1

    def test_fields_cannot_be_set_or_deleted(self, name):
        a = SAMPLES[name][0]()
        before = fields(a)
        for field in type(a)._fields + ("unrelated",):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(a, field, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(a, field)
        assert fields(a) == before

    def test_repr(self, name):
        make, text = SAMPLES[name]
        assert re.sub("0x[0-9a-f]+", "0x?", repr(make())) == text

    def test_unchecked_equals_checked(self, name):
        a = SAMPLES[name][0]()
        b = type(a).unchecked(*fields(a))
        assert b == a and hash(b) == hash(a) and repr(b) == repr(a)

    def test_fields_are_positional_and_counted(self, name):
        a = SAMPLES[name][0]()
        with pytest.raises(TypeError):
            type(a)(*fields(a), None)


# (constructor call, exception type, message) for each check of each
# __post_init__; the messages are those the checks have always given.
INVALID = [
    (lambda: Alphabet(""), ValueError, "alphabet needs at least one letter"),
    (lambda: Alphabet("ba"), ValueError, "alphabet letters must be strictly increasing: 'ba'"),
    (lambda: Alphabet("aa"), ValueError, "alphabet letters must be strictly increasing: 'aa'"),
    (lambda: Word(AB, (0, 2)), ValueError, "code out of range for 2-letter alphabet: (0, 2)"),
    (lambda: Word(AB, (-1,)), ValueError, "code out of range for 2-letter alphabet: (-1,)"),
    (lambda: Necklace(W("")), ValueError, "root is undefined for the empty word"),
    (lambda: Necklace(W("abab")), NotPrimitiveError, "necklace word must be primitive: abab"),
    (lambda: Necklace(W("ba")), ValueError,
     "necklace representative is not the least rotation: ba"),
    (lambda: NecklaceMultiset(AB, ((Necklace(W("ab", ABC)), 1),)), ValueError,
     "necklace ab is over a different alphabet"),
    (lambda: multiset(("ab", 0)), ValueError, "multiplicity must be positive, got 0"),
    (lambda: multiset(("ab", 1), ("aab", 1)), ValueError,
     "entries must be strictly ascending by Lyndon word"),
    (lambda: multiset(("ab", 1), ("ab", 1)), ValueError,
     "entries must be strictly ascending by Lyndon word"),
    (lambda: GammaWord(W("abb"), 2), ValueError, "word length 3 is not 2^2"),
    (lambda: GammaWord(W("aabb"), 2), ValueError, "block 0 is not a permutation of the alphabet"),
    (lambda: PartialInjection(3, ((1, 0), (0, 1))), ValueError,
     "pairs must be sorted by strictly increasing source"),
    (lambda: PartialInjection(3, ((0, 1), (1, 1))), ValueError, "targets must be distinct"),
    (lambda: PartialInjection(3, ((0, 3),)), ValueError, "point 3 outside degree 3"),
    (lambda: PartialInjection(3, ((-1, 0),)), ValueError, "point -1 outside degree 3"),
]


@pytest.mark.parametrize("make, error, message", INVALID)
def test_post_init_checks(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_construction_looks_up_post_init():
    # the per-layer tracer counts Word allocations by replacing the class's
    # own __post_init__, so construction must find it by attribute lookup
    calls = []
    original = vars(Word)["__post_init__"]

    def counted(self):
        calls.append(self)
        original(self)

    Word.__post_init__ = counted
    try:
        word = Word(AB, (0, 1))
    finally:
        Word.__post_init__ = original
    assert calls == [word]


def primitive_texts_over(letters, max_len):
    return st.text(alphabet=letters, min_size=1, max_size=max_len).filter(naive_primitive)


@st.composite
def multisets(draw):
    letters = draw(st.sampled_from(["ab", "abc"]))
    alphabet = Alphabet(letters)
    texts = draw(st.lists(primitive_texts_over(letters, 12), max_size=6))
    counts = {}
    for text in texts:
        necklace = lyndon_representative(W(text, alphabet))
        counts[necklace] = counts.get(necklace, 0) + draw(st.integers(1, 4))
    return NecklaceMultiset.from_necklaces(alphabet, counts)


def rechecked(m: NecklaceMultiset) -> NecklaceMultiset:
    """The multiset rebuilt through every checked constructor."""
    alphabet = Alphabet(m.alphabet.letters)
    return NecklaceMultiset(alphabet, tuple(
        (Necklace(Word(alphabet, necklace.lyndon.codes)), mult) for necklace, mult in m.entries
    ))


class TestUncheckedCallers:
    @given(st.sampled_from(["ab", "abc", "abcd"]).flatmap(
        lambda letters: st.tuples(st.just(letters), st.text(alphabet=letters, max_size=40))))
    @settings(max_examples=60, deadline=None)
    def test_alphabet_word(self, case):
        letters, text = case
        alphabet = Alphabet(letters)
        word = alphabet.word(text)
        assert word == Word(alphabet, tuple(map(letters.index, text)))

    @given(multisets())
    @settings(max_examples=60, deadline=None)
    def test_transform_and_inverse(self, m):
        word = transform(m)
        assert word == Word(m.alphabet, word.codes)
        inverse = inverse_transform(word)
        assert inverse == rechecked(inverse) == m == rechecked(m)
        assert all(type(n) is Necklace and type(n.lyndon) is Word for n, _ in inverse.entries)
