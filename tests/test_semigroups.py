import random
import sys
import warnings
from functools import reduce
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ebwt import semigroups
from ebwt.bwt import NecklaceMultiset, standard_permutation, transform
from ebwt.errors import NotPrimitiveError, ResourceLimitError
from ebwt.semigroups import (
    DEFAULT_CLOSURE_SIZE,
    PartialInjection,
    _minimal_dfa,
    cayley_signature,
    closure_order,
    closure_order_bound,
    generate_closure,
    letter_actions,
    letter_induced_isomorphic,
    letter_injections,
    semigroup_of_multiset,
    syntactic_semigroup,
)
from ebwt.words import Alphabet, Necklace, Word, lyndon_representative, root

from helpers import (
    AB,
    ABC,
    W,
    all_words,
    bfs_canonical,
    context_classes,
    dense_transition_signature,
    injection_apply,
    is_order_preserving,
    moore_minimal_dfa,
    naive_closure,
    naive_closure_size,
    naive_cycles,
    naive_least_rotation,
    naive_letter_maps,
    naive_primitive,
    naive_root,
    necklace_closure_order,
    primitive_texts,
    reference_close,
    relabelled_signature,
)


def action_semigroup(text, alphabet=AB):
    return generate_closure(letter_actions(W(text, alphabet)))


def primitive_words(max_len, min_len=1):
    """(text, letters): a primitive word over 2 or 3 letters, not all of
    which need occur in it."""
    return st.sampled_from(["ab", "abc"]).flatmap(
        lambda letters: st.tuples(
            st.text(alphabet=letters, min_size=min_len, max_size=max_len),
            st.just(letters),
        )
    ).filter(lambda case: naive_primitive(case[0]))


def both_routes(text, letters):
    u = W(text, Alphabet(letters))
    return generate_closure(letter_actions(u)), syntactic_semigroup(u)


class TestPartialInjection:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartialInjection(3, ((1, 0), (0, 1)))  # unsorted sources
        with pytest.raises(ValueError):
            PartialInjection(3, ((0, 1), (1, 1)))  # repeated target
        with pytest.raises(ValueError):
            PartialInjection(2, ((0, 2),))  # out of range

    def test_compose_left_to_right(self):
        f = PartialInjection(3, ((0, 1), (1, 2)))
        g = PartialInjection(3, ((2, 0),))
        assert f.compose(g).pairs == ((1, 0),)
        assert g.compose(f).pairs == ((2, 1),)

    def test_identity_and_empty(self):
        e = PartialInjection(3, ((0, 0), (1, 1), (2, 2)))
        z = PartialInjection(3, ())
        f = PartialInjection(3, ((0, 2), (1, 0)))
        assert e.compose(f) == f.compose(e) == f
        assert z.compose(f) == f.compose(z) == z

    def test_order_preserving_flag(self):
        assert is_order_preserving(PartialInjection(3, ((0, 1), (1, 2))))
        assert not is_order_preserving(PartialInjection(3, ((0, 2), (1, 0))))

    def test_restrict_renumbered(self):
        f = PartialInjection(5, ((0, 2), (1, 3), (2, 4), (4, 0)))
        assert f.restrict_renumbered((0, 2, 4)).pairs == ((0, 1), (1, 2), (2, 0))


class TestLetterActions:
    def test_three_rotations(self):
        acts = letter_actions(W("aab"))
        assert acts[0].pairs == ((0, 1), (1, 2))
        assert acts[1].pairs == ((2, 0),)

    def test_two_rotations(self):
        acts = letter_actions(W("ab"))
        assert acts[0].pairs == ((0, 1),)
        assert acts[1].pairs == ((1, 0),)

    def test_absent_letter_gets_empty_action(self):
        acts = letter_actions(W("a"))
        assert acts[0].pairs == ((0, 0),)
        assert acts[1].pairs == ()

    def test_union_is_standard_permutation_of_transform(self):
        for text in ["ab", "aab", "aabab", "abb"]:
            u = W(text)
            m = NecklaceMultiset.from_texts(AB, [str(lyndon_representative(u))])
            p = standard_permutation(transform(m))
            union = sorted(
                pair for inj in letter_actions(u).values() for pair in inj.pairs
            )
            assert union == [(i, p.image[i]) for i in range(len(text))]
            assert letter_injections(p) == letter_actions(u)

    @given(st.sampled_from(
        [("a", "a"), ("ab", "ab"), ("ab", "b"), ("abc", "abc"), ("abc", "ac")]
    ).flatmap(lambda case: st.tuples(
        st.text(alphabet=case[1], min_size=1, max_size=60).map(naive_root), st.just(case[0])
    )))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_letter_maps(self, case):
        # (text, alphabet): a primitive word, some letters possibly unused
        text, letters = case
        acts = letter_actions(W(text, Alphabet(letters)))
        assert {inj.degree for inj in acts.values()} == {len(text)}
        assert {letters[a]: dict(inj.pairs) for a, inj in acts.items()} == \
            naive_letter_maps(text, letters)

    def test_representative_independent(self):
        assert letter_actions(W("aab")) == letter_actions(W("aba"))

    def test_unchecked_generators_pass_the_checks(self):
        # `letter_injections` builds each generator unchecked; it is what the
        # checked constructor builds from the same pairs, for every letter of
        # a necklace, of an --alphabet that the word does not fill, and of
        # a multiset, whose letters act on several cycles
        empty = 0
        for letters, alphabet, longest in (("ab", AB, 8), ("abc", ABC, 5),
                                           ("ab", Alphabet("abcd"), 6)):
            for text in primitive_texts(letters, longest):
                for g in letter_actions(W(text, alphabet)).values():
                    assert g == PartialInjection(g.degree, g.pairs)
                    empty += not g.pairs
        for texts in (["a", "a", "b", "aab", "aab"], ["abc", "acb", "aabc", "b", "b"]):
            p = standard_permutation(transform(NecklaceMultiset.from_texts(ABC, texts)))
            for g in letter_injections(p).values():
                assert g == PartialInjection(g.degree, g.pairs)
        assert empty > 0

    def test_non_primitive_rejected(self):
        with pytest.raises(NotPrimitiveError):
            letter_actions(W("abab"))


class TestMinimalDfa:
    def test_isomorphic_to_moore_minimisation(self):
        # every word of up to 9 letters over 1-2 letters and up to 7 over 3,
        # primitive or not
        checked = 0
        for letters, longest in (("a", 9), ("ab", 9), ("abc", 7)):
            alphabet = Alphabet(letters)
            for n in range(1, longest + 1):
                for codes in all_words(len(letters), n):
                    u = Word(alphabet, codes)
                    dfa = _minimal_dfa(u)
                    assert dfa[0] == n + 1 + (len(letters) > 1)
                    assert bfs_canonical(*dfa) == moore_minimal_dfa(u), u
                    checked += 1
        assert checked == 4310


class TestGenerateClosure:
    def test_five_elements_for_ab(self):
        s = action_semigroup("ab")
        assert s.order == 5
        expected = {
            ((0, 1),), ((1, 0),), ((0, 0),), ((1, 1),), (),
        }
        assert {e.pairs for e in s.elements} == expected

    def test_degree_one_cycle(self):
        s = generate_closure({0: PartialInjection(1, ((0, 0),))})
        assert s.order == 1

    def test_matches_naive_closure_oracle(self):
        for text in ["aab", "abb", "aabb", "aabab", "aababb"]:
            assert action_semigroup(text).order == naive_closure_size(
                naive_letter_maps(text, "ab")
            )

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            generate_closure({
                0: PartialInjection(2, ()),
                1: PartialInjection(3, ()),
            })

    def test_size_guard(self):
        with pytest.raises(ResourceLimitError):
            generate_closure(letter_actions(W("aabab")), max_size=4)

    def test_elements_are_order_preserving(self):
        for text in ["aab", "aabb", "aabab"]:
            for element in action_semigroup(text).elements:
                assert is_order_preserving(element)

    def test_element_words_reproduce_elements(self):
        for text, letters in [("aab", "ab"), ("abaabb", "ab"), ("abcab", "abc"), ("acb", "abcd")]:
            u = W(text, Alphabet(letters))
            s = action_route(u)
            gens = letter_actions(u)
            for element, word in zip(s.elements, s.element_words):
                acc = gens[word[0]]
                for a in word[1:]:
                    acc = acc.compose(gens[a])
                assert acc == element
            # the syntactic elements, against the automaton run from every state
            s = syntactic_semigroup(u)
            _, delta, _, _ = _minimal_dfa(u)
            for element, word in zip(s.elements, s.element_words):
                assert list(element.targets) == [
                    reduce(lambda q, a: delta[q][a], word, q) for q in range(len(delta))
                ]

    def test_table_is_associative_small(self):
        for text in ["ab", "aab", "aabb"]:
            s = action_semigroup(text)
            t = s.table
            n = s.order
            assert all(
                t[t[i][j]][k] == t[i][t[j][k]]
                for i in range(n) for j in range(n) for k in range(n)
            )


class TestSparseClosure:
    """The closure over sparse pair tuples against the dict-based naive
    closures, composition, and the dense transition semigroup."""

    @given(primitive_words(10))
    @settings(max_examples=60, deadline=None)
    def test_both_routes_match_naive_closures(self, case):
        text, letters = case
        action, syntactic = both_routes(text, letters)
        naive = naive_closure(naive_letter_maps(text, letters))
        assert action.order == len(naive)
        assert {frozenset(e.pairs) for e in action.elements} == naive
        _, delta, _, _ = _minimal_dfa(W(text, Alphabet(letters)))
        dense = naive_closure(
            {a: dict(enumerate(row[a] for row in delta)) for a in range(len(letters))}
        )
        assert syntactic.order == len(dense)
        assert {frozenset(enumerate(e.targets)) for e in syntactic.elements} == dense

    @given(primitive_words(6))
    @settings(max_examples=40, deadline=None)
    def test_table_matches_composition(self, case):
        for s in both_routes(*case):
            index = {e: i for i, e in enumerate(s.elements)}
            for i, x in enumerate(s.elements):
                for j, y in enumerate(s.elements):
                    assert s.table[i][j] == index[x.compose(y)]

    @given(primitive_words(10))
    @settings(max_examples=60, deadline=None)
    def test_syntactic_matches_dense_transition_closure(self, case):
        text, letters = case
        _, delta, _, _ = _minimal_dfa(W(text, Alphabet(letters)))
        dense = dense_transition_signature(delta, range(len(letters)))
        s = syntactic_semigroup(W(text, Alphabet(letters)))
        assert s.order == len(dense[2])
        assert cayley_signature(s) == flat_signature(dense)

    @given(primitive_words(10))
    @settings(max_examples=60, deadline=None)
    def test_numbering_is_breadth_first_shortlex(self, case):
        # the invariant that lets cayley_signature read the right table as is
        for s in both_routes(*case):
            words = s.element_words
            keys = [(len(w), w) for w in words]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            letters, _, right = cayley_signature(s)
            k = len(letters)
            index = {w: i for i, w in enumerate(words)}
            for j, w in enumerate(words):
                if len(w) == 1:
                    assert s.generators[w[0]] == j
                else:
                    assert right[index[w[:-1]] * k + letters.index(w[-1])] == j
            rows = [right[i:i + k] for i in range(0, len(right), k)]
            assert cayley_signature(s) == flat_signature(
                relabelled_signature(s.generators, rows))


def flat_signature(signature):
    """An oracle's row-form signature with its rows flattened, as
    `cayley_signature` gives it."""
    letters, generators, rows = signature
    return letters, generators, [j for row in rows for j in row]


def action_route(u, max_size=DEFAULT_CLOSURE_SIZE):
    return generate_closure(letter_actions(u), max_size)


ROUTES = (action_route, syntactic_semigroup)


def closed_with_reference(route, u, max_size=DEFAULT_CLOSURE_SIZE):
    """The closure that `route` builds for u, and the reference closure of
    the generators the route handed to `_close`."""
    with mock.patch.object(semigroups, "_close", wraps=semigroups._close) as spy:
        s = route(u, max_size)
    gens, guard, _ = spy.call_args.args
    return s, reference_close(gens, guard)


def one_point_rows(ref):
    """From a reference closure: the first row that `_close` meets with the
    empty map numbered (None when no product is empty), and for each
    one-point map its row and the number of letters defined at its target.
    `_close` writes such a row with one probe when it comes after the first
    and the number is 1; the first looks the empty map up and takes k."""
    known = ref.parent[ref.keys.index(())] + 1 if () in ref.keys else None
    domains = [dict(ref.gens[a]) for a in ref.letters]
    return known, [(i, sum(x[0][1] in d for d in domains))
                   for i, x in enumerate(ref.keys) if len(x) == 1]


def assert_matches_reference(s, ref, with_table=True):
    assert s.generators == ref.generators
    if isinstance(s.elements[0], PartialInjection):
        assert [e.pairs for e in s.elements] == ref.keys
    else:
        # a transition map of `_minimal_dfa`, whose last state is the sink
        # when there is one; the reference key leaves out the points it sends
        # to the sink
        states = len(s.elements[0].targets)
        assert [e.targets for e in s.elements] == [
            tuple(dict(key).get(q, states - 1) for q in range(states)) for key in ref.keys
        ]
    assert cayley_signature(s)[2] == [j for row in ref.right for j in row]
    assert s.element_words == ref.element_words
    if with_table:
        assert s.table == ref.table


class TestClosureLoop:
    """`_close` against the closure loop it replaced (`helpers.reference_close`,
    which stores each element's parent and last letter as it finds it)."""

    def test_every_small_primitive_word(self):
        checked = 0
        for letters, longest in (("ab", 8), ("abc", 5)):
            alphabet = Alphabet(letters)
            for text in primitive_texts(letters, longest):
                for route in ROUTES:
                    assert_matches_reference(*closed_with_reference(route, W(text, alphabet)))
                checked += 1
        assert checked == 472 + 345

    @given(primitive_words(40, min_len=12))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_words(self, case):
        text, letters = case
        for route in ROUTES:
            s, ref = closed_with_reference(route, W(text, Alphabet(letters)))
            assert_matches_reference(s, ref, with_table=s.order <= 400)

    def test_non_primitive_words_on_the_syntactic_route(self):
        checked = 0
        for letters, longest in (("ab", 10), ("abc", 6)):
            alphabet = Alphabet(letters)
            for n in range(2, longest + 1):
                for codes in all_words(len(letters), n):
                    u = Word(alphabet, codes)
                    if naive_primitive(str(u)):
                        continue
                    s, ref = closed_with_reference(syntactic_semigroup, u)
                    assert_matches_reference(s, ref)
                    checked += 1
        assert checked == 80 + 51

    def test_absent_letters(self):
        for letters in ("abcd", "abcde"):
            alphabet = Alphabet(letters)
            for text in primitive_texts("ab", 6):
                for route in ROUTES:
                    assert_matches_reference(*closed_with_reference(route, W(text, alphabet)))

    @pytest.mark.parametrize("text, letters", [
        ("ab", "ab"), ("aab", "ab"), ("aabab", "ab"), ("abcab", "abc"),
        ("aabb", "abcd"), ("abaabbab", "ab"), ("abcacb", "abc"),
    ])
    def test_guard_boundary(self, text, letters):
        # the guard refuses the (max_size + 1)-th element, and the loop it
        # replaced did the same
        u = W(text, Alphabet(letters))
        for route in ROUTES:
            s, ref = closed_with_reference(route, u)
            assert_matches_reference(*closed_with_reference(route, u, s.order))
            message = f"semigroup closure exceeds the {s.order - 1}-element guard"
            with pytest.raises(ResourceLimitError, match=message):
                route(u, s.order - 1)
            with pytest.raises(ResourceLimitError, match=message):
                reference_close(ref.gens, s.order - 1)

    @pytest.mark.parametrize("text, order", [
        ("a" * 700 + "b", 492101),  # 701^2 + 699 repeated factors a^i + 1
        ("ab" * 350 + "b", 492799),  # 701^2 + 1397 + 1
    ], ids=["a^700b", "(ab)^350b"])
    @pytest.mark.parametrize("route", ROUTES)
    def test_multi_point_worst_case(self, route, text, order):
        # the elements a^i (and (ab)^i) act on about 700 - i points each,
        # the quadratic case of the product loop; the orders are those the
        # replaced loop computed
        assert route(W(text)).order == order


def multiset_route(m, max_size=DEFAULT_CLOSURE_SIZE):
    return semigroup_of_multiset(m).semigroup


class TestPackedKeys:
    """`_close` keys a one-point map by its packed pair and any other map by
    the tuple of its packed pairs; each case below reaches one way a map
    comes to that form, checked against `helpers.reference_close`."""

    @pytest.mark.parametrize("route", ROUTES)
    def test_one_point_generator(self, route):
        # b occurs once in aab: on both routes its generator has one point
        s, ref = closed_with_reference(route, W("aab"))
        assert len(ref.gens[1]) == 1
        assert_matches_reference(s, ref)

    @pytest.mark.parametrize("route", ROUTES)
    def test_empty_and_equal_generators(self, route):
        # c and d do not occur in ab: both have the empty generator, one
        # element for the two letters
        s, ref = closed_with_reference(route, W("ab", Alphabet("abcd")))
        assert ref.gens[2] == ref.gens[3] == ()
        assert s.generators[2] == s.generators[3]
        assert_matches_reference(s, ref)

    @pytest.mark.parametrize("route", ROUTES)
    def test_products_that_shrink(self, route):
        # in abac, a acts on two points or more, ab on one and aa on none
        s, ref = closed_with_reference(route, W("abac", ABC))
        shrunk = {
            len(ref.keys[j]) for x, row in zip(ref.keys, ref.right) if len(x) >= 2 for j in row
        }
        assert {0, 1} <= shrunk
        assert_matches_reference(s, ref)

    def test_one_point_map_reached_from_a_larger_map(self):
        # the identity times b is b again: one map reached as a one-point
        # generator and as the product of a three-point map; the letters of
        # a necklace partition the points, so no necklace closure does this
        gens = {
            0: PartialInjection(3, ((0, 0), (1, 1), (2, 2))),
            1: PartialInjection(3, ((0, 1),)),
        }
        s, ref = closed_with_reference(generate_closure, gens)
        assert s.order == 3  # the identity, b and the empty map
        assert_matches_reference(s, ref)

    def test_random_partial_injections(self):
        # generators whose domains overlap, of 1 to 5 points over 1 to 3
        # letters
        rng = random.Random(18)
        for _ in range(200):
            degree = rng.randint(1, 5)
            gens = {}
            for a in range(rng.randint(1, 3)):
                sources = sorted(rng.sample(range(degree), rng.randint(0, degree)))
                targets = rng.sample(range(degree), len(sources))
                gens[a] = PartialInjection(degree, tuple(zip(sources, targets)))
            assert_matches_reference(*closed_with_reference(generate_closure, gens))

    @pytest.mark.parametrize("texts", [
        ["aab", "aab", "ab", "ab", "ab", "abb"],
        ["ab"] * 4,
        ["a", "a", "b", "aab", "aab"],
        ["abc", "abc", "acb", "aabc", "b", "b", "b"],
    ])
    def test_multiset_with_multiplicities(self, texts):
        # the generators act on many points each: every copy of a necklace
        # is a cycle of its own
        alphabet = ABC if "c" in "".join(texts) else AB
        m = NecklaceMultiset.from_texts(alphabet, texts)
        s, ref = closed_with_reference(multiset_route, m)
        assert max(map(len, ref.gens.values())) >= 4
        assert_matches_reference(s, ref)


def setdefault_calls(route, u) -> int:
    """The number of `dict.setdefault` calls, the probes of `_close`, made
    while `route` closes u, counted from the c_call events of
    `sys.setprofile`."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "c_call" and getattr(arg, "__name__", None) == "setdefault" \
                and type(getattr(arg, "__self__", None)) is dict:
            calls += 1

    sys.setprofile(profile)
    try:
        route(u)
    finally:
        sys.setprofile(None)
    return calls


class TestOnePointRows:
    """`_close` writes the row of a one-point map whose target lies in one
    letter's domain with one probe, once the empty map has its number; each
    way into and out of that path, checked against `helpers.reference_close`."""

    @pytest.mark.parametrize("route", ROUTES)
    def test_empty_map_numbered_before_the_first_one_point_row(self, route):
        # in ababb the generator of a times a is empty, so row 0 numbers the
        # empty map; the first one-point map is element 5
        s, ref = closed_with_reference(route, W("ababb"))
        known, rows = one_point_rows(ref)
        assert known == 1 and rows[0] == (5, 1)
        assert_matches_reference(s, ref)

    @pytest.mark.parametrize("route", ROUTES)
    def test_empty_map_numbered_after_the_first_one_point_row(self, route):
        # b occurs once in aab: its one-point generator, row 1, comes before
        # the empty map has its number and takes a product per letter
        s, ref = closed_with_reference(route, W("aab"))
        known, rows = one_point_rows(ref)
        assert rows[0] == (1, 1) and known == 2
        assert any(i >= known and owners == 1 for i, owners in rows)
        assert_matches_reference(s, ref)

    @pytest.mark.parametrize("route", ROUTES)
    def test_empty_map_as_a_generator(self, route):
        # c does not occur in aab: its generator is the empty map, numbered
        # before the first row
        s, ref = closed_with_reference(route, W("aab", ABC))
        known, rows = one_point_rows(ref)
        assert known == 0 and rows[0] == (1, 1)
        assert_matches_reference(s, ref)

    def test_one_letter(self):
        # K = 1: a one-point row has no empty cell beside its one product
        for gens in (
            {0: PartialInjection(1, ((0, 0),))},
            {0: PartialInjection(5, ((0, 1), (1, 2), (3, 4)))},  # a^3 is empty
        ):
            assert_matches_reference(*closed_with_reference(generate_closure, gens))
        for text in ("a", "aaa"):
            s, ref = closed_with_reference(syntactic_semigroup, W(text, Alphabet("a")))
            assert_matches_reference(s, ref)
        assert_matches_reference(*closed_with_reference(action_route, W("a", Alphabet("a"))))

    def test_targets_in_two_domains_or_none(self):
        # a * a is empty, so row 0 numbers the empty map; later one-point
        # maps reach point 1, where b and c are both defined, point 2, where
        # no letter is, and point 0, where only a is
        gens = {
            0: PartialInjection(3, ((0, 1),)),
            1: PartialInjection(3, ((1, 2),)),
            2: PartialInjection(3, ((1, 0),)),
        }
        s, ref = closed_with_reference(generate_closure, gens)
        known, rows = one_point_rows(ref)
        assert known == 1
        assert {owners for i, owners in rows if i >= known} == {0, 1, 2}
        assert_matches_reference(s, ref)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("text, alphabet", [
        ("ababb", AB), ("aab", AB), ("aab", ABC), ("abcacb", ABC), ("a", Alphabet("a")),
        ("abbabaabbbaababbbaaaabbabaabab", AB), ("abbcacbccbaacbbcaabacb", ABC),
    ])
    def test_one_probe_per_one_point_row(self, route, text, alphabet):
        # The probes of `_close`, each a `dict.setdefault` that the
        # profiler sees as a c_call: one per distinct generator, one per row
        # of a one-point map whose target one letter owns, met after the
        # row at which the empty map is first known, and k per other row
        u = W(text, alphabet)
        s, ref = closed_with_reference(route, u)
        known, rows = one_point_rows(ref)
        k = len(ref.letters)
        fast = {i for i, owners in rows if known is not None and i > known and owners == 1}
        expected = len(set(ref.generators.values())) + sum(
            1 if i in fast else k for i in range(s.order))
        assert setdefault_calls(route, u) == expected
        if k > 1 and s.order > 5:  # a closure that never took the one-probe row probes more
            assert expected < len(set(ref.generators.values())) + k * s.order

    @pytest.mark.parametrize("route", ROUTES)
    def test_guard_refuses_in_a_one_probe_row(self, route):
        # the last element of the closure of abcacb is first reached as the
        # one product of a one-probe row, so the abcacb case of
        # `TestClosureLoop.test_guard_boundary` refuses it there
        _, ref = closed_with_reference(route, W("abcacb", ABC))
        known, rows = one_point_rows(ref)
        assert ref.parent[-1] >= known and (ref.parent[-1], 1) in rows


class TestClosureBound:
    def test_bound_against_both_closures(self):
        # n^2 + [K >= 2] is at most the order of both closures of a primitive
        # word of length n over K letters, some of them possibly absent, and
        # of `closure_order`, and a word that it refuses below that bound is
        # refused by both closures there too
        checked = 0
        for letters, longest in (("a", 1), ("ab", 9), ("abc", 6), ("abcd", 4)):
            alphabet = Alphabet(letters)
            for text in primitive_texts(letters, longest):
                u = W(text, alphabet)
                bound = len(text) ** 2 + (len(letters) >= 2)
                assert action_route(u).order >= bound
                assert syntactic_semigroup(u).order >= bound
                assert closure_order(u, DEFAULT_CLOSURE_SIZE) >= bound
                checked += 1
                with pytest.raises(ResourceLimitError):
                    closure_order(u, bound - 1)
                for route in ROUTES:
                    with pytest.raises(ResourceLimitError):
                        route(u, bound - 1)
        assert checked == 2334

    @pytest.mark.parametrize("letters", ["ab", "abcd"])
    def test_generators_count_against_the_guard(self, letters):
        # "a" over K >= 2 letters closes to its two generators, the letter a
        # and the empty map of the absent letters: both closures and
        # `closure_order` refuse them at a guard of 1, and take them at 2
        u = W("a", Alphabet(letters))
        message = "semigroup closure exceeds the 1-element guard"
        with pytest.raises(ResourceLimitError, match=message):
            closure_order(u, 1)
        for route in ROUTES:
            with pytest.raises(ResourceLimitError, match=message):
                route(u, 1)
        assert closure_order(u, 2) == 2
        assert [route(u, 2).order for route in ROUTES] == [2, 2]


class TestClosureOrderBound:
    """`closure_order` is within m * n + m * (m - 1) + 1, and that within
    `closure_order_bound`, 2 * n^2 + 1, for u of length n whose primitive
    root has length m."""

    @staticmethod
    def assert_within_bound(u, order):
        n, m = len(u), len(root(u))
        assert order <= m * n + m * (m - 1) + 1 <= closure_order_bound(u) == 2 * n * n + 1

    def test_every_small_word(self):
        # every word of up to 10 letters over 1-3 letters.  The order is a
        # function of the necklace (`closure_order` reads the Lyndon word of
        # the root), so it is computed once per necklace, from its least
        # rotation; a proper power's is also the order of its syntactic
        # semigroup, closed once per necklace
        orders: dict[str, int] = {}
        words = powers = 0
        for letters in ("a", "ab", "abc"):
            alphabet = Alphabet(letters)
            orders.clear()
            for length in range(1, 11):
                for text in map("".join, product(letters, repeat=length)):
                    least = min(text[i:] + text[:i] for i in range(length))
                    if least not in orders:
                        u = W(least, alphabet)
                        orders[least] = closure_order(u, DEFAULT_CLOSURE_SIZE)
                        if not naive_primitive(least):
                            assert syntactic_semigroup(u).order == orders[least]
                            powers += 1
                    self.assert_within_bound(W(text, alphabet), orders[least])
                    words += 1
        assert words == 10 + 2046 + 88572
        assert powers == 9 + 35 + 121

    @given(st.sampled_from(["a", "ab", "abc"]).flatmap(lambda letters: st.tuples(
        st.text(alphabet=letters, min_size=1, max_size=50), st.integers(1, 4),
        st.just(letters))))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_words(self, case):
        # up to 200 letters: a word, or a power of it
        text, power, letters = case
        u = W(text * power, Alphabet(letters))
        self.assert_within_bound(u, closure_order(u, DEFAULT_CLOSURE_SIZE))


class TestClosureOrderFormula:
    """Both closures of a primitive word have the order n^2 + R + z of
    `helpers.necklace_closure_order`, and the syntactic semigroup of any
    other word the order m * n + R + z of its root's rotations."""

    def test_every_small_primitive_word(self):
        checked = 0
        for letters, longest in (("a", 1), ("ab", 10), ("abc", 7)):
            alphabet = Alphabet(letters)
            for text in primitive_texts(letters, longest):
                order = necklace_closure_order(text, len(letters))
                assert [route(W(text, alphabet)).order for route in ROUTES] == [order, order]
                self.assert_library_order(W(text, alphabet), order)
                checked += 1
        assert checked == 1 + 2012 + 3179

    def test_every_small_non_primitive_word(self):
        # the syntactic route alone: the action needs a primitive word
        checked = 0
        for letters, longest in (("a", 12), ("ab", 12), ("abc", 7)):
            alphabet = Alphabet(letters)
            for length in range(2, longest + 1):
                for text in map("".join, product(letters, repeat=length)):
                    if naive_primitive(text):
                        continue
                    order = necklace_closure_order(text, len(letters))
                    assert syntactic_semigroup(W(text, alphabet)).order == order
                    self.assert_library_order(W(text, alphabet), order)
                    checked += 1
        assert checked == 11 + 158 + 54

    @given(primitive_words(100, min_len=20))
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_words(self, case):
        text, letters = case
        order = necklace_closure_order(text, len(letters))
        assert [route(W(text, Alphabet(letters))).order for route in ROUTES] == [order, order]
        self.assert_library_order(W(text, Alphabet(letters)), order)

    @staticmethod
    def assert_library_order(u, order):
        """`closure_order` gives the order up to a guard of that size, and
        refuses it, with the closures' message, one element below."""
        assert closure_order(u, order) == closure_order(u, 10 * order) == order
        with pytest.raises(ResourceLimitError,
                           match=f"^semigroup closure exceeds the {order - 1}-element guard$"):
            closure_order(u, order - 1)


class TestSyntacticSemigroup:
    def test_matches_action_route_for_ab(self):
        assert syntactic_semigroup(W("ab")).order == action_semigroup("ab").order == 5

    def test_trivial_over_own_letter(self):
        only_a = Alphabet("a")
        assert syntactic_semigroup(W("a", only_a)).order == 1

    def test_two_classes_with_unused_letter(self):
        # over {a,b}, the word "a": powers of a, and the zero class
        assert syntactic_semigroup(W("a")).order == 2

    def test_conjugates_give_equal_semigroups(self):
        for u, v in [("aab", "aba"), ("aab", "baa"), ("aabb", "abba")]:
            assert letter_induced_isomorphic(
                syntactic_semigroup(W(u)), syntactic_semigroup(W(v))
            )

    def test_non_primitive_word_emits_no_warning(self):
        # a proper power is taken as it is: the library has no comparison
        # to warn about, since letter_actions refuses the word
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert syntactic_semigroup(W("abab")).order == 9
        with pytest.raises(NotPrimitiveError):
            letter_actions(W("abab"))

    @pytest.mark.parametrize("alphabet", [None, Alphabet("abcd")])
    def test_table_is_the_action_table(self, alphabet):
        # every primitive word of up to 7 letters over 1-3 letters, over its
        # own letters or abcd: `semigroup --action --table` prints the
        # syntactic closure's table, so it must be that of the closure of
        # the letter actions, with the same element words
        checked = 0
        for text in primitive_texts("abc", 7):
            u = W(text, alphabet or Alphabet("".join(sorted(set(text)))))
            syntactic, action = syntactic_semigroup(u), generate_closure(letter_actions(u))
            assert syntactic.element_words == action.element_words
            assert syntactic.table == action.table
            checked += 1
        assert checked == 3225

    def test_matches_bounded_context_oracle(self):
        # independent check straight from the congruence definition: the
        # automaton-route classes of short words coincide with their bounded
        # context profiles
        for text, alphabet in [("ab", "ab"), ("aab", "ab"), ("a", "ab")]:
            u = W(text, Alphabet("ab"))
            s = syntactic_semigroup(u)
            gens = {a: s.generators[a] for a in s.generators}
            right = cayley_signature(s)[2]  # both letters label a column
            limit = 2 * len(text) + 2

            def class_of(word_text):
                idx = gens[ord(word_text[0]) - ord("a")]
                for ch in word_text[1:]:
                    idx = right[idx * 2 + ord(ch) - ord("a")]
                return idx

            oracle = context_classes(text, alphabet, limit, limit)
            oracle_class = {}
            for i, cls in enumerate(oracle):
                for x in cls:
                    oracle_class[x] = i
            words = [x for cls in oracle for x in cls]
            for x in words:
                for y in words:
                    assert (class_of(x) == class_of(y)) == (
                        oracle_class[x] == oracle_class[y]
                    ), (x, y)


class TestPrefixActionFacts:
    def test_factor_absorption(self):
        # u . v = wv for every factorization u = vw, and u . u = u
        for text in primitive_texts("ab", 6):
            u = W(text)
            acts = letter_actions(u)
            rotations = sorted(r for r in (text[i:] + text[:i] for i in range(len(text))))
            index = {r: i for i, r in enumerate(rotations)}

            def act(i, word_text):
                for ch in word_text:
                    inj = acts["ab".index(ch)]
                    i = injection_apply(inj, i)
                    if i is None:
                        return None
                return i

            start = index[text]
            for cut in range(len(text)):
                v, w = text[:cut], text[cut:]
                assert act(start, v) == index[w + v]
            assert act(start, text) == start

    def test_unique_defined_word_is_power_prefix(self):
        # from u, the single length-t continuation is the prefix of u^omega
        for text in ["aab", "aabb", "aabab", "abbab"]:
            u = W(text)
            acts = letter_actions(u)
            rotations = sorted(text[i:] + text[:i] for i in range(len(text)))
            pos = rotations.index(text)
            stream = []
            for _ in range(2 * len(text)):
                nexts = [
                    (a, injection_apply(inj, pos)) for a, inj in acts.items()
                    if injection_apply(inj, pos) is not None
                ]
                assert len(nexts) == 1
                a, pos = nexts[0]
                stream.append(a)
            power_prefix = (text * 3)[:2 * len(text)]
            assert AB.render(stream) == power_prefix

    def test_unique_word_brute_force_tiny(self):
        from itertools import product as iproduct
        text = "aab"
        acts = letter_actions(W(text))
        rotations = sorted(text[i:] + text[:i] for i in range(3))
        start = rotations.index(text)
        for t in range(1, 7):
            defined = []
            for chars in iproduct("ab", repeat=t):
                pos = start
                for ch in chars:
                    pos = injection_apply(acts["ab".index(ch)], pos)
                    if pos is None:
                        break
                if pos is not None:
                    defined.append("".join(chars))
            assert defined == [(text * 3)[:t]]


class TestLetterInducedIsomorphic:
    def test_theorem_instance(self):
        assert letter_induced_isomorphic(
            syntactic_semigroup(W("ab")), action_semigroup("ab")
        )

    def test_trivial_pair(self):
        only_a = Alphabet("a")
        s1 = syntactic_semigroup(W("a", only_a))
        s2 = generate_closure({0: PartialInjection(1, ((0, 0),))})
        assert letter_induced_isomorphic(s1, s2)

    def test_different_orders_not_isomorphic(self):
        assert not letter_induced_isomorphic(
            action_semigroup("ab"), action_semigroup("aab")
        )

    def test_mismatched_letters_rejected(self):
        only_a = Alphabet("a")
        with pytest.raises(ValueError):
            letter_induced_isomorphic(
                syntactic_semigroup(W("a", only_a)), action_semigroup("ab")
            )

    def test_same_order_different_collapse(self):
        # both one-generator closures have two elements, but the generator is
        # idempotent-after-squaring in one and an involution in the other
        nilpotent = generate_closure({0: PartialInjection(2, ((0, 1),))})
        involution = generate_closure({0: PartialInjection(2, ((0, 1), (1, 0)))})
        assert nilpotent.order == involution.order == 2
        assert not letter_induced_isomorphic(nilpotent, involution)

    def test_signature_deterministic(self):
        s = action_semigroup("aabab")
        assert cayley_signature(s) == cayley_signature(s)


class TestMultisetSemigroup:
    def test_single_necklace_reduces_to_action(self):
        m = NecklaceMultiset.from_texts(AB, ["ab"])
        ms = semigroup_of_multiset(m)
        assert letter_induced_isomorphic(ms.semigroup, action_semigroup("ab"))
        assert len(ms.cycle_domains) == 1

    def test_example_multiset_restrictions(self):
        m = NecklaceMultiset.from_texts(AB, ["aab", "ab", "abb"])
        ms = semigroup_of_multiset(m)
        assert len(ms.cycle_domains) == 3
        # the tuple of per-cycle restrictions separates elements
        tuples = [ms.restriction_tuple(i) for i in range(ms.semigroup.order)]
        assert len(set(tuples)) == ms.semigroup.order
        # every projection is the action semigroup of its necklace
        for j in range(3):
            necklace = ms.cycle_necklace(j)
            assert letter_induced_isomorphic(
                ms.restriction(j), action_semigroup(str(necklace))
            )

    def test_random_multisets_embed(self):
        rng = random.Random(7)
        for _ in range(25):
            alphabet = AB if rng.random() < 0.5 else ABC
            k = alphabet.size
            texts = []
            for _ in range(rng.randint(1, 3)):
                length = rng.randint(1, 5)
                codes = tuple(rng.randrange(k) for _ in range(length))
                texts.append(str(lyndon_representative(root(Word(alphabet, codes)))))
            m = NecklaceMultiset.from_texts(alphabet, texts)
            ms = semigroup_of_multiset(m)
            tuples = {ms.restriction_tuple(i) for i in range(ms.semigroup.order)}
            assert len(tuples) == ms.semigroup.order
            for j in range(len(ms.cycle_domains)):
                necklace = ms.cycle_necklace(j)
                assert letter_induced_isomorphic(
                    ms.restriction(j),
                    generate_closure(letter_actions(necklace.lyndon)),
                )

    @given(st.sampled_from(["a", "ab", "abc"]).flatmap(lambda letters: st.tuples(
        st.just(letters),
        st.lists(st.tuples(st.text(letters, min_size=1, max_size=5), st.integers(1, 3)),
                 min_size=1, max_size=3),
    )))
    @settings(deadline=None)
    def test_cycle_necklaces_pass_necklace_checks(self, drawn):
        letters, items = drawn
        alphabet = Alphabet(letters)
        counts = {}
        for text, mult in items:
            lyndon = naive_least_rotation(naive_root(text))
            counts[lyndon] = counts.get(lyndon, 0) + mult
        m = NecklaceMultiset(alphabet, tuple(
            (Necklace(alphabet.word(text)), mult) for text, mult in sorted(counts.items())
        ))
        ms = semigroup_of_multiset(m)
        assert list(ms.cycle_domains) == naive_cycles(standard_permutation(transform(m)).image)
        found = {}
        for j in range(len(ms.cycle_domains)):
            necklace = ms.cycle_necklace(j)
            assert Necklace(necklace.lyndon) == necklace
            found[str(necklace)] = found.get(str(necklace), 0) + 1
        assert found == counts

    def test_empty_multiset_rejected(self):
        with pytest.raises(ValueError):
            semigroup_of_multiset(NecklaceMultiset(AB, ()))
