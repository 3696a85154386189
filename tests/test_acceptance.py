"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from itertools import product

from ebwt.bwt import (
    NecklaceMultiset,
    inverse_transform,
    standard_permutation,
    transform,
)
from ebwt.debruijn import (
    GammaWord,
    count_debruijn_words,
    debruijn_set_from_gamma,
    enumerate_gamma,
    is_debruijn_set,
    least_debruijn_set,
    least_debruijn_word,
    lyndon_concatenation_oracle,
)
from ebwt.errors import ResourceLimitError
from ebwt.factors import (
    count_distinct_factors,
    debruijn_factor_witness,
    repeated_factor_lower_bound,
)
from ebwt.semigroups import (
    generate_closure,
    letter_actions,
    letter_induced_isomorphic,
    semigroup_of_multiset,
    syntactic_semigroup,
)
from ebwt.words import (
    Word,
    conjugate_shift,
    has_border,
    is_primitive,
    lyndon_representative,
    root,
)

from helpers import (
    AB, ABC, W, all_words, apply_letter, brute_distinct_factors, build_table,
    injection_apply, letter_range, lyndon_texts, single_classes, translated_cycles,
)


def _pass(number, detail):
    print(f"criterion {number}: PASS ({detail})")


def _entries(m):
    return [(str(n), mult) for n, mult in m.entries]


def _random_multiset(rng, alphabets, max_entries, max_len):
    alphabet = rng.choice(alphabets)
    k = alphabet.size
    necklaces = []
    for _ in range(rng.randint(1, max_entries)):
        length = rng.randint(1, max_len)
        w = Word(alphabet, tuple(rng.randrange(k) for _ in range(length)))
        necklaces.append(lyndon_representative(root(w)))
    return NecklaceMultiset.from_necklaces(alphabet, necklaces)


def test_criterion_01_example_transform_round_trip():
    m = NecklaceMultiset.from_texts(AB, ["aab", "ab", "abb"])

    def run_all():
        word = transform(m)
        perm = standard_permutation(word)
        recovered = inverse_transform(word)
        return word, perm, recovered

    run_all()  # warm caches; the budget measures the computation itself
    start = time.perf_counter()
    word, perm, recovered = run_all()
    elapsed = time.perf_counter() - start

    assert str(word) == "babbaaba"
    assert perm.image == (1, 4, 5, 7, 0, 2, 3, 6)
    assert list(perm.cycles().items()) == [((0, 1, 4), 1), ((2, 5), 1), ((3, 7, 6), 1)]
    assert _entries(recovered) == [("aab", 1), ("ab", 1), ("abb", 1)]
    assert elapsed < 0.001
    _pass(1, f"{elapsed * 1e6:.0f} us")


def test_criterion_02_gamma_inversions_exact():
    alpha, beta = "ab", "ba"

    v1 = W(beta * 4 + alpha + beta * 3)
    m1 = inverse_transform(v1)
    assert _entries(m1) == [("aaaabbbbaababbab", 1)]
    assert single_classes(standard_permutation(v1).cycles()) == [
        (0, 1, 3, 7, 15, 14, 12, 9, 2, 5, 11, 6, 13, 10, 4, 8),
    ]

    v2 = W(beta + alpha * 2 + beta * 2 + alpha * 2 + beta)
    m2 = inverse_transform(v2)
    assert _entries(m2) == [("aaaabaabbbbabb", 1), ("ab", 1)]
    assert single_classes(standard_permutation(v2).cycles()) == [
        (0, 1, 2, 4, 9, 3, 7, 15, 14, 13, 11, 6, 12, 8),
        (5, 10),
    ]
    _pass(2, "both block-permutation words invert bit-exactly")


def test_criterion_03_least_words_exact():
    expected_25 = "a aaaab aaabb aabab aabbb ababb abbbb b".replace(" ", "")
    assert str(least_debruijn_word(2, 5)) == expected_25
    assert single_classes(standard_permutation(W("ab" * 16)).cycles()) == [
        (0,),
        (1, 2, 4, 8, 16),
        (3, 6, 12, 24, 17),
        (5, 10, 20, 9, 18),
        (7, 14, 28, 25, 19),
        (11, 22, 13, 26, 21),
        (15, 30, 29, 27, 23),
        (31,),
    ]

    expected_33 = "a aab aac abb abc acb acc b bbc bcc c".replace(" ", "")
    assert str(least_debruijn_word(3, 3)) == expected_33
    assert single_classes(standard_permutation(W("abc" * 9, ABC)).cycles()) == [
        (0,),
        (1, 3, 9),
        (2, 6, 18),
        (4, 12, 10),
        (5, 15, 19),
        (7, 21, 11),
        (8, 24, 20),
        (13,),
        (14, 16, 22),
        (17, 25, 23),
        (26,),
    ]
    _pass(3, "spans (2,5) and (3,3) bit-exact with stated cycles")


def test_criterion_04_round_trip_exhaustive():
    start = time.perf_counter()
    total = 0
    for n in range(1, 13):
        for codes in all_words(2, n):
            w = Word(AB, codes)
            assert transform(inverse_transform(w)) == w
            total += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    _pass(4, f"{total} words in {elapsed:.1f}s")


def test_criterion_05_gamma_characterization():
    singles = {}
    for n in (2, 3):
        images = set()
        count = 0
        single = 0
        for v in enumerate_gamma(2, n):
            ds = debruijn_set_from_gamma(GammaWord(v, n))
            assert is_debruijn_set(ds, n)
            assert transform(ds) == v
            images.add(tuple(_entries(ds)))
            if len(ds.entries) == 1 and len(ds.entries[0][0]) == 2**n:
                single += 1
            count += 1
        assert len(images) == count  # the map is injective
        singles[n] = single
    assert singles[3] == 2 == count_debruijn_words(2, 3)
    assert singles[2] == count_debruijn_words(2, 2)
    _pass(5, f"gamma(2,2): 4 sets, gamma(2,3): 16 sets, {singles[3]} cyclic words")


def test_criterion_06_oracle_equality():
    start = time.perf_counter()
    pairs = []
    for k in (2, 3, 4):
        n = 1
        while k**n <= 2**16:
            assert least_debruijn_word(k, n) == lyndon_concatenation_oracle(k, n)
            pairs.append((k, n))
            n += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _pass(6, f"{len(pairs)} (k, n) pairs bit-exact in {elapsed:.1f}s")


def test_criterion_07_semigroup_isomorphism():
    start = time.perf_counter()
    words = 0
    conjugate_pairs = 0
    for alphabet, max_len in [(AB, 6), (ABC, 4)]:
        k = alphabet.size
        for n in range(1, max_len + 1):
            for codes in product(range(k), repeat=n):
                u = Word(alphabet, codes)
                if not is_primitive(u):
                    continue
                action = generate_closure(letter_actions(u))
                syntactic = syntactic_semigroup(u)
                assert letter_induced_isomorphic(syntactic, action), u
                words += 1
                for s in range(1, n):
                    rotated = Word(alphabet, codes[s:] + codes[:s])
                    assert letter_induced_isomorphic(
                        syntactic, syntactic_semigroup(rotated)
                    ), (u, rotated)
                    conjugate_pairs += 1
    elapsed = time.perf_counter() - start
    assert words == 211
    assert elapsed < 120
    _pass(7, f"{words} words, {conjugate_pairs} conjugate pairs in {elapsed:.1f}s")


def test_criterion_08_subdirect_embedding():
    rng = random.Random(20260809)
    for _ in range(100):
        m = _random_multiset(rng, [AB, ABC], max_entries=3, max_len=5)
        ms = semigroup_of_multiset(m)
        tuples = {ms.restriction_tuple(i) for i in range(ms.semigroup.order)}
        assert len(tuples) == ms.semigroup.order
        for j in range(len(ms.cycle_domains)):
            necklace = ms.cycle_necklace(j)
            assert letter_induced_isomorphic(
                ms.restriction(j),
                generate_closure(letter_actions(necklace.lyndon)),
            )
    _pass(8, "100 random multisets embed subdirectly")


def test_criterion_09_factor_bounds():
    # counter equals brute force, exhaustively for binary |w| <= 14
    for n in range(1, 15):
        for codes in all_words(2, n):
            assert count_distinct_factors(codes) == brute_distinct_factors(codes)

    # exhaustive f(n) for n <= 16 within both envelopes
    for n in range(1, 17):
        ceiling = n * (n + 1) // 2
        best = 0
        for codes in all_words(2, n):
            count = count_distinct_factors(codes)
            best = max(best, count)
            assert n <= count <= ceiling
            assert (count == n) == (len(set(codes)) == 1)
            assert (count == ceiling) == (len(set(codes)) == n)
        assert (best == ceiling) == (n <= 2)
        if n > 2:
            assert best <= ceiling - repeated_factor_lower_bound(n, 2)
            witness = debruijn_factor_witness(n, 2)
            assert best >= witness.distinct_count >= witness.lower_bound

    # the witness extends to n = 4096 under the stated time budget
    start = time.perf_counter()
    for k in (2, 3):
        witness = debruijn_factor_witness(4096, k)
        assert witness.distinct_count >= witness.lower_bound
        assert witness.lower_bound == (4096 - witness.span + 1) * (4096 - witness.span + 2) // 2
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    _pass(9, f"f(n) envelopes for n <= 16; 4096-witnesses in {elapsed:.2f}s")


def test_criterion_10_property_suites():
    rng = random.Random(1213)

    # conjugation-map period equals root length, exhaustively for |w| <= 10
    for n in range(1, 11):
        for codes in all_words(2, n):
            w = Word(AB, codes)
            shifted = conjugate_shift(w)
            t = 1
            while shifted != w:
                shifted = conjugate_shift(shifted)
                t += 1
            assert t == len(root(w))

    # rotation-table facts on the worked example and random multisets:
    # conjugation correspondence, column shift, root/cycle lengths and
    # multiplicities, sortedness, final column, Lyndon-root ordering
    tables_checked = 0
    example = NecklaceMultiset.from_texts(AB, ["aab", "ab", "abb"])
    pool = [example]
    while len(pool) < 200:
        pool.append(_random_multiset(rng, [AB, ABC], max_entries=4, max_len=6))
    for m in pool:
        if m.total_length == 0:
            continue
        w = transform(m)
        p = standard_permutation(w)
        try:
            table = build_table(w)
        except ResourceLimitError:
            continue
        tables_checked += 1
        n, width = len(table.rows), table.width
        cycle_len = {}
        for cycle in translated_cycles(p.cycles()):
            for i in cycle:
                cycle_len[i] = len(cycle)
        roots = [root(row) for row in table.rows]
        from collections import Counter
        multiplicity = Counter(r.codes for r in roots)
        for i in range(n):
            shifted = table.rows[i].codes[1:] + table.rows[i].codes[:1]
            assert table.rows[p.image[i]].codes == shifted
            for j in range(width):
                assert table.entry(i, j) == table.entry(p.image[i], (j - 1) % width)
            assert len(roots[i]) == cycle_len[i]
            for s in range(1, len(roots[i])):
                conj = roots[i].codes[s:] + roots[i].codes[:s]
                assert multiplicity[conj] == multiplicity[roots[i].codes]
        assert all(a.codes <= b.codes for a, b in zip(table.rows, table.rows[1:]))
        assert tuple(row.codes[-1] for row in table.rows) == w.codes
        lyndon_root_rows = [
            i for i in range(n)
            if roots[i].codes == min(
                roots[i].codes[s:] + roots[i].codes[:s] for s in range(len(roots[i]))
            )
        ]
        for a, b in zip(lyndon_root_rows, lyndon_root_rows[1:]):
            assert roots[a].codes <= roots[b].codes
        for i in lyndon_root_rows:
            for j in range(i + 1, n):
                if table.rows[j].codes != table.rows[i].codes:
                    assert table.rows[i].codes < roots[j].codes

    # prefix-action facts: absorption, unique continuations, borderless Lyndon
    for n in range(1, 9):
        for codes in all_words(2, n):
            text = AB.render(codes)
            u = Word(AB, codes)
            if not is_primitive(u):
                continue
            actions = letter_actions(u)
            rotations = sorted(text[i:] + text[:i] for i in range(n))
            index = {r: i for i, r in enumerate(rotations)}

            def act(i, over):
                for ch in over:
                    i = injection_apply(actions[AB.code(ch)], i)
                    if i is None:
                        return None
                return i

            start = index[text]
            for cut in range(n):
                v, rest = text[:cut], text[cut:]
                assert act(start, v) == index[rest + v]
            assert act(start, text) == start
            # the unique continuation of each length spells out u^omega
            pos = start
            for step in range(2 * n):
                nexts = [
                    (a, injection_apply(inj, pos)) for a, inj in actions.items()
                    if injection_apply(inj, pos) is not None
                ]
                assert len(nexts) == 1
                a, pos = nexts[0]
                assert a == codes[step % n]
    for length in range(1, 11):
        for text in lyndon_texts("ab", length):
            assert not has_border(W(text))

    # every generated de Bruijn set contains a necklace of length >= n
    for k, n in [(2, 2), (2, 3), (2, 6), (3, 3), (4, 2)]:
        ds = least_debruijn_set(k, n)
        assert max(len(x) for x, _ in ds.entries) >= n
    for v in enumerate_gamma(2, 3):
        ds = debruijn_set_from_gamma(GammaWord(v, 3))
        assert max(len(x) for x, _ in ds.entries) >= 3

    # block-permutation words: ranges are interval transversals and the
    # m-strings spell k-ary digits, exhaustively for k=2, n=4
    k, n = 2, 4
    for v in enumerate_gamma(k, n):
        p = standard_permutation(v)
        for a in range(k):
            assert sorted(i // k for i in letter_range(p, a)) == list(range(k ** (n - 1)))
        for x in range(k**n):
            digits = [(x >> (n - 1 - i)) & 1 for i in range(n)]
            pos = x
            for m_ in range(n):
                letter = p.sorted_codes[pos]
                assert letter == digits[m_]
                pos = apply_letter(p, pos, letter)

    _pass(10, f"{tables_checked} rotation tables plus action, necklace-length, "
              "and block-structure suites")
