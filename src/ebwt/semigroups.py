"""Semigroups attached to necklaces and their syntactic cross-oracle.

Two independent routes to the same object: the closure of the per-letter
partial injections of the standard permutation of the transform of the
word's necklace, and the transition semigroup of the automaton of the
positive powers of the word, built minimal by construction.  Both come out
as letter-labeled finite semigroups so the letter-induced isomorphism can be
decided by right-Cayley comparison.

Both routes close over one element form: a partial map on {0..d-1} as a
tuple of (source, target) pairs sorted by source, where an undefined point
is simply absent.  `_close` composes such a tuple with a generator in one
loop over its pairs: a dict probe per pair and a tuple concatenation per
defined image, which is one of each for the one-point maps that make up
most of a necklace closure (see `check_closure_guard`) and quadratic in the
number of defined points in general.  Validation happens once, at the
public constructors (`PartialInjection(...)`, the degree check of
`generate_closure`).  The syntactic route reaches the same form by dropping
the automaton's sink, the non-final state that every letter maps to itself:
every map fixes it, so "maps to the sink" composes exactly like
"undefined", and the semigroup of partial maps is isomorphic to the dense
transition semigroup, letter for letter.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain

from .bwt import NecklaceMultiset, StandardPermutation, standard_permutation, transform
from .errors import ResourceLimitError
from .words import Alphabet, Necklace, Word, is_primitive, lyndon_representative

DEFAULT_CLOSURE_SIZE = 10**6
# Cells of a rendered multiplication table (order squared); the CLI refuses
# larger tables, whatever the closure guard.
TABLE_CELL_LIMIT = 2**20


@dataclass(frozen=True)
class PartialInjection:
    """A partial one-to-one map on {0..degree-1}, as (source, target) pairs
    sorted by source."""

    degree: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        sources = [s for s, _ in self.pairs]
        targets = [t for _, t in self.pairs]
        if any(a >= b for a, b in zip(sources, sources[1:])):
            raise ValueError("pairs must be sorted by strictly increasing source")
        if len(set(targets)) != len(targets):
            raise ValueError("targets must be distinct")
        for x in sources + targets:
            if not 0 <= x < self.degree:
                raise ValueError(f"point {x} outside degree {self.degree}")

    @cached_property
    def _map(self) -> dict[int, int]:
        return dict(self.pairs)

    def apply(self, x: int) -> int | None:
        return self._map.get(x)

    def compose(self, other: PartialInjection) -> PartialInjection:
        """Left-to-right composition: x -> other(self(x)) where both defined."""
        om = other._map
        return PartialInjection(
            self.degree, tuple((s, om[t]) for s, t in self.pairs if t in om)
        )

    @property
    def is_order_preserving(self) -> bool:
        targets = [t for _, t in self.pairs]
        return all(a < b for a, b in zip(targets, targets[1:]))

    def restrict_renumbered(self, positions: tuple[int, ...]) -> PartialInjection:
        """Restrict to an invariant subset and renumber it as 0..r-1 in order."""
        rank = {p: i for i, p in enumerate(sorted(positions))}
        pairs = tuple(
            (rank[s], rank[t]) for s, t in self.pairs if s in rank and t in rank
        )
        return PartialInjection(len(positions), pairs)


@dataclass(frozen=True)
class Transformation:
    """A full map on {0..m-1}; element of a transition semigroup."""

    targets: tuple[int, ...]

    def compose(self, other: Transformation) -> Transformation:
        return Transformation(tuple(other.targets[t] for t in self.targets))


class FiniteSemigroup:
    """Closure of letter-labeled generators under composition.

    Elements are numbered by breadth-first discovery over generator words:
    the distinct generators first, in letter order, then the right products
    of each element by every letter in turn.  `element_words[i]` is
    therefore the shortlex-least generator word producing element i, the
    words ascend strictly in shortlex order, and every element i past the
    generators is its parent times the generator of its word's last letter,
    the parent being the element whose word is `element_words[i][:-1]`.
    Parent and last letter are not stored: the closure meets element i first
    as that product, so they are the row and column of i's first cell in the
    right table read row by row (see `_steps`).

    Internally each element is kept in the sparse pair form of the module
    docstring; `elements` builds the public values (partial injections or
    transformations) on first use.  The multiplication table is read off the
    right Cayley graph (Froidure and Pin, "Algorithms for computing finite
    semigroups", 1997): x * y = (x * parent(y)) * last(y), so row x fills left
    to right with one right-Cayley lookup per cell and no composition.
    """

    def __init__(self, keys, generators, letters, right, build):
        self.generators = dict(generators)
        self._keys = keys
        self._letters = tuple(letters)
        self._right = right  # right[i][c]: element i times letter c
        self._build = build

    @property
    def order(self) -> int:
        return len(self._keys)

    @cached_property
    def elements(self) -> tuple:
        return tuple(map(self._build, self._keys))

    @cached_property
    def _steps(self) -> list[tuple[int, int]]:
        """(parent, column of the last letter) of each element: (-1, column
        of its first letter) for a generator, else the row and column of the
        element's first cell in the right table, read row by row."""
        k = len(self._letters)
        steps: dict[int, tuple[int, int]] = {}
        for c, a in enumerate(self._letters):
            steps.setdefault(self.generators[a], (-1, c))
        for cell, j in enumerate(chain.from_iterable(self._right)):
            steps.setdefault(j, divmod(cell, k))
        return [steps[j] for j in range(self.order)]

    @cached_property
    def element_words(self) -> tuple[tuple[int, ...], ...]:
        words: list[tuple[int, ...]] = []
        for p, c in self._steps:
            a = self._letters[c]
            words.append((a,) if p < 0 else words[p] + (a,))
        return tuple(words)

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        right = self._right
        steps = self._steps
        heads = [c for p, c in steps if p < 0]  # the generators come first
        steps = steps[len(heads):]
        rows = []
        for x in right:
            row = [x[c] for c in heads]
            for p, c in steps:
                row.append(right[row[p]][c])
            rows.append(tuple(row))
        return tuple(rows)


def _close(gens: dict[int, tuple], max_size: int, build) -> FiniteSemigroup:
    """Breadth-first closure of letter-labeled sparse partial maps; `build`
    turns a closed element into its public value.

    Each product is built by one loop over the pairs of the element and
    numbered by one `setdefault`; the right-table cells go to one flat list,
    cut into rows at the end.
    """
    letters = sorted(gens)
    images = [dict(gens[a]).get for a in letters]
    index: dict[tuple, int] = {}
    number = index.setdefault
    generators = {a: number(gens[a], len(index)) for a in letters}
    keys = list(index)  # the distinct generators, in letter order
    cells: list[int] = []
    push = cells.append
    size = len(keys)
    for x in keys:  # visits the elements appended below too
        for image in images:
            y = ()
            for s, t in x:
                t = image(t)
                if t is not None:
                    y += ((s, t),)
            j = number(y, size)
            if j == size:
                if size >= max_size:
                    raise _over_guard(max_size)
                keys.append(y)
                size += 1
            push(j)
    right = tuple(zip(*[iter(cells)] * len(images)))
    return FiniteSemigroup(keys, generators, letters, right, build)


def _over_guard(max_size: int) -> ResourceLimitError:
    return ResourceLimitError(f"semigroup closure exceeds the {max_size}-element guard")


def check_closure_guard(u: Word, max_size: int) -> None:
    """Refuse a primitive word whose two closures pass `max_size` elements,
    before either is built; a word that is not primitive passes.

    For primitive u of length n over an alphabet of K letters, the closure of
    `letter_actions(u)` has at least n^2 + [K >= 2] elements.  The letters act
    left to right, so a nonempty word w sends each rotation whose periodic
    reading begins with w to that rotation shifted by |w| letters, and is
    undefined elsewhere.  The n rotations of a primitive word are n distinct
    words of length n, so a word of length n or more begins the periodic
    reading of at most one rotation: it acts as a one-point map or as the
    empty map.  Rotation r read periodically for n + d letters (0 <= d < n)
    spells a word that sends r to r shifted by d, so every one-point map
    between two rotations, all n^2 of them, is an element.  With K >= 2
    letters there are more words of length n + 1 than rotations, so one of
    them begins no periodic reading and acts as the empty map: one element
    more.  By the paper's theorem, the syntactic semigroup of u+ is
    isomorphic to that closure for primitive u, so it has the same order.
    A closure takes in its distinct generators, at most K, before its guard
    applies, and refuses only an order past both max_size and that count.
    So a bound past max_size and K refuses only words that either closure
    would refuse, with the same message.
    """
    k = u.alphabet.size
    if is_primitive(u) and len(u) ** 2 + (k >= 2) > max(max_size, k):
        raise _over_guard(max_size)


def generate_closure(gens: dict[int, PartialInjection],
                     max_size: int = DEFAULT_CLOSURE_SIZE) -> FiniteSemigroup:
    """Close letter-labeled partial injections under composition.

    The empty mapping is kept when reachable: it is the zero of the ambient
    inverse semigroup and dropping it would break the table.
    """
    degrees = {g.degree for g in gens.values()}
    if len(degrees) != 1:
        raise ValueError(f"generators must share a degree, got {sorted(degrees)}")
    build = partial(PartialInjection, degrees.pop())
    return _close({a: g.pairs for a, g in gens.items()}, max_size, build)


def letter_actions(u: Word) -> dict[int, PartialInjection]:
    """The per-letter conjugation actions on the sorted necklace of u.

    The necklace is ordered lexicographically and identified with 0..n-1;
    letter a sends each rotation ax to its conjugate shift xa.  These are the
    letter injections of the standard permutation of the transform of {u}.
    Every letter of u's alphabet gets an action, the empty injection when the
    letter does not occur, so both semigroup routes share a generator set.
    """
    m = NecklaceMultiset(u.alphabet, ((lyndon_representative(u), 1),))
    return letter_injections(standard_permutation(transform(m)))


def letter_injections(p: StandardPermutation) -> dict[int, PartialInjection]:
    """The per-letter partial injections whose union is the permutation."""
    return {
        a: PartialInjection(p.size, tuple((i, p.image[i]) for i in p.dom(a)))
        for a in range(p.alphabet.size)
    }


def _minimal_dfa(u: Word):
    """Minimal complete automaton of {u^m : m >= 1}, states numbered by
    prefix length.  Returns (state count, delta[state][letter], initial,
    final state set).

    State i < n = |u| has read i letters of a period; state 0 is initial and
    state n, the only final one, continues like it: delta[n][u[0]] =
    delta[0][u[0]].  Mismatches go to the sink n + 1, present iff k > 1.
    Minimal whether or not u is primitive: every state is reachable (by
    u[:i], u, a mismatch), and the residual of state i, 0 < i < n, is u[i:]u*
    with shortest word of length n - i, that of state 0 is u+ (length n),
    that of state n is u* (length 0) and the sink's is empty, so no two
    states share a residual.
    """
    n, k = len(u), u.alphabet.size
    sink = n + 1
    delta = [[sink] * k for _ in range(n + 1)]
    for i, a in enumerate(u.codes):
        delta[i][a] = i + 1
    delta[n][u.codes[0]] = delta[0][u.codes[0]]
    if k > 1:
        delta.append([sink] * k)
    return len(delta), delta, 0, {n}


def syntactic_semigroup(u: Word, max_size: int = DEFAULT_CLOSURE_SIZE) -> FiniteSemigroup:
    """The syntactic semigroup of the language of positive powers of u.

    Computed as the transition semigroup of the minimal complete recognizer,
    generated by the letter transition maps; this equals the quotient of the
    free semigroup by the syntactic congruence of the language.  The maps are
    closed in sparse form, without the sink (see the module docstring);
    `elements` restores them as full `Transformation`s over the prefix-length
    states of `_minimal_dfa`.
    """
    if len(u) == 0:
        raise ValueError("the syntactic semigroup needs a nonempty word")
    if not is_primitive(u):
        warnings.warn(f"{u} is not primitive; the action comparison theorem "
                      "assumes a primitive word", stacklevel=2)
    m, delta, _, _ = _minimal_dfa(u)
    sink = len(u) + 1
    gens = {
        a: tuple((s, row[a]) for s, row in enumerate(delta) if row[a] != sink)
        for a in range(u.alphabet.size)
    }
    return _close(gens, max_size, partial(_transformation, m, sink))


def _transformation(states: int, sink: int, pairs: tuple) -> Transformation:
    """The full map of a sparse transition map, undefined points sent to the
    sink."""
    targets = dict(pairs)
    return Transformation(tuple(targets.get(s, sink) for s in range(states)))


def cayley_signature(s: FiniteSemigroup) -> tuple:
    """Canonical right-Cayley fingerprint rooted at the letter generators.

    Elements get ids in breadth-first discovery order over generator words;
    two semigroups have equal signatures iff mapping same-lettered generators
    to each other extends to an isomorphism.  `_close` numbers elements in
    exactly that order, so the ids are the element indices and the rows are
    the right Cayley table as it stands.
    """
    letters = s._letters
    return (letters, tuple(s.generators[a] for a in letters), s._right)


def letter_induced_isomorphic(s1: FiniteSemigroup, s2: FiniteSemigroup) -> bool:
    """Whether generator-letter matching extends to a semigroup isomorphism."""
    if set(s1.generators) != set(s2.generators):
        raise ValueError("semigroups carry different generator letter sets")
    return cayley_signature(s1) == cayley_signature(s2)


@dataclass(frozen=True)
class MultisetSemigroup:
    """The action semigroup of a necklace multiset with its cycle structure.

    `semigroup` is the closure of the per-letter injections of the standard
    permutation of the transform; `cycle_domains` are the permutation's
    cycles (read from their minimal element).  Restriction to each cycle is a
    homomorphism, and the tuple of all restrictions separates elements.
    """

    alphabet: Alphabet
    semigroup: FiniteSemigroup
    cycle_domains: tuple[tuple[int, ...], ...]
    sorted_codes: tuple[int, ...]

    def _letter_generator(self, a: int) -> PartialInjection:
        return self.semigroup.elements[self.semigroup.generators[a]]

    def restriction(self, j: int) -> FiniteSemigroup:
        """The image of the restriction homomorphism onto cycle j, renumbered
        to degree |cycle|: the closure of the restricted letter actions."""
        domain = self.cycle_domains[j]
        gens = {
            a: self._letter_generator(a).restrict_renumbered(domain)
            for a in range(self.alphabet.size)
        }
        return generate_closure(gens)

    def restriction_tuple(self, i: int) -> tuple[PartialInjection, ...]:
        """Element i restricted to every cycle; the separating invariant."""
        element = self.semigroup.elements[i]
        return tuple(
            element.restrict_renumbered(domain) for domain in self.cycle_domains
        )

    def cycle_necklace(self, j: int) -> Necklace:
        """The necklace whose rotations occupy cycle j; read from its minimal
        position, the cycle spells the Lyndon word (see `inverse_transform`),
        so the necklace is built unchecked."""
        codes = tuple(map(self.sorted_codes.__getitem__, self.cycle_domains[j]))
        return Necklace.unchecked(Word(self.alphabet, codes))


def semigroup_of_multiset(m: NecklaceMultiset) -> MultisetSemigroup:
    """Close the per-letter injections of the transform of a multiset."""
    if m.total_length == 0:
        raise ValueError("the empty multiset has no letter actions")
    p = standard_permutation(transform(m))
    closure = generate_closure(letter_injections(p))
    return MultisetSemigroup(m.alphabet, closure, tuple(p.cycles()), p.sorted_codes)
