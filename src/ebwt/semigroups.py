"""Semigroups attached to necklaces and their syntactic cross-oracle.

Two independent routes to the same object: the closure of the per-letter
partial injections of the standard permutation of the transform of the
word's necklace, and the transition semigroup of the automaton of the
positive powers of the word, built minimal by construction.  Both come out
as letter-labeled finite semigroups so the letter-induced isomorphism can be
decided by right-Cayley comparison.

Both routes close over one element form: a partial map on {0..d-1} given
by its defined (source, target) pairs in source order, where an undefined
point is simply absent.  `_close` packs each pair as the int
`s << shift | t` and keys a map of exactly one pair by that int alone, any
other map, the empty one included, by the tuple of its packed pairs.  A
letter is a dict from each point t of its domain to its move a(t) - t, so
the product of a packed pair p is p + move(p & mask): one dict probe and
one addition, with no tuple built or hashed, for the one-point maps that
make up n^2 of the n^2 + R + [K >= 2] elements of a necklace closure (see
`closure_order`).  A map of several points takes one probe per pair and a
tuple concatenation per defined image, quadratic in the number of defined
points in general.  Validation happens once, at the public constructors
(`PartialInjection(...)`, the degree check of `generate_closure`).  The
syntactic route reaches the same form by dropping the automaton's sink,
the non-final state that every letter maps to itself: every map fixes it,
so "maps to the sink" composes exactly like "undefined", and the semigroup
of partial maps is isomorphic to the dense transition semigroup, letter for
letter.

The packed keys live only while `_close` runs.  A closed semigroup keeps
no element: only its right Cayley graph and each letter's generator as a
public value (a `PartialInjection`, or a full `Transformation` with the
sink), from which `FiniteSemigroup.elements` composes the elements again
when it is asked for them.
"""

from __future__ import annotations

import warnings
from functools import cached_property

from .bwt import NecklaceMultiset, StandardPermutation, standard_permutation, transform
from .errors import ResourceLimitError
from .words import Alphabet, Necklace, Value, Word, is_primitive, lyndon_representative

DEFAULT_CLOSURE_SIZE = 10**6
# Cells of a rendered multiplication table (order squared); the CLI refuses
# larger tables, whatever the closure guard.
TABLE_CELL_LIMIT = 2**20


class PartialInjection(Value):
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

    def compose(self, other: PartialInjection) -> PartialInjection:
        """Left-to-right composition: x -> other(self(x)) where both defined."""
        om = other._map
        return PartialInjection(
            self.degree, tuple((s, om[t]) for s, t in self.pairs if t in om)
        )

    def restrict_renumbered(self, positions: tuple[int, ...]) -> PartialInjection:
        """Restrict to an invariant subset and renumber it as 0..r-1 in order."""
        rank = {p: i for i, p in enumerate(sorted(positions))}
        pairs = tuple(
            (rank[s], rank[t]) for s, t in self.pairs if s in rank and t in rank
        )
        return PartialInjection(len(positions), pairs)


class Transformation(Value):
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
    right table, which is kept flat, row by row (see `_steps`).

    No element is stored: the semigroup is its right Cayley graph and the
    value of each letter's generator (Froidure and Pin, "Algorithms for
    computing finite semigroups", 1997).  `elements` composes each element
    from its parent and the value of its last letter, on first use.  The
    multiplication table is read off the same graph: x * y = (x * parent(y))
    * last(y), so row x fills left to right with one right-Cayley lookup per
    cell and no composition.
    """

    def __init__(self, order, generators, letters, right, values):
        self.order = order
        self.generators = dict(generators)
        self._letters = tuple(letters)
        self._right = right  # right[i * k + c]: element i times letter c
        self._values = dict(values)  # letter -> its generator's public value

    @cached_property
    def elements(self) -> tuple:
        values = [self._values[a] for a in self._letters]
        elements: list = []
        for p, c in self._steps:
            elements.append(values[c] if p < 0 else elements[p].compose(values[c]))
        return tuple(elements)

    @cached_property
    def _steps(self) -> list[tuple[int, int]]:
        """(parent, column of the last letter) of each element: (-1, column
        of its first letter) for a generator, else the row and column of the
        element's first cell in the flat right table."""
        k = len(self._letters)
        steps: dict[int, tuple[int, int]] = {}
        for c, a in enumerate(self._letters):
            steps.setdefault(self.generators[a], (-1, c))
        for cell, j in enumerate(self._right):
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
        # the rows of the right table, cut here: O(order) against the
        # order^2 cells that the table fills
        right = tuple(zip(*[iter(self._right)] * len(self._letters)))
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


def _close(gens: dict[int, tuple], max_size: int, values: dict) -> FiniteSemigroup:
    """Breadth-first closure of letter-labeled sparse partial maps, each
    given as its (source, target) pairs in source order; `values` holds each
    letter's generator as a public value.

    Each map is keyed in packed form (see the module docstring): a one-point
    map by its packed pair `s << shift | t`, any other by the tuple of its
    packed pairs, still in source order.  `shift` is the bit length of the
    largest point of any generator, and it holds every point of every
    product: a product's sources are sources of the generator of its first
    letter and its targets are targets of the generator of its last letter.
    So packing is one to one, `p & mask` is the target of p, and
    `p + move(p & mask)` replaces that target by its image without carrying
    into the source bits.  An int never equals a tuple, and a product that
    shrinks to one point is keyed by its int, as a generator is, so every
    map has exactly one key and `setdefault` numbers maps, not forms.

    Each product is numbered by one `setdefault`; the right-table cells go
    to one flat list, row by row, which the semigroup keeps as it is.  The
    keys and their index are dropped on return.  The distinct generators
    count against `max_size` like every other element, so no closure of
    more than `max_size` elements is returned.
    """
    letters = sorted(gens)
    shift = max((max(pair) for a in letters for pair in gens[a]), default=0).bit_length()
    mask = (1 << shift) - 1
    moves = [{s: t - s for s, t in gens[a]}.get for a in letters]
    index: dict[int | tuple, int] = {}
    number = index.setdefault
    packed = [_key(tuple(s << shift | t for s, t in gens[a])) for a in letters]
    generators = {a: number(g, len(index)) for a, g in zip(letters, packed)}
    if len(index) > max_size:
        raise _over_guard(max_size)
    keys = list(index)  # the distinct generators, in letter order
    cells: list[int] = []
    push = cells.append
    size = len(keys)
    for x in keys:  # visits the elements appended below too
        one_point = type(x) is int
        for move in moves:
            if one_point:
                d = move(x & mask)
                y = () if d is None else x + d
            else:
                y = ()
                for p in x:
                    d = move(p & mask)
                    if d is not None:
                        y += (p + d,)
                y = _key(y)
            j = number(y, size)
            if j == size:
                if size >= max_size:
                    raise _over_guard(max_size)
                keys.append(y)
                size += 1
            push(j)
    return FiniteSemigroup(size, generators, letters, cells, values)


def _key(packed: tuple[int, ...]) -> int | tuple[int, ...]:
    """A map's key in `_close`: its one packed pair alone, else the tuple."""
    return packed[0] if len(packed) == 1 else packed


def _over_guard(max_size: int) -> ResourceLimitError:
    return ResourceLimitError(f"semigroup closure exceeds the {max_size}-element guard")


def closure_order(u: Word, max_size: int) -> int:
    """The order of both closures of a primitive word u, in closed form:
    n^2 + R + [K >= 2], R being the number of words that begin the periodic
    reading of two or more rotations.  Refused like the closures when it
    passes max_size, and then computed only as far as that needs: R only
    when the lower bound n^2 + [K >= 2] is within max_size.

    For u of length n over an alphabet of K letters, the closure of
    `letter_actions(u)` has at least n^2 + [K >= 2] elements.  The letters
    act left to right, so a nonempty word w sends each rotation whose
    periodic reading begins with w to that rotation shifted by |w| letters,
    and is undefined elsewhere.  The n rotations of a primitive word are n
    distinct words of length n, so a word of length n or more begins the
    periodic reading of at most one rotation: it acts as a one-point map or
    as the empty map.  Rotation r read periodically for n + d letters
    (0 <= d < n) spells a word that sends r to r shifted by d, so every
    one-point map between two rotations, all n^2 of them, is an element.
    With K >= 2 letters there are more words of length n + 1 than
    rotations, so one of them begins no periodic reading and acts as the
    empty map: one element more (over one letter, u = a and every word
    begins the reading of u).  By the paper's theorem, the syntactic
    semigroup of u+ is isomorphic to that closure for primitive u, so it has
    the same order.  A closure counts its distinct generators against its
    guard like every other element, so it refuses exactly an order past
    max_size, and this function refuses exactly the words that either
    closure would refuse, with the same message.

    Every element is the map of a nonempty word, so the others are the maps
    of the R shorter words that begin two or more readings.  Such a word w
    shifts each rotation it begins by |w| < n letters, so its map, defined
    at two or more rotations, is neither one-point nor empty, and gives back
    |w| and then w, the first |w| letters of any rotation where it is
    defined.

    The rotations that w begins fill adjacent rows in lex order.  Let lcp[r]
    be the longest common prefix of the rotations in rows r and r + 1, the
    last row paired with row 0: for n >= 2 these begin with the greatest and
    the least letter of u, so lcp[n - 1] = 0.  Then the words of length l
    counted in R are the maximal runs of rows with lcp[r] >= l, a run starts
    at row r for each l with lcp[r - 1] < l <= lcp[r], and R is the sum over
    r of max(0, lcp[r] - lcp[r - 1]).  The rows come from the standard
    permutation of the transform of u's necklace, whose one cycle, read from
    row 0, lists the row of each rotation of the Lyndon word (see
    `inverse_transform`).  One pass over the rotations in that word's order
    finds lcp (Kasai et al., CPM 2001): when rotation t shares h > 0 letters
    with the next row's, rotation t + 1 shares h - 1 with a later row's, so
    it shares at least h - 1 with the next row's, and it is not the last row.
    """
    n = len(u)
    order = n * n + (u.alphabet.size >= 2)
    if 1 < n and order <= max_size:  # one letter: u = a, and R = 0
        p = _necklace_permutation(u)
        (rows,) = p.cycles()
        codes = [p.sorted_codes[r] for r in rows] * 2
        at_row = {r: t for t, r in enumerate(rows)}
        lcp, h = [0] * n, 0
        for t, r in enumerate(rows):
            j = at_row[(r + 1) % n]
            while codes[t + h] == codes[j + h]:  # distinct rotations differ
                h += 1
            lcp[r], h = h, max(h - 1, 0)
        order += sum(max(0, lcp[r] - lcp[r - 1]) for r in range(n))
    if order > max_size:
        raise _over_guard(max_size)
    return order


def generate_closure(gens: dict[int, PartialInjection],
                     max_size: int = DEFAULT_CLOSURE_SIZE) -> FiniteSemigroup:
    """Close letter-labeled partial injections under composition.

    The empty mapping is kept when reachable: it is the zero of the ambient
    inverse semigroup and dropping it would break the table.
    """
    degrees = {g.degree for g in gens.values()}
    if len(degrees) != 1:
        raise ValueError(f"generators must share a degree, got {sorted(degrees)}")
    return _close({a: g.pairs for a, g in gens.items()}, max_size, gens)


def letter_actions(u: Word) -> dict[int, PartialInjection]:
    """The per-letter conjugation actions on the sorted necklace of u.

    The necklace is ordered lexicographically and identified with 0..n-1;
    letter a sends each rotation ax to its conjugate shift xa.  These are the
    letter injections of the standard permutation of the transform of {u}.
    Every letter of u's alphabet gets an action, the empty injection when the
    letter does not occur, so both semigroup routes share a generator set.
    """
    return letter_injections(_necklace_permutation(u))


def _necklace_permutation(u: Word) -> StandardPermutation:
    """The standard permutation of the transform of u's necklace; its rows
    are the rotations of u in lex order."""
    m = NecklaceMultiset(u.alphabet, ((lyndon_representative(u), 1),))
    return standard_permutation(transform(m))


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
    closed in sparse form, without the sink (see the module docstring); each
    letter's generator is kept as the full `Transformation` over the
    prefix-length states of `_minimal_dfa`, sink included, so `elements`
    composes full transformations.
    """
    if len(u) == 0:
        raise ValueError("the syntactic semigroup needs a nonempty word")
    if not is_primitive(u):
        warnings.warn(f"{u} is not primitive; the action comparison theorem "
                      "assumes a primitive word", stacklevel=2)
    _, delta, _, _ = _minimal_dfa(u)
    sink = len(u) + 1
    gens = {
        a: tuple((s, row[a]) for s, row in enumerate(delta) if row[a] != sink)
        for a in range(u.alphabet.size)
    }
    values = {a: Transformation(tuple(row[a] for row in delta)) for a in gens}
    return _close(gens, max_size, values)


def cayley_signature(s: FiniteSemigroup) -> tuple:
    """Canonical right-Cayley fingerprint rooted at the letter generators.

    Elements get ids in breadth-first discovery order over generator words;
    two semigroups have equal signatures iff mapping same-lettered generators
    to each other extends to an isomorphism.  `_close` numbers elements in
    exactly that order, so the ids are the element indices and the third
    item is the right Cayley table as it stands, flat: entry i * k + c is
    element i times the c-th of the k letters.
    """
    letters = s._letters
    return (letters, tuple(s.generators[a] for a in letters), s._right)


def letter_induced_isomorphic(s1: FiniteSemigroup, s2: FiniteSemigroup) -> bool:
    """Whether generator-letter matching extends to a semigroup isomorphism."""
    if set(s1.generators) != set(s2.generators):
        raise ValueError("semigroups carry different generator letter sets")
    return cayley_signature(s1) == cayley_signature(s2)


class MultisetSemigroup(Value):
    """The action semigroup of a necklace multiset with its cycle structure.

    `semigroup` is the closure of the per-letter injections of the standard
    permutation of the transform; `cycle_domains` are all the permutation's
    cycles, each read from its minimal element and listed by it: the classes
    of `StandardPermutation.cycles` expanded by translation, one cycle per
    copy of a necklace.  Restriction to each cycle is a homomorphism, and
    the tuple of all restrictions separates elements.
    """

    alphabet: Alphabet
    semigroup: FiniteSemigroup
    cycle_domains: tuple[tuple[int, ...], ...]
    sorted_codes: tuple[int, ...]

    def _letter_generator(self, a: int) -> PartialInjection:
        return self.semigroup._values[a]

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
        so the necklace is built unchecked.  Its codes are letters of the
        transform of the multiset, which is over `alphabet`, so its word is
        built unchecked too."""
        codes = tuple(map(self.sorted_codes.__getitem__, self.cycle_domains[j]))
        return Necklace.unchecked(Word.unchecked(self.alphabet, codes))


def semigroup_of_multiset(m: NecklaceMultiset) -> MultisetSemigroup:
    """Close the per-letter injections of the transform of a multiset."""
    if m.total_length == 0:
        raise ValueError("the empty multiset has no letter actions")
    p = standard_permutation(transform(m))
    closure = generate_closure(letter_injections(p))
    domains = tuple(
        tuple(c + t for c in cycle) for cycle, copies in p.cycles().items() for t in range(copies)
    )
    return MultisetSemigroup(m.alphabet, closure, domains, p.sorted_codes)
