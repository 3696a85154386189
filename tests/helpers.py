"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive and shares no code with the package:
min-over-rotations, lcm-width tables, prefix-sorted rotations, substring
sets, dict-based closures, Moore-refined automata.  `reference_close` is the
exception in spirit: a copy of the package's earlier closure loop, kept as
the reference its rewrite is compared against.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import gcd

from ebwt.errors import ResourceLimitError
from ebwt.words import Alphabet, Word

AB = Alphabet("ab")
ABC = Alphabet("abc")


def W(text: str, alphabet: Alphabet = AB) -> Word:
    return alphabet.word(text)


def rotations(text: str) -> list[str]:
    return [text[i:] + text[:i] for i in range(len(text))]


def naive_root(text: str) -> str:
    for d in range(1, len(text) + 1):
        if len(text) % d == 0 and text[:d] * (len(text) // d) == text:
            return text[:d]
    raise AssertionError


def naive_primitive(text: str) -> bool:
    return naive_root(text) == text


def naive_least_rotation(text: str) -> str:
    return min(rotations(text))


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def naive_omega_compare(u: str, v: str) -> int:
    """Compare u^omega and v^omega by materializing lcm-width powers."""
    width = lcm(len(u), len(v))
    uu, vv = u * (width // len(u)), v * (width // len(v))
    return -1 if uu < vv else (1 if uu > vv else 0)


def naive_bwt(lyndons_with_mult) -> str:
    """The transform via the full lcm-width sorted table."""
    rows = []
    for text, mult in lyndons_with_mult:
        rows.extend(rotations(text) * mult)
    if not rows:
        return ""
    width = reduce(lcm, (len(r) for r in rows))
    return "".join(r[-1] for r in sorted(w * (width // len(w)) for w in rows))


def prefix_bwt(lyndons_with_mult) -> str:
    """The transform by sorting rotations on the first 2 * maxlen letters of
    their infinite powers, which decide the omega-order (Fine and Wilf).

    Unlike naive_bwt, its rows stay short when the lcm of lengths explodes.
    """
    rows = [(r, mult) for text, mult in lyndons_with_mult for r in rotations(text)]
    if not rows:
        return ""
    span = 2 * max(len(r) for r, _ in rows)
    rows.sort(key=lambda row: (row[0] * (span // len(row[0]) + 1))[:span])
    return "".join(r[-1] * mult for r, mult in rows)


def naive_standard_permutation(codes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(image, sorted codes) of the standard permutation of a code sequence:
    its positions sorted by (letter, position), and its letters sorted."""
    image = sorted(range(len(codes)), key=lambda i: (codes[i], i))
    return tuple(image), tuple(codes[i] for i in image)


def naive_cycles(image) -> list[tuple[int, ...]]:
    """The cycles of a permutation, each read from its least element and
    listed by it: the orbit of every point, rotated to start at its minimum."""
    orbits = {}
    for i in range(len(image)):
        orbit = [i]
        while image[orbit[-1]] != i:
            orbit.append(image[orbit[-1]])
        least = orbit.index(min(orbit))
        orbits[orbit[least]] = tuple(orbit[least:] + orbit[:least])
    return [orbits[start] for start in sorted(orbits)]


def translated_cycles(classes) -> list[tuple[int, ...]]:
    """Every cycle of a {cycle: number m of translates} map, in its order:
    each cycle followed by the cycle plus 1, ..., plus m - 1."""
    return [tuple(c + t for c in cycle) for cycle, m in classes.items() for t in range(m)]


def single_classes(classes) -> list[tuple[int, ...]]:
    """The cycles of a {cycle: number of translates} map, in its order,
    checking that no cycle has a translate."""
    assert all(m == 1 for m in classes.values()), classes
    return list(classes)


def injection_apply(inj, x: int):
    """x under a partial injection, read off its pairs; None off its domain."""
    return dict(inj.pairs).get(x)


def is_order_preserving(inj) -> bool:
    """Whether a partial injection's targets increase with its sources."""
    targets = [t for _, t in inj.pairs]
    return all(a < b for a, b in zip(targets, targets[1:]))


def letter_range(p, letter: int) -> tuple[int, ...]:
    """ran(letter) of a standard permutation: the images of the rows that
    hold `letter` in its sorted codes, in row order."""
    return tuple(t for t, c in zip(p.image, p.sorted_codes) if c == letter)


def apply_letter(p, i: int, letter: int):
    """Row i under the partial map of `letter` in a standard permutation:
    its image, or None when row i holds another letter."""
    return p.image[i] if p.sorted_codes[i] == letter else None


def fibonacci_word(length: int) -> str:
    """The first finite Fibonacci word (a, ab, aba, abaab, ...) of at least
    `length` letters; every one is primitive."""
    shorter, word = "a", "ab"
    while len(word) < length:
        shorter, word = word, word + shorter
    return word


DEFAULT_TABLE_CELLS = 2**20


@dataclass(frozen=True)
class RotationTable:
    """The n x l table of lcm-width rotation rows, ranked lexicographically."""

    rows: tuple[Word, ...]

    @property
    def width(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int) -> int:
        return self.rows[i].codes[j]


def build_table(w: Word, max_cells: int = DEFAULT_TABLE_CELLS) -> RotationTable:
    """Materialize the rotation table of a word: row i is the unique width-l
    word along which position i stays defined, l the lcm of cycle lengths.

    Row i repeats the letters met walking the cycle of i from i.  The lcm can
    explode, so the total cell count is guarded.
    """
    image, letters = naive_standard_permutation(w.codes)
    roots = []
    for i in range(len(image)):
        root, j = [letters[i]], image[i]
        while j != i:
            root.append(letters[j])
            j = image[j]
        roots.append(tuple(root))
    width = reduce(lcm, map(len, roots), 1)
    if len(w) * width > max_cells:
        raise ResourceLimitError(
            f"rotation table needs {len(w)}x{width} cells (row width lcm {width}), "
            f"over the {max_cells}-cell guard"
        )
    return RotationTable(tuple(Word(w.alphabet, r * (width // len(r))) for r in roots))


def brute_distinct_factors(seq) -> int:
    """Distinct nonempty substrings, by the literal set of slices."""
    return len({seq[i:j] for i in range(len(seq)) for j in range(i + 1, len(seq) + 1)})


def all_words(k: int, length: int):
    """All k-ary code tuples of the given length, lexicographically."""
    return product(range(k), repeat=length)


def primitive_texts(alphabet: str, max_len: int):
    """All primitive words up to max_len over the given letters, as text."""
    for length in range(1, max_len + 1):
        for chars in product(alphabet, repeat=length):
            text = "".join(chars)
            if naive_primitive(text):
                yield text


def lyndon_texts(alphabet: str, length: int):
    """All Lyndon words of exactly the given length, by brute force."""
    for chars in product(alphabet, repeat=length):
        text = "".join(chars)
        if naive_primitive(text) and text == naive_least_rotation(text):
            yield text


def naive_letter_maps(u: str, alphabet: str) -> dict[str, dict[int, int]]:
    """Per-letter conjugation maps on the sorted necklace of u, as dicts."""
    necklace = sorted(rotations(u))
    index = {w: i for i, w in enumerate(necklace)}
    maps = {a: {} for a in alphabet}
    for w, i in index.items():
        maps[w[0]][i] = index[w[1:] + w[0]]
    return maps


def moore_minimal_dfa(u):
    """Minimal complete automaton of the positive powers of a Word u, the long
    way: a prefix automaton, pruned to its reachable states, Moore-refined to
    the Nerode classes and numbered breadth-first from the initial state in
    letter order.  Returns (state count, delta[state][letter], initial,
    final state set)."""
    n, k = len(u), u.alphabet.size
    init, acc, sink = 0, n, n + 1
    delta = [[sink] * k for _ in range(n + 2)]
    for i in range(n):
        src = init if i == 0 else i
        delta[src][u.codes[i]] = i + 1 if i + 1 < n else acc
    delta[acc][u.codes[0]] = 1 if n > 1 else acc

    # prune unreachable states (the sink, when every letter always matches)
    reach = [init]
    seen = {init}
    for s in reach:
        for a in range(k):
            if delta[s][a] not in seen:
                seen.add(delta[s][a])
                reach.append(delta[s][a])
    renum = {s: i for i, s in enumerate(reach)}
    m = len(reach)
    delta = [[renum[delta[s][a]] for a in range(k)] for s in reach]
    finals = {renum[acc]} if acc in renum else set()
    init = renum[init]

    # Moore refinement to the Nerode classes
    cls = [1 if s in finals else 0 for s in range(m)]
    while True:
        keys = {}
        new_cls = []
        for s in range(m):
            key = (cls[s], tuple(cls[delta[s][a]] for a in range(k)))
            if key not in keys:
                keys[key] = len(keys)
            new_cls.append(keys[key])
        if new_cls == cls:
            break
        cls = new_cls
    q = max(cls) + 1
    qdelta = [[0] * k for _ in range(q)]
    for s in range(m):
        for a in range(k):
            qdelta[cls[s]][a] = cls[delta[s][a]]
    qfinals = {cls[s] for s in finals}
    qinit = cls[init]
    return bfs_canonical(q, qdelta, qinit, qfinals)


def bfs_canonical(m, delta, init, finals):
    """Renumber an automaton breadth-first from its initial state, letters in
    order; two automata with every state reachable are isomorphic iff the
    results are equal.  Takes and returns (state count, delta, initial,
    finals)."""
    renum = {init: 0}
    order = [init]
    for s in order:
        for t in delta[s]:
            if t not in renum:
                renum[t] = len(order)
                order.append(t)
    assert len(order) == m, "unreachable states"
    return m, [[renum[t] for t in delta[s]] for s in order], 0, {renum[s] for s in finals}


def naive_power_prefixes_cover(words_with_mult, n: int, alphabet: str) -> bool:
    """Whether the length-n prefixes of the infinite powers of all rotations,
    counted with multiplicity, are exactly the words of length n, each once."""
    prefixes = sorted(
        (r * n)[:n]
        for text, mult in words_with_mult for r in rotations(text) * mult
    )
    return prefixes == ["".join(w) for w in product(alphabet, repeat=n)]


def naive_closure(gens: dict) -> set[frozenset]:
    """The closure of partial maps (dicts) under composition, each element
    as the frozenset of its (point, image) pairs."""

    def compose(f, g):
        return frozenset((x, g[y]) for x, y in f if y in g)

    elems = {frozenset(g.items()) for g in gens.values()}
    frontier = list(elems)
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens.values():
                h = compose(f, g)
                if h not in elems:
                    elems.add(h)
                    nxt.append(h)
        frontier = nxt
    return elems


def necklace_closure_order(text: str, alphabet_size: int) -> int:
    """The order of the syntactic semigroup of text+, and of the closure of
    the letter actions of a primitive text, in closed form: m * n + R + z.

    With r the primitive root of the text and m = |r|, a word of length m or
    more reads the periodic text from at most one offset mod m, so its map
    is fixed by that offset and by its length mod n: m * n maps.  Each
    factor of r's necklace that begins two or more of r's rotations is one
    more, and R counts them, as the sum over the sorted rotations of r of
    max(0, lcp[q] - lcp[q-1]), lcp[q] being the longest common prefix of
    rotations q and q + 1 (0 before the first); z = 1 for the empty map,
    which some word gives exactly when the alphabet has two or more letters.
    """
    r = naive_root(text)
    m = len(r)
    rows = sorted(rotations(r))
    lcps = [0]
    for a, b in zip(rows, rows[1:]):
        lcps.append(next(i for i in range(m) if a[i] != b[i]))
    repeated = sum(max(0, cur - prev) for prev, cur in zip(lcps, lcps[1:]))
    return m * len(text) + repeated + (alphabet_size >= 2)


def naive_closure_size(gens: dict[str, dict[int, int]]) -> int:
    """Size of the closure of partial maps under composition (set-based)."""
    return len(naive_closure(gens))


def dense_transition_signature(delta, letters) -> tuple:
    """Close the full transition maps of an automaton (delta[state][letter])
    under composition, dead state included, and return the right-Cayley
    signature: (letters, generator ids, rows), ids by breadth-first discovery
    from the generators over the letters in order."""
    letters = tuple(letters)
    gens = {a: tuple(row[a] for row in delta) for a in letters}
    ids: dict[tuple, int] = {}
    order: list[tuple] = []
    for a in letters:
        if gens[a] not in ids:
            ids[gens[a]] = len(order)
            order.append(gens[a])
    rows = []
    pos = 0
    while pos < len(order):
        f = order[pos]
        pos += 1
        row = []
        for a in letters:
            h = tuple(gens[a][t] for t in f)
            if h not in ids:
                ids[h] = len(order)
                order.append(h)
            row.append(ids[h])
        rows.append(tuple(row))
    return letters, tuple(ids[gens[a]] for a in letters), tuple(rows)


def relabelled_signature(generators: dict, right) -> tuple:
    """Right-Cayley signature of a finite semigroup by breadth-first
    relabelling from its generators, given its letter -> generator index and
    its right table (`right[i][c]`, element i times the c-th letter in
    order): whatever numbering the semigroup uses internally."""
    letters = tuple(sorted(generators))
    canon: dict[int, int] = {}
    order: list[int] = []
    for a in letters:
        if generators[a] not in canon:
            canon[generators[a]] = len(order)
            order.append(generators[a])
    rows = []
    pos = 0
    while pos < len(order):
        e = order[pos]
        pos += 1
        row = []
        for c in range(len(letters)):
            t = right[e][c]
            if t not in canon:
                canon[t] = len(order)
                order.append(t)
            row.append(canon[t])
        rows.append(tuple(row))
    return letters, tuple(canon[generators[a]] for a in letters), tuple(rows)


@dataclass
class ReferenceClosure:
    """What `reference_close` returns: the closure with the parent and the
    last letter of each element stored as the closure found it."""

    gens: dict[int, tuple]
    letters: list[int]
    generators: dict[int, int]
    keys: list[tuple]
    right: tuple[tuple[int, ...], ...]
    parent: list[int]  # -1 for a generator
    last: list[int]  # column of the last letter of the element's word

    @property
    def element_words(self) -> tuple[tuple[int, ...], ...]:
        words: list[tuple[int, ...]] = []
        for p, c in zip(self.parent, self.last):
            a = self.letters[c]
            words.append((a,) if p < 0 else words[p] + (a,))
        return tuple(words)

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        right = self.right
        steps = list(zip(self.parent, self.last))
        heads = [c for p, c in steps if p < 0]
        steps = steps[len(heads):]
        rows = []
        for x in right:
            row = [x[c] for c in heads]
            for p, c in steps:
                row.append(right[row[p]][c])
            rows.append(tuple(row))
        return tuple(rows)


def reference_close(gens: dict[int, tuple], max_size: int) -> ReferenceClosure:
    """The breadth-first closure of letter-labeled sparse partial maps as the
    package computed it before its closure loop was rewritten: a list
    comprehension per product, and the parent and last letter of every
    element stored as it is found."""
    letters = sorted(gens)
    maps = [dict(gens[a]) for a in letters]
    index: dict[tuple, int] = {}
    keys: list[tuple] = []
    parent: list[int] = []
    last: list[int] = []
    right: list[tuple[int, ...]] = []
    generators: dict[int, int] = {}
    for c, a in enumerate(letters):
        g = gens[a]
        if g not in index:
            index[g] = len(keys)
            keys.append(g)
            parent.append(-1)
            last.append(c)
        generators[a] = index[g]
    pos = 0
    while pos < len(keys):
        x = keys[pos]
        row = []
        for c, m in enumerate(maps):
            y = tuple([(s, m[t]) for s, t in x if t in m])
            j = index.get(y)
            if j is None:
                if len(keys) >= max_size:
                    raise ResourceLimitError(
                        f"semigroup closure exceeds the {max_size}-element guard"
                    )
                j = index[y] = len(keys)
                keys.append(y)
                parent.append(pos)
                last.append(c)
            row.append(j)
        right.append(tuple(row))
        pos += 1
    return ReferenceClosure(gens, letters, generators, keys, tuple(right), parent, last)


def context_classes(u: str, alphabet: str, word_len: int, context_len: int):
    """Partition all words of length <= word_len by their bounded context
    profile with respect to the positive powers of u.

    A direct, finite rendering of the syntactic congruence: two words land in
    the same class iff they embed in a power of u under exactly the same
    contexts (p, q) with |p|, |q| <= context_len.  Rather than enumerating
    every context pair, scan each occurrence of the word inside each short
    enough power; the profiles are identical.
    """
    max_total = 2 * context_len + word_len
    powers = [u * m for m in range(1, max_total // len(u) + 1)]
    classes: dict[frozenset, list[str]] = {}
    for length in range(1, word_len + 1):
        for chars in product(alphabet, repeat=length):
            x = "".join(chars)
            profile = set()
            for z in powers:
                for i in range(len(z) - len(x) + 1):
                    if z[i:i + len(x)] == x and i <= context_len \
                            and len(z) - i - len(x) <= context_len:
                        profile.add((z[:i], z[i + len(x):]))
            classes.setdefault(frozenset(profile), []).append(x)
    return list(classes.values())
