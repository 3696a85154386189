"""Independent oracles for the benchmark's output checks.

Nothing here imports ebwt: every expected output is computed from the
definitions, on plain strings, so a defect in the library cannot hide behind
its own self-checks.
"""

from __future__ import annotations

import random
from collections import Counter


def least_rotation(s: str) -> str:
    """Lexicographically least rotation, by the two-pointer minimum-expression
    scan (a different algorithm from the library's Booth scan)."""
    n = len(s)
    ss = s + s
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = ss[i + k], ss[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    start = min(i, j)
    return ss[start:start + n]


def is_primitive(s: str) -> bool:
    return s not in (s + s)[1:-1]


def multiset_text(counts: Counter) -> str:
    """The CLI's text rendering of a necklace multiset: one sorted line per
    Lyndon word, with `` xN`` when its multiplicity N exceeds 1."""
    return "".join(
        f"{w}\n" if m == 1 else f"{w} x{m}\n" for w, m in sorted(counts.items())
    )


def parse_multiset(text: str) -> Counter:
    counts = Counter()
    for line in text.splitlines():
        parts = line.split()
        counts[parts[0]] += int(parts[1][1:]) if len(parts) == 2 else 1
    return counts


def ebwt(counts: Counter) -> str:
    """Extended BWT by sorting rotations on a key: the first 2*maxlen letters
    of a rotation's infinite power order it among all others (Fine-Wilf), and
    equal keys only occur for copies of the same rotation."""
    keylen = 2 * max(len(w) for w in counts)
    rows = []
    for w, mult in counts.items():
        big = w * (keylen // len(w) + 2)
        for i in range(len(w)):
            rows.append((big[i:i + keylen], w[i - 1], mult))
    rows.sort()
    return "".join(last * mult for _, last, mult in rows)


def inverse_ebwt(word: str) -> Counter:
    """Necklaces read off the cycles of the word's standard permutation."""
    order = sorted(range(len(word)), key=word.__getitem__)
    letters = "".join(word[i] for i in order)
    seen = bytearray(len(word))
    counts = Counter()
    for start in range(len(word)):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = 1
            cycle.append(letters[i])
            i = order[i]
        counts[least_rotation("".join(cycle))] += 1
    return counts


def least_debruijn(k: int, n: int, letters: str = "abcdefghij") -> str:
    """The least de Bruijn word by the recursive FKM necklace generator."""
    a = [0] * (n + 1)
    out: list[int] = []

    def gen(t: int, p: int) -> None:
        if t > n:
            if n % p == 0:
                out.extend(a[1:p + 1])
            return
        a[t] = a[t - p]
        gen(t + 1, p)
        for j in range(a[t - p] + 1, k):
            a[t] = j
            gen(t + 1, t)

    gen(1, 1)
    return "".join(letters[c] for c in out)


def covers_each_window_once(counts: Counter, k: int, n: int, letters: str) -> bool:
    """True iff the length-n cyclic windows of all rotations of the necklaces
    are exactly the k^n words over ``letters[:k]``, each once."""
    if any(m != 1 for m in counts.values()):
        return False
    windows = set()
    total = 0
    for w in counts:
        big = w * (n // len(w) + 2)
        for i in range(len(w)):
            windows.add(big[i:i + n])
            total += 1
    alphabet = set(letters[:k])
    return (total == k**n and len(windows) == k**n
            and all(set(x) <= alphabet for x in windows))


def distinct_factor_count(s: str) -> int:
    """Distinct nonempty factors by brute-force substring sets, one length at
    a time.  Once all n-L+1 factors of length L are distinct, so are all
    longer ones (their length-L prefixes differ), which ends the scan."""
    n = len(s)
    total = 0
    for length in range(1, n + 1):
        m = n - length + 1
        distinct = len({s[i:i + length] for i in range(m)})
        if distinct == m:
            return total + m * (m + 1) // 2
        total += distinct
    return total


def table_problem(text: str, mode: str, rng: random.Random, triples: int = 200) -> str | None:
    """Check a ``semigroup --action|--syntactic --table`` report: the header,
    a well-formed order x order grid, and associativity on sampled triples."""
    lines = text.splitlines()
    head = lines[0].split()
    if head[:2] != [mode, "order"] or not lines[1].startswith("generators"):
        return f"bad header {lines[:2]!r}"
    order = int(head[2])
    labels = lines[2].split()[1:]
    rows = [line.split() for line in lines[3:]]
    if len(labels) != order or len(set(labels)) != order or len(rows) != order:
        return f"grid is not {order} x {order}"
    index = {label: i for i, label in enumerate(labels)}
    table = []
    for label, row in zip(labels, rows):
        if row[0] != label or len(row) != order + 1:
            return f"row {label!r} is malformed"
        try:
            table.append([index[cell] for cell in row[1:]])
        except KeyError as e:
            return f"cell {e.args[0]!r} is not an element label"
    for _ in range(triples):
        x, y, z = (rng.randrange(order) for _ in range(3))
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return f"not associative at {labels[x]}, {labels[y]}, {labels[z]}"
    return None
