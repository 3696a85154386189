"""Seeded decks of CLI operations, one deck per workload.

A deck is a fixed list of operations built from the seed alone.  A run
makes at least one whole pass over it, so every run of a seed measures the
same calls whatever the speed of the host or of the program.  Input sizes
lie on a fixed grid over their ranges; the seed draws the words themselves
and the order of the calls.

Each operation carries the check of its output; the checks use only the
independent oracles in ``checks``.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import checks

LETTERS = "abcd"


@dataclass
class Op:
    """One CLI call: its argv, the kind of work, how much work it is, and
    the check of its exit code and output."""

    kind: str
    argv: list[str]
    work: int
    check: Callable[["Op", int, str, str], str | None]
    info: dict = field(default_factory=dict)
    verified: str | None = None  # stdout that passed the check, for replays

    def problem(self, rc: int, out: str, err: str) -> str | None:
        """Why this result is wrong, or None.  A replay only has to match the
        output that passed the full check the first time."""
        if self.verified is not None:
            return None if (rc, out) == (self.info.get("rc", 0), self.verified) else "output changed on replay"
        problem = self.check(self, rc, out, err)
        if problem is None:
            self.verified = out
        return problem


def _grid(rng: random.Random, m: int, lo: int, hi: int, *cycles) -> list[tuple]:
    """The midpoints of m equal-width strata of [lo, hi], in seeded order.

    Sizes sit on this fixed grid and the seed draws only contents and order:
    the cost of a call follows its size, so a drawn size would move the
    median and tail from seed to seed by more than any host noise.  Point j
    also takes ``c[j % len(c)]`` from each of ``cycles``, so the pairing of
    sizes with alphabets (say) is fixed too."""
    rows = [(lo + round((j + 0.5) / m * (hi - lo)),) + tuple(c[j % len(c)] for c in cycles)
            for j in range(m)]
    rng.shuffle(rows)
    return rows


def _random_word(rng: random.Random, n: int, k: int) -> str:
    return "".join(rng.choices(LETTERS[:k], k=n))


def _random_primitive(rng: random.Random, n: int, k: int) -> str:
    while True:
        s = _random_word(rng, n, k)
        if checks.is_primitive(s):
            return s


def _random_lyndon(rng: random.Random, n: int, k: int) -> str:
    return checks.least_rotation(_random_primitive(rng, n, k))


def _expect_ok(problem: Callable[[str], str | None]):
    def check(op: Op, rc: int, out: str, err: str) -> str | None:
        if rc != 0:
            return f"exit {rc}: {err.strip()[:200]}"
        return problem(out)
    return check


def _expect_text(text: str):
    return _expect_ok(lambda out: None if out == text else "wrong output")


def _guard_check(op: Op, rc: int, out: str, err: str) -> str | None:
    if rc != 3 or out or not err.startswith("error:"):
        return f"expected a guard refusal, got exit {rc}"
    return None


def _guard(argv: list[str]) -> Op:
    return Op("guard", argv, 0, _guard_check, {"rc": 3})


# necklaces -----------------------------------------------------------------

def _necklace_multisets(rng: random.Random, per_shape: int) -> list[Counter]:
    shapes = []
    for n, k in _grid(rng, per_shape, 300, 1600, (2, 3)):
        shapes.append(Counter({_random_lyndon(rng, n, k): 1}))
    for count, k in _grid(rng, per_shape, 200, 1500, (2, 3)):
        shapes.append(Counter(_random_lyndon(rng, rng.randint(6, 24), k) for _ in range(count)))
    # High multiplicity: the total length is what sets the cost, so that is
    # the gridded size; multiplicities follow from it.
    for total, k, count in _grid(rng, per_shape, 3000, 40000, (2, 3), (2, 3, 4, 5, 6)):
        words: set[str] = set()
        while len(words) < count:
            words.add(_random_lyndon(rng, rng.randint(4, 10), k))
        shapes.append(Counter({w: max(100, total // (count * len(w))) for w in words}))
    rng.shuffle(shapes)
    return shapes


def necklaces(rng: random.Random) -> list[Op]:
    """``transform`` of a multiset, then ``invert`` of its eBWT: one long
    necklace, many short ones, or a few with high multiplicity, in equal
    share, over 2 and 3 letters."""
    ops = []
    for counts in _necklace_multisets(rng, 24):
        text = checks.multiset_text(counts)
        word = checks.ebwt(counts)
        ops.append(Op("transform", ["transform", text], len(word), _expect_text(word + "\n")))
        ops.append(Op("invert", ["invert", word], len(word), _expect_text(text)))
    return ops


# long_words ----------------------------------------------------------------

def _invert_check(word: str):
    return _expect_ok(
        lambda out: None if out == checks.multiset_text(checks.inverse_ebwt(word)) else "wrong output"
    )


def _factors_check(word: str, exact: bool):
    def problem(out: str) -> str | None:
        n = len(word)
        count = int(out)
        if not n <= count <= n * (n + 1) // 2:
            return f"{count} outside the envelope [{n}, {n * (n + 1) // 2}]"
        expected = checks.distinct_factor_count(word) if exact else count
        return None if count == expected else f"counted {count}, expected {expected}"
    return _expect_ok(problem)


def _gamma_check(word: str, k: int, n: int):
    def problem(out: str) -> str | None:
        counts = checks.parse_multiset(out)
        if not checks.covers_each_window_once(counts, k, n, LETTERS):
            return "necklaces do not cover each length-n window once"
        return None if counts == checks.inverse_ebwt(word) else "not the inverse of the input"
    return _expect_ok(problem)


# Every (k, n) with 2^9 <= k^n <= 2^16: --least has no random input, so the
# deck takes all of them and this part of the workload is the same for every
# seed.
LEAST_PAIRS = tuple((k, n) for k in (2, 3, 4) for n in range(1, 17) if 2**9 <= k**n <= 2**16)
# --from-gamma words of 2^10 letters, eight per alphabet size.  A random
# block-permutation word can invert to one necklace holding most of its
# letters, and the library's self-check materialises every rotation of it, so
# a call costs up to ~2x its neighbours depending on the word drawn.  At
# 2^11..2^12 letters those calls sat at the deck's median and a single 2^12
# word could take ~0.2 GB, so the median and peak memory followed the seed;
# at 2^10 the self-check still dominates each call.
GAMMA_PAIRS = ((2, 10), (4, 5)) * 8
# Over-guard requests; each must be refused with exit code 3.
LONG_WORD_GUARDS = (["debruijn", "2", "30", "--least"], ["factors", "--max", "20", "2"],
                    ["debruijn", "3", "20", "--least"], ["factors", "--max", "12", "3"])


def long_words(rng: random.Random) -> list[Op]:
    """``invert`` and ``factors`` of random words of 10^4..2*10^5 letters,
    ``debruijn --least`` up to k^n = 2^16, ``debruijn --from-gamma`` on
    random block-permutation words of 2^10 letters, and guard refusals.
    A seeded sample of the ``factors`` calls gets an exact brute-force count;
    the others, whose brute force would cost more than the run, get the
    ``n <= count <= n(n+1)/2`` envelope."""
    per_kind = 20
    ops = []
    for n, k in _grid(rng, per_kind, 10**4, 2 * 10**5, (2, 4)):
        word = _random_word(rng, n, k)
        ops.append(Op("invert", ["invert", word], n, _invert_check(word)))
    exact = set(rng.sample(range(per_kind), 5))
    for j, (n, k) in enumerate(_grid(rng, per_kind, 10**4, 2 * 10**5, (2, 4))):
        word = _random_word(rng, n, k)
        ops.append(Op("factors", ["factors", word], n, _factors_check(word, j in exact)))
    for k, n in LEAST_PAIRS:
        ops.append(Op("least", ["debruijn", str(k), str(n), "--least"], k**n,
                      _expect_text(checks.least_debruijn(k, n, LETTERS) + "\n"), {"k": k, "n": n}))
    for k, n in GAMMA_PAIRS:
        blocks = ["".join(p) for p in itertools.permutations(LETTERS[:k])]
        word = "".join(rng.choice(blocks) for _ in range(k ** (n - 1)))
        ops.append(Op("gamma", ["debruijn", str(k), str(n), "--from-gamma", word], k**n,
                      _gamma_check(word, k, n)))
    ops.extend(_guard(list(argv)) for argv in LONG_WORD_GUARDS)
    rng.shuffle(ops)
    return ops


# semigroups ----------------------------------------------------------------

def _iso_check(op: Op, rc: int, out: str, err: str) -> str | None:
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    lines = out.splitlines()
    if (len(lines) != 3 or not lines[0].startswith("action order ")
            or not lines[1].startswith("syntactic order ")):
        return "malformed --check-iso report"
    action, syntactic = int(lines[0].split()[-1]), int(lines[1].split()[-1])
    if action != syntactic:
        return f"orders differ: {action} vs {syntactic}"
    if lines[2] != "ISOMORPHIC":
        return "a primitive word must give ISOMORPHIC"
    op.work = action + syntactic
    return None


def _table_check(mode: str, rng: random.Random):
    def check(op: Op, rc: int, out: str, err: str) -> str | None:
        if rc != 0:
            return f"exit {rc}: {err.strip()[:200]}"
        problem = checks.table_problem(out, mode, rng)
        if problem is None:
            op.work = int(out.split(None, 3)[2])
        return problem
    return check


def semigroups(rng: random.Random) -> list[Op]:
    """``semigroup W --check-iso`` on random primitive words of 20..100
    letters (3 calls in 4), ``--action``/``--syntactic --table`` on words of
    6..14 letters, and guard refusals."""
    ops = []
    for n, k in _grid(rng, 120, 20, 100, (2, 3)):
        ops.append(Op("iso", ["semigroup", _random_primitive(rng, n, k), "--check-iso"], 0, _iso_check))
    for n, k, mode in _grid(rng, 40, 6, 14, (2, 3), ("action", "action", "syntactic", "syntactic")):
        argv = ["semigroup", _random_primitive(rng, n, k), f"--{mode}", "--table"]
        ops.append(Op("table", argv, 0, _table_check(mode, random.Random(rng.random()))))
    for mode, cells in (("--check-iso", 50), ("--action", 20), ("--syntactic", 40), ("--check-iso", 200)):
        word = _random_primitive(rng, rng.randint(30, 40), 2)
        ops.append(_guard(["semigroup", word, mode, "--guard-cells", str(cells)]))
    rng.shuffle(ops)
    return ops


DECKS = {"necklaces": necklaces, "long_words": long_words, "semigroups": semigroups}


def build(workload: str, seed: int) -> list[Op]:
    return DECKS[workload](random.Random(f"ebwt-bench/{workload}/{seed}"))
