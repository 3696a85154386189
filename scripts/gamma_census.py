#!/usr/bin/env python3
"""Census of block-permutation words and the de Bruijn sets they invert to.

Enumerates every length-k^n word whose length-k blocks permute the alphabet,
inverts each, asserts that the image is a de Bruijn set that transforms back
to the word, and reports how the images split by necklace count.  The number
of single-necklace images (cyclic de Bruijn words) is checked against the
counting formula (k!)^(k^(n-1)) / k^n.
"""

import argparse
from collections import Counter

from ebwt.bwt import transform
from ebwt.debruijn import (
    GammaWord,
    count_debruijn_words,
    debruijn_set_from_gamma,
    enumerate_gamma,
    is_debruijn_set,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--limit", type=int, default=10**5,
                        help="refuse censuses larger than this")
    parser.add_argument("--show", action="store_true",
                        help="print every word with its de Bruijn set")
    args = parser.parse_args()

    by_size = Counter()
    total = 0
    images = set()
    for v in enumerate_gamma(args.k, args.n, limit=args.limit):
        m = debruijn_set_from_gamma(GammaWord(v, args.n))
        assert is_debruijn_set(m, args.n)
        assert transform(m) == v
        key = tuple((str(x), mult) for x, mult in m.entries)
        images.add(key)
        by_size[len(m.entries)] += 1
        total += 1
        if args.show:
            listing = ", ".join(str(x) for x, _ in m.entries)
            print(f"{v}  ->  {{{listing}}}")

    print(f"words of span {args.n} over {args.k} letters: {total}")
    print(f"distinct de Bruijn sets: {len(images)}")
    for size in sorted(by_size):
        print(f"  {by_size[size]:>6} invert to {size} necklace(s)")
    formula = count_debruijn_words(args.k, args.n)
    print(f"cyclic de Bruijn words: {by_size[1]} "
          f"(counting formula gives {formula})")
    assert by_size[1] == formula


if __name__ == "__main__":
    main()
