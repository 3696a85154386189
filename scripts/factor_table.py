#!/usr/bin/env python3
"""Tabulate the maximum distinct-factor count f(n) against both envelopes.

For each n up to the requested bound, prints the exhaustive maximum over
k-ary words, the refined ceiling n(n+1)/2 minus the guaranteed repeated
factors, the de Bruijn prefix floor, and the lexicographically least witness.
Asserts that the maximum is at least the de Bruijn prefix's factor count and
that this count is at least its floor.
"""

import argparse

from ebwt.factors import (
    debruijn_factor_witness,
    max_factors_exhaustive,
    repeated_factor_lower_bound,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=14)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--guard", type=int, default=2**18,
                        help="word-count budget for the exhaustive scan")
    args = parser.parse_args()

    print(f"{'n':>3} {'f(n)':>6} {'ceiling':>8} {'floor':>6}  witness")
    for n in range(1, args.max_n + 1):
        best, witness = max_factors_exhaustive(n, args.k, max_words=args.guard)
        ceiling = n * (n + 1) // 2
        if n > args.k:
            ceiling -= repeated_factor_lower_bound(n, args.k)
            prefix = debruijn_factor_witness(n, args.k)
            floor = prefix.lower_bound
            assert best >= prefix.distinct_count >= floor, (n, prefix)
        else:
            floor = best
        print(f"{n:>3} {best:>6} {ceiling:>8} {floor:>6}  {witness}")


if __name__ == "__main__":
    main()
