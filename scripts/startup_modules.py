#!/usr/bin/env python3
"""The modules that starting the CLI loads, and how long that takes.

    python -E -s scripts/startup_modules.py [SRC]

Imports `ebwt.cli` and builds its argument parser, the start-up that every
CLI call pays, then prints the wall time and the modules that were not
loaded before.  SRC, when given, goes first on sys.path (with -E the
interpreter ignores PYTHONPATH); without it the installed package is
imported.  Exits 1, naming them, when any of UNWANTED is among the modules.
"""

import sys
import time

# Not needed to start: `dataclasses` pulls in `inspect`, `ast`, `dis` and
# `tokenize`, `json` serves only --json output and JSON input, and `array`
# only factor counting and the inverse transform's permutation, each of
# which imports it when it runs.
UNWANTED = ("array", "dataclasses", "inspect", "json")


def main(argv: list[str]) -> int:
    if argv:
        sys.path.insert(0, argv[0])
    before = set(sys.modules)
    start = time.perf_counter()
    import ebwt.cli

    ebwt.cli._build_parser()
    elapsed = time.perf_counter() - start
    loaded = sorted(set(sys.modules) - before)
    print(f"{len(loaded)} modules in {elapsed * 1000:.1f} ms: {' '.join(loaded)}")
    unwanted = [name for name in UNWANTED if name in loaded]
    if unwanted:
        print(f"loaded at start-up: {' '.join(unwanted)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
