#!/usr/bin/env python3
"""Pin exit code, output and peak RSS of fixed calls to the `ebwt` on PATH.

    python scripts/console_pins.py

Each row of `pins()` runs under `timeout` and PYTHONWARNINGS=error (so an
uncaught warning is a traceback) and prints one line; a failed row exits 1.
A child's `ru_maxrss` starts at its parent's peak (a `pass` child of a
parent that once held 200 MB reads 213 MB), so each row's stdin is built
only when that row runs and is written in pieces, and the script also fails
when its own peak passes SELF_CAP_MB, half the smallest cap.
"""

import os
import random
import resource
import subprocess
import sys
import tempfile
from functools import reduce
from itertools import chain, repeat
from typing import NamedTuple

SELF_CAP_MB = 32


class Pin(NamedTuple):
    args: tuple  # after `ebwt`
    code: int
    stdout: str
    stderr: str = ""  # a prefix: exactly one line that starts with it
    cap_mb: int | None = None
    timeout: int = 60  # seconds
    stdin: object = tuple  # called when the row runs: the pieces, bytes written in turn


def refused(*args, code=3, error="", **pin):
    return Pin(args, code, "", "error: " + error, **pin)


def transformed(text, *options):
    """The stdout of `ebwt transform` of text given as argv."""
    return subprocess.run(("ebwt", "transform", *options, text), stdout=subprocess.PIPE).stdout


def round_trip(text, *options):
    """`ebwt transform` of text piped into `ebwt invert`, which gives it back."""
    return Pin(("invert", *options), 0, text + "\n",
               stdin=lambda: (transformed(text, *options),))


def newlines_as_argv(first_line):
    """`ebwt transform` on stdin of lines that end in "\\r\\n" or a lone "\\r"
    gives what the same text gives as argv (which holds at most 128 KiB)."""
    text = first_line + "\r\n" + "a" * 999 + "\u00e9\rab x3\r\naab\r"
    return Pin(("transform",), 0, transformed(text).decode(), stdin=lambda: (text.encode(),))


def undecodable(data):
    """`ebwt invert` of data on stdin exits 2 with the error of a whole read."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        return refused("invert", code=2, error=f"{e}", stdin=lambda: (data,))


def factor_count(w):
    """The distinct factors of w, counted from sets of its slices."""
    return sum(len({w[i:i + n] for i in range(len(w) - n + 1)}) for n in range(1, len(w) + 1))


def pins():
    coins = {n: "".join(map(random.Random(seed).choice, ["ab"] * n))
             for seed, n in [(1, 300), (900, 900), (2000, 2000)]}
    fibonacci = reduce(lambda w, _: w.translate({97: "ab", 98: "a"}), range(12), "a")[:300]
    letters = "".join(map(chr, range(0x100, 0x100 + 300)))
    ab499 = "ab" * 499 + "b"  # of order 999995 by the closed form
    return [
        Pin(("semigroup", "abab", "--syntactic"), 0, "syntactic order 9\ngenerators a b\n",
            "warning: "),
        Pin(("invert", "babbaaba"), 0, "aab\nab\nabb\n"),
        # Many copies per class of translates; windows that tie, over 2 and 300 letters.
        round_trip("aab x5000\nab x3000\nabb x7"),
        round_trip("a" + "ab" * 99 + "b"),
        round_trip(letters[0] + letters[:2] * 60 + letters[1], "--alphabet", letters),
        refused("debruijn", "7", "30000000", "--least", timeout=10),
        refused("invert", "--guard-cells", "1000", stdin=lambda: (b"ab" * 1000 + b"\n",)),
        refused("transform", '{"necklaces": [{"lyndon": 5}]}', code=2),
        # The second word's repeats are too long for packed windows.
        Pin(("factors", coins[300]), 0, f"{factor_count(coins[300])}\n"),
        Pin(("factors", fibonacci), 0, f"{factor_count(fibonacci)}\n"),
        # Closures refused before either is built.
        refused("semigroup", coins[2000], "--check-iso", timeout=10),
        refused("semigroup", coins[900], "--action", "--table", cap_mb=64),
        refused("semigroup", ab499, "--check-iso", "--guard-cells", "999000",
                cap_mb=64, timeout=10),
        # One closure alive at a time, a packed int per one-point map.
        Pin(("semigroup", ab499, "--check-iso"), 0,
            "action order 999995\nsyntactic order 999995\nISOMORPHIC\n", cap_mb=280),
        Pin(("semigroup", ab499, "--action"), 0, "action order 999995\ngenerators a b\n",
            cap_mb=200),
        # Stdin is read in blocks of 2^16 bytes: a "\r\n", then a two-byte
        # letter, straddles the first edge, and a bad byte past it is placed
        # from the start of the input.
        newlines_as_argv("a" * (2**16 - 2) + "b"),
        newlines_as_argv("a" * (2**16 - 1) + "\u00e9"),
        undecodable(b"ab" * 40000 + b"\xffab\n"),
        # A line of 2^27 letters, and a JSON document of more than the guard
        # and a block, are refused as they are read.
        refused("transform", cap_mb=64, stdin=lambda: chain(repeat(b"ab" * 2**20, 64), [b"\n"])),
        refused("transform", error="transform JSON input has 33554464 characters", cap_mb=64,
                stdin=lambda: chain([b'{"necklaces": [{"lyndon": "'], repeat(b"a" * 2**21, 16),
                                    [b'b"}]}\n'])),
    ]


def run(argv, stdin=None):
    """Run argv to its end: (exit code, stdout, stderr, peak RSS in MB).  The
    peak is the child's own, from `os.wait4` (RUSAGE_CHILDREN is the largest
    over every child reaped so far); output goes to files, so no pipe fills."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        with subprocess.Popen(argv, stdin=stdin, stdout=out, stderr=err) as child:
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (child.returncode, out.read().decode("utf-8"), err.read().decode("utf-8"),
                usage.ru_maxrss / 1024)


def main() -> int:
    os.environ["PYTHONWARNINGS"] = "error"
    failed = 0
    for pin in pins():
        with tempfile.TemporaryFile() as stdin:
            stdin.writelines(pin.stdin())
            stdin.seek(0)
            code, out, err, peak_mb = run(("timeout", str(pin.timeout), "ebwt", *pin.args), stdin)
        wrong = [message for bad, message in [
            (code != pin.code, f"exit {code}, not {pin.code}"),
            (out != pin.stdout, f"stdout {out[:200]!r}"),
            (not (err.startswith(pin.stderr) and err.find("\n") == len(err) - 1
                  if pin.stderr else err == ""), f"stderr {err[:200]!r}"),
            (pin.cap_mb and peak_mb >= pin.cap_mb, f"peak over {pin.cap_mb} MB")] if bad]
        failed += bool(wrong)
        shown = " ".join(arg if len(arg) <= 24 else f"<{len(arg)} chars>" for arg in pin.args)
        cap = f" (cap {pin.cap_mb})" if pin.cap_mb else ""
        print(f"{'FAIL' if wrong else 'ok'}: exit {code}, {peak_mb:.0f} MB{cap}: ebwt {shown}",
              *wrong, sep="; ")
    self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{failed} rows failed; own peak {self_mb:.0f} MB (cap {SELF_CAP_MB})")
    return 0 if failed == 0 and self_mb <= SELF_CAP_MB else 1


if __name__ == "__main__":
    sys.exit(main())
