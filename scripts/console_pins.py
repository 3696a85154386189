#!/usr/bin/env python3
"""Pin exit code, output and peak RSS of fixed calls to the `ebwt` on PATH.

    python scripts/console_pins.py

Each row of `pins()` runs under `timeout` and PYTHONWARNINGS=error (so an
uncaught warning is a traceback) and prints one line; a failed row exits 1.
A child's `ru_maxrss` starts at its parent's peak (a `pass` child of a
parent that once held 200 MB reads 213 MB), so each row's stdin, and a
large expected stdout, is built only when that row runs, the stdin written
in pieces, and the script also fails when its own peak passes SELF_CAP_MB,
half the smallest cap.  A row with `sink` writes the child's stdout to
that path, and reads it back as empty.
"""

import os
import random
import resource
import subprocess
import sys
import tempfile
from array import array
from collections import Counter
from contextlib import nullcontext
from functools import reduce
from itertools import accumulate, chain, repeat
from typing import NamedTuple

SELF_CAP_MB = 32


class Pin(NamedTuple):
    args: tuple  # after `ebwt`
    code: int
    stdout: object  # the text, or a callable that builds it when the row runs
    stderr: str = ""  # a prefix: exactly one line that starts with it (the line when it ends "\n")
    cap_mb: int | None = None
    timeout: int = 60  # seconds
    stdin: object = tuple  # called when the row runs: the pieces, bytes written in turn
    sink: str | None = None  # a path that takes the child's stdout


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


def coin_word(n, seed):
    """n random letters over "ab": the bits of `random.Random(seed)`, with
    no list of n letters."""
    return format(random.Random(seed).getrandbits(n), f"0{n}b").translate(str.maketrans("01", "ab"))


def inverse_text(word, letters="ab"):
    """What `ebwt invert` prints for a word over `letters`, in code-point
    order, from a walk of its own.  The rows of the standard permutation
    hold the word's letters sorted, and row r, the j-th row of its letter,
    goes to the position in the word of that letter's j-th occurrence.
    Each cycle, read from its least row, spells a Lyndon word; they are
    printed sorted, one a line, with " xN" when N cycles spell one.  The
    image holds 4 bytes a row and each row's letter 2, and each cycle is
    spelled into a bytearray of UTF-8, so the runner stays small."""
    counts = Counter(word)
    rows = dict(zip(letters, accumulate(chain([0], map(counts.__getitem__, letters)))))
    image = array("i", bytes(4 * len(word)))
    for i, c in enumerate(word):
        image[rows[c]] = i
        rows[c] += 1
    held = array("H", chain.from_iterable(map(repeat, range(len(letters)),
                                              map(counts.__getitem__, letters))))
    encoded = [c.encode() for c in letters]
    seen, spelled = bytearray(len(word)), Counter()
    for start in range(len(word)):
        cycle, i = bytearray(), start
        while not seen[i]:
            seen[i] = 1
            cycle += encoded[held[i]]
            i = image[i]
        if cycle:
            spelled[cycle.decode()] += 1
    return "".join(f"{w} x{m}\n" if m > 1 else f"{w}\n" for w, m in sorted(spelled.items()))


def drawn_word(letters, n, seed):
    """n letters drawn from `letters` by `random.Random(seed)`, from a list
    of them, so that the draws share its strings: indexing a str past
    Latin-1 builds a new one each time."""
    return "".join(random.Random(seed).choices(list(letters), k=n))


def lyndon_words(letters, n):
    """The Lyndon words over `letters` of length dividing n, in
    lexicographic order, by the successor step (extend periodically to n
    letters, strip trailing maxima, bump)."""
    k, w = len(letters), [0]
    while w:
        if n % len(w) == 0:
            yield "".join(map(letters.__getitem__, w))
        w = [w[i % len(w)] for i in range(n)]
        while w and w[-1] == k - 1:
            w.pop()
        if w:
            w[-1] += 1


def least_debruijn(letters, n):
    """The least de Bruijn word of span n over `letters`: the Lyndon words of
    length dividing n in lexicographic order."""
    return "".join(lyndon_words(letters, n))


def pins():
    coins = {n: "".join(map(random.Random(seed).choice, ["ab"] * n))
             for seed, n in [(1, 300), (900, 900), (2000, 2000)]}
    fibonacci = reduce(lambda w, _: w.translate({97: "ab", 98: "a"}), range(12), "a")[:300]
    letters = "".join(map(chr, range(0x100, 0x100 + 300)))
    draw = random.Random(256)
    wide = "".join(draw.sample(letters, 256) + draw.choices(letters[:16], k=44))
    ab499 = "ab" * 499 + "b"  # of order 999995 by the closed form
    abc900 = "".join(random.Random(3).choices("abc", k=900))  # of order 810832
    tied = coins[300][:260] + coins[300][100:140]  # letters 100-139 again at the end
    cjk = "".join(map(chr, range(0x4E00, 0x4E00 + 300)))
    return [
        Pin(("semigroup", "abab", "--syntactic"), 0, "syntactic order 9\ngenerators a b\n",
            "warning: "),
        Pin(("invert", "babbaaba"), 0, "aab\nab\nabb\n"),
        # Many copies per class of translates; windows that tie, over 2 and 300 letters.
        round_trip("aab x5000\nab x3000\nabb x7"),
        round_trip("a" + "ab" * 99 + "b"),
        round_trip(letters[0] + letters[:2] * 60 + letters[1], "--alphabet", letters),
        refused("debruijn", "7", "30000000", "--least", timeout=10),
        # The guard judges k^n before --from-gamma reads its word.
        refused("debruijn", "2", "25", "--from-gamma", "a", timeout=10,
                error="span-25 generation over 2 letters needs k^n = 33554432 positions"),
        refused("invert", "--guard-cells", "1000", stdin=lambda: (b"ab" * 1000 + b"\n",)),
        refused("transform", '{"necklaces": [{"lyndon": 5}]}', code=2),
        # A multiplicity too long for CPython to convert is the guard's.
        refused("transform", "ab x" + "9" * 4301, error="transform multiplicity has more than "
                "4300 digits, over the guard 16777216"),
        # The second word's repeats are too long for packed windows; the
        # third has 256 letters or more, so each digit takes two bytes.
        Pin(("factors", coins[300]), 0, f"{factor_count(coins[300])}\n"),
        Pin(("factors", fibonacci), 0, f"{factor_count(fibonacci)}\n"),
        Pin(("factors", wide), 0, f"{factor_count(wide)}\n"),
        # A repeat of 40 letters after position 0: its starts tie on
        # primaries of 30 letters and are told apart by exact keys of 64,
        # with no fallback.
        Pin(("factors", tied), 0, f"{factor_count(tied)}\n"),
        # Closures refused before either is built.
        refused("semigroup", coins[2000], "--check-iso", timeout=10),
        refused("semigroup", coins[900], "--action", "--table", cap_mb=64),
        refused("semigroup", ab499, "--check-iso", "--guard-cells", "999000",
                cap_mb=64, timeout=10),
        # One closure alive at a time, a packed int per one-point map.
        Pin(("semigroup", ab499, "--check-iso"), 0,
            "action order 999995\nsyntactic order 999995\nISOMORPHIC\n", cap_mb=280),
        # Over three letters each one-point map has two empty products of
        # its three, which `_close` writes as one row with one dict probe.
        Pin(("semigroup", abc900, "--check-iso"), 0,
            "action order 810832\nsyntactic order 810832\nISOMORPHIC\n", cap_mb=280),
        # The order alone, from the closed form, for a primitive word or not.
        Pin(("semigroup", ab499, "--action"), 0, "action order 999995\ngenerators a b\n",
            cap_mb=64),
        Pin(("semigroup", "ab" * 1600, "--syntactic"), 0,
            "syntactic order 6401\ngenerators a b\n", "warning: ", cap_mb=64, timeout=10),
        # Stdin is read in blocks of 2^16 bytes: a "\r\n", then a two-byte
        # letter, straddles the first edge, and a bad byte past it is placed
        # from the start of the input.
        newlines_as_argv("a" * (2**16 - 2) + "b"),
        newlines_as_argv("a" * (2**16 - 1) + "\u00e9"),
        undecodable(b"ab" * 40000 + b"\xffab\n"),
        # A line of 2^27 letters, and a JSON document of more than the guard
        # and a block, are refused as they are read.
        refused("transform", cap_mb=64, stdin=lambda: chain(repeat(b"ab" * 2**20, 64), [b"\n"])),
        refused("transform", error="transform JSON input has more than 16842752 characters",
                cap_mb=64, stdin=lambda: chain([b'{"necklaces": [{"lyndon": "'],
                                               repeat(b"a" * 2**21, 16), [b'b"}]}\n'])),
        # The entries ranked as the text they are read as, with no parse or
        # least-rotation scan per entry: the 2^20 letters of the Lyndon words
        # over "ab" of length dividing 20, whose transform is (ab)^(2^19).
        # The parent of this row peaked at 209 MB, this tree at 183.
        Pin(("transform",), 0, lambda: "ab" * 2**19 + "\n", cap_mb=224,
            stdin=lambda: (f"{w}\n".encode() for w in lyndon_words("ab", 20))),
        # A long periodic entry is refused before any ranking (19 MB, 0.06 s),
        # in one line that quotes only its first 64 letters.
        refused("transform", "--canonicalize", code=2, cap_mb=32, timeout=10,
                error=f"entry {'ab' * 32!r}... (524288 letters) is not primitive\n",
                stdin=lambda: (b"ab" * 2**18, b"\n")),
        # The permutation built from the text by one pass into a row per
        # letter, with no sort, and walked as an array image and a str column
        # of letters: 2^20 random letters on stdin, whose longest cycle, a
        # list of about 900,000 ints, sets the peak (74 MB; 82 when the text
        # was parsed into codes over a bytes column), and a de Bruijn word of
        # 2^20 letters (33 MB; 44 then).
        Pin(("invert",), 0, lambda: inverse_text(coin_word(2**20, 20)), cap_mb=96,
            stdin=lambda: (coin_word(2**20, 20).encode(), b"\n")),
        # The same over 300 CJK letters, past the 256 that once took a tuple
        # of letters: 2^18 letters on stdin (34 MB; the gather of the
        # longest cycle builds a string per letter past Latin-1).
        Pin(("invert",), 0, lambda: inverse_text(drawn_word(cjk, 2**18, 18), cjk), cap_mb=41,
            stdin=lambda: (drawn_word(cjk, 2**18, 18).encode(), b"\n")),
        Pin(("debruijn", "2", "20", "--least"), 0, lambda: least_debruijn("ab", 20) + "\n",
            cap_mb=53),
        # A write that fails, but not on a closed pipe, is one error line:
        # the output's, and the help text's, which argparse would drop.
        refused("debruijn", "2", "3", "--least", code=1, sink="/dev/full",
                error="cannot write the output: No space left on device"),
        refused("--help", code=1, sink="/dev/full",
                error="cannot write the output: No space left on device"),
    ]


def run(argv, stdin=None, sink=None):
    """Run argv to its end: (exit code, stdout, stderr, peak RSS in MB).  The
    peak is the child's own, from `os.wait4` (RUSAGE_CHILDREN is the largest
    over every child reaped so far); output goes to files, so no pipe fills,
    stdout to the path `sink` when one is given."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err, \
            open(sink, "wb") if sink else nullcontext(out) as stdout:
        with subprocess.Popen(argv, stdin=stdin, stdout=stdout, stderr=err) as child:
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
            code, out, err, peak_mb = run(("timeout", str(pin.timeout), "ebwt", *pin.args), stdin,
                                          pin.sink)
        expected = pin.stdout() if callable(pin.stdout) else pin.stdout
        wrong = [message for bad, message in [
            (code != pin.code, f"exit {code}, not {pin.code}"),
            (out != expected, f"stdout {out[:200]!r}"),
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
