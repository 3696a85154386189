#!/usr/bin/env python3
"""Record the CLI's behaviour on a fixed corpus of calls.

    PYTHONPATH=src python scripts/cli_corpus.py [OUT]

Draws argv with a fixed seed from the grammar of the five subcommands that
`tests/test_cli_fuzz.py` draws from: small words over 1-4 letters, text and
--json output, --alphabet overrides, multiplicities, and --guard-cells at
the total a call needs, one less and one more.  Every `$ ebwt` example of
README.md is added.  Each call runs in process through `cli.main`, and its
argv, exit code, stdout and stderr go to OUT (default
`tests/cli_corpus.jsonl`), one JSON object a line.  `tests/test_cli_corpus.py`
replays the file, so a change to any recorded byte shows in its diff;
regenerate the file only when that change is meant.

The draw uses `random`, not hypothesis, so that the same seed gives the
same calls whatever hypothesis version is installed.  Argument errors are
left out of it, since argparse words them by Python version and terminal
width, and so are tables of words over 6 letters, which would make the
file large.
"""

import contextlib
import io
import json
import random
import shlex
import sys
import warnings
from itertools import permutations
from pathlib import Path

from ebwt.cli import _parse_word, main
from ebwt.semigroups import generate_closure, letter_actions, syntactic_semigroup

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "cli_corpus.jsonl"
LETTERS = "abcd"
SEED = 20261019
DRAWS_PER_COMMAND = 30


def call(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def readme_examples(path=ROOT / "README.md"):
    """(argv, shown stdout) of every `$ ebwt ...` example in the README's
    shell blocks; a quoted argument may span lines."""
    examples = []
    lines = iter(path.read_text(encoding="utf-8").splitlines())
    for line in lines:
        if not line.startswith("$ ebwt "):
            continue
        command = line[2:]
        while True:
            try:
                argv = shlex.split(command)
                break
            except ValueError:  # a quote still open
                command += "\n" + next(lines)
        shown = []
        for output in lines:  # the output runs to the next blank line
            if not output.strip() or output.startswith("```"):
                break
            shown.append(output + "\n")
        examples.append((argv[1:], "".join(shown)))
    return examples


def word(r, max_size=40, min_size=0):
    letters = LETTERS[:r.randint(1, len(LETTERS))]
    return "".join(r.choice(letters) for _ in range(r.randint(min_size, max_size)))


def guard(r, needed):
    """No --guard-cells, or the total a call needs, one less or one more;
    values below 1 are argument errors."""
    value = r.choice([None, needed - 1, needed, needed + 1])
    return [] if value is None or value < 1 else ["--guard-cells", str(value)]


def transform_argv(r):
    entries = [(word(r, 8, 1), r.randint(1, 5)) for _ in range(r.randint(0, 5))]
    if r.random() < 0.5:
        text = "\n".join(w if m == 1 else f"{w} x{m}" for w, m in entries)
    else:
        text = json.dumps({"necklaces": [{"lyndon": w, "multiplicity": m} for w, m in entries]})
    argv = ["transform", text] + r.choice([[], ["--canonicalize"]])
    argv += r.choice([[], ["--alphabet", "abcd"], ["--alphabet", "dcba"], ["--alphabet", "ab"]])
    return argv + guard(r, sum(len(w) * m for w, m in entries))


def invert_argv(r):
    w = word(r)
    argv = ["invert", w] + r.choice([[], ["--alphabet", "abcd"], ["--alphabet", "ab"]])
    return argv + guard(r, len(w))


def debruijn_argv(r):
    k, n = r.randint(2, 5), r.randint(1, 6)
    argv = ["debruijn", str(k), str(n)]
    mode = r.choice(["--least", "--count", "--from-gamma"])
    if mode == "--from-gamma":
        if k <= len(LETTERS) and k**n <= 64 and r.random() < 0.5:
            blocks = ["".join(p) for p in permutations(LETTERS[:k])]
            w = "".join(r.choice(blocks) for _ in range(k ** (n - 1)))
        else:
            w = word(r, min_size=1)
        return argv + [mode, w] + guard(r, k**n)
    argv.append(mode)
    if mode == "--least":
        argv += r.choice([[], ["--alphabet", "01234"[:k]], ["--alphabet", "xy"]])
    return argv + guard(r, k**n)


def closure_order(w, mode):
    """The closure size a semigroup call needs, or None when the word is
    refused before any closure."""
    u = _parse_word(w, None)
    orders = []
    try:
        if mode in ("--action", "--check-iso"):
            orders.append(generate_closure(letter_actions(u)).order)
        if mode in ("--syntactic", "--check-iso"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a proper power only warns
                orders.append(syntactic_semigroup(u).order)
    except ValueError:
        return None
    return max(orders)


def semigroup_argv(r):
    mode = r.choice(["--action", "--syntactic", "--check-iso"])
    table = mode != "--check-iso" and r.random() < 0.5
    w = word(r, 6 if table else 24, min_size=1)  # a table grows as order^2
    argv = ["semigroup", w, mode] + (["--table"] if table else [])
    needed = closure_order(w, mode)
    return argv if needed is None else argv + guard(r, needed)


def factors_argv(r):
    mode = r.choice(["word", "--max", "--witness"])
    if mode == "word":
        w = word(r)
        return ["factors", w] + guard(r, len(w))
    n, k = r.randint(1, 6), r.randint(1, 5)
    if mode == "--max":
        return ["factors", "--max", str(n), str(k)] + guard(r, k**n)
    n = r.randint(1, 40)
    m = 1
    while k > 1 and k**m < n:
        m += 1
    return ["factors", "--witness", str(n), str(k)] + guard(r, k**m)


GRAMMAR = (transform_argv, invert_argv, debruijn_argv, semigroup_argv, factors_argv)


def corpus_argv(seed=SEED):
    """The README examples, then each drawn argv in text and in JSON."""
    r = random.Random(seed)
    calls = [argv for argv, _ in readme_examples()]
    for _ in range(DRAWS_PER_COMMAND):
        for draw in GRAMMAR:
            argv = draw(r)
            calls += [argv, argv + ["--json"]]
    return calls


def write_corpus(out=CORPUS):
    lines = []
    for argv in corpus_argv():
        code, stdout, stderr = call(argv)
        lines.append(json.dumps({"argv": argv, "exit": code, "stdout": stdout,
                                 "stderr": stderr}, ensure_ascii=False))
    Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} calls written to {out}")


if __name__ == "__main__":
    write_corpus(*sys.argv[1:])
