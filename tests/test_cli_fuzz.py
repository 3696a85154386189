"""Properties of `cli.main` over argv drawn from the grammar of the five
subcommands, with small inputs and resource guards drawn near their edges.

For every argv: `main` returns instead of raising; the exit code is 0, 2 or
3; a nonzero exit writes exactly one error line to stderr and nothing to
stdout; the same call with --json exits alike and carries the same data; and
`invert` of a successful `transform` gives back its input, canonicalized.
"""

import contextlib
import io
import json
import re
import warnings
from itertools import permutations

from hypothesis import example, given, settings, strategies as st

from ebwt.cli import _parse_word, main
from ebwt.semigroups import generate_closure, letter_actions, syntactic_semigroup

from helpers import naive_least_rotation

LETTERS = "abcd"
ERROR_LINE = re.compile(r"^(ebwt( \w+)?: )?error: ")


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def words(max_size=40, min_size=0):
    return st.integers(1, len(LETTERS)).flatmap(
        lambda k: st.text(LETTERS[:k], min_size=min_size, max_size=max_size)
    )


def guard_flag(needed):
    """No --guard-cells, or one within 2 of what the call needs; values below
    1 are argument errors."""
    near = st.integers(needed - 2, needed + 2).map(lambda g: ["--guard-cells", str(g)])
    return st.one_of(st.just([]), near)


@st.composite
def transform_argv(draw):
    entries = draw(st.lists(st.tuples(words(8, 1), st.integers(1, 5)), max_size=5))
    if draw(st.booleans()):
        text = "\n".join(w if m == 1 else f"{w} x{m}" for w, m in entries)
    else:
        text = json.dumps({"necklaces": [{"lyndon": w, "multiplicity": m} for w, m in entries]})
    argv = ["transform", text]
    argv += draw(st.sampled_from([[], ["--canonicalize"]]))
    argv += draw(st.sampled_from([[], ["--alphabet", "abcd"], ["--alphabet", "dcba"],
                                  ["--alphabet", "ab"]]))
    argv += draw(guard_flag(sum(len(w) * m for w, m in entries)))
    return argv


@st.composite
def invert_argv(draw):
    word = draw(words())
    argv = ["invert", word]
    argv += draw(st.sampled_from([[], ["--alphabet", "abcd"], ["--alphabet", "ab"]]))
    return argv + draw(guard_flag(len(word)))


def block_word(k, n):
    """A word of k^(n-1) blocks, each a permutation of the first k letters."""
    blocks = ["".join(p) for p in permutations(LETTERS[:k])]
    return st.lists(st.sampled_from(blocks), min_size=k ** (n - 1),
                    max_size=k ** (n - 1)).map("".join)


@st.composite
def debruijn_argv(draw):
    k, n = draw(st.integers(2, 5)), draw(st.integers(1, 6))
    argv = ["debruijn", str(k), str(n)]
    mode = draw(st.sampled_from(["--least", "--count", "--from-gamma"]))
    if mode == "--from-gamma":
        if k <= len(LETTERS) and k**n <= 64 and draw(st.booleans()):
            word = draw(block_word(k, n))
        else:
            word = draw(words(min_size=1))
        return argv + [mode, word] + draw(guard_flag(k**n))
    argv.append(mode)
    if mode == "--least":
        argv += draw(st.sampled_from([[], ["--alphabet", "01234"[:k]], ["--alphabet", "xy"]]))
    return argv + draw(guard_flag(k**n))


def closure_order(word, mode):
    """The closure size a semigroup call needs, or None when the word is
    refused before any closure."""
    u = _parse_word(word, None)
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


@st.composite
def semigroup_argv(draw):
    mode = draw(st.sampled_from(["--action", "--syntactic", "--check-iso"]))
    table = mode != "--check-iso" and draw(st.booleans())
    word = draw(words(10 if table else 24, min_size=1))
    argv = ["semigroup", word, mode] + (["--table"] if table else [])
    needed = closure_order(word, mode)
    if needed is None:
        return argv
    return argv + draw(guard_flag(needed))


@st.composite
def factors_argv(draw):
    mode = draw(st.sampled_from(["word", "--max", "--witness"]))
    if mode == "word":
        word = draw(words())
        return ["factors", word] + draw(guard_flag(len(word)))
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    if mode == "--max":
        return ["factors", "--max", str(n), str(k)] + draw(guard_flag(k**n))
    n = draw(st.integers(1, 40))
    m = 1
    while k > 1 and k**m < n:
        m += 1
    return ["factors", "--witness", str(n), str(k)] + draw(guard_flag(k**m))


def necklace_lines_payload(lines):
    necklaces = []
    for line in lines:
        word, _, mult = line.partition(" x")
        necklaces.append({"lyndon": word, "multiplicity": int(mult or 1)})
    return {"necklaces": necklaces}


def semigroup_payload(lines):
    name, _, order = lines[0].split()
    payload = {f"{name}_order": int(order), "generators": lines[1].split()[1:]}
    if len(lines) > 2:
        labels = lines[2].split()[1:]
        rows = [line.split() for line in lines[3:]]
        assert [row[0] for row in rows] == labels
        payload["elements"] = labels
        payload["table"] = [[labels.index(cell) for cell in row[1:]] for row in rows]
    return payload


def text_payload(argv, out):
    """The JSON payload that the text output of a successful call spells."""
    lines = out.splitlines()
    command = argv[0]
    if command == "transform":
        return {"word": lines[0]}
    if command == "invert" or "--from-gamma" in argv:
        return necklace_lines_payload(lines)
    if "--least" in argv:
        return {"word": lines[0]}
    if "--count" in argv:
        return {"count": int(lines[0])}
    if command == "semigroup":
        if "--check-iso" in argv:
            return {
                "action_order": int(lines[0].split()[-1]),
                "syntactic_order": int(lines[1].split()[-1]),
                "isomorphic": lines[2] == "ISOMORPHIC",
            }
        return semigroup_payload(lines)
    if "--max" not in argv and "--witness" not in argv:
        return {"distinct_factors": int(lines[0])}
    fields = dict(line.split(" ", 1) for line in lines)
    if "--max" in argv:
        n, k = argv[argv.index("--max") + 1:argv.index("--max") + 3]
        return {"n": int(n), "k": int(k), "max_distinct": int(fields["max_distinct"]),
                "upper_bound": int(fields["upper_bound"]), "witness": fields["witness"]}
    n, k = argv[argv.index("--witness") + 1:argv.index("--witness") + 3]
    return {"n": int(n), "k": int(k), "span": int(fields["span"]),
            "witness": fields["witness"],
            "distinct_factors": int(fields["distinct_factors"]),
            "lower_bound": int(fields["lower_bound"])}


def expected_multiset_lines(argv):
    """The canonical multiset text of a transform input: every entry taken to
    its Lyndon rotation, repeats merged, sorted."""
    text = argv[1]
    if text.startswith("{"):
        entries = [(e["lyndon"], e["multiplicity"]) for e in json.loads(text)["necklaces"]]
    else:
        entries = [(w, int(m or 1)) for w, _, m in (line.partition(" x")
                                                    for line in text.splitlines())]
    counts = {}
    for word, mult in entries:
        lyndon = naive_least_rotation(word)
        counts[lyndon] = counts.get(lyndon, 0) + mult
    return [w if m == 1 else f"{w} x{m}" for w, m in sorted(counts.items())]


@given(st.one_of(transform_argv(), invert_argv(), debruijn_argv(), semigroup_argv(),
                 factors_argv()))
# The huge powers: refused without building k^n.
@example(["debruijn", "2", "3000000", "--least"])
@example(["debruijn", "7", "30000000", "--least"])
@example(["debruijn", "7", "30000000", "--from-gamma", "abcdefg"])
@example(["factors", "--max", "30000000", "2"])
# The word guards: refused before the word is parsed.
@example(["invert", "ab" * 500, "--guard-cells", "999"])
@example(["factors", "ab" * 500, "--guard-cells", "999"])
# JSON entries whose 'lyndon' is not a nonempty string: input errors.
@example(["transform", '{"necklaces": [{"lyndon": 5}]}'])
@example(["transform", '{"necklaces": [{"lyndon": null}]}'])
@example(["transform", '{"necklaces": [{"lyndon": ["ab"]}]}'])
@example(["transform", '{"necklaces": [{"lyndon": "ab"}, {"lyndon": ""}]}'])
# JSON nested past the parser's recursion limit: an input error.
@example(["transform", '{"necklaces": ' + "[" * 10**5 + "]" * 10**5 + "}"])
@settings(derandomize=True, deadline=None, max_examples=500)
def test_cli_properties(argv):
    code, out, err = call(argv)
    assert code in (0, 2, 3)
    errors = [line for line in err.splitlines() if ERROR_LINE.match(line)]
    if code == 0:
        assert errors == []
    else:
        assert len(errors) == 1
        assert out == ""

    json_code, json_out, json_err = call(argv + ["--json"])
    assert (json_code, json_err) == (code, err)
    if code == 0:
        assert json.loads(json_out) == text_payload(argv, out)
    else:
        assert json_out == ""

    if argv[0] == "transform" and code == 0 and out.strip():
        override = argv[argv.index("--alphabet"):][:2] if "--alphabet" in argv else []
        inv_code, inv_out, _ = call(["invert", out.strip()] + override)
        assert inv_code == 0
        assert inv_out.splitlines() == expected_multiset_lines(argv)
