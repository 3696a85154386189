"""Command-line surface: transform | invert | debruijn | semigroup | factors.

Deterministic, scriptable output: text by default, the same data as JSON
under --json.  Exit codes: 0 success, 2 input error, 3 resource guard; the
console entry point exits 1, without a traceback, when stdout is closed
before the output is written (`ebwt ... | head`).

`transform` and `invert` take their input from one generator, `_chunks`:
the positional text whole, else the strict UTF-8 of --file or stdin with
universal newlines, a block of INPUT_CHUNK bytes at a time, so that each
guard on the input bounds what is held of it as it is read.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import io
import os
import sys
import warnings
from collections import Counter
from contextlib import nullcontext
from itertools import chain, dropwhile

from .bwt import NecklaceMultiset, inverse_transform, transform
from .debruijn import (
    DEFAULT_MAX_WORD_LENGTH,
    GammaWord,
    count_debruijn_words,
    debruijn_set_from_gamma,
    least_debruijn_word,
)
from .errors import NotPrimitiveError, ResourceLimitError
from .factors import (
    DEFAULT_FACTOR_LETTERS,
    DEFAULT_SCAN_WORDS,
    debruijn_factor_witness,
    distinct_factors,
    max_factors_exhaustive,
    repeated_factor_lower_bound,
)
from .semigroups import (
    DEFAULT_CLOSURE_SIZE,
    TABLE_CELL_LIMIT,
    closure_order,
    generate_closure,
    letter_actions,
    letter_induced_isomorphic,
    syntactic_semigroup,
)
from .words import Alphabet, Word, is_primitive, lyndon_representative


class CLIError(ValueError):
    """Input error; reported on stderr with exit code 2, like the library's
    ValueErrors on input it is handed."""


# Bytes per read of --file or stdin; see _chunks.
INPUT_CHUNK = 1 << 16


def _chunks(args):
    """The input of `transform` or `invert` as pieces of text: the
    positional text in one piece, else --file or stdin read INPUT_CHUNK
    bytes at a time.

    Those bytes are decoded as strict UTF-8, whatever the locale, with
    universal newlines ("\\r\\n" and a lone "\\r" become "\\n"), as a text
    file's read gives them; a decoding error is an input error placed from
    the start of the input.  A piece may be empty.
    """
    if args.text is not None:
        yield args.text
        return
    if not args.file and sys.stdin is None:
        raise CLIError("stdin is closed; give the input as an argument or with --file")
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(),
                                           translate=True)
    count = 0
    try:
        with open(args.file, "rb") if args.file else nullcontext(sys.stdin.buffer) as raw:
            while data := raw.read(INPUT_CHUNK):
                count += len(data)
                yield decoder.decode(data)
            yield decoder.decode(b"", final=True)
    except UnicodeDecodeError as e:
        # e.object ends where the bytes read so far end
        raise CLIError(_decode_message(e, count - len(e.object))) from None
    except OSError as e:
        raise CLIError(f"cannot read {args.file or 'stdin'}: {e.strerror}") from e


def _decode_message(e: UnicodeDecodeError, start: int) -> str:
    """The codec's message for `e`, raised on bytes that begin `start` bytes
    into the input, with its positions counted from the start of the input
    as a whole read gives them."""
    first, last = start + e.start, start + e.end - 1
    if first == last:
        where = f"byte 0x{e.object[e.start]:02x} in position {first}"
    else:
        where = f"bytes in position {first}-{last}"
    return f"'{e.encoding}' codec can't decode {where}: {e.reason}"


def _read_stripped(chunks, guard: int) -> tuple[str, int]:
    """(stripped text, its length) of the text that `chunks` spell.

    The length runs from the first to the last non-whitespace character.
    Chunks are kept only until they hold more than `guard` characters from
    the first non-whitespace one, so memory stays within guard + one chunk;
    past that the rest is only counted, and a text longer than the guard
    comes back empty, for the caller to refuse by its length.
    """
    kept: list[str] = []
    held = length = blank = 0
    for chunk in chunks:
        if not length:
            chunk = chunk.lstrip()
        body = chunk.rstrip()
        if body:
            length += blank + len(body)
            blank = len(chunk) - len(body)
        else:
            blank += len(chunk)
        if held <= guard:
            kept.append(chunk)
            held += len(chunk)
    if length > guard:
        return "", length
    return "".join(kept)[:length], length


def _alphabet_from(chars, override: str | None) -> Alphabet:
    if override:
        if len(set(override)) != len(override):
            raise CLIError(f"--alphabet has repeated characters: {override!r}")
        return Alphabet("".join(sorted(override)))
    return Alphabet("".join(sorted(set(chars))))


def _parse_word(text: str, override: str | None) -> Word:
    if not text:
        raise CLIError("empty word")
    return _alphabet_from(text, override).word(text)


def _multiset_entries(chunks, guard: int) -> Counter:
    """Raw entry -> multiplicity of the multiset that `chunks` spell,
    refused by the output guard before any entry is checked.

    JSON (first non-whitespace character `{`) is read through
    `_read_stripped`, held to the bound of a line (see `_lines`), and
    refused by its length before it is parsed when it passes that bound.
    The line format is read a line at a time and refused at the first line
    where the running sum of length times multiplicity passes the guard, so
    it never holds more than the guard's worth of entries and one line; the
    lines after that one are not parsed.
    """
    chunks = dropwhile(lambda chunk: not chunk or chunk.isspace(), chunks)
    first = next(chunks, "").lstrip()
    if first.startswith("{"):
        longest = guard + INPUT_CHUNK
        text, length = _read_stripped(chain([first], chunks), longest)
        if length > longest:
            raise ResourceLimitError(f"transform JSON input has {length} characters, "
                                     f"over the {longest} that the guard {guard} allows")
        entries = _multiset_entries_from_json(text)
        _check_letters("transform output needs",
                       sum(len(raw) * mult for raw, mult in entries.items()), guard)
        return entries
    return _multiset_entries_from_lines(_lines(chain([first], chunks), guard), guard)


# The characters where str.splitlines ends a line; "\r\n" ends one too.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _lines(chunks, guard: int):
    """(number from 1, text) of each line of the text that `chunks` spell,
    split as `str.splitlines` splits the whole text, each as soon as it ends.

    A line of more than guard + INPUT_CHUNK characters before its line
    break, more than any line within the output guard needs, is refused as
    soon as it passes that length, so no more than that and one chunk of
    any line is held.  No "\r\n" straddles two chunks: `_chunks` gives the
    positional text whole and translates the newlines of --file and stdin.
    """
    longest = guard + INPUT_CHUNK
    lineno, head, held = 0, [], 0
    for chunk in chunks:
        for part in chunk.splitlines(True):
            head.append(part)
            text = part.rstrip(_LINE_BREAKS)
            held += len(text)
            if held > longest:
                raise ResourceLimitError(f"transform input line {lineno + 1} has more than "
                                         f"{longest} characters, over the guard {guard}")
            if len(text) < len(part):  # the line ends in this part
                lineno += 1
                yield lineno, "".join(head)
                head, held = [], 0
    if head:
        yield lineno + 1, "".join(head)


def _multiset_entries_from_lines(lines, guard: int) -> Counter:
    """Entries of numbered 'word' or 'word xN' lines, the first of them not
    blank."""
    entries: Counter = Counter()
    letters = 0
    for lineno, line in lines:
        parts = line.split()
        if len(parts) == 1:
            mult = 1
        elif len(parts) == 2 and parts[1].startswith("x") and parts[1][1:].isdigit():
            mult = int(parts[1][1:])
            if mult < 1:
                raise CLIError(f"line {lineno}: multiplicity must be positive")
        elif not parts:
            continue
        else:
            raise CLIError(f"line {lineno}: expected 'word' or 'word xN', got {line.strip()!r}")
        entries[parts[0]] += mult
        letters += len(parts[0]) * mult
        _check_letters("transform output needs", letters, guard)
    return entries


def _multiset_entries_from_json(text: str) -> Counter:
    import json  # here, not at the top: only JSON input needs it

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise CLIError(f"line {e.lineno}: invalid JSON: {e.msg}") from e
    except RecursionError:
        raise CLIError("JSON multiset is nested too deeply to parse") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("necklaces"), list):
        raise CLIError('JSON multiset must be {"necklaces": [...]}')
    entries: Counter = Counter()
    for item in payload["necklaces"]:
        lyndon = item.get("lyndon") if isinstance(item, dict) else None
        if not isinstance(lyndon, str) or not lyndon:
            raise CLIError(f"JSON necklace entry needs a 'lyndon' field: {item!r}")
        mult = item.get("multiplicity", 1)
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise CLIError(f"bad multiplicity for entry {lyndon!r}: {mult!r}")
        entries[lyndon] += mult
    return entries


def _canonical_multiset(entries: Counter, override: str | None,
                        canonicalize: bool) -> NecklaceMultiset:
    """The multiset of the raw entries, each checked and canonicalized once."""
    if not entries:
        return NecklaceMultiset(_alphabet_from("ab", override), ())
    alphabet = _alphabet_from("".join(entries), override)
    counts: Counter = Counter()
    for raw, mult in entries.items():
        word = alphabet.word(raw)
        try:
            necklace = lyndon_representative(word)
        except NotPrimitiveError:
            raise CLIError(f"entry {raw!r} is not primitive") from None
        if necklace.lyndon.codes != word.codes and not canonicalize:
            raise CLIError(
                f"entry {raw!r} is not a Lyndon word (canonical form "
                f"{necklace!s}); pass --canonicalize to accept rotations"
            )
        counts[necklace] += mult
    return NecklaceMultiset.from_necklaces(alphabet, counts)


def _multiset_output(m: NecklaceMultiset) -> tuple[dict, list[str]]:
    """JSON payload and text lines of a multiset, each necklace rendered once."""
    rendered = [(str(necklace), mult) for necklace, mult in m.entries]
    payload = {
        "necklaces": [
            {"lyndon": lyndon, "multiplicity": mult}
            for lyndon, mult in rendered
        ]
    }
    return payload, [
        lyndon if mult == 1 else f"{lyndon} x{mult}"
        for lyndon, mult in rendered
    ]


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        import json  # here, not at the top: only --json output needs it

        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _render_on(word: Word, override: str | None) -> str:
    if not override:
        return str(word)
    alphabet = _alphabet_from(override, override)
    if alphabet.size != word.alphabet.size:
        raise CLIError(
            f"--alphabet needs {word.alphabet.size} characters, got {alphabet.size}"
        )
    return alphabet.render(word.codes)


def _check_letters(what: str, letters: int, guard: int) -> None:
    """Refuse, before any work, a word of more letters than the guard."""
    if letters > guard:
        raise ResourceLimitError(f"{what} {letters} letters, over the guard {guard}")


def cmd_transform(args) -> int:
    guard = args.guard_cells or DEFAULT_MAX_WORD_LENGTH
    entries = _multiset_entries(_chunks(args), guard)
    m = _canonical_multiset(entries, args.alphabet, args.canonicalize)
    rendered = str(transform(m))
    _emit(args, {"word": rendered}, [rendered])
    return 0


def cmd_invert(args) -> int:
    guard = args.guard_cells or DEFAULT_MAX_WORD_LENGTH
    text, letters = _read_stripped(_chunks(args), guard)
    _check_letters("invert input has", letters, guard)
    if not text:
        _emit(args, {"necklaces": []}, [])
        return 0
    m = inverse_transform(_parse_word(text, args.alphabet))
    _emit(args, *_multiset_output(m))
    return 0


def cmd_debruijn(args) -> int:
    k, n = args.k, args.n
    if k < 2 or n < 1:
        raise CLIError(f"need k >= 2 and n >= 1, got k={k}, n={n}")
    if args.count:
        total = count_debruijn_words(k, n)
        _emit(args, {"count": total}, [str(total)])
        return 0
    if args.from_gamma is not None:
        word = _parse_word(args.from_gamma, args.alphabet)
        if word.alphabet.size != k:
            raise CLIError(
                f"word uses {word.alphabet.size} letters, expected {k}"
            )
        m = debruijn_set_from_gamma(GammaWord(word, n))
        _emit(args, *_multiset_output(m))
        return 0
    guard = args.guard_cells or DEFAULT_MAX_WORD_LENGTH
    word = least_debruijn_word(k, n, max_length=guard)
    rendered = _render_on(word, args.alphabet)
    _emit(args, {"word": rendered}, [rendered])
    return 0


def _check_table_cells(order: int) -> None:
    """Refuse the multiplication table of a semigroup of this order when it
    has more than TABLE_CELL_LIMIT cells."""
    if order**2 > TABLE_CELL_LIMIT:
        raise ResourceLimitError(f"multiplication table of order {order} needs {order**2} "
                                 f"cells, over the {TABLE_CELL_LIMIT}-cell guard")


def _semigroup_report(name: str, sg, alphabet: Alphabet, with_table: bool, as_json: bool):
    """JSON payload and text lines of a semigroup; the table goes only into
    the one that is printed."""
    payload = {
        f"{name}_order": sg.order,
        "generators": [alphabet.letters[a] for a in sorted(sg.generators)],
    }
    lines = [
        f"{name} order {sg.order}",
        "generators " + " ".join(payload["generators"]),
    ]
    if with_table:
        _check_table_cells(sg.order)  # a word that is not primitive meets it here
        labels = [alphabet.render(w) for w in sg.element_words]
        if as_json:
            payload["elements"] = labels
            payload["table"] = sg.table
        else:
            width = max(len(label) for label in labels)
            padded = [label.rjust(width) for label in labels]
            lines.append("*".rjust(width) + " " + " ".join(padded))
            for label, row in zip(padded, sg.table):
                lines.append(label + " " + " ".join(padded[j] for j in row))
    return payload, lines


def cmd_semigroup(args) -> int:
    if any(map(str.isspace, args.word)):
        # the text output separates generators and table labels by spaces
        raise CLIError(f"semigroup word {args.word!r} holds whitespace")
    if args.alphabet and any(map(str.isspace, args.alphabet)):
        raise CLIError(f"semigroup alphabet {args.alphabet!r} holds whitespace")
    word = _parse_word(args.word, args.alphabet)
    guard = args.guard_cells or DEFAULT_CLOSURE_SIZE
    if is_primitive(word):
        # Both closures of a primitive word have this order: refuse before
        # building either, with the message that each would end in.
        order = closure_order(word, guard)
        if args.table and not args.check_iso:
            _check_table_cells(order)
    if args.check_iso:
        action = generate_closure(letter_actions(word), max_size=guard)
        syntactic = syntactic_semigroup(word, max_size=guard)
        verdict = letter_induced_isomorphic(action, syntactic)
        payload = {
            "action_order": action.order,
            "syntactic_order": syntactic.order,
            "isomorphic": verdict,
        }
        lines = [
            f"action order {action.order}",
            f"syntactic order {syntactic.order}",
            "ISOMORPHIC" if verdict else "NOT ISOMORPHIC",
        ]
        _emit(args, payload, lines)
        return 0
    if args.action:
        name, sg = "action", generate_closure(letter_actions(word), max_size=guard)
    else:
        name, sg = "syntactic", syntactic_semigroup(word, max_size=guard)
    _emit(args, *_semigroup_report(name, sg, word.alphabet, args.table, args.json))
    return 0


def cmd_factors(args) -> int:
    if args.max is not None:
        n, k = args.max
        guard = args.guard_cells or DEFAULT_SCAN_WORDS
        best, witness = max_factors_exhaustive(n, k, max_words=guard)
        upper = n * (n + 1) // 2
        if n > k >= 2:
            upper -= repeated_factor_lower_bound(n, k)
        payload = {
            "n": n,
            "k": k,
            "max_distinct": best,
            "upper_bound": upper,
            "witness": str(witness),
        }
        lines = [f"{key} {payload[key]}"
                 for key in ("n", "max_distinct", "upper_bound", "witness")]
        _emit(args, payload, lines)
        return 0
    if args.witness is not None:
        n, k = args.witness
        guard = args.guard_cells or DEFAULT_MAX_WORD_LENGTH
        if not n > k >= 2:
            raise CLIError(f"witness needs n > k >= 2, got n={n}, k={k}")
        result = debruijn_factor_witness(n, k, max_length=guard)
        payload = {
            "n": n,
            "k": k,
            "span": result.span,
            "witness": str(result.word),
            "distinct_factors": result.distinct_count,
            "lower_bound": result.lower_bound,
        }
        lines = [f"{key} {payload[key]}"
                 for key in ("witness", "span", "distinct_factors", "lower_bound")]
        _emit(args, payload, lines)
        return 0
    if args.word is None:
        raise CLIError("factors needs a word, --max, or --witness")
    _check_letters("factors input has", len(args.word),
                   args.guard_cells or DEFAULT_FACTOR_LETTERS)
    count = distinct_factors(_parse_word(args.word, args.alphabet))
    _emit(args, {"distinct_factors": count}, [str(count)])
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
    common.add_argument("--alphabet", metavar="CHARS",
                        help="fix the alphabet (characters in code-point order)")
    common.add_argument("--guard-cells", metavar="N", type=_positive_int, dest="guard_cells",
                        help="override the subcommand's resource guard")

    parser = argparse.ArgumentParser(
        prog="ebwt",
        description="Extended Burrows-Wheeler transform of necklace multisets, "
                    "de Bruijn word generation, necklace semigroups, and "
                    "distinct-factor bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", parents=[common],
                       help="multiset of Lyndon words -> transformed word")
    p.add_argument("text", nargs="?", help="multiset: lines of 'word [xN]' or JSON")
    p.add_argument("--file", help="read the multiset from a file")
    p.add_argument("--canonicalize", action="store_true",
                   help="accept primitive non-Lyndon entries, canonicalizing them")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("invert", parents=[common],
                       help="word -> multiset of Lyndon words")
    p.add_argument("text", nargs="?", help="the word to invert")
    p.add_argument("--file", help="read the word from a file")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("debruijn", parents=[common],
                       help="de Bruijn words of span n over k letters")
    p.add_argument("k", type=int, help="alphabet size")
    p.add_argument("n", type=int, help="span")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--least", action="store_true",
                      help="the lexicographically least de Bruijn word")
    mode.add_argument("--count", action="store_true",
                      help="how many de Bruijn words of span n exist")
    mode.add_argument("--from-gamma", metavar="WORD", dest="from_gamma",
                      help="invert a word of alphabet-permutation blocks")
    p.set_defaults(func=cmd_debruijn)

    p = sub.add_parser("semigroup", parents=[common],
                       help="necklace action and syntactic semigroups")
    p.add_argument("word", help="a primitive word")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--action", action="store_true",
                      help="closure of the letter actions on the necklace")
    mode.add_argument("--syntactic", action="store_true",
                      help="syntactic semigroup of the word's positive powers")
    mode.add_argument("--check-iso", action="store_true", dest="check_iso",
                      help="compare the two routes")
    p.add_argument("--table", action="store_true",
                   help="also print the multiplication table")
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("factors", parents=[common],
                       help="distinct-factor counts and bounds")
    p.add_argument("word", nargs="?", help="count distinct factors of this word")
    p.add_argument("--max", nargs=2, type=int, metavar=("N", "K"),
                   help="exhaustive maximum over all k-ary words of length n")
    p.add_argument("--witness", nargs=2, type=int, metavar=("N", "K"),
                   help="de Bruijn prefix witness with its quadratic floor")
    p.set_defaults(func=cmd_factors)
    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None):
    """Show a library warning as one `warning:` line, without the source
    location that Python's default format adds."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        with warnings.catch_warnings():
            # "always" overrides -W error and PYTHONWARNINGS, which would turn
            # a library warning into a traceback.
            warnings.simplefilter("always")
            warnings.showwarning = _warning_line
            return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`ebwt ... | head`).  Point stdout at
        # devnull so the interpreter's final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
