"""Command-line surface: transform | invert | debruijn | semigroup | factors.

Deterministic, scriptable output: text by default, the same data as JSON
under --json.  Exit codes: 0 success, 2 input error, 3 resource guard; the
console entry point exits 1, without a traceback, when writing the output
fails: quietly when stdout is closed before it is written (`ebwt ... |
head`), else with one `error:` line (`ebwt ... > /dev/full`).

`transform` and `invert` take their input from one generator, `_chunks`:
the positional text whole, else the strict UTF-8 of --file or stdin with
universal newlines, a block of INPUT_CHUNK bytes at a time, so that each
guard on the input bounds what is held of it as it is read.

Both read their input as the text it is, with no parse into codes: every
alphabet ascends by code point, so code-point order is letter order.
`transform` ranks its raw entries, and no entry is canonicalized on its
own; the transform's text is printed as it stands (`_transform_entries`).
Its checks keep the order of the entries: letters outside --alphabet and
primitivity in one C-level pass before any ranking, the Lyndon form from
the ranking itself, and an error quotes at most QUOTED_LETTERS letters of
an entry.  `invert` builds the standard permutation from its text and the
alphabet's letters (`bwt.inverse_text`), which refuses the first letter
outside --alphabet, and prints each Lyndon word's text as it is spelled.

Each call takes one mode and one input: argparse refuses a second mode of
`debruijn`, `semigroup` or `factors`, and the positional text with
--file; a handler refuses an option that its mode would not use
(`_refuse_with`).

`main` runs the steps that every call shares: it parses and checks the
argv text, resolves the call's guard once (`_guard`), and writes the
payload and lines that the subcommand's handler returns with one `_emit`.
Every alphabet, inferred or from --alphabet, is built by `_alphabet_from`,
which refuses a whitespace letter and an empty --alphabet.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import io
import os
import sys
from contextlib import nullcontext
from itertools import accumulate, chain, repeat
from operator import add, itemgetter, ne

# transform and inverse_transform are unused here; bench/tracing.py times
# them at cli.transform and cli.inverse_transform.
from .bwt import inverse_text, inverse_transform, transform, transform_text  # noqa: F401
from .debruijn import (
    DEFAULT_MAX_WORD_LENGTH,
    MAX_COUNT_DIGITS,
    GammaWord,
    check_alphabet_and_span,
    check_generation_guard,
    count_debruijn_words,
    debruijn_set_from_gamma,
    least_debruijn_word,
)
from .errors import NotLyndonError, ResourceLimitError
from .factors import (
    DEFAULT_FACTOR_LETTERS,
    DEFAULT_SCAN_WORDS,
    debruijn_factor_witness,
    distinct_factors,
    factor_ceiling,
    max_factors_exhaustive,
)
from .semigroups import (
    DEFAULT_CLOSURE_SIZE,
    TABLE_CELL_LIMIT,
    closure_order,
    closure_order_bound,
    generate_closure,
    letter_actions,
    letter_induced_isomorphic,
    syntactic_semigroup,
)
# lyndon_representative is unused here; bench/tracing.py times it at
# cli.lyndon_representative.
from .words import Alphabet, Word, is_primitive, lyndon_representative  # noqa: F401


class CLIError(ValueError):
    """Input error; reported on stderr with exit code 2, like the library's
    ValueErrors on input it is handed."""


# Bytes per read of --file or stdin; see _chunks.
INPUT_CHUNK = 1 << 16

# The most letters of an entry that an error message quotes; see _quoted.
QUOTED_LETTERS = 64


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


def _read_stripped(chunks, bound: int, refusal: str) -> str:
    """The text that `chunks` spell, stripped of whitespace at both ends.

    It is refused, with `refusal` and its count filled in, at the first
    chunk where it passes `bound` characters from the first non-whitespace
    one to the last, and nothing more is read but the next chunk.  The count
    is exact when there is none, as for the positional text, which comes
    whole; else it is "more than `bound`", as for --file and stdin, whose
    decoder gives a last chunk of its own.  Chunks are kept only until they
    hold more than `bound` characters, so memory stays within bound + one
    chunk however much whitespace follows.
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
        if length > bound:
            count = length if next(chunks, None) is None else f"more than {bound}"
            raise ResourceLimitError(refusal.format(count))
        if held <= bound:
            kept.append(chunk)
            held += len(chunk)
    return "".join(kept)[:length]


def _check_argv_text(args) -> None:
    """Hold each text given in argv, but not a path, to the strict UTF-8 of
    --file and stdin, with the message that --file gives for the same bytes.
    Python decodes argv with surrogateescape, so a byte that is not UTF-8
    arrives as a lone surrogate, which `os.fsencode` gives back."""
    for name in ("text", "word", "from_gamma", "alphabet"):
        text = getattr(args, name, None)
        if text and not text.isascii():
            try:
                setattr(args, name, os.fsencode(text).decode("utf-8"))
            except UnicodeDecodeError as e:
                raise CLIError(_decode_message(e, 0)) from None


def _alphabet_from(chars, override: str | None) -> Alphabet:
    """The alphabet that --alphabet fixes, else the sorted set of `chars`.

    A letter that `str.isspace` counts is an input error on every channel:
    `invert` strips its text and the line format splits on those characters,
    so a word or necklace that held one could not be read back.  An empty
    --alphabet is refused too, not taken as none.
    """
    if override == "":
        raise CLIError("--alphabet has no characters")
    if override and len(set(override)) != len(override):
        raise CLIError(f"--alphabet has repeated characters: {override!r}")
    letters = "".join(sorted(set(override or chars)))
    space = next(filter(str.isspace, letters), "")
    if space:
        where = f"--alphabet {override!r}" if override else "the input"
        raise CLIError(f"{where} holds the whitespace letter {space!r}")
    return Alphabet(letters)


def _parse_word(text: str, override: str | None) -> Word:
    if not text:
        raise CLIError("empty word")
    return _alphabet_from(text, override).word(text)


def _multiset_entries(chunks, guard: int) -> dict[str, int]:
    """Raw entry -> multiplicity of the multiset that `chunks` spell,
    refused by the output guard before any entry is checked.

    JSON (first non-whitespace character `{`) is read through
    `_read_stripped`, held to the bound of a line (see `_lines`), and
    refused by its length before it is parsed when it passes that bound.
    The line format is read a line at a time and refused at the first line
    where the running sum of length times multiplicity passes the guard, so
    it never holds more than the guard's worth of entries and one line; the
    lines after that one are not parsed.

    Both number lines from the first line of the input: the whitespace
    before the first other character is dropped as it is read, and only
    its line breaks are counted.
    """
    skipped, first = 0, ""  # line breaks before the first non-whitespace character
    for chunk in chunks:
        first = chunk.lstrip()
        skipped += _line_breaks(chunk[:len(chunk) - len(first)])
        if first:
            break
    if first.startswith("{"):
        longest = guard + INPUT_CHUNK
        text = _read_stripped(chain([first], chunks), longest, "transform JSON input has {} "
                              f"characters, over the {longest} that the guard {guard} allows")
        entries = _multiset_entries_from_json(text, skipped, guard)
        _check_letters("transform output needs",
                       sum(len(raw) * mult for raw, mult in entries.items()), guard)
        return entries
    return _multiset_entries_from_lines(_lines(chain([first], chunks), guard, skipped), guard)


# The characters where str.splitlines ends a line; "\r\n" ends one too.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _line_breaks(text: str) -> int:
    """The number of line breaks in `text`, as `str.splitlines` counts them."""
    return sum(map(text.count, _LINE_BREAKS)) - text.count("\r\n")


def _lines(chunks, guard: int, lineno: int = 0):
    """(number, text) of each line of the text that `chunks` spell, split
    as `str.splitlines` splits the whole text, each as soon as it ends; the
    first is numbered lineno + 1.

    A line of more than guard + INPUT_CHUNK characters before its line
    break, more than any line within the output guard needs, is refused as
    soon as it passes that length, so no more than that and one chunk of
    any line is held.  No "\r\n" straddles two chunks: `_chunks` gives the
    positional text whole and translates the newlines of --file and stdin.
    """
    longest = guard + INPUT_CHUNK
    head, held = [], 0
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


def _multiset_entries_from_lines(lines, guard: int) -> dict[str, int]:
    """Entries of numbered 'word' or 'word xN' lines, the first of them not
    blank."""
    entries: dict[str, int] = {}
    letters = 0
    for lineno, line in lines:
        parts = line.split()
        if len(parts) == 1:
            mult = 1
        elif (len(parts) == 2 and parts[1].startswith("x")
              and (digits := parts[1][1:]).isascii() and digits.isdigit()):
            mult = _multiplicity(digits, guard)
            if mult < 1:
                raise CLIError(f"line {lineno}: multiplicity must be positive")
        elif not parts:
            continue
        else:
            raise CLIError(f"line {lineno}: expected 'word' or 'word xN', got {line.strip()!r}")
        word = parts[0]
        entries[word] = entries.get(word, 0) + mult
        letters += len(word) * mult
        if letters > guard:
            _check_letters("transform output needs", letters, guard)
    return entries


def _multiplicity(digits: str, guard: int) -> int:
    """The int that decimal `digits` spell, refused by the guard before
    `int` reads them when they pass MAX_COUNT_DIGITS digits, leading zeros
    and a sign aside: so many letters pass any guard, and `int` would refuse
    them in CPython's words, or with that limit off take time quadratic in
    them.  Every integer of a JSON multiset is read by it."""
    digits = digits.lstrip("0") or "0"
    if len(digits.lstrip("-")) > MAX_COUNT_DIGITS:
        raise ResourceLimitError(f"transform multiplicity has more than {MAX_COUNT_DIGITS} "
                                 f"digits, over the guard {guard}")
    return int(digits)


def _multiset_entries_from_json(text: str, skipped: int, guard: int) -> dict[str, int]:
    """Entries of a JSON multiset that starts after `skipped` lines.

    An error's line is counted from `e.pos` by `_line_breaks`, the rule of
    the line format, not taken from `e.lineno`, which counts only "\n".
    """
    import json  # here, not at the top: only JSON input needs it

    try:
        payload = json.loads(text, parse_int=lambda digits: _multiplicity(digits, guard))
    except json.JSONDecodeError as e:
        line = skipped + _line_breaks(text[:e.pos]) + 1
        raise CLIError(f"line {line}: invalid JSON: {e.msg}") from e
    except RecursionError:
        raise CLIError("JSON multiset is nested too deeply to parse") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("necklaces"), list):
        raise CLIError('JSON multiset must be {"necklaces": [...]}')
    _refuse_unknown_keys("JSON multiset", payload, {"necklaces"})
    entries: dict[str, int] = {}
    for item in payload["necklaces"]:
        lyndon = item.get("lyndon") if isinstance(item, dict) else None
        if not isinstance(lyndon, str) or not lyndon:
            raise CLIError(f"JSON necklace entry needs a 'lyndon' field: {item!r}")
        _refuse_unknown_keys(f"JSON necklace entry {_quoted(lyndon)}", item,
                             {"lyndon", "multiplicity"})
        mult = item.get("multiplicity", 1)
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise CLIError(f"bad multiplicity for entry {_quoted(lyndon)}: {mult!r}")
        entries[lyndon] = entries.get(lyndon, 0) + mult
    return entries


def _refuse_unknown_keys(what: str, obj: dict, known: set) -> None:
    """Refuse a key that the JSON multiset format does not read, rather than
    drop what it says."""
    unknown = next((key for key in obj if key not in known), None)
    if unknown is not None:
        raise CLIError(f"{what} has the unknown key {unknown!r}")


def _transform_entries(entries: dict[str, int], override: str | None,
                       canonicalize: bool) -> str:
    """The transform, as text, of the multiset of the raw entries; with no
    entries, the empty text, --alphabet judged all the same.

    The entries go to `transform_text` as they stand, with no parse: every
    alphabet ascends by code point, so their code-point order is the letter
    order.  The alphabet is --alphabet, else the set of their letters, and
    the checks keep the order of the entries, each its letters, then its
    primitivity, then its Lyndon form:
    - `_checked_prefix` refuses the first entry with a letter outside
      --alphabet or that is not primitive, and only the entries before it
      are ranked, so no text outside the alphabet is ranked and a long
      periodic entry is refused before any doubling round;
    - without --canonicalize, the ranking checks the Lyndon form of each
      ranked entry, and the first that fails is refused before that entry.
    With --canonicalize, rotations of one necklace given as different lines
    are ranked apart and need no merge (see `transform_text`).
    """
    texts = list(entries)
    used = set("".join(texts))
    alphabet = _alphabet_from(used or "ab", override)
    ranked, refusal = _checked_prefix(texts, alphabet, used.difference(alphabet.letters))
    if refusal and canonicalize:  # no entry before it can fail
        raise refusal
    try:
        text = transform_text(ranked, list(entries.values())[:len(ranked)],
                              alphabet.letters[-1], lyndon=not canonicalize)
    except NotLyndonError as e:
        raw = ranked[e.index]
        canonical = (raw[e.start:] + raw[:e.start])[:QUOTED_LETTERS] + "..." * (
            len(raw) > QUOTED_LETTERS)
        raise CLIError(f"entry {_quoted(raw)} is not a Lyndon word (canonical form "
                       f"{canonical}); pass --canonicalize to accept rotations") from None
    if refusal:
        raise refusal
    return text


def _checked_prefix(texts: list[str], alphabet: Alphabet,
                    outside: set[str]) -> tuple[list[str], ValueError | None]:
    """(the entries before the first refused one, the error that refuses it,
    or None): the first entry that holds a letter of `outside`, the letters
    of the entries outside `alphabet`, with the alphabet's message naming
    its first such letter, else the first that is not primitive.

    Both checks run in C: only an entry that holds a letter outside is
    searched for it, and an entry t is a proper power exactly when it
    occurs in t + t before position len(t), which one `str.find` tells in
    linear time."""
    end, refusal = len(texts), None
    if outside:
        end = next(i for i, t in enumerate(texts) if not outside.isdisjoint(t))
        refusal = alphabet._unknown(next(filter(outside.__contains__, texts[end])))
    head = texts[:end]
    periods = list(map(str.find, map(add, head, head), head, repeat(1)))
    lengths = list(map(len, head))
    if periods != lengths:
        end = list(map(ne, periods, lengths)).index(True)
        refusal = CLIError(f"entry {_quoted(texts[end])} is not primitive")
    return texts[:end], refusal


def _quoted(raw: str) -> str:
    """An entry as an error message quotes it: its repr, or for an entry of
    more than QUOTED_LETTERS letters the repr of its first QUOTED_LETTERS,
    "..." and its length, so that a message stays short however long the
    entry."""
    if len(raw) <= QUOTED_LETTERS:
        return repr(raw)
    return f"{raw[:QUOTED_LETTERS]!r}... ({len(raw)} letters)"


def _render_each(alphabet: Alphabet, words) -> map:
    """The text of each of `words`, sequences of codes, from one `render`
    of their join cut at each word's end."""
    text = alphabet.render(chain.from_iterable(words))
    ends = list(accumulate(map(len, words)))
    return map(text.__getitem__, map(slice, [0] + ends, ends))


def _multiset_output(entries, as_json: bool) -> tuple[dict, list[str]]:
    """The JSON payload of a multiset's (Lyndon word, multiplicity) entries,
    the words as text, under --json, else its text lines; the other is left
    empty."""
    if as_json:
        return {"necklaces": [{"lyndon": lyndon, "multiplicity": mult}
                              for lyndon, mult in entries]}, []
    return {}, [lyndon if mult == 1 else f"{lyndon} x{mult}" for lyndon, mult in entries]


def _emit(as_json: bool, payload: dict, lines: list[str]) -> None:
    """Write the output in one piece, so that a text stdout cannot encode
    leaves it empty: each line ended by "\n", and nothing for no lines
    (`invert` of blank text).  One join over the lines and an empty last
    one builds it, with no copy of a line or of the joined text."""
    if as_json:
        import json  # here, not at the top: only --json output needs it

        lines = [json.dumps(payload, sort_keys=True)]
    sys.stdout.write("\n".join([*lines, ""]))


def _refuse_with(mode: str, option: str, given) -> None:
    """Refuse an option that `mode` would not use, before any work."""
    if given:
        raise CLIError(f"{option} is not allowed with {mode}")


def _check_letters(what: str, letters: int, guard: int) -> None:
    """Refuse, before any work, a word of more letters than the guard; a
    count of more than MAX_COUNT_DIGITS digits, which `str` would refuse, is
    written as a power of 10."""
    if letters > guard:
        if letters >= 10**MAX_COUNT_DIGITS:
            letters = f"at least 10^{MAX_COUNT_DIGITS}"
        raise ResourceLimitError(f"{what} {letters} letters, over the guard {guard}")


def _guard(args) -> int:
    """The guard of the call: --guard-cells, else the default of its
    subcommand, which for `factors` is the default of its mode."""
    if args.guard_cells:
        return args.guard_cells
    command = args.command
    if command == "factors":
        command += " --max" if args.max else " --witness" if args.witness else ""
    return {
        "transform": DEFAULT_MAX_WORD_LENGTH,
        "invert": DEFAULT_MAX_WORD_LENGTH,
        "debruijn": DEFAULT_MAX_WORD_LENGTH,
        "semigroup": DEFAULT_CLOSURE_SIZE,
        "factors": DEFAULT_FACTOR_LETTERS,
        "factors --max": DEFAULT_SCAN_WORDS,
        "factors --witness": DEFAULT_MAX_WORD_LENGTH,
    }[command]


# Each handler takes the parsed arguments and the guard of the call, and
# returns the JSON payload and the text lines of its output; `main` writes
# the one that --json picks, and `_multiset_output` builds only that one.
# Only `cmd_semigroup` writes a line of its own, its warning, to stderr.


def cmd_transform(args, guard: int) -> tuple[dict, list[str]]:
    entries = _multiset_entries(_chunks(args), guard)
    text = _transform_entries(entries, args.alphabet, args.canonicalize)
    return {"word": text}, [text]


def cmd_invert(args, guard: int) -> tuple[dict, list[str]]:
    text = _read_stripped(_chunks(args), guard,
                          f"invert input has {{}} letters, over the guard {guard}")
    # blank text has no necklaces, and --alphabet is judged as transform judges it
    alphabet = _alphabet_from(text or "ab", args.alphabet)
    return _multiset_output(zip(*inverse_text(text, alphabet.letters)), args.json)


def cmd_debruijn(args, guard: int) -> tuple[dict, list[str]]:
    k, n = args.k, args.n
    check_alphabet_and_span(k, n)  # before --count refuses --alphabet
    if args.count:
        _refuse_with("--count", "--alphabet", args.alphabet is not None)
        total = count_debruijn_words(k, n)
        return {"count": total}, [str(total)]
    check_generation_guard(k, n, guard)  # over the guard is exit 3 before the word or --alphabet
    if args.from_gamma is not None:
        word = _parse_word(args.from_gamma, args.alphabet)
        if word.alphabet.size != k:
            raise CLIError(
                f"word uses {word.alphabet.size} letters, expected {k}"
            )
        m = debruijn_set_from_gamma(GammaWord(word, n))
        lyndons = _render_each(m.alphabet, [necklace.lyndon.codes for necklace, _ in m.entries])
        return _multiset_output(zip(lyndons, map(itemgetter(1), m.entries)), args.json)
    alphabet = _alphabet_from(args.alphabet, args.alphabet) if args.alphabet is not None else None
    if alphabet and alphabet.size != k:
        raise CLIError(f"--alphabet needs {k} characters, got {alphabet.size}")
    rendered = str(least_debruijn_word(k, n, max_length=guard, alphabet=alphabet))
    return {"word": rendered}, [rendered]


def cmd_semigroup(args, guard: int) -> tuple[dict, list[str]]:
    word = _parse_word(args.word, args.alphabet)
    primitive = is_primitive(word)
    if not (primitive or args.syntactic):  # the action needs a primitive word
        raise CLIError(f"word is not primitive: {word}")
    table = args.table
    _refuse_with("--check-iso", "--table", args.check_iso and table)
    # Refuse before building any closure, with the message that each would
    # end in.  The exact order, in closed form, is computed where it is
    # printed with no closure built, and where a guard may refuse it: where
    # the bound `closure_order_bound` passes the closure guard, or with
    # --table, where its square passes the table's.  Elsewhere the bound
    # admits the call, and it prints the orders of the closures it builds.
    bound = closure_order_bound(word)
    if not (args.check_iso or table) or bound > guard or (table and bound**2 > TABLE_CELL_LIMIT):
        order = closure_order(word, guard)
        if table and order**2 > TABLE_CELL_LIMIT:
            raise ResourceLimitError(f"multiplication table of order {order} needs {order**2} "
                                     f"cells, over the {TABLE_CELL_LIMIT}-cell guard")
    if args.check_iso:
        action = generate_closure(letter_actions(word), max_size=guard)
        syntactic = syntactic_semigroup(word, max_size=guard)
        verdict = letter_induced_isomorphic(action, syntactic)
        payload = {"action_order": action.order, "syntactic_order": syntactic.order,
                   "isomorphic": verdict}
        return payload, [f"action order {action.order}", f"syntactic order {syntactic.order}",
                         "ISOMORPHIC" if verdict else "NOT ISOMORPHIC"]
    if table:
        # One closure prints every table, in both modes.  On a primitive word
        # the closure of the letter actions is letter-isomorphic to the
        # syntactic semigroup (the paper's theorem, which --check-iso tests),
        # and `_close` numbers both in the same breadth-first order over
        # generator words, so their labels and cells agree: over every
        # primitive word of up to 8 letters over 1-3 letters, with and
        # without --alphabet abcd, the two tables matched byte for byte and
        # took the same time.  So only --check-iso closes the letter actions.
        sg = syntactic_semigroup(word, max_size=guard)
        order = sg.order
    name = "action" if args.action else "syntactic"
    letters = word.alphabet.letters  # both routes give each a generator
    payload = {f"{name}_order": order, "generators": list(letters)}
    lines = [f"{name} order {order}", "generators " + " ".join(letters)]
    if table:  # the table goes only into the output that is printed
        labels = list(_render_each(word.alphabet, sg.element_words))
        if args.json:
            payload["elements"] = labels
            payload["table"] = sg.table
        else:
            width = max(len(label) for label in labels)
            padded = [label.rjust(width) for label in labels]
            lines.append("*".rjust(width) + " " + " ".join(padded))
            for label, row in zip(padded, sg.table):
                lines.append(label + " " + " ".join(map(padded.__getitem__, row)))
    if not primitive:  # written last, after every refusal
        print(f"warning: {word} is not primitive; the action comparison theorem "
              "assumes a primitive word", file=sys.stderr)
    return payload, lines


def cmd_factors(args, guard: int) -> tuple[dict, list[str]]:
    if args.max is not None:
        _refuse_with("--max", "--alphabet", args.alphabet is not None)
        n, k = args.max
        best, witness = max_factors_exhaustive(n, k, max_words=guard)
        payload = {
            "n": n,
            "k": k,
            "max_distinct": best,
            "upper_bound": factor_ceiling(n, k),
            "witness": str(witness),
        }
        return payload, [f"{key} {payload[key]}"
                         for key in ("n", "max_distinct", "upper_bound", "witness")]
    if args.witness is not None:
        _refuse_with("--witness", "--alphabet", args.alphabet is not None)
        n, k = args.witness
        result = debruijn_factor_witness(n, k, max_length=guard)
        payload = {
            "n": n,
            "k": k,
            "span": result.span,
            "witness": str(result.word),
            "distinct_factors": result.distinct_count,
            "lower_bound": result.lower_bound,
        }
        return payload, [f"{key} {payload[key]}"
                         for key in ("witness", "span", "distinct_factors", "lower_bound")]
    _check_letters("factors input has", len(args.word), guard)
    count = distinct_factors(_parse_word(args.word, args.alphabet))
    return {"distinct_factors": count}, [str(count)]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    if value > sys.maxsize:  # past what a sequence can be indexed by
        raise argparse.ArgumentTypeError(f"must be at most {sys.maxsize}, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """An `ArgumentParser` whose help text is written or raises, so that
    `entry` reports a failed write of it as of any other output: argparse's
    own `print_help` drops an `OSError` of its write, and `ebwt --help >
    /dev/full` would exit 0 with nothing written.  The subparsers are built
    from this class too (argparse's default `parser_class`)."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
    common.add_argument("--alphabet", metavar="CHARS",
                        help="fix the alphabet (characters in code-point order)")
    common.add_argument("--guard-cells", metavar="N", type=_positive_int, dest="guard_cells",
                        help="override the subcommand's resource guard")

    parser = _Parser(
        prog="ebwt",
        description="Extended Burrows-Wheeler transform of necklace multisets, "
                    "de Bruijn word generation, necklace semigroups, and "
                    "distinct-factor bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", parents=[common],
                       help="multiset of Lyndon words -> transformed word")
    source = p.add_mutually_exclusive_group()
    source.add_argument("text", nargs="?", help="multiset: lines of 'word [xN]' or JSON")
    source.add_argument("--file", help="read the multiset from a file")
    p.add_argument("--canonicalize", action="store_true",
                   help="accept primitive non-Lyndon entries, canonicalizing them")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("invert", parents=[common],
                       help="word -> multiset of Lyndon words")
    source = p.add_mutually_exclusive_group()
    source.add_argument("text", nargs="?", help="the word to invert")
    source.add_argument("--file", help="read the word from a file")
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

    # argparse would list the three modes as if each were optional
    p = sub.add_parser("factors", parents=[common], help="distinct-factor counts and bounds",
                       usage="%(prog)s [-h] [--json] [--alphabet CHARS] [--guard-cells N]\n"
                             "                    (WORD | --max N K | --witness N K)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("word", nargs="?", help="count distinct factors of this word")
    mode.add_argument("--max", nargs=2, type=int, metavar=("N", "K"),
                      help="exhaustive maximum over all k-ary words of length n")
    mode.add_argument("--witness", nargs=2, type=int, metavar=("N", "K"),
                      help="de Bruijn prefix witness with its quadratic floor")
    p.set_defaults(func=cmd_factors)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        _check_argv_text(args)
        _emit(args.json, *args.func(args, _guard(args)))
        return 0
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ResourceLimitError, MemoryError) as e:  # a bare MemoryError has no message
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except OSError as e:
        # Writing the output failed: `main` turns every error of reading
        # into an input error.  A reader that closed stdout early (`ebwt ...
        # | head`) wants no message; any other failure (`ebwt ... >
        # /dev/full`) gets one line.  Point stdout at devnull so the
        # interpreter's final flush cannot raise again.
        if not isinstance(e, BrokenPipeError):
            print(f"error: cannot write the output: {e.strerror or e}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
