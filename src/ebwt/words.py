"""Alphabets, words, necklaces, and the basic combinatorics on them.

Words are tuples of contiguous integer codes 0..k-1 over an ordered alphabet;
display characters exist only at the rendering boundary.  Code order is the
lexicographic letter order, so comparing code tuples compares rendered words.

This module is the one home of the letter rule.  `LetterTable` maps each
letter's ordinal to its code for `str.translate` and refuses the first
character outside the letters with `errors.unknown_letter`; `Alphabet.word`
and `Alphabet.code` read one cached table, and `factors.distinct_factors`
builds one over its letters.  The codec between code tuples and code text,
text whose code points are the codes (`code_text`, `text_codes`), lives
here too; `bwt`, `debruijn` and `factors` import it.

The package's immutable records (`Alphabet`, `Word`, `Necklace` here, and
one or more in each other module) derive from `Value`.  Its fields are the
names annotated in the class body, passed positionally; two records are
equal when they have the same class and equal fields, the hash follows the
fields, assigning or deleting a field raises AttributeError, the repr reads
`Class(field=value, ...)`, and a class's `__post_init__` checks the fields
after construction.  A record may have any number of fields.  Every record
class has `Class.unchecked(*fields)`, which builds the record without that
check, for callers that have proved the fields valid; each such call says
why in its docstring.  Both builds fill the fields through one helper,
`Value._fill`, which refuses a wrong number of fields with the same
TypeError.  Records belong at the library's boundary: `transform`,
`invert`, `debruijn --from-gamma` and `debruijn --least` read and print
text, with no record per necklace, so a CLI call builds only a few.

`Value` stands in for frozen `dataclasses`, which made up most of the CLI's
start-up: importing `dataclasses` pulls in `inspect`, `ast`, `dis` and
`tokenize` (9-16 ms on a 2-CPU container, CPython 3.11), and decorating
the ten classes took about 10 ms more.  Equality and the hash read the
fields through one `operator.attrgetter` per class, in C.
"""

from __future__ import annotations

import sys
from functools import cached_property
from itertools import islice
from math import gcd
from operator import attrgetter, itemgetter
from struct import pack, unpack  # loaded with the interpreter, unlike `array`

from .errors import NotPrimitiveError, unknown_letter

LOWERCASE = "abcdefghijklmnopqrstuvwxyz"

# Codes that `Alphabet.render` gathers at a time.
RENDER_CHUNK = 1 << 16

# Sets a field past Value.__setattr__.  Unlike a write through `__dict__`,
# it keeps the fields in CPython's compact instance layout, which is read
# faster and takes less memory.
_setattr = object.__setattr__

# The codec of the bytes of a `struct` "I", 4 to an item in native order.
_UTF32 = f"utf-32-{sys.byteorder[0]}e"

# Return values of omega_compare.
LESS = -1
EQUAL = 0
GREATER = 1


class Value:
    """An immutable record whose fields are its class's annotated names (see
    the module docstring)."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._get_fields = attrgetter(*cls._fields)

    def __init__(self, *values):
        self._fill(values)
        self.__post_init__()

    @classmethod
    def unchecked(cls, *values):
        """The record of these fields, without `__post_init__`'s check: only
        for fields the caller has proved valid."""
        self = object.__new__(cls)
        self._fill(values)
        return self

    def _fill(self, values: tuple) -> None:
        """Set the fields to `values`, refusing a wrong number of them."""
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, "
                            f"got {len(values)}")
        for name, value in zip(fields, values):
            _setattr(self, name, value)

    def __post_init__(self):
        """Check the fields; a class with constraints overrides this."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._get_fields(self) == self._get_fields(other)

    def __hash__(self):
        return hash(self._get_fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet(Value):
    """An ordered alphabet: code i renders as ``letters[i]``.

    ``letters`` must be strictly increasing so that code order, rendered
    lexicographic order, and CLI code-point order all agree.
    """

    letters: str

    def __post_init__(self):
        if not self.letters:
            raise ValueError("alphabet needs at least one letter")
        if any(a >= b for a, b in zip(self.letters, self.letters[1:])):
            raise ValueError(f"alphabet letters must be strictly increasing: {self.letters!r}")

    @property
    def size(self) -> int:
        return len(self.letters)

    @cached_property
    def _table(self) -> LetterTable:
        return LetterTable(self.letters)

    def code(self, char: str) -> int:
        """The code of the letter `char`; anything else, "" or a longer
        text included, raises `unknown_letter`'s ValueError."""
        if len(char) != 1:
            raise unknown_letter(char, self.letters)
        return self._table[ord(char)]

    def word(self, text: str) -> Word:
        """Parse a rendered string into a Word over this alphabet.

        This is where outside text is checked: one `str.translate` through
        the alphabet's `LetterTable` spells the text in codes, refusing the
        first character outside the alphabet, and one `text_codes` reads
        them.  The table numbers the letters 0..k-1, so the word is built
        without `Word`'s range check.
        """
        return Word.unchecked(self, text_codes(text.translate(self._table)))

    @cached_property
    def _letters(self) -> list[str]:
        return list(self.letters)

    def render(self, codes) -> str:
        """The letters of `codes`, codes of this alphabet, as one string.

        `codes` is any iterable, and is read RENDER_CHUNK codes at a time.
        Each chunk's letters are taken from `_letters`, whose items are
        shared (indexing the str `letters` builds a new one-letter string
        per code past Latin-1), by one C-level gather,
        `itemgetter(*chunk)`, and joined; the pieces are joined in turn.  A
        one-code chunk gathers the bare letter, a one-character string,
        which joins as itself.

        A join over a `map` of `_letters.__getitem__` built a list of the
        letters first, 8 bytes a code; the gather holds one chunk of them.
        Rendering a tuple of 2^20 random codes over `ab` peaks at 2.0 bytes
        a code, the output's 1.0 included, against 9.1 for that join, and
        takes 26 ns a code over `abcd`, 23 over 60 Latin-1 letters and 28
        over 1,000 CJK letters, against 28, 25 and 29 (CPython 3.11.7 on a
        2-CPU container).
        """
        letters, codes = self._letters, iter(codes)
        pieces = []
        while chunk := tuple(islice(codes, RENDER_CHUNK)):
            pieces.append("".join(itemgetter(*chunk)(letters)))
        return "".join(pieces)


class LetterTable(dict):
    """Ordinal -> code of each of `letters`, in their order, for
    `str.translate`, which looks up each character of its text in turn: one
    outside the letters raises `unknown_letter`'s ValueError, where a plain
    dict would leave it as it is.  The letters need not be in increasing
    order."""

    def __init__(self, letters: str):
        super().__init__(zip(map(ord, letters), range(len(letters))))
        self.letters = letters

    def __missing__(self, key: int):
        raise unknown_letter(chr(key), self.letters)


def code_text(codes) -> str:
    """The text whose code points are `codes`, a sized sequence of ints
    below 0x110000: one C-level `struct` call packs their native 4-byte
    form, which UTF-32 decodes; lone surrogates pass."""
    return pack(f"{len(codes)}I", *codes).decode(_UTF32, "surrogatepass")


def text_codes(text: str) -> tuple[int, ...]:
    """The code points of `text`, as `code_text` writes them: its UTF-32
    bytes unpacked by one C-level `struct` call, which builds the tuple."""
    return unpack(f"{len(text)}I", text.encode(_UTF32, "surrogatepass"))


def default_alphabet(k: int) -> Alphabet:
    """The k-letter alphabet a < b < c < ... used for generated words."""
    if not 1 <= k <= len(LOWERCASE):
        raise ValueError(f"default alphabet supports 1..{len(LOWERCASE)} letters, got {k}")
    return Alphabet(LOWERCASE[:k])


class Word(Value):
    """An immutable word: integer codes over a fixed alphabet.

    Construction checks that every code lies in 0..k-1, by one `min` and one
    `max` over the codes; a failure names the first code out of range and
    its position, not the whole tuple.
    """

    alphabet: Alphabet
    codes: tuple[int, ...]

    def __post_init__(self):
        k = self.alphabet.size
        codes = self.codes
        if codes and (min(codes) < 0 or max(codes) >= k):
            i, code = next((i, c) for i, c in enumerate(codes) if not 0 <= c < k)
            raise ValueError(f"code {code} at position {i} out of range for {k}-letter alphabet")

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return iter(self.codes)

    def __getitem__(self, i) -> int:
        return self.codes[i]

    def __str__(self) -> str:
        return self.alphabet.render(self.codes)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def _check_comparable(self, other: Word):
        if self.alphabet != other.alphabet:
            raise ValueError("cannot compare words over different alphabets")

    def __lt__(self, other: Word) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        self._check_comparable(other)
        return self.codes < other.codes

    def __le__(self, other: Word) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        self._check_comparable(other)
        return self.codes <= other.codes


def _require_nonempty(w: Word, what: str):
    if len(w) == 0:
        raise ValueError(f"{what} is undefined for the empty word")


def conjugate_shift(w: Word) -> Word:
    """Move the first letter to the end: au -> ua."""
    _require_nonempty(w, "conjugate shift")
    return Word(w.alphabet, w.codes[1:] + w.codes[:1])


def prefix_function(codes) -> list[int]:
    """Longest proper border length per prefix (the classic failure table)."""
    pi = [0] * len(codes)
    j = 0
    for i in range(1, len(codes)):
        while j and codes[i] != codes[j]:
            j = pi[j - 1]
        if codes[i] == codes[j]:
            j += 1
        pi[i] = j
    return pi


def root(w: Word) -> Word:
    """The shortest r with w = r^t; primitive, and |r| divides |w|."""
    _require_nonempty(w, "root")
    n = len(w)
    p = n - prefix_function(w.codes)[n - 1]
    if n % p == 0:
        return Word(w.alphabet, w.codes[:p])
    return w


def is_primitive(w: Word) -> bool:
    """True iff w is not a proper power of a shorter word."""
    _require_nonempty(w, "root")
    return least_rotation_start(w.codes) is not None


def has_border(w: Word) -> bool:
    """True iff some proper nonempty word is both prefix and suffix of w."""
    _require_nonempty(w, "border")
    return prefix_function(w.codes)[len(w) - 1] > 0


def least_rotation_start(codes) -> int | None:
    """Start of the least rotation of a nonempty code sequence, or None when
    the sequence is a proper power: one scan answers both questions.

    Two starts i < j are compared letter by letter along the doubled
    sequence.  At the first mismatch, at offset k, rotation i + t and rotation
    j + t differ first at that same letter for every t <= k, so the k + 1
    starts on the larger side each lose to a rotation and are dropped: j
    moves past j..j+k, or i takes j and j moves past both j and i..i+k.
    Hence a start of a least rotation is always i or at least j.  When j
    passes the end, i is the only start of a least rotation in 0..n-1; a
    proper power repeats its least rotation, so the sequence is primitive.
    When k reaches n, the distinct rotations i and j are equal, so shifting
    by j - i fixes the sequence, which then has a period properly dividing n
    and is a proper power.  Each mismatch adds k + 1 to i + j < 2n, so the
    scan makes O(n) comparisons.
    """
    n = len(codes)
    s = codes + codes
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
        elif a < b:
            j += k + 1
            k = 0
        else:
            i, j = j, max(j + 1, i + k + 1)
            k = 0
    return i if k < n else None


class Necklace(Value):
    """A conjugacy class of a primitive word, held by its Lyndon rotation.

    `Necklace(word)` checks, in one `least_rotation_start` scan, that the
    word is primitive and its own least rotation.  `Necklace.unchecked(word)`
    skips both checks, for the callers that have just proved them:
    `lyndon_representative` and the cycles of a standard permutation (see
    `bwt.inverse_transform`).
    """

    lyndon: Word

    def __post_init__(self):
        w = self.lyndon
        _require_nonempty(w, "root")
        start = least_rotation_start(w.codes)
        if start is None:
            raise NotPrimitiveError(f"necklace word must be primitive: {w}", root(w))
        if start != 0:
            raise ValueError(f"necklace representative is not the least rotation: {w}")

    def __len__(self) -> int:
        return len(self.lyndon)

    def __str__(self) -> str:
        return str(self.lyndon)

    def __repr__(self) -> str:
        return f"Necklace({str(self)!r})"

    @property
    def alphabet(self) -> Alphabet:
        return self.lyndon.alphabet


def lyndon_representative(w: Word) -> Necklace:
    """The necklace of a primitive word, canonicalized to its least rotation.

    Raises NotPrimitiveError (carrying root(w)) on a proper power: taking the
    root is the caller's decision, never an implicit one.  One scan checks
    primitivity and finds the least rotation, so the necklace is built
    without `Necklace`'s check of both, and its word, w itself when that
    rotation starts at 0 and else a rotation of w's codes, without `Word`'s
    range check.
    """
    _require_nonempty(w, "necklace")
    i = least_rotation_start(w.codes)
    if i is None:
        raise NotPrimitiveError(f"word is not primitive: {w}", root(w))
    if i:
        w = Word.unchecked(w.alphabet, w.codes[i:] + w.codes[:i])
    return Necklace.unchecked(w)


def omega_compare(u: Word, v: Word) -> int:
    """Order of the infinite powers u^omega vs v^omega: LESS, EQUAL or GREATER.

    By the Fine-Wilf periodicity theorem it suffices to compare prefixes of
    length |u| + |v| - gcd(|u|, |v|); EQUAL happens iff root(u) = root(v).
    """
    _require_nonempty(u, "omega comparison")
    _require_nonempty(v, "omega comparison")
    u._check_comparable(v)
    a, b = u.codes, v.codes
    la, lb = len(a), len(b)
    for i in range(la + lb - gcd(la, lb)):
        ca, cb = a[i % la], b[i % lb]
        if ca != cb:
            return LESS if ca < cb else GREATER
    return EQUAL

