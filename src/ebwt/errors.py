"""Exception types shared across the package, the rule by which an error
message quotes a text of its input, and the one wording of a letter outside
an alphabet."""

# The most characters of an input text that an error message quotes; see quoted.
QUOTED_LETTERS = 64


def quoted(raw: str, show=repr, unit: str = "letters") -> str:
    """A text of the input as an error message quotes it: `show(raw)`, or
    for a text of more than QUOTED_LETTERS characters `show` of its first
    QUOTED_LETTERS, "..." and its length, so that a message stays short
    however long the text.  An entry, a line, a key or an alphabet is shown
    by its repr, a word as it is written (`show=str`)."""
    if len(raw) <= QUOTED_LETTERS:
        return show(raw)
    return f"{show(raw[:QUOTED_LETTERS])}... ({len(raw)} {unit})"


def unknown_letter(char: str, letters: str) -> ValueError:
    """The error that refuses `char`, a character outside the alphabet of
    `letters`: every module that finds such a character words it here."""
    return ValueError(f"character {char!r} not in alphabet {quoted(letters)}")


class NotPrimitiveError(ValueError):
    """Raised when an operation that requires a primitive word gets a power.

    Carries the word's root so callers can decide to canonicalize explicitly.
    """

    def __init__(self, message, root):
        super().__init__(message)
        self.root = root


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed its configured resource guard."""


class NotLyndonError(ValueError):
    """Raised when a text that must be a Lyndon word is another rotation of
    its necklace.

    Carries the text's index among those given and the start of its least
    rotation, so that callers can name the canonical form.
    """

    def __init__(self, message, index, start):
        super().__init__(message)
        self.index = index
        self.start = start
