"""Exception types shared across the package."""


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
