"""Exception types shared across the package."""


class RedhypError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RedhypError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class DanglingReferenceError(DomainError):
    """A map refers to an index, class, or vertex that does not exist.

    Distinct from an *invalid* map, whose references all resolve but
    whose conditions fail.
    """


class ParseError(RedhypError, ValueError):
    """A text input is malformed.  Carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CapExceeded(RedhypError, RuntimeError):
    """An exhaustive enumeration would exceed its configured cap.

    Raised instead of silently truncating the search.
    """


class RowPreparationError(RedhypError, RuntimeError):
    """A row-preparation step failed; names the sub-step that broke."""

    def __init__(self, step: str, reason: str):
        super().__init__(f"{step}: {reason}")
        self.step = step
        self.reason = reason


class SelfCheckError(RuntimeError):
    """One of the program's own consistency checks failed.

    This is a defect of the program, not of its input, so it is not a
    RedhypError: handlers of input and resource errors do not catch it.
    """
