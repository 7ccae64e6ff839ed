"""Exception hierarchy for rogetsim."""


class RogetError(Exception):
    """Base class for all rogetsim errors."""


class ParseError(RogetError):
    """A document violates the interchange format.

    Carries the 1-based line and column of the offending record.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "line %d, column %d: %s" % (line, column or 1, message)
        super().__init__(message)


class GutenbergImportError(RogetError):
    """The input cannot be recognized as a 1911 Roget's plain text."""


class InvalidNodeError(RogetError):
    """A node id is not in the thesaurus, or a node cannot be in one."""


class InvalidReferenceError(RogetError):
    """A reference is not in the thesaurus, or cannot be in one."""


class WordNotFoundError(RogetError):
    """One or more words are absent from the thesaurus index."""

    def __init__(self, words):
        self.words = list(words)
        super().__init__("not found: %s" % ", ".join(self.words))


class ReportError(RogetError):
    """A report cannot be produced (e.g. empty question list)."""


class CorrelationUndefinedError(ReportError):
    """Pearson correlation is undefined for the given vectors."""
