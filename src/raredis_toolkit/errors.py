"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class DocumentError(ToolkitError):
    """A corpus document the library cannot take. Carries its doc id, the
    reason, for an error at one .ann line its 1-based line number, and the
    suffix of the file of the pair it is about: ".ann" or ".txt"."""

    def __init__(self, doc_id: str, reason: str, line_no: int | None = None, suffix: str = ".ann"):
        self.doc_id = doc_id
        self.reason = reason
        self.line_no = line_no
        self.suffix = suffix
        super().__init__(doc_id, reason, line_no, suffix)

    def located(self, name: str) -> str:
        """The message with `name` for the document: `<name>[:<line>]: <reason>`."""
        line = "" if self.line_no is None else f":{self.line_no}"
        return f"{name}{line}: {self.reason}"

    def __str__(self) -> str:
        return self.located(self.doc_id)


class StandoffParseError(DocumentError):
    """A .ann line could not be parsed."""


class RepairError(DocumentError):
    """A document defect falls outside the supported repair rules."""


class FlattenError(DocumentError):
    """A discontinuous entity cannot be rewritten without guessing."""


class SplitError(ToolkitError):
    """A corpus split specification is invalid or does not cover the corpus."""
