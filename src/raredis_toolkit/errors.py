"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class StandoffParseError(ToolkitError):
    """A .ann line could not be parsed. Carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str, doc_id: str = ""):
        self.line_no = line_no
        self.reason = reason
        self.doc_id = doc_id
        where = f"{doc_id}:" if doc_id else "line "
        super().__init__(f"{where}{line_no}: {reason}")


class DocumentError(ToolkitError):
    """A corpus document the library cannot take. Carries its doc id and the reason."""

    def __init__(self, doc_id: str, reason: str):
        self.doc_id = doc_id
        self.reason = reason
        super().__init__(doc_id, reason)

    def __str__(self) -> str:
        return f"{self.doc_id}: {self.reason}"


class RepairError(DocumentError):
    """A document defect falls outside the supported repair rules."""


class FlattenError(DocumentError):
    """A discontinuous entity cannot be rewritten without guessing."""


class SplitError(ToolkitError):
    """A corpus split specification is invalid or does not cover the corpus."""
