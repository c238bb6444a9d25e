"""Exception types shared across the safereq package."""

from __future__ import annotations


class SafereqError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Architecture ingestion
# ---------------------------------------------------------------------------


class EmptyModelError(SafereqError):
    """The model text contained no parsable sentences or elements."""


class UnresolvedNameError(SafereqError):
    """A relation endpoint never resolved to a declared thing."""

    def __init__(self, names: list[str]):
        self.names = list(names)
        super().__init__("unresolved names: " + ", ".join(sorted(set(self.names))))


class MalformedXmlError(SafereqError):
    """The XMI document could not be parsed as XML."""


class NoPrimarySystemError(SafereqError):
    """No primary system could be determined (empty or cyclic containment)."""


class SchemaViolationError(SafereqError):
    """A structured payload did not match the expected shape."""


# ---------------------------------------------------------------------------
# Requirements store
# ---------------------------------------------------------------------------


class MissingColumnError(SafereqError):
    """A required column is absent from the CSV header."""


class DuplicateReqIdError(SafereqError):
    """Two rows share a requirement id."""

    def __init__(self, req_id: str, first_row: int, second_row: int):
        self.req_id = req_id
        self.first_row = first_row
        self.second_row = second_row
        super().__init__(
            f"duplicate req_id {req_id!r} at rows {first_row} and {second_row}"
        )


class EmptyDatasetError(SafereqError):
    """The CSV contained a header but no data rows."""


class EmptyRequirementTextError(SafereqError):
    """One or more rows have blank requirement text."""

    def __init__(self, rows: list[int]):
        self.rows = list(rows)
        super().__init__(
            "blank requirement text at rows: " + ", ".join(str(r) for r in self.rows)
        )


class BlankReqIdError(SafereqError):
    """One or more rows have a blank requirement id."""

    def __init__(self, rows: list[int]):
        self.rows = list(rows)
        super().__init__("blank req_id at rows: " + ", ".join(str(r) for r in self.rows))


class SelfPairError(SafereqError):
    """One or more gold pair rows pair a requirement with itself."""

    def __init__(self, rows: list[int]):
        self.rows = list(rows)
        super().__init__(
            "gold pair of a requirement with itself at rows: "
            + ", ".join(str(r) for r in self.rows)
        )


class MalformedCsvError(SafereqError):
    """A CSV file is not UTF-8, or the csv module cannot read one of its rows."""


class InvalidChunkSizeError(SafereqError):
    """chunk_size must be a positive integer."""


# ---------------------------------------------------------------------------
# LLM gateway
# ---------------------------------------------------------------------------


class TransportError(SafereqError):
    """The backend was unreachable after all retry attempts."""

    def __init__(self, message: str, attempts: int = 1):
        self.attempts = attempts
        self.base_message = message
        super().__init__(f"{message} (after {attempts} attempt(s))")


class RateLimitedError(SafereqError):
    """The backend kept answering 429 past the retry budget.

    retry_after holds the seconds the backend asked to wait (its
    Retry-After header), or None when it named none.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        self.retry_after = retry_after
        super().__init__(message)


class NotFixturedError(SafereqError):
    """The mock backend has no fixture or rule for this prompt."""

    def __init__(self, prompt_sha: str):
        self.prompt_sha = prompt_sha
        super().__init__(f"no fixture matches prompt sha256 {prompt_sha}")


class AuthMissingError(SafereqError):
    """No API key could be found in the key file or environment."""


class NoJsonFoundError(SafereqError):
    """The response text contains no JSON value."""


class MissingResultsRootError(SafereqError):
    """The response JSON has no 'results' root key."""


class ChunkTooLargeError(SafereqError):
    """The backend rejected the request for being too long."""


# ---------------------------------------------------------------------------
# Task orchestration
# ---------------------------------------------------------------------------


class InvalidConfigError(SafereqError):
    """A task block failed validation.

    Carries per-field messages as (task, field, message) tuples.
    """

    def __init__(self, problems: list[tuple[str, str, str]]):
        self.problems = list(problems)
        lines = [f"{task}.{field}: {msg}" for task, field, msg in self.problems]
        super().__init__("invalid configuration: " + "; ".join(lines))


class MalformedJsonError(SafereqError):
    """A config or resources file is not UTF-8 JSON, or repeats a key in one object."""


class UnknownAnalysisFunctionError(SafereqError):
    """A task names an analysis function that is not registered."""


class UndecodableFileError(SafereqError):
    """A text file the pipeline reads (instructions, fixture, key) is not UTF-8."""


class MalformedRawFileError(SafereqError):
    """A task's raw output file does not hold the payload the task writes."""


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


class MismatchedIdSetsError(SafereqError):
    """Rows that must cover the same requirement ids, in stability runs or
    in a raw file read back for its input, do not."""


class AliasClosureViolationError(SafereqError):
    """A classified row references a function alias outside the catalog."""


class EmptyGoldError(SafereqError):
    """A gold pair set is empty, so no rate can be computed."""


class FindingConflictError(SafereqError):
    """The same requirement pair carries two different finding kinds."""

    def __init__(self, pairs: list[tuple[str, str]]):
        self.pairs = list(pairs)
        shown = ", ".join(f"({a}, {b})" for a, b in self.pairs)
        super().__init__(f"pairs with conflicting finding kinds: {shown}")
